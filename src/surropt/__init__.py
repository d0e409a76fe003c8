"""Surrogate-driven global optimization.

Approximates the nonlinear constraints of a bounded (MI)NLP with trained,
MILP-representable machine-learning models, solves the resulting
mixed-integer linear approximation over a robustness/relaxation grid, and
refines the incumbent with projected gradient descent.
"""

from .benchmarks import generate_quadratic_sigmoid
from .driver import RunConfig, RunReport, solve_global
from .encoder import RelaxConfig, RobustConfig, assemble
from .expr import load_problem, parse_expr
from .model import Problem, StandardProblem, standardize

__all__ = [
    "Problem",
    "RelaxConfig",
    "RobustConfig",
    "RunConfig",
    "RunReport",
    "StandardProblem",
    "assemble",
    "generate_quadratic_sigmoid",
    "load_problem",
    "parse_expr",
    "solve_global",
    "standardize",
]
