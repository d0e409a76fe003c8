"""Built-in benchmark problems.

The two-variable log-constrained instance has its global optimum at the
crossing of the second nonlinear constraint with the steeper linear row,
at x = (1.14996, 0.87506) with objective -1.14996. The gearbox design
instance is the classic seven-variable speed reducer with one integer
variable; its best known objective is 2994.36. ``generate_quadratic_sigmoid``
draws random black-box instances with sigmoid-of-quadratic constraints.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr
from .model import LinearObjective, NonlinearConstraint, Problem, VarSpec

ILLUSTRATIVE_DOC = {
    "schema": 1,
    "name": "illustrative",
    "variables": [
        {"name": "x1", "lower": 0.51, "upper": 1.5},
        {"name": "x2", "lower": 0.3, "upper": 1.6},
    ],
    "objective": {"expression": "-x1"},
    "constraints": [
        {"name": "g1", "expression": "-0.43*ln(x1-0.5)-1.1-x1+x2", "sense": "<=0"},
        {"name": "g2", "expression": "-x2+0.33*ln(x1-0.4)+1.2-0.2*x1", "sense": "<=0"},
        {"name": "g3", "expression": "-x2+1.1*x1+0.3", "sense": ">=0"},
        {"name": "g4", "expression": "-x2-1.5*x1+2.6", "sense": ">=0"},
    ],
}

SPEED_REDUCER_DOC = {
    "schema": 1,
    "name": "speed-reducer",
    "variables": [
        {"name": "x1", "lower": 2.6, "upper": 3.6},
        {"name": "x2", "lower": 0.7, "upper": 0.8},
        {"name": "x3", "lower": 17, "upper": 28, "integral": True},
        {"name": "x4", "lower": 7.3, "upper": 8.3},
        {"name": "x5", "lower": 7.3, "upper": 8.3},
        {"name": "x6", "lower": 2.9, "upper": 3.9},
        {"name": "x7", "lower": 5.0, "upper": 5.5},
    ],
    "objective": {
        "expression": (
            "0.7854*x1*x2^2*(3.3333*x3^2+14.9334*x3-43.0934)"
            "-1.5079*x1*(x6^2+x7^2)+7.477*(x6^3+x7^3)"
            "+0.7854*(x4*x6^2+x5*x7^2)"
        )
    },
    "constraints": [
        {"name": "g1", "expression": "-27+x1*x2^2*x3", "sense": ">=0"},
        {"name": "g2", "expression": "-397.5+x1*x2^2*x3^2", "sense": ">=0"},
        {"name": "g3", "expression": "-1.93+x2*x6^4*x3/x4^3", "sense": ">=0"},
        {"name": "g4", "expression": "-1.93+x2*x7^4*x3/x5^3", "sense": ">=0"},
        {
            "name": "g5",
            "expression": "110.0*x6^3-((745*x4/(x2*x3))^2+16900000)^0.5",
            "sense": ">=0",
        },
        {
            "name": "g6",
            "expression": "85.0*x7^3-((745*x5/(x2*x3))^2+157500000)^0.5",
            "sense": ">=0",
        },
        {"name": "g7", "expression": "40-x2*x3", "sense": ">=0"},
        {"name": "g8", "expression": "x1-5*x2", "sense": ">=0"},
        {"name": "g9", "expression": "12*x2-x1", "sense": ">=0"},
        {"name": "g10", "expression": "x4-1.5*x6-1.9", "sense": ">=0"},
        {"name": "g11", "expression": "x5-1.1*x7-1.9", "sense": ">=0"},
    ],
}


def illustrative_problem() -> Problem:
    return expr.load_problem(ILLUSTRATIVE_DOC)


def speed_reducer_problem() -> Problem:
    return expr.load_problem(SPEED_REDUCER_DOC)


def generate_quadratic_sigmoid(n: int, m: int, seed: int = 0) -> Problem:
    """Random instance with a linear objective and sigmoid-of-quadratic
    constraints on the box [-2, 2]^n.

    The first floor(m/2) constraints cap a sigmoid of a quadratic at one
    half; the rest bound quadratic-times-sigmoid from below. Entries of the
    symmetric quadratic matrices are uniform on (-1, 1) scaled by 1/n.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=n)
    specs = tuple(
        VarSpec(name=f"x{j}", lower=-2.0, upper=2.0) for j in range(n)
    )

    def make_quadratic():
        tri = rng.uniform(-1.0, 1.0, size=(n, n)) / n
        A = np.triu(tri)
        A = A + np.triu(A, 1).T
        d = rng.uniform(-1.0, 1.0, size=n)
        f0 = float(rng.uniform(-1.0, 1.0))
        return A, d, f0

    constraints = []
    for i in range(m):
        A, d, f0 = make_quadratic()

        def q(x, A=A, d=d, f0=f0):
            return float(x @ A @ x + d @ x + f0)

        def q_grad(x, A=A, d=d):
            return 2.0 * (A @ x) + d

        if i < m // 2:
            def value(x, q=q):
                return 1.0 / (1.0 + math.exp(-q(x))) - 0.5

            def grad(x, q=q, q_grad=q_grad):
                s = 1.0 / (1.0 + math.exp(-q(x)))
                return s * (1.0 - s) * q_grad(x)
        else:
            def value(x, q=q):
                v = q(x)
                return -0.5 - v / (1.0 + math.exp(-v))

            def grad(x, q=q, q_grad=q_grad):
                v = q(x)
                s = 1.0 / (1.0 + math.exp(-v))
                return -(s + v * s * (1.0 - s)) * q_grad(x)

        constraints.append(
            NonlinearConstraint(
                evaluator=value,
                sense="<=0",
                support=frozenset(range(n)),
                gradient=grad,
                name=f"q{i}",
            )
        )

    return Problem(
        vars=specs,
        objective=LinearObjective(coeffs=c),
        linear=(),
        nonlinear=tuple(constraints),
        name=f"quadratic-sigmoid-{n}-{m}-{seed}",
    )
