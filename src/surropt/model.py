"""Problem representation, standard-form transformation, and feasibility labels.

A Problem holds decision variables with (possibly partial) bounds, linear
rows, nonlinear constraints, and an objective. ``standardize`` partitions
affine constraints into linear rows, absorbs explicit single-variable rows
into the variable box, and guarantees finite bounds for every variable that
appears in a nonlinear constraint, inferring them by LP when missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import EvaluationError, InfeasibleProblem, UnboundedVariable

FEASIBILITY_TOL = 1e-8
EQUALITY_BAND = 1e-4  # half-width of the band used when embedding equalities


@dataclass(frozen=True)
class VarSpec:
    """One decision variable. Bounds may be infinite until standardization."""

    name: str
    index: int
    lower: float = -math.inf
    upper: float = math.inf
    integral: bool = False

    def __post_init__(self):
        if math.isfinite(self.lower) and math.isfinite(self.upper) and self.lower > self.upper:
            raise ValueError(f"variable {self.name}: lower {self.lower} > upper {self.upper}")


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """Row ``coeffs @ x  sense  rhs`` with sense in {"<=", "=", ">="}."""

    coeffs: np.ndarray
    sense: str
    rhs: float
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {self.sense!r}")

    def violation(self, x) -> float:
        lhs = float(self.coeffs @ x)
        if self.sense == "<=":
            return max(0.0, lhs - self.rhs)
        if self.sense == ">=":
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


@dataclass(frozen=True, eq=False)
class NonlinearConstraint:
    """Scalar constraint ``evaluator(x) <= 0`` or ``evaluator(x) = 0``.

    ``support`` lists the variable indices the evaluator actually reads.
    Expression-backed constraints carry their tree for exact gradients;
    black-box ones may supply a gradient callback, else central differences
    are used.
    """

    evaluator: Callable[[np.ndarray], float]
    sense: str
    support: frozenset[int]
    expr: Optional[_expr.Expr] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(self.support))
        if self.sense not in ("<=0", "=0"):
            raise ValueError(f"bad sense {self.sense!r}")

    def value(self, x) -> float:
        return float(self.evaluator(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.expr is not None:
            return _expr.grad_expr(self.expr, x)
        if self.gradient is not None:
            return np.asarray(self.gradient(x), dtype=float)
        return central_difference(self.evaluator, x, self.support)

    def violation(self, x) -> float:
        """How far x violates the constraint; a failed evaluation or a NaN or
        infinite value counts as inf."""
        try:
            v = self.value(x)
        except EvaluationError:
            return math.inf
        if not math.isfinite(v):
            return math.inf
        return abs(v) if self.sense == "=0" else max(0.0, v)


@dataclass(frozen=True, eq=False)
class LinearObjective:
    coeffs: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def value(self, x) -> float:
        return float(self.coeffs @ x) + self.constant

    def grad(self, x) -> np.ndarray:
        return self.coeffs.copy()


@dataclass(frozen=True, eq=False)
class NonlinearObjective:
    evaluator: Callable[[np.ndarray], float]
    support: frozenset[int]
    expr: Optional[_expr.Expr] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(self.support))

    def value(self, x) -> float:
        return float(self.evaluator(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.expr is not None:
            return _expr.grad_expr(self.expr, x)
        if self.gradient is not None:
            return np.asarray(self.gradient(x), dtype=float)
        return central_difference(self.evaluator, x, self.support)


def central_difference(fn, x, support=None, scale=1e-6) -> np.ndarray:
    """Central finite differences with h = scale * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[0])
    indices = range(x.shape[0]) if support is None else sorted(support)
    for i in indices:
        h = scale * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (float(fn(xp)) - float(fn(xm))) / (2.0 * h)
    return out


@dataclass(frozen=True, eq=False)
class Problem:
    vars: tuple[VarSpec, ...]
    objective: object  # LinearObjective | NonlinearObjective
    linear: tuple[LinearConstraint, ...] = ()
    nonlinear: tuple[NonlinearConstraint, ...] = ()
    name: str = ""
    known_optimum: Optional[float] = None

    def __post_init__(self):
        if not self.vars:
            raise ValueError("a problem needs at least one variable")
        if self.objective is None:
            raise ValueError("a problem needs an objective")
        n = len(self.vars)
        for i, v in enumerate(self.vars):
            if v.index != i:
                raise ValueError(f"variable {v.name} has index {v.index}, expected {i}")
        for c in self.linear:
            if c.coeffs.shape != (n,):
                raise ValueError("linear row length does not match variable count")
        for c in self.nonlinear:
            if c.support and (min(c.support) < 0 or max(c.support) >= n):
                raise ValueError("nonlinear support outside variable range")

    @property
    def n(self) -> int:
        return len(self.vars)

    def box(self):
        lo = np.array([v.lower for v in self.vars])
        hi = np.array([v.upper for v in self.vars])
        return lo, hi

    def objective_value(self, x) -> float:
        return self.objective.value(x)


@dataclass(frozen=True, eq=False)
class StandardProblem(Problem):
    """Problem with finite bounds on every nonlinear-involved variable.

    ``bound_provenance[i]`` records whether variable i's box came from the
    user ("user") or from a bound LP ("inferred").
    """

    bound_provenance: tuple[str, ...] = ()

    def nonlinear_support(self) -> frozenset[int]:
        out = set()
        for c in self.nonlinear:
            out |= c.support
        if isinstance(self.objective, NonlinearObjective):
            out |= self.objective.support
        return frozenset(out)


# ---------------------------------------------------------------------------
# Standard form
# ---------------------------------------------------------------------------

def standardize(problem: Problem) -> StandardProblem:
    """Bring a problem to standard form.

    Affine expression-backed constraints move into the linear rows,
    single-variable rows tighten the variable box, and every variable used
    by a nonlinear constraint (or nonlinear objective) receives finite
    bounds, inferred by LP when not explicit. Idempotent.
    """
    n = problem.n
    linear = list(problem.linear)
    nonlinear = []
    for con in problem.nonlinear:
        moved = False
        if con.expr is not None:
            parts = _expr.affine_parts(con.expr, n)
            if parts is not None:
                coeffs, const = parts
                sense = "=" if con.sense == "=0" else "<="
                linear.append(LinearConstraint(coeffs=coeffs, sense=sense, rhs=-const, name=con.name))
                moved = True
        if not moved:
            nonlinear.append(con)

    lower = np.array([v.lower for v in problem.vars], dtype=float)
    upper = np.array([v.upper for v in problem.vars], dtype=float)
    kept_rows = []
    for row in linear:
        nz = np.nonzero(row.coeffs)[0]
        if len(nz) == 1:
            j = int(nz[0])
            a = row.coeffs[j]
            bound = row.rhs / a
            if row.sense == "=":
                lower[j] = max(lower[j], bound)
                upper[j] = min(upper[j], bound)
            elif (row.sense == "<=") == (a > 0):
                upper[j] = min(upper[j], bound)
            else:
                lower[j] = max(lower[j], bound)
        elif len(nz) == 0:
            # constant row: keep only if it is violated, which standardize
            # surfaces as infeasibility
            if LinearConstraint(row.coeffs, row.sense, row.rhs).violation(np.zeros(n)) > 0:
                raise InfeasibleProblem(f"constant row {row.name or row.rhs} cannot hold")
        else:
            kept_rows.append(row)

    for j in range(n):
        if lower[j] > upper[j] + 1e-12:
            raise InfeasibleProblem(f"variable {problem.vars[j].name}: empty bound interval")

    new_vars = [
        replace(v, lower=float(lower[i]), upper=float(upper[i]))
        for i, v in enumerate(problem.vars)
    ]
    provenance = ["user"] * n

    needed = set()
    for con in nonlinear:
        needed |= con.support
    if isinstance(problem.objective, NonlinearObjective):
        needed |= problem.objective.support

    draft = StandardProblem(
        vars=tuple(new_vars),
        objective=problem.objective,
        linear=tuple(kept_rows),
        nonlinear=tuple(nonlinear),
        name=problem.name,
        known_optimum=problem.known_optimum,
        bound_provenance=tuple(provenance),
    )

    for j in sorted(needed):
        v = new_vars[j]
        lo, hi = v.lower, v.upper
        changed = False
        if not math.isfinite(lo):
            lo = infer_bound(draft, j, "min")
            changed = True
        if not math.isfinite(hi):
            hi = infer_bound(draft, j, "max")
            changed = True
        if changed:
            new_vars[j] = replace(v, lower=float(lo), upper=float(hi))
            provenance[j] = "inferred"

    return StandardProblem(
        vars=tuple(new_vars),
        objective=problem.objective,
        linear=tuple(kept_rows),
        nonlinear=tuple(nonlinear),
        name=problem.name,
        known_optimum=problem.known_optimum,
        bound_provenance=tuple(provenance),
    )


def infer_bound(sp: Problem, var: int, direction: str) -> float:
    """Optimal value of min/max x_var over the linear rows and known boxes."""
    from . import milp

    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    n = sp.n
    c = np.zeros(n)
    c[var] = 1.0 if direction == "min" else -1.0
    rows = np.array([r.coeffs for r in sp.linear]).reshape(len(sp.linear), n)
    senses = [r.sense for r in sp.linear]
    rhs = np.array([r.rhs for r in sp.linear])
    lo, hi = sp.box()
    lp = milp.LpProblem(c=c, rows=rows, senses=senses, rhs=rhs, lower=lo, upper=hi)
    sol = milp.solve_lp(lp)
    if sol.status == "unbounded":
        raise UnboundedVariable(
            f"variable {sp.vars[var].name} has no finite {direction} over the linear rows"
        )
    if sol.status == "infeasible":
        raise InfeasibleProblem("linear rows are infeasible")
    if sol.status != "optimal":
        raise UnboundedVariable(f"bound LP ended with status {sol.status}")
    return float(sol.x[var])


def label(con: NonlinearConstraint, x, tol: float = FEASIBILITY_TOL) -> int:
    """1 when x satisfies the constraint within tol, else 0."""
    v = con.value(x)
    if con.sense == "=0":
        return 1 if abs(v) <= tol else 0
    return 1 if v <= tol else 0


def structurally_equal(a: Problem, b: Problem) -> bool:
    """Deep comparison used by tests (variables, rows, constraint identity)."""
    if len(a.vars) != len(b.vars) or len(a.linear) != len(b.linear):
        return False
    if len(a.nonlinear) != len(b.nonlinear):
        return False
    for va, vb in zip(a.vars, b.vars):
        if (va.name, va.index, va.integral) != (vb.name, vb.index, vb.integral):
            return False
        if not (np.isclose(va.lower, vb.lower) and np.isclose(va.upper, vb.upper)):
            return False
    for ra, rb in zip(a.linear, b.linear):
        if ra.sense != rb.sense or not np.isclose(ra.rhs, rb.rhs):
            return False
        if not np.allclose(ra.coeffs, rb.coeffs):
            return False
    for ca, cb in zip(a.nonlinear, b.nonlinear):
        if ca.sense != cb.sense or ca.support != cb.support:
            return False
    return True
