"""Problem representation, standard-form transformation, and feasibility labels.

A Problem holds decision variables with (possibly partial) bounds, linear
rows, nonlinear constraints, and an objective. ``standardize`` alone moves
affine constraints into linear rows and makes an affine objective linear,
absorbs explicit single-variable rows into the variable box, and guarantees
finite bounds for every variable that appears in a nonlinear constraint,
inferring them by LP when missing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import EvaluationError, InfeasibleProblem, TimeLimitReached, UnboundedVariable

FEASIBILITY_TOL = 1e-8
EQUALITY_BAND = 1e-4  # half-width of the band used when embedding equalities


@dataclass(frozen=True)
class VarSpec:
    """One decision variable. Bounds may be infinite until standardization,
    a lower one -inf and an upper one +inf only."""

    name: str
    lower: float = -math.inf
    upper: float = math.inf
    integral: bool = False

    def __post_init__(self):
        if self.lower == math.inf:
            raise ValueError(f"variable {self.name}: lower bound +inf admits no value")
        if self.upper == -math.inf:
            raise ValueError(f"variable {self.name}: upper bound -inf admits no value")
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


class _Evaluated:
    """Value and gradient of an ``evaluator`` that reads only ``support``.

    ``value`` is the one evaluation boundary: NaN where the evaluator raises
    ``EvaluationError``, one evaluator call per distinct ``x[support]`` per
    object (``standardize`` makes fresh objects, so per solve), and
    ``TimeLimitReached`` instead of a new call once the object's deadline
    has passed; values already known are still returned. ``grad`` uses the
    expression tree, the gradient callback, or central differences of
    ``value``, so a difference is memoized and deadline-checked like any
    evaluation, and one across a failed evaluation is NaN.
    """

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(self.support))
        object.__setattr__(self, "_index", np.array(sorted(self.support), dtype=int))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_deadline", math.inf)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        key = x[self._index].tobytes()
        if key not in self._memo:
            if time.monotonic() > self._deadline:
                raise TimeLimitReached("the run's time limit passed")
            try:
                self._memo[key] = float(self.evaluator(x))
            except EvaluationError:
                self._memo[key] = math.nan
        return self._memo[key]

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.expr is not None:
            return _expr.grad_expr(self.expr, x)
        if self.gradient is not None:
            return np.asarray(self.gradient(x), dtype=float)
        return central_difference(self.value, x, self.support)


@dataclass(frozen=True, eq=False)
class NonlinearConstraint(_Evaluated):
    """Scalar constraint ``evaluator(x) <= 0`` or ``evaluator(x) = 0``."""

    evaluator: Callable[[np.ndarray], float]
    sense: str
    support: frozenset[int]
    expr: Optional[_expr.Expr] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.sense not in ("<=0", "=0"):
            raise ValueError(f"bad sense {self.sense!r}")

    def violation(self, x) -> float:
        """How far x violates the constraint; a failed evaluation or a NaN or
        infinite value counts as inf."""
        v = self.value(x)
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
class NonlinearObjective(_Evaluated):
    evaluator: Callable[[np.ndarray], float]
    support: frozenset[int]
    expr: Optional[_expr.Expr] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None


def central_difference(fn, x, support) -> np.ndarray:
    """Central finite differences over ``support`` with h = 1e-6 max(1, |x_i|);
    the other components are 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[0])
    for i in sorted(support):
        h = 1e-6 * max(1.0, abs(x[i]))
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

    def __post_init__(self):
        if not self.vars:
            raise ValueError("a problem needs at least one variable")
        if self.objective is None:
            raise ValueError("a problem needs an objective")
        n = len(self.vars)
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


@dataclass(frozen=True, eq=False)
class StandardProblem(Problem):
    """Problem with finite bounds on every nonlinear-involved variable.

    ``deadline`` is the run's ``time.monotonic()`` instant after which no
    new point is evaluated.
    """

    deadline: float = math.inf


# ---------------------------------------------------------------------------
# Standard form
# ---------------------------------------------------------------------------

def _fresh(obj, deadline):
    """A copy of ``obj``; a nonlinear one has an empty memo and ``deadline``."""
    copy = replace(obj)
    if isinstance(copy, _Evaluated):
        object.__setattr__(copy, "_deadline", deadline)
    return copy


def standardize(problem: Problem, deadline: float = math.inf) -> StandardProblem:
    """Bring a problem to standard form.

    The one place that decides what is linear: affine expression-backed
    constraints move into the linear rows, after the problem's own rows and
    in their order, and an affine expression objective becomes a
    ``LinearObjective``. Single-variable rows tighten the variable box, and
    every variable used by a nonlinear constraint (or nonlinear objective)
    receives finite bounds, inferred by LP when not explicit. The nonlinear
    constraints and the objective are fresh copies, with empty evaluation
    memos. ``deadline`` (a ``time.monotonic()`` instant) becomes the
    result's ``deadline``, the run's one deadline: past it the fresh copies
    evaluate no new point, and the pipeline steps that take ``sp`` stop
    there. Idempotent.
    """
    n = problem.n
    objective = _fresh(problem.objective, deadline)
    if isinstance(objective, NonlinearObjective) and objective.expr is not None:
        parts = _expr.affine_parts(objective.expr, n)
        objective = objective if parts is None else LinearObjective(*parts)
    linear = list(problem.linear)
    nonlinear = []
    for con in problem.nonlinear:
        parts = None if con.expr is None else _expr.affine_parts(con.expr, n)
        if parts is None:
            nonlinear.append(_fresh(con, deadline))
        else:
            sense = "=" if con.sense == "=0" else "<="
            linear.append(LinearConstraint(coeffs=parts[0], sense=sense, rhs=-parts[1], name=con.name))

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
    needed = set()
    for con in nonlinear:
        needed |= con.support
    if isinstance(objective, NonlinearObjective):
        needed |= objective.support

    draft = StandardProblem(
        vars=tuple(new_vars),
        objective=objective,
        linear=tuple(kept_rows),
        nonlinear=tuple(nonlinear),
        name=problem.name,
    )

    for j in sorted(needed):
        v = new_vars[j]
        lo = v.lower if math.isfinite(v.lower) else infer_bound(draft, j, "min")
        hi = v.upper if math.isfinite(v.upper) else infer_bound(draft, j, "max")
        new_vars[j] = replace(v, lower=float(lo), upper=float(hi))

    return StandardProblem(
        vars=tuple(new_vars),
        objective=objective,
        linear=tuple(kept_rows),
        nonlinear=tuple(nonlinear),
        name=problem.name,
        deadline=deadline,
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


def feasibility_labels(values, sense: str, tol: float = FEASIBILITY_TOL) -> np.ndarray:
    """1.0 where a constraint value satisfies ``sense`` within tol, else 0.0.

    A NaN or infinite value (a failed evaluation included) is infeasible.
    """
    values = np.asarray(values, dtype=float)
    slack = np.abs(values) if sense == "=0" else values
    return (np.isfinite(values) & (slack <= tol)).astype(float)
