"""Bounded-variable tableau simplex and branch-and-bound, sized for desk-scale models.

The LP core appends one slack per row (row @ x + slack = rhs; the slack's
bounds carry the sense) and keeps every variable bound implicit: a nonbasic
column sits at its lower or upper bound, or at zero when it has neither, so
the tableau has one row per constraint and no bound rows. Every solve
factorizes a start basis, runs the dual simplex from it to a feasible
basis, and then the primal simplex to the optimum. The start is the final
basis of a related LP when one is given, else the slack basis. A
branch-and-bound child differs from its parent by one bound, so the
parent's optimal basis stays dual feasible and the dual simplex runs on
the true costs; from a start that is not dual feasible it runs on a zero
cost row, for which every basis is (phase one). Both methods use
Dantzig-style choices and fall back to Bland's rule when the objective
stalls. Branch and bound first tightens the bounds by activity-based
propagation through the rows, which alone decides a model whose rows
cannot hold. It then drops the fixed columns and the rows that cannot
bind at those bounds, and runs every node on that one reduced LP, mapping
the solution back to the model's columns. It uses best-bound node
selection, a most-fractional diving heuristic, and pseudocost branching
learned from the dive's and the tree's LPs, and warm-starts every node LP
from its parent's basis; heap nodes keep bases, never tableaux. An LP-format
writer provides the seam for external solvers (see GOML_EXTERNAL_SOLVER_CMD
in the README).
"""

from __future__ import annotations

import heapq
import math
import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import NumericalFailure

PIVOT_TOL = 1e-9    # smallest usable pivot element
OPT_TOL = 1e-9      # reduced-cost tolerance
PRIMAL_TOL = 1e-9   # bound tolerance of basic values, relative to their size
FEAS_TOL = 1e-7
INT_TOL = 1e-6
STALL_LIMIT = 200   # degenerate pivots in a row before Bland's rule takes over
PRESOLVE_TOL = 1e-6     # row violation bound propagation allows, relative to 1 + |rhs|
PRESOLVE_STEP = 1e-3    # smallest continuous bound move that counts, relative to its scale
PRESOLVE_ROUNDS = 100   # propagation rounds before the bounds are taken as they stand
NODE_LIMIT = 1_000_000  # LP solves after which branch and bound stops as at its time limit
GAP_TOL = 1e-6          # relative gap at which a node can no longer improve the incumbent
EXTERNAL_SOLVER_ENV = "GOML_EXTERNAL_SOLVER_CMD"


@dataclass
class LpProblem:
    """min c @ x + const  s.t.  rows @ x (sense) rhs,  lower <= x <= upper."""

    c: np.ndarray
    rows: np.ndarray
    senses: list
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        # a float matrix stays the same object, which keys the warm-start factor
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            self.rows = self.rows.reshape(-1, n)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.rows.shape[0] != self.rhs.shape[0] or len(self.senses) != self.rhs.shape[0]:
            raise ValueError("row/sense/rhs sizes disagree")


@dataclass(eq=False)
class LpBasis:
    """A simplex basis: an LP's final one, or the start of a solve.

    Columns are the LP's variables followed by one slack per row.
    ``basic[i]`` is the column basic in tableau row i, and ``at_upper``
    flags the nonbasic columns that sit at their upper bound. The first
    solve from a basis stores its factorization B^-1 [A | I] on it, so
    sibling solves from the same basis share one factorization. The factor
    is kept for that LP's ``rows`` array itself, not its values: it serves
    LPs that share the array, which must not change in place.
    """

    basic: np.ndarray
    at_upper: np.ndarray
    factor: Optional[tuple] = field(default=None, init=False, repr=False)


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    pivots: int = 0
    basis: Optional[LpBasis] = None


class _Tableau:
    """Dense bounded-variable tableau.

    Rows 0..m-1 hold B^-1 [A | I] and, in the last column, the basic values
    ``beta``, so a pivot updates them in the same elimination; row m holds
    the reduced costs of the objective, or zeros during phase one. A
    nonbasic column sits at its upper bound when ``at_upper`` is set, else
    at its lower bound, or at zero when it has neither. ``way`` is +1 for a
    nonbasic column that can only rise from where it sits, -1 for one that
    can only fall, and 0 for basic, fixed and free columns; ``free_nb``
    marks the free nonbasic ones, which can move either way.
    """

    def __init__(self, T, n, basic, lo, hi, at_upper, budget, pivots):
        self.T = T
        self.n = n
        self.m = basic.size
        self.basic = basic
        self.lo, self.hi = lo, hi
        self.at_upper = at_upper
        self.budget = budget
        self.pivots = pivots
        self.work = np.empty_like(T)
        self.free = ~np.isfinite(lo) & ~np.isfinite(hi)
        self.has_free = bool(self.free.any())
        self.movable = hi > lo
        self.is_basic = np.zeros(lo.size, dtype=bool)
        self.is_basic[basic] = True
        self.lo_b, self.hi_b = lo[basic], hi[basic]
        self.beta = T[:self.m, -1]
        movable = self.movable & ~self.is_basic
        self.free_nb = movable & self.free
        self.way = np.where(movable & ~self.free, np.where(at_upper, -1.0, 1.0), 0.0)

    def _place(self, j: int, at_upper: bool) -> None:
        """Make column j nonbasic at its upper (or else lower or zero) position."""
        self.at_upper[j] = at_upper
        self.free_nb[j] = self.free[j]
        movable = self.movable[j] and not self.free[j]
        self.way[j] = (-1.0 if at_upper else 1.0) if movable else 0.0

    def value(self, j: int) -> float:
        if self.at_upper[j]:
            return float(self.hi[j])
        lo = float(self.lo[j])
        return lo if math.isfinite(lo) else 0.0

    def nonbasic_values(self) -> np.ndarray:
        """Values of all columns with the basic ones at zero."""
        x = np.where(self.at_upper, self.hi, np.where(np.isfinite(self.lo), self.lo, 0.0))
        x[self.is_basic] = 0.0
        return x

    def values(self) -> np.ndarray:
        x = self.nonbasic_values()
        x[self.basic] = self.beta
        return x

    def refresh_beta(self, rhs) -> None:
        """Basic values from scratch: B^-1 rhs - B^-1 N x_N."""
        m, n = self.m, self.n
        Tm = self.T[:m, :-1]
        self.beta[:] = Tm[:, n:n + m] @ rhs - Tm @ self.nonbasic_values()

    def infeasibility(self) -> np.ndarray:
        """Per row, how far the basic value lies outside its bounds (<= 0 inside)."""
        return np.maximum(self.lo_b - self.beta, self.beta - self.hi_b)

    def pivot(self, r: int, q: int) -> None:
        """Make column q basic in row r by Gauss-Jordan elimination."""
        if self.pivots >= self.budget:
            raise NumericalFailure("pivot budget exceeded")
        self.pivots += 1
        T, work = self.T, self.work
        T[r] /= T[r, q]
        # column q becomes exactly e_r, as each other entry loses itself times 1.0
        np.multiply(T[:, q:q + 1], T[r], out=work)
        work[r] = 0.0
        T -= work
        self.is_basic[self.basic[r]] = False
        self.is_basic[q] = True
        self.basic[r] = q
        self.lo_b[r], self.hi_b[r] = self.lo[q], self.hi[q]

    def _exchange(self, r: int, q: int, step: float, to_upper: bool) -> None:
        """Move entering column q by step, then swap it for the basic column of row r."""
        leaving = int(self.basic[r])
        xq = self.value(q)
        # the elimination then subtracts step * alpha from every other basic value
        self.T[r, -1] = step * self.T[r, q]
        self.pivot(r, q)
        self.beta[r] += xq
        self._place(leaving, to_upper)
        self.at_upper[q] = self.free_nb[q] = False
        self.way[q] = 0.0

    def price(self, cost) -> None:
        """Row m from scratch: the reduced costs of ``cost`` at the current basis."""
        d = self.T[self.m, :-1]
        d[:] = cost - cost[self.basic] @ self.T[:self.m, :-1]
        d[self.basic] = 0.0

    def primal(self) -> str:
        """Primal simplex from a feasible basis."""
        T, m = self.T, self.m
        d = T[m, :-1]
        way, free_nb = self.way, self.free_nb
        beta, lo_b, hi_b = self.beta, self.lo_b, self.hi_b
        ratios = np.empty(m)
        stall, bland = 0, STALL_LIMIT <= 0
        while True:
            # minus the objective gain per unit move of each column
            score = d * way
            if self.has_free:
                score[free_nb] = -np.abs(d[free_nb])
            if bland:
                cand = (score < -OPT_TOL).nonzero()[0]
                if cand.size == 0:
                    return "optimal"
                q = int(cand[0])
            else:
                q = int(score.argmin()) if score.size else 0
                if not score.size or score[q] >= -OPT_TOL:
                    return "optimal"
            direction = 1.0 if d[q] < 0.0 else -1.0
            da = T[:m, q] if direction > 0.0 else -T[:m, q]
            # how far each basic value may travel before it meets the bound it moves toward
            ratios.fill(np.inf)
            np.divide(
                beta - np.where(da > 0.0, lo_b, hi_b), da,
                out=ratios, where=np.abs(da) > PIVOT_TOL,
            )
            r = int(ratios.argmin()) if m else 0
            t = max(float(ratios[r]), 0.0) if m else math.inf
            flip = self.hi[q] - self.lo[q]
            if flip <= t:
                if math.isinf(flip):
                    return "unbounded"
                # q crosses to its other bound before any basic value blocks it
                beta -= flip * da
                self._place(q, direction > 0.0)
                stall = 0
                continue
            if bland:
                ties = (ratios <= t + 1e-12 * (1.0 + t)).nonzero()[0]
                r = int(ties[np.argmin(self.basic[ties])])
            self._exchange(r, q, direction * t, to_upper=bool(da[r] < 0.0))
            if -t * score[q] > 1e-12:
                stall = 0
            else:
                stall += 1
                bland = bland or stall >= STALL_LIMIT

    def dual(self, tolerate: bool) -> Optional[str]:
        """Dual simplex from a dual-feasible basis to a feasible one.

        With a zero cost row every basis is dual feasible, so this is also
        phase one. Returns "optimal", "infeasible" when a row proves that
        the rows cannot hold, or None when the infeasibility a row shows is
        too small to prove. With ``tolerate`` such a row is left as it is
        until the next pivot instead.
        """
        T, m = self.T, self.m
        d = T[m, :-1]
        stall, bland = 0, STALL_LIMIT <= 0
        left = np.zeros(m, dtype=bool)
        while True:
            infeas = self.infeasibility()
            cand = ((infeas > PRIMAL_TOL * (1.0 + np.abs(self.beta))) & ~left).nonzero()[0]
            if cand.size == 0:
                return "optimal"
            if bland:
                r = int(cand[np.argmin(self.basic[cand])])
            else:
                r = int(cand[np.argmax(infeas[cand])])
            to_lower = bool(self.beta[r] < self.lo_b[r])
            # moving column j by +1 moves the leaving value by -alpha_j, which
            # must point toward the violated bound
            sa = T[r, :-1] if to_lower else -T[r, :-1]
            elig = sa * self.way < -PIVOT_TOL
            if self.has_free:
                elig |= self.free_nb & (np.abs(sa) > PIVOT_TOL)
            elig = elig.nonzero()[0]
            if elig.size == 0:
                # Row r proves that the rows must be violated by at least
                # infeas[r] / max|y| in total, y being its slack columns
                # (row r of B^-1). Only a total beyond FEAS_TOL counts.
                y = T[r, self.n:self.n + m]
                if infeas[r] > FEAS_TOL * max(1.0, float(np.abs(y).max(initial=0.0))):
                    return "infeasible"
                if not tolerate:
                    return None
                left[r] = True
                continue
            a = np.abs(sa[elig])
            dd = np.abs(d[elig])
            ratios = dd / a
            if bland:
                q = int(elig[np.argmin(ratios)])
            else:
                # Harris: among near-minimal ratios take the largest pivot
                near = ratios <= ((dd + OPT_TOL) / a).min()
                q = int(elig[near][np.argmax(a[near])])
            alpha_q = T[r, q]
            target = self.lo_b[r] if to_lower else self.hi_b[r]
            step = (self.beta[r] - target) / alpha_q
            dual_step = abs(d[q] / alpha_q)
            self._exchange(r, q, step, to_upper=not to_lower)
            left[:] = False
            if dual_step > 1e-12:
                stall = 0
            else:
                stall += 1
                bland = bland or stall >= STALL_LIMIT


def _columns(lp: LpProblem):
    """Bounds and costs of the columns [x | slack], slack = rhs - rows @ x."""
    slack_lo = [-np.inf if s == ">=" else 0.0 for s in lp.senses]
    slack_hi = [np.inf if s == "<=" else 0.0 for s in lp.senses]
    lo = np.concatenate([lp.lower, slack_lo])
    hi = np.concatenate([lp.upper, slack_hi])
    cost = np.zeros(lo.size)
    cost[:lp.c.size] = lp.c
    return lo, hi, cost


def _factorize(rows: np.ndarray, basic: np.ndarray) -> Optional[np.ndarray]:
    """B^-1 [A | I] for the basis columns ``basic`` of [A | I], or None if singular.

    A basic slack covers its own row, so only the k rows P without one need
    a solve. With S the basic structural columns and R the other rows, the
    structural rows of the result are A[P, S]^-1 [A[P] | I_P], and the slack
    rows are [A[R] | I_R] minus A[R, S] times those.
    """
    m, n = rows.shape
    struct = basic < n
    pos_s, pos_r = struct.nonzero()[0], (~struct).nonzero()[0]
    cols_s, rows_r = basic[pos_s], basic[pos_r] - n
    covered = np.zeros(m, dtype=bool)
    covered[rows_r] = True
    rows_p = (~covered).nonzero()[0]
    k = rows_p.size
    rhs = np.zeros((k, n + k))
    rhs[:, :n] = rows[rows_p]
    rhs[:, n:] = np.eye(k)
    try:
        z = np.linalg.solve(rows[np.ix_(rows_p, cols_s)], rhs) if k else rhs
    except np.linalg.LinAlgError:
        return None
    w = rows[np.ix_(rows_r, cols_s)] @ z
    out = np.zeros((m, n + m))
    out[pos_s, :n] = z[:, :n]
    out[np.ix_(pos_s, n + rows_p)] = z[:, n:]
    out[pos_r, :n] = rows[rows_r] - w[:, :n]
    out[np.ix_(pos_r, n + rows_p)] = -w[:, n:]
    out[pos_r, n + rows_r] = 1.0
    unit = np.zeros((m, k))
    unit[pos_s, np.arange(k)] = 1.0
    if not np.isfinite(out).all() or np.abs(out[:, cols_s] - unit).max(initial=0.0) > 1e-6:
        return None
    return out


def _slack_basis(n: int, m: int) -> LpBasis:
    """Every slack basic, every structural column at its lower bound (or its only finite one)."""
    return LpBasis(n + np.arange(m), np.zeros(n + m, dtype=bool))


def _simplex(lp: LpProblem, lo, hi, cost, start: LpBasis, budget, pivots, tolerate) -> tuple:
    """Dual simplex from ``start`` to a feasible basis, then primal simplex to the optimum.

    The dual simplex runs on the true costs when ``start`` is dual feasible
    for them, and otherwise on a zero cost row, for which every basis is
    (phase one); the reduced costs of the true costs are then recomputed
    for the primal. Returns (status, tableau); the status is None when
    ``start`` does not fit the LP or is singular (no tableau), or when the
    dual simplex meets an infeasibility too small to prove and ``tolerate``
    is off.
    """
    n, m = lp.c.size, lp.rhs.size
    ncols = n + m
    basic = np.asarray(start.basic, dtype=int)
    if basic.shape != (m,) or np.shape(start.at_upper) != (ncols,):
        return None, None
    if m and (basic.min() < 0 or basic.max() >= ncols or (np.diff(np.sort(basic)) == 0).any()):
        return None, None
    factor = start.factor
    if factor is None or factor[0] is not lp.rows:
        inv_a = _factorize(lp.rows, basic)
        if inv_a is None:
            return None, None
        start.factor = factor = (lp.rows, inv_a)
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :-1] = factor[1]
    # a nonbasic column sits at its lower bound, or at the upper if only it is finite
    at_upper = (np.asarray(start.at_upper, dtype=bool) | ~np.isfinite(lo)) & np.isfinite(hi)
    tab = _Tableau(T, n, basic.copy(), lo, hi, at_upper, budget, pivots)
    tab.refresh_beta(lp.rhs)
    tab.price(cost)
    # the dual simplex needs every reduced cost to agree with the side its column sits on
    d = T[m, :-1]
    phase_one = (d * tab.way < -OPT_TOL).any() or (np.abs(d[tab.free_nb]) > OPT_TOL).any()
    if phase_one:
        d[:] = 0.0
    status = tab.dual(tolerate)
    if status != "optimal":
        return status, tab
    if phase_one:
        tab.price(cost)
    return tab.primal(), tab


def solve_lp(
    lp: LpProblem,
    start: Optional[LpBasis] = None,
    max_pivots: Optional[int] = None,
) -> LpSolution:
    """Bounded-variable simplex from a start basis (``_simplex``).

    ``start`` is the final basis of an LP with the same rows, objective and
    senses, typically a branch-and-bound parent whose bounds differ. Without
    one, or if it does not fit the LP, is singular, or leads the dual
    simplex to an infeasibility too small to prove, the solve starts from
    the slack basis, and there leaves such a row as it is. Raises
    NumericalFailure when the pivot budget runs out or the rows are not
    finite.
    """
    n, m = lp.c.size, lp.rhs.size
    if np.any(lp.lower > lp.upper + 1e-12):
        return LpSolution(status="infeasible")
    lo, hi, cost = _columns(lp)
    budget = max_pivots if max_pivots is not None else 20000 + 60 * (2 * m + n)
    status, tab = None, None
    if start is not None:
        status, tab = _simplex(lp, lo, hi, cost, start, budget, 0, tolerate=False)
    if status is None:
        pivots = 0 if tab is None else tab.pivots
        status, tab = _simplex(lp, lo, hi, cost, _slack_basis(n, m), budget, pivots, tolerate=True)
        if tab is None:
            raise NumericalFailure("LP rows are not finite")
    if status != "optimal":
        return LpSolution(status=status, pivots=tab.pivots)
    x = tab.values()[:n]
    basis = LpBasis(tab.basic.copy(), tab.at_upper & ~tab.is_basic)
    return LpSolution(
        status="optimal",
        x=x,
        objective=float(lp.c @ x) + lp.const,
        pivots=tab.pivots,
        basis=basis,
    )


# ---------------------------------------------------------------------------
# MILP model
# ---------------------------------------------------------------------------

class MilpModel:
    """Mixed-integer linear model built incrementally by the encoder."""

    def __init__(self, name: str = ""):
        self.name = name
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.integral: list[bool] = []
        self.row_coeffs: list[dict[int, float]] = []
        self.row_senses: list[str] = []
        self.row_rhs: list[float] = []
        self.obj: dict[int, float] = {}
        self.obj_const: float = 0.0
        self.registry: dict = {}

    # -- construction ------------------------------------------------------
    def add_var(self, lower: float, upper: float, integral: bool = False) -> int:
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.integral.append(bool(integral))
        return len(self.lower) - 1

    def add_binary(self) -> int:
        return self.add_var(0.0, 1.0, integral=True)

    def add_row(self, coeffs: dict[int, float], sense: str, rhs: float) -> int:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {sense!r}")
        self.row_coeffs.append({int(k): float(v) for k, v in coeffs.items() if v != 0.0})
        self.row_senses.append(sense)
        self.row_rhs.append(float(rhs))
        return len(self.row_rhs) - 1

    def add_objective_term(self, idx: int, coef: float) -> None:
        self.obj[idx] = self.obj.get(idx, 0.0) + float(coef)

    # -- views --------------------------------------------------------------
    @property
    def n_vars(self) -> int:
        return len(self.lower)

    @property
    def n_rows(self) -> int:
        return len(self.row_rhs)

    def to_lp(self) -> LpProblem:
        c = np.zeros(self.n_vars)
        for j, v in self.obj.items():
            c[j] = v
        rows = np.zeros((self.n_rows, self.n_vars))
        for i, coeffs in enumerate(self.row_coeffs):
            for j, v in coeffs.items():
                rows[i, j] = v
        return LpProblem(
            c=c,
            rows=rows,
            senses=list(self.row_senses),
            rhs=np.array(self.row_rhs, dtype=float),
            lower=np.array(self.lower, dtype=float),
            upper=np.array(self.upper, dtype=float),
            const=self.obj_const,
        )


@dataclass
class MilpSolution:
    status: str  # optimal | infeasible | unbounded | time_limit | error (external solver failed)
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    bound: Optional[float] = None
    gap: Optional[float] = None
    nodes: int = 0   # solve_lp calls, the root and dive steps included; 0 when propagation decides
    pivots: int = 0  # simplex pivots summed over those calls
    rows: int = 0    # rows and columns of the reduced LP those calls solved;
    cols: int = 0    # 0 when propagation decides


def _tighter(new: np.ndarray, old: np.ndarray, width: np.ndarray, integral: np.ndarray) -> np.ndarray:
    """Where the upper bound ``new`` lies below ``old`` by a real step.

    Any finite bound beats an infinite one. An integer bound must move by a
    whole unit, a continuous one by PRESOLVE_STEP * max(min(width, |old|), 1).
    Lower bounds go through negated.
    """
    finite = np.isfinite(old)
    old0 = np.where(finite, old, 0.0)
    step = np.where(
        integral, 0.5, PRESOLVE_STEP * np.maximum(np.minimum(width, np.abs(old0)), 1.0)
    )
    return np.where(finite, new < old0 - step, np.isfinite(new))


def propagate(rows, senses, rhs, lower, upper, integral) -> Optional[tuple]:
    """Activity-based bound propagation: tightened copies of (lower, upper),
    or None when some row cannot hold within the bounds.

    Over the box, the activity of row i lies in [amin_i, amax_i]. A row
    ``a @ x <= b`` then bounds a_j x_j by b minus the least activity of the
    other columns, a ``>=`` row mirrors that, and an ``=`` row does both.
    Integer columns round inward. Each row may be violated by
    PRESOLVE_TOL * (1 + |b|), far more than the simplex accepts, so no point
    the LPs could return is cut off. Rounds repeat until no bound moves
    (see ``_tighter``), at most PRESOLVE_ROUNDS times.
    """
    senses = np.asarray(senses)
    slack = PRESOLVE_TOL * (1.0 + np.abs(rhs))
    # each row as flo <= a @ x <= cap, with an infinite side for an inequality
    cap = np.where(senses == ">=", np.inf, rhs + slack)[:, None]
    flo = np.where(senses == "<=", -np.inf, rhs - slack)[:, None]
    pos, neg = rows > 0.0, rows < 0.0
    nonzero = pos | neg
    integral = np.asarray(integral, dtype=bool)
    lo = np.where(integral, np.ceil(lower - INT_TOL), lower)
    hi = np.where(integral, np.floor(upper + INT_TOL), upper)
    for _ in range(PRESOLVE_ROUNDS):
        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        lo0, hi0 = np.where(lo_fin, lo, 0.0), np.where(hi_fin, hi, 0.0)
        # each entry's least and greatest term; an infinite one counts apart, as 0
        t_min = np.where(pos, rows * lo0, rows * hi0)
        t_max = np.where(pos, rows * hi0, rows * lo0)
        inf_min = pos & ~lo_fin | neg & ~hi_fin
        inf_max = pos & ~hi_fin | neg & ~lo_fin
        a_min, n_min = t_min.sum(axis=1, keepdims=True), inf_min.sum(axis=1, keepdims=True)
        a_max, n_max = t_max.sum(axis=1, keepdims=True), inf_max.sum(axis=1, keepdims=True)
        if ((n_min == 0) & (a_min > cap)).any() or ((n_max == 0) & (a_max < flo)).any():
            return None
        # the other columns' activity is finite where this entry holds every infinite term
        cap_ok = np.isfinite(cap) & (n_min - inf_min == 0) & nonzero
        flo_ok = np.isfinite(flo) & (n_max - inf_max == 0) & nonzero
        # the bound each row puts on a_j x_j, divided by a_j
        by_cap = np.divide(cap - (a_min - t_min), rows, out=np.zeros_like(rows), where=cap_ok)
        by_flo = np.divide(flo - (a_max - t_max), rows, out=np.zeros_like(rows), where=flo_ok)
        new_hi = np.where(cap_ok & pos, by_cap, np.where(flo_ok & neg, by_flo, np.inf)).min(
            axis=0, initial=np.inf)
        new_lo = np.where(cap_ok & neg, by_cap, np.where(flo_ok & pos, by_flo, -np.inf)).max(
            axis=0, initial=-np.inf)
        new_hi = np.where(integral, np.floor(new_hi + INT_TOL), new_hi)
        new_lo = np.where(integral, np.ceil(new_lo - INT_TOL), new_lo)

        # bounds that cross by more than rounding error leave no point
        lo1, hi1 = np.maximum(lo, new_lo), np.minimum(hi, new_hi)
        both = np.isfinite(lo1) & np.isfinite(hi1)
        l1, h1 = np.where(both, lo1, 0.0), np.where(both, hi1, 0.0)
        if (l1 - h1 > 1e-9 * (1.0 + np.abs(l1) + np.abs(h1))).any():
            return None
        width = np.where(lo_fin & hi_fin, hi0 - lo0, np.inf)
        moved_hi = _tighter(new_hi, hi, width, integral)
        moved_lo = _tighter(-new_lo, -lo, width, integral)
        if not (moved_hi.any() or moved_lo.any()):
            break
        lo = np.where(moved_lo, new_lo, lo)
        # a crossing within rounding error fixes the column
        hi = np.maximum(np.where(moved_hi, new_hi, hi), lo)
    return lo, hi


def _fold_singletons(lp: LpProblem, integral) -> tuple:
    """Bounds with each singleton row folded in, and which rows were folded.

    A row with one entry among the unfixed columns only bounds that column,
    at ``rhs / a`` after the fixed columns' share, rounded inward for an
    integer column as ``propagate`` rounds. Where the folded bounds of a
    column would cross, its rows and bounds stay as they are.
    """
    rows, lower, upper = lp.rows, lp.lower, lp.upper
    fixed = (lower == upper) & np.isfinite(lower)
    live = (rows != 0.0) & ~fixed
    single = np.flatnonzero(live.sum(axis=1) == 1)
    j = live[single].argmax(axis=1)
    a = rows[single, j]
    bound = (lp.rhs[single] - rows[single] @ np.where(fixed, lower, 0.0)) / a
    senses = np.asarray(lp.senses)[single]
    caps = (senses == "=") | ((senses == "<=") == (a > 0.0))
    floors = (senses == "=") | ((senses == ">=") == (a > 0.0))
    integral = np.asarray(integral, dtype=bool)
    hi, lo = upper.copy(), lower.copy()
    np.minimum.at(hi, j[caps], np.where(integral[j], np.floor(bound + INT_TOL), bound)[caps])
    np.maximum.at(lo, j[floors], np.where(integral[j], np.ceil(bound - INT_TOL), bound)[floors])
    crossed = lo > hi
    lo[crossed], hi[crossed] = lower[crossed], upper[crossed]
    folded = np.zeros(rows.shape[0], dtype=bool)
    folded[single[~crossed[j]]] = True
    return lo, hi, folded


def _reduce(lp: LpProblem, integral) -> tuple:
    """The LP that branch and bound runs on, given the propagated bounds.

    Singleton rows become column bounds first (``_fold_singletons``). A
    column with lower == upper is fixed: its value moves into the
    right-hand sides and the objective constant. A row that no point of the
    box can violate goes: a ``<=`` row whose greatest activity is at most
    its rhs, a ``>=`` row whose least activity is at least its rhs, and an
    ``=`` row with both. Branching only narrows the box, so those rows hold
    at every node. Returns the LP over the other rows and columns, the
    indices of its columns in ``lp``, and a point of ``lp``'s size with the
    fixed values in place.
    """
    rows = lp.rows
    lower, upper, folded = _fold_singletons(lp, integral)
    senses = np.asarray(lp.senses)
    fixed = (lower == upper) & np.isfinite(lower)
    x_fixed = np.where(fixed, lower, 0.0)
    cols = np.flatnonzero(~fixed)
    pos, neg = rows > 0.0, rows < 0.0
    with np.errstate(invalid="ignore"):  # 0 * inf at zero entries, which the where drops
        most = np.where(pos, rows * upper, np.where(neg, rows * lower, 0.0)).sum(axis=1)
        least = np.where(pos, rows * lower, np.where(neg, rows * upper, 0.0)).sum(axis=1)
    keep = ~folded & ~(((senses == ">=") | (most <= lp.rhs)) & ((senses == "<=") | (least >= lp.rhs)))
    reduced = LpProblem(
        c=lp.c[cols],
        rows=rows[np.ix_(keep, cols)],
        senses=[s for s, k in zip(lp.senses, keep) if k],
        rhs=lp.rhs[keep] - rows[keep] @ x_fixed,
        lower=lower[cols],
        upper=upper[cols],
        const=lp.const + float(lp.c @ x_fixed),
    )
    return reduced, cols, x_fixed


def solve_milp(model: MilpModel, time_limit: Optional[float] = None) -> MilpSolution:
    """Branch and bound with best-bound selection and pseudocost branching.

    The model's rows are made dense once (``to_lp``). Bound propagation
    (``propagate``) runs on them first: a model it proves
    infeasible is decided with no LP at all. Every other solve runs on one
    reduced LP (``_reduce``) at the tightened bounds, with singleton rows
    folded into the bounds, and without the fixed columns and the rows no
    point of the box can violate, so node LPs differ
    only in their bounds; the solution is mapped back to the model's
    columns. Every node LP after the root is warm-started from a parent
    basis: each dive step from the previous step, each child from the
    popped node. A node whose bound lies within ``GAP_TOL`` of the incumbent
    is pruned, so an ``optimal`` solution has a gap of at most ``GAP_TOL``;
    an exhausted tree reports the incumbent's objective as the bound.

    The pseudocosts (``_pseudocost_column``) start empty in each call. Every
    dive step and every child LP that ends optimal adds one observation:
    the rise of its objective over its parent's, per unit that the branched
    column moved. Before each dive LP and each popped node, the time limit
    and ``NODE_LIMIT`` are checked; a solve stopped by either is
    ``time_limit`` and reports the least bound among the open nodes and the
    incumbent.
    """
    start = time.monotonic()
    lp = model.to_lp()
    bounds = propagate(lp.rows, lp.senses, lp.rhs, lp.lower, lp.upper, model.integral)
    if bounds is None:
        return MilpSolution(status="infeasible")
    lp, cols, x_fixed = _reduce(replace(lp, lower=bounds[0], upper=bounds[1]), model.integral)
    lower, upper = lp.lower, lp.upper
    int_idx = np.flatnonzero(np.array(model.integral, dtype=bool)[cols])
    size = {"rows": lp.rhs.size, "cols": cols.size}

    def out_of_time() -> bool:
        return time_limit is not None and time.monotonic() - start > time_limit

    def lp_at(lo, hi) -> LpProblem:
        return LpProblem(lp.c, lp.rows, lp.senses, lp.rhs, lo, hi, lp.const)

    root = solve_lp(lp)
    pivots = root.pivots
    if root.status != "optimal":
        return MilpSolution(status=root.status, nodes=1, pivots=pivots, **size)

    def snap(x) -> np.ndarray:
        """The model-sized point of a reduced LP point, integer columns rounded."""
        out = x_fixed.copy()
        out[cols] = x
        out[cols[int_idx]] = np.round(x[int_idx])
        return out

    # pseudocosts: per column, the summed per-unit bound gains of pushing it
    # down (row 0) or up (row 1), and how many gains each sum holds
    gains, counts = np.zeros((2, cols.size)), np.zeros((2, cols.size))

    def observe(j: int, up: bool, rise: float, dist: float) -> None:
        gains[int(up), j] += rise / dist
        counts[int(up), j] += 1

    incumbent_x = None
    incumbent_obj = math.inf
    nodes_solved = 1

    if _fractional(root.x, int_idx) is None:
        x = snap(root.x)
        return MilpSolution(
            status="optimal", x=x, objective=root.objective,
            bound=root.objective, gap=0.0, nodes=1, pivots=pivots, **size,
        )

    # Diving heuristic: repeatedly fix the most fractional integer variable
    # at its rounded value; a plain all-at-once rounding often breaks the
    # one-hot rows coming out of tree encodings. Each step that solves
    # seeds the pseudocosts.
    dive_lo, dive_hi = lower.copy(), upper.copy()
    dive_x, dive_obj, dive_basis = root.x, root.objective, root.basis
    for _ in range(min(len(int_idx), 25)):
        j = _fractional(dive_x, int_idx)
        if j is None:
            break
        near = float(np.clip(round(dive_x[j]), dive_lo[j], dive_hi[j]))
        far = math.floor(dive_x[j]) if near > dive_x[j] else math.ceil(dive_x[j])
        far = float(np.clip(far, dive_lo[j], dive_hi[j]))
        dived = None
        for candidate in dict.fromkeys((near, far)):
            if out_of_time() or nodes_solved >= NODE_LIMIT:
                break
            trial_lo = _with(dive_lo, j, candidate)
            trial_hi = _with(dive_hi, j, candidate)
            trial = solve_lp(lp_at(trial_lo, trial_hi), start=dive_basis)
            nodes_solved += 1
            pivots += trial.pivots
            if trial.status == "optimal":
                observe(j, candidate > dive_x[j], trial.objective - dive_obj, abs(dive_x[j] - candidate))
                dive_lo, dive_hi = trial_lo, trial_hi
                dived = trial
                break
        if dived is None:
            dive_x = None
            break
        dive_x, dive_obj, dive_basis = dived.x, dived.objective, dived.basis
    if dive_x is not None and _fractional(dive_x, int_idx) is None:
        incumbent_x = snap(dive_x)
        incumbent_obj = dive_obj

    counter = 0
    heap = [(root.objective, counter, lower, upper, root.x, root.basis)]
    status = "optimal"

    while heap:
        if out_of_time() or nodes_solved >= NODE_LIMIT:
            status = "time_limit"
            break
        node_bound, _, lo, hi, x_lp, basis = heapq.heappop(heap)
        if incumbent_x is not None and node_bound >= incumbent_obj - GAP_TOL * max(1.0, abs(incumbent_obj)):
            break
        # the heap holds only fractional nodes: the root, and children not yet integral
        j = _pseudocost_column(x_lp, int_idx, gains, counts)
        floor_v = math.floor(x_lp[j] + INT_TOL)
        frac = x_lp[j] - floor_v
        for up, child_lo, child_hi in (
            (False, lo, _with(hi, j, float(floor_v))),
            (True, _with(lo, j, float(floor_v + 1)), hi),
        ):
            if child_lo[j] > child_hi[j] + 1e-12:
                continue
            sol = solve_lp(lp_at(child_lo, child_hi), start=basis)
            nodes_solved += 1
            pivots += sol.pivots
            if sol.status != "optimal":
                continue
            observe(j, up, sol.objective - node_bound, 1.0 - frac if up else frac)
            if incumbent_x is not None and sol.objective >= incumbent_obj - GAP_TOL * max(1.0, abs(incumbent_obj)):
                continue
            if _fractional(sol.x, int_idx) is None:
                if sol.objective < incumbent_obj:
                    incumbent_obj, incumbent_x = sol.objective, snap(sol.x)
            else:
                counter += 1
                heapq.heappush(heap, (sol.objective, counter, child_lo, child_hi, sol.x, sol.basis))

    # The open nodes bound what is left; nodes left by the gap test lie
    # within GAP_TOL of the incumbent, and an exhausted tree proves it.
    bound = min(heap[0][0], incumbent_obj) if heap else incumbent_obj
    if incumbent_x is None:
        if status == "time_limit":
            return MilpSolution(status="time_limit", bound=bound, nodes=nodes_solved, pivots=pivots, **size)
        return MilpSolution(status="infeasible", nodes=nodes_solved, pivots=pivots, **size)
    return MilpSolution(
        status=status,
        x=incumbent_x,
        objective=incumbent_obj,
        bound=bound,
        gap=abs(incumbent_obj - bound) / max(1.0, abs(incumbent_obj)),
        nodes=nodes_solved,
        pivots=pivots,
        **size,
    )


def _fractional(x: np.ndarray, int_idx: np.ndarray) -> Optional[int]:
    """The first integer column farthest from an integer, if beyond INT_TOL."""
    dist = np.abs(x[int_idx] - np.round(x[int_idx]))
    if dist.max(initial=0.0) <= INT_TOL:
        return None
    return int(int_idx[dist.argmax()])


def _pseudocost_column(x: np.ndarray, int_idx: np.ndarray, gains: np.ndarray, counts: np.ndarray) -> int:
    """The integer column to branch on at x, a point with a fractional one.

    ``gains[d, j] / counts[d, j]`` is column j's pseudocost: the mean rise
    of the LP bound per unit that j was pushed down (d = 0) or up (d = 1).
    A direction that j has no observations in takes the mean over all
    columns' observations in it, or 1 without any. With f the fractional
    part of x_j, the estimated rises are that mean times f down and times
    1 - f up, and the column with the largest product of the two (each at
    least 1e-6) wins, the first one on ties. With no observations at all the
    product is f (1 - f), so the most fractional column wins.
    """
    xi = x[int_idx]
    f = xi - np.floor(xi)
    seen = counts[:, int_idx] > 0
    total = counts.sum(axis=1, keepdims=True)
    overall = np.divide(gains.sum(axis=1, keepdims=True), total, out=np.ones_like(total), where=total > 0)
    mean = np.divide(gains[:, int_idx], counts[:, int_idx], out=np.repeat(overall, xi.size, axis=1), where=seen)
    score = np.maximum(mean[0] * f, 1e-6) * np.maximum(mean[1] * (1.0 - f), 1e-6)
    score[np.abs(xi - np.round(xi)) <= INT_TOL] = -1.0
    return int(int_idx[score.argmax()])


def _with(arr: np.ndarray, j: int, value: float) -> np.ndarray:
    out = arr.copy()
    out[j] = value
    return out


# ---------------------------------------------------------------------------
# LP-format export and the external solver seam
# ---------------------------------------------------------------------------

def _canon_name(model: MilpModel, j: int) -> str:
    return (f"z{j}" if model.integral[j] else f"x{j}")


def export_lp_file(model: MilpModel, path: str) -> None:
    """Write the model in LP text format with deterministic names x<j>/z<j>."""
    lines = ["\\ surropt model" + (f": {model.name}" if model.name else "")]
    lines.append("Minimize")
    terms = []
    for j in sorted(model.obj):
        v = model.obj[j]
        if v == 0.0:
            continue
        terms.append(f"{'+' if v >= 0 else '-'} {abs(v)!r} {_canon_name(model, j)}")
    if model.obj_const:
        terms.append(f"{'+' if model.obj_const >= 0 else '-'} {abs(model.obj_const)!r}")
    if not terms:
        terms = ["+ 0"]
    lines.append(" obj: " + " ".join(terms).lstrip("+ "))
    lines.append("Subject To")
    for i, coeffs in enumerate(model.row_coeffs):
        terms = []
        for j in sorted(coeffs):
            v = coeffs[j]
            terms.append(f"{'+' if v >= 0 else '-'} {abs(v)!r} {_canon_name(model, j)}")
        body = " ".join(terms).lstrip("+ ") if terms else "0"
        lines.append(f" c{i}: {body} {model.row_senses[i]} {model.row_rhs[i]!r}")
    lines.append("Bounds")
    for j in range(model.n_vars):
        lo, hi = model.lower[j], model.upper[j]
        nm = _canon_name(model, j)
        if not math.isfinite(lo) and not math.isfinite(hi):
            lines.append(f" {nm} free")
        else:
            left = "-inf" if not math.isfinite(lo) else repr(lo)
            right = "+inf" if not math.isfinite(hi) else repr(hi)
            lines.append(f" {left} <= {nm} <= {right}")
    binaries = [j for j in range(model.n_vars) if model.integral[j] and model.lower[j] == 0.0 and model.upper[j] == 1.0]
    generals = [j for j in range(model.n_vars) if model.integral[j] and j not in set(binaries)]
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(_canon_name(model, j) for j in binaries))
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(_canon_name(model, j) for j in generals))
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def fingerprint(model: MilpModel) -> tuple:
    """Hashable key of what a solve depends on: integrality, bounds, the
    objective and the rows. The model's name and the encoder's ``registry``
    do not count."""
    return (
        tuple(model.integral),
        tuple(model.lower),
        tuple(model.upper),
        tuple(sorted(model.obj.items())),
        model.obj_const,
        tuple(model.row_senses),
        tuple(model.row_rhs),
        tuple(tuple(sorted(coeffs.items())) for coeffs in model.row_coeffs),
    )


def models_equal(a: MilpModel, b: MilpModel) -> bool:
    return fingerprint(a) == fingerprint(b)


def solve_with_external(model: MilpModel, command: str, time_limit=None) -> MilpSolution:
    """Run an external MILP solver via the documented two-file protocol.

    The command receives the LP file path and a solution file path. The
    solution file starts with ``status <word>`` and ``objective <value>``
    lines followed by ``<name> <value>`` pairs using the canonical names from
    the LP file. A solver still running at ``time_limit`` is killed and the
    solve ends with status ``time_limit`` and no incumbent. A command that
    cannot start or exits nonzero, or a solution file that is missing or
    does not parse, ends the solve with status ``error``.
    """
    with tempfile.TemporaryDirectory(prefix="surropt_ext_") as tmp:
        lp_path = os.path.join(tmp, "model.lp")
        sol_path = os.path.join(tmp, "model.sol")
        export_lp_file(model, lp_path)
        argv = shlex.split(command) + [lp_path, sol_path]
        try:
            subprocess.run(argv, check=True, timeout=time_limit)
            status, objective, values = _read_solution(sol_path)
        except subprocess.TimeoutExpired:
            return MilpSolution(status="time_limit")
        except (subprocess.CalledProcessError, OSError, ValueError):
            return MilpSolution(status="error")
        if status not in ("optimal", "time_limit") or objective is None:
            return MilpSolution(status=status)
        x = np.zeros(model.n_vars)
        for j in range(model.n_vars):
            x[j] = values.get(_canon_name(model, j), 0.0)
        return MilpSolution(status=status, x=x, objective=objective, bound=objective, gap=0.0)


def _read_solution(path: str) -> tuple:
    """(status, objective or None, values by name) of a solution file.

    Raises ValueError unless every line is ``<key> <value>`` with a finite
    value, the status is one the protocol names, and an ``optimal`` status
    comes with an objective.
    """
    status, objective, values = None, None, {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            parts = ln.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"bad solution line {ln.strip()!r}")
            key, word = parts
            if key == "status":
                status = word
                continue
            value = float(word)
            if not math.isfinite(value):
                raise ValueError(f"non-finite value in {ln.strip()!r}")
            if key == "objective":
                objective = value
            else:
                values[key] = value
    if status not in ("optimal", "infeasible", "unbounded", "time_limit"):
        raise ValueError(f"bad solution status {status!r}")
    if status == "optimal" and objective is None:
        raise ValueError("optimal solution without an objective")
    return status, objective, values


def solve(model: MilpModel, time_limit=None, solver: str = "builtin") -> MilpSolution:
    """Dispatch between the built-in solver and the external seam."""
    if solver == "external":
        command = os.environ.get(EXTERNAL_SOLVER_ENV)
        if not command:
            raise ValueError(f"external solver requested but {EXTERNAL_SOLVER_ENV} is unset")
        return solve_with_external(model, command, time_limit=time_limit)
    if solver != "builtin":
        raise ValueError(f"unknown solver {solver!r}")
    return solve_milp(model, time_limit=time_limit)
