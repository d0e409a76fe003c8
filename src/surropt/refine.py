"""Local improvement of incumbents by projected gradient descent.

The merit function is objective plus a penalty on nonlinear-constraint
violations, and it decides which steps are accepted. Each step moves
along the objective's gradient, with conditional momentum (it stays on
only while the previous iteration's step was accepted), and projects onto
the linear rows, the box and every nonlinear constraint linearized at the
current point: Rosen's gradient projection for nonlinear constraints
(*J. SIAM* 9(4), 1961). The projection is the exact Euclidean one onto
their intersection, found by a dual active-set method. A probe that loses
gets one second-order correction (Fletcher, *Lecture Notes in Math.* 912,
1982): the same gradients, with the constraint values taken at the probe.
A search that accepts nothing ends refinement, unless the step was blind
there: the merit is inf, a nonlinear constraint was left out of the
linearization, a free component of the objective's gradient is not
finite, or no probe could be projected. Only then does a derivative-free
grid of 9 values per coordinate run, which also moves a start that lies
where evaluations fail.

Values come from the constraints' and objective's ``value``, which
evaluates each point once per solve and gives NaN where an evaluation
fails; such a point has merit inf and is never accepted, and a constraint
whose value or gradient is not finite is left out of the linearization.
A black box without a gradient callback is differenced through ``value``
too. ``value`` also stops the run at its deadline, which ends refinement
with a warning; so does an expression gradient outside its domain.

A line-search probe only has to beat a bar, so it stops evaluating once
its merit cannot beat it (``merit_state``'s ``below``). It tries the
constraints in the order of the violations of the last probe that lost,
largest first (``merit_state``'s ``order``), as the constraint that
rejected one probe usually rejects the next. Every accept/reject decision
is the one full evaluation would make, in any order, and an accepted point
is always evaluated in full.

Backtracking starts at min(1, twice the last step accepted in the call) and
halves down to 2^-``MAX_HALVINGS``, probing only steps a search from 1 would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EvaluationError, ProjectionStall, TimeLimitReached
from .model import LinearConstraint, StandardProblem

TIME_LIMIT_WARNING = "stopped at the time limit"
PENALTY = 1e3       # merit weight of the summed nonlinear violations
MAX_HALVINGS = 20   # backtracking tries no alpha below 2^-MAX_HALVINGS
ITERATIONS = 30     # PGD iterations per call


@dataclass
class MeritState:
    x: np.ndarray
    objective: float
    violations: np.ndarray
    merit: float
    warning: Optional[str] = None


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

_DEPENDENT = 1e-20  # squared residual below which a unit normal is spanned by the active set


def _stack_rows(rows, n: int):
    """Linear rows as ``A x <= b``; ``>=`` rows flip and equality rows are flagged."""
    A = np.array([-r.coeffs if r.sense == ">=" else r.coeffs for r in rows], dtype=float)
    b = np.array([-r.rhs if r.sense == ">=" else r.rhs for r in rows], dtype=float)
    eq = np.array([r.sense == "=" for r in rows], dtype=bool)
    return A.reshape(-1, n), b, eq


def _excess(A, b, eq, z) -> np.ndarray:
    """How far z lies past each row of ``A z <= b``; either way for equality rows."""
    out = A @ z - b
    out[eq] = np.abs(out[eq])
    return out


def project(x, rows, lo, hi, frozen=None, tol: float = 1e-9) -> np.ndarray:
    """Euclidean projection of x onto the linear rows intersected with the box.

    The projection is exact: the Goldfarb-Idnani dual active-set method
    with identity Hessian starts at x with nothing active and adds the most
    violated row or bound face each step, dropping an active inequality
    whenever its multiplier would turn negative. Equality rows enter with
    free-sign multipliers and never leave; an active bound face fixes its
    coordinate. A point that already satisfies everything within ``tol``
    comes back after one matrix-vector check.

    ``frozen`` marks coordinates held fixed at their incoming values
    (integer variables during refinement); rows with no free coefficient
    are ignored. Raises ProjectionStall on a non-finite point, when the rows
    and the box admit no common point (a step would then leave every point
    of the box behind, or none can be taken), when a step guard set by
    the constraint count runs out, or when the result lies farther than
    ``tol`` from a row it breaks (a row whose normal is shorter than 1 is
    held to ``tol`` in its own units instead).
    """
    x = np.array(x, dtype=float)
    if not np.isfinite(x).all():
        raise ProjectionStall("cannot project a non-finite point")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    A, b, eq = _stack_rows(rows, x.shape[0])
    worst = max(_excess(A, b, eq, x).max(initial=0.0), (x - hi).max(), (lo - x).max())
    if worst <= tol:
        return x

    # over the free coordinates, with unit row normals so that the pivot
    # picks the face farthest away and the dependence test is scale-free;
    # the bound faces follow the rows as rows of +I (upper) and -I (lower)
    free = np.ones(x.shape[0], dtype=bool) if frozen is None else ~np.asarray(frozen, dtype=bool)
    b = b - A[:, ~free] @ x[~free]
    A = A[:, free]
    norms = np.linalg.norm(A, axis=1)
    keep = norms >= 1e-9
    norms = norms[keep]
    lo, hi, z = lo[free], hi[free], x[free]
    m, nf = int(keep.sum()), z.shape[0]
    eye = np.eye(nf)
    G = np.vstack([A[keep] / norms[:, None], eye, -eye])
    h = np.concatenate([b[keep] / norms, hi, -lo])
    eq = np.concatenate([eq[keep], np.zeros(2 * nf, dtype=bool)])
    units = np.concatenate([norms, np.ones(2 * nf)])
    # every iterate is the projection onto some of the faces, so while the
    # rows and the box share a point it lies no farther from z than the box's
    # farthest corner, and no step is longer than twice that
    reach = 2.0 * float(np.linalg.norm(np.maximum(z - lo, hi - z))) * (1.0 + 1e-9) + tol

    active = []                  # indices of active rows, in order of entry
    mu = np.empty(0)             # their multipliers
    steps_left = 10 * (m + 2 * nf + 1)
    while True:
        dist = _excess(G, h, eq, z)
        dist[active] = -np.inf
        violated = dist * units > tol
        if not violated.any():
            break
        p = int(np.argmax(np.where(violated, dist, -np.inf)))
        g, hp = G[p], h[p]
        if eq[p] and g @ z < hp:
            g, hp = -g, -hp

        added = 0.0              # multiplier of the entering row
        while True:
            steps_left -= 1
            if steps_left < 0:
                raise ProjectionStall("projection ran out of active-set steps")
            N = G[active]
            r = np.linalg.lstsq(N.T, g, rcond=None)[0]
            d = g - N.T @ r
            # partial step: the first active inequality whose multiplier hits zero
            # (a quotient that overflows, over a subnormal r, never blocks first)
            t1, block = math.inf, None
            with np.errstate(over="ignore"):
                for i in np.flatnonzero(~eq[active] & (r > 0.0)):
                    ratio = max(mu[i] / r[i], 0.0)
                    if ratio < t1:
                        t1, block = ratio, i
            dd = float(d @ d)
            moves = dd > _DEPENDENT
            t2 = (float(g @ z) - hp) / dd if moves else math.inf
            t = min(t1, t2)
            if not math.isfinite(t) or moves and t * math.sqrt(dd) > reach:
                raise ProjectionStall("linear rows and box admit no common point")
            if moves:
                z = z - t * d
            mu = mu - t * r
            added += t
            if t2 <= t1:
                break
            del active[block]
            mu = np.delete(mu, block)
        active.append(p)
        mu = np.append(mu, added)

    # active bounds hold exactly, not up to rounding
    faces = np.array(active, dtype=int) - m
    upper, lower = faces[(faces >= 0) & (faces < nf)], faces[faces >= nf] - nf
    z[upper], z[lower] = hi[upper], lo[lower]
    z = np.clip(z, lo, hi)
    # each row's distance, or its excess where its normal is shorter than 1
    # (the loop's own stop test): a steep row's excess in its own units
    # grows with rounding alone
    worst = float(np.max(_excess(G, h, eq, z) * np.minimum(units, 1.0), initial=0.0))
    if worst > tol:
        raise ProjectionStall(f"projection still violated by {worst:.3e}")
    x[free] = z
    return x


# ---------------------------------------------------------------------------
# PGD with conditional momentum
# ---------------------------------------------------------------------------

def merit_state(sp: StandardProblem, x, below: float = math.inf, order=None) -> MeritState:
    """A failed or non-finite evaluation makes the merit inf, so such a
    point never wins a comparison.

    With a finite ``below``, the objective is evaluated first, then the
    constraints in the order of the indices in ``order`` (default: index
    order) until the merit with the rest taken as 0, a lower bound as
    violations are >= 0, is not below ``below``. Such a point comes back
    with merit inf and partial violations; it loses to ``below`` as its
    full merit would. ``violations`` stays indexed by constraint, so the
    sum adds its terms in the same order whatever ``order`` says: the
    order changes no decision, only the evaluations a losing point costs.

    A point that loses to ``below`` re-sorts ``order`` in place by its
    violations, largest first (a stable sort), so the constraint that
    rejected it is tried first on the next probe.
    """
    x = np.asarray(x, dtype=float)
    f = sp.objective.value(x)
    v = np.zeros(len(sp.nonlinear))
    merit = math.inf
    for i in range(len(v)) if order is None else order:
        if below < math.inf and not (f + PENALTY * v.sum() < below):
            break
        v[i] = sp.nonlinear[i].violation(x)
    else:
        merit = f + PENALTY * v.sum()
        merit = merit if math.isfinite(merit) else math.inf
    if order is not None and not merit < below:
        order.sort(key=v.__getitem__, reverse=True)
    return MeritState(x=x, objective=f, violations=v, merit=merit)


def _gradients(sp: StandardProblem, x) -> list:
    """(constraint, gradient) for each nonlinear constraint whose value and
    gradient at x are finite."""
    out = []
    with np.errstate(invalid="ignore", over="ignore"):
        for con in sp.nonlinear:
            if math.isfinite(con.value(x)):
                a = con.grad(x)
                if np.isfinite(a).all():
                    out.append((con, a))
    return out


def _linearized(gradients, p) -> tuple:
    """Rows ``c_i(p) + a_i (y - p) <= 0``, ``=`` for equalities, for each
    (c_i, a_i) in ``gradients`` whose value at p is finite."""
    rows = []
    for con, a in gradients:
        value = con.value(p)
        if math.isfinite(value):
            rows.append(LinearConstraint(a, "=" if con.sense == "=0" else "<=",
                                         float(a @ p) - value))
    return tuple(rows)


def _coordinate_grid(sp: StandardProblem, state: MeritState, rows, lo, hi, frozen,
                     order=None) -> MeritState:
    """The derivative-free fallback: each free coordinate in turn takes 9
    evenly spaced values over its box range, each point is projected onto
    the linear rows (a ``ProjectionStall`` skips it), and the first point of
    least merit is kept. Probes evaluate the constraints in ``order`` (see
    ``merit_state``).
    """
    current = state
    width = hi - lo
    for j in np.flatnonzero(~frozen & (width > 0.0) & np.isfinite(width)):
        best = current
        for value in np.linspace(lo[j], hi[j], 9):
            xc = current.x.copy()
            xc[j] = value
            try:
                xc = project(xc, rows, lo, hi, frozen=frozen)
            except ProjectionStall:
                continue
            st = merit_state(sp, xc, best.merit, order)
            if st.merit < best.merit:
                best = st
        if best.merit < current.merit - 1e-12:
            current = best
    return current


def pgd_improve(sp: StandardProblem, x0, momentum: float = 0.9) -> MeritState:
    """Improve an incumbent; never returns a point with merit above the start.

    Each of ``ITERATIONS`` iterations projects x - alpha (grad f + momentum
    * velocity) onto the linear rows, the box and the nonlinear constraints
    linearized at x, c_i(x) + grad c_i(x) (y - x) <= 0 (= for an equality);
    velocity is the previous iteration's step if it was accepted, else 0,
    and ``momentum`` lies in [0, 1). A losing probe y is retried once at the
    projection onto c_i(y) + grad c_i(x) (z - y) <= 0. Alpha halves from
    min(1, 2 * the last accepted alpha), 1 at first, on a losing probe or a
    ``ProjectionStall``, until a probe is accepted, alpha < 2^-MAX_HALVINGS,
    or the projection returns x. A search that accepts nothing ends
    refinement, unless the step was blind: the merit is inf, a nonlinear
    constraint's value or gradient or a free component of grad f is not
    finite, or every probe raised ``ProjectionStall``. Then the grid of
    ``_coordinate_grid`` runs instead, and refinement ends if it finds
    nothing either.

    When an expression gradient leaves its domain, or the run's deadline
    stops an evaluation (a central difference's too), the best state found
    so far comes back with a warning; so does an inf merit. Raises
    ``TimeLimitReached`` if the deadline has passed before the start point
    is evaluated.
    """
    lo, hi = sp.box()
    frozen = np.array([v.integral for v in sp.vars], dtype=bool)
    rows = sp.linear

    # every accepted step lowers the merit, so the current state is the best
    current = merit_state(sp, project(np.asarray(x0, dtype=float), rows, lo, hi, frozen=frozen))
    # the last accepted step while momentum is on, else None
    velocity, first_alpha = None, 1.0
    # constraint order of the line-search probes, likeliest rejecter first
    order = list(range(len(sp.nonlinear)))

    try:
        for _ in range(ITERATIONS):
            g = sp.objective.grad(current.x)
            d = np.where(np.isfinite(g) & ~frozen, g, 0.0)
            if velocity is not None:
                d = d + momentum * velocity
            gradients = _gradients(sp, current.x)
            linearized = rows + _linearized(gradients, current.x)
            # the step cannot see everything here, so a failed search proves nothing
            blind = (current.merit == math.inf or len(gradients) < len(sp.nonlinear)
                     or not np.isfinite(g[~frozen]).all())
            bar = current.merit - 1e-12
            alpha, accepted, stalled = first_alpha, None, True
            while alpha >= 0.5 ** MAX_HALVINGS:
                try:
                    y = project(current.x - alpha * d, linearized, lo, hi, frozen=frozen)
                    stalled = False
                    if np.abs(y - current.x).max() <= 1e-9:
                        break  # x itself, up to the projection's tolerance
                    cand = merit_state(sp, y, bar, order)
                    if not cand.merit < bar and gradients:
                        z = project(y, rows + _linearized(gradients, y), lo, hi, frozen=frozen)
                        cand = merit_state(sp, z, bar, order)
                    if cand.merit < bar:
                        accepted = cand
                        break
                except ProjectionStall:
                    pass
                alpha *= 0.5
            if accepted is not None:
                velocity = alpha * d if momentum > 0.0 else None
                first_alpha = min(1.0, 2.0 * alpha)
                current = accepted
                continue
            velocity = None
            if not (blind or stalled):
                break
            gridded = _coordinate_grid(sp, current, rows, lo, hi, frozen, order)
            if not gridded.merit < bar:
                break
            current = gridded
    except EvaluationError as exc:
        current.warning = f"gradient evaluation failed: {exc}"
    except TimeLimitReached:
        current.warning = TIME_LIMIT_WARNING
    if current.merit == math.inf and current.warning is None:
        current.warning = "no point with a finite merit was found"
    return current
