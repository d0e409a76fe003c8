"""Feasibility-dataset generation for nonlinear constraints.

Four stages: box-corner sampling, Latin hypercube filling, secant-step
boundary refinement between opposite-label neighbors, and committee-driven
adaptive sampling that trains several trees on random data subsets, finds
points where the committee disagrees, intersects the leaf regions around
them, and fills those regions with hit-and-run chains. Each committee tree
routes all the points at once, one polyhedron is built per distinct
combination of leaves, and the chains of a round run in lockstep as arrays.
Each chain starts at the point that found its region; a Chebyshev-centre LP
runs only where that point lies within 1e-9 of the region's boundary.

Samples keep to the region the MILP can reach. The driver passes the
linear rows over a support (its support rows) to the Latin hypercube,
which draws up to ``LH_BATCHES`` hypercubes for points inside them and
tops its design up with box points only when that budget runs out, and to
the adaptive round, whose regions all include them unless box points had
to top the design up (a region too thin to sample). It drops the corners
outside them itself.

``boundary_sample`` returns every box corner when there are at most
``cap``, else ``cap`` random ones and the center; the driver sets ``cap``
so that the corners never outnumber its Latin hypercube of ``n`` points
(every corner while ``2^d <= n``, else ``10 d``).

The sizes are module constants: a hypercube of at least ``N_LH`` points,
a committee of ``COMMITTEE_SIZE`` trees, each trained on
min(m, max(50, m // 2)) of the m points, that calls a point ambiguous when
its vote gap is at most ``DISCORDANCE`` of the committee, and
``HR_PER_POLY`` hit-and-run samples per region after ``HR_BURN_IN``
discarded steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import milp
from .errors import DegenerateDataset, EmptyPolyhedron

STRICT_MARGIN = 1e-7  # closed-set stand-in for strict split sides
CONTAIN_TOL = 1e-9
KNN_K = 10            # neighbors searched for opposite labels by secant sampling
KNN_BLOCK = 2 ** 15   # squared coordinate differences held at once by the neighbor search
N_LH = 300            # least Latin hypercube size; the static design draws max(N_LH, 50 d)
COMMITTEE_SIZE = 5    # trees in an adaptive round's committee
DISCORDANCE = 0.5     # largest vote gap, as a share of the committee, of an ambiguous point
HR_PER_POLY = 10      # hit-and-run samples kept per polyhedron
HR_BURN_IN = 20       # hit-and-run steps discarded before the first kept one
# most hypercubes a Latin hypercube kept to a region draws: enough for a
# region down to about 1/300 of its box (the speed reducer's objective, the
# thinnest measured, holds about 0.5% and needs 185), and at most 300 n
# points drawn and tested, about 35 ms at n = 350, d = 7 (2-core x86-64)
LH_BATCHES = 300


@dataclass
class Polyhedron:
    """Rows ``A @ x <= b`` intersected with a finite box.

    A row from the ``>`` side of a tree split already carries the
    closed-margin adjustment (``STRICT_MARGIN``) in ``b``.
    """

    A: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float).reshape(-1, len(self.lo))
        self.b = np.asarray(self.b, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def full_rows(self):
        """All rows including the box faces, in A x <= b form."""
        n = self.dim
        eye = np.eye(n)
        A = np.vstack([self.A, eye, -eye])
        b = np.concatenate([self.b, self.hi, -self.lo])
        return A, b


# ---------------------------------------------------------------------------
# Static stages
# ---------------------------------------------------------------------------

def boundary_sample(lo, hi, cap: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Corners of the box; all of them when 2^n <= cap, else ``cap`` distinct
    random corners plus the box center."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("boundary sampling needs a finite box")
    total = 2 ** n if n < 63 else None
    if total is not None and total <= cap:
        masks = np.arange(total)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        return lo + bits * (hi - lo)
    if rng is None:
        rng = np.random.default_rng(0)
    if total is not None:
        picks = rng.choice(total, size=cap, replace=False)
        bits = ((np.asarray(picks)[:, None] >> np.arange(n)) & 1).astype(float)
    else:
        seen = set()
        rows = []
        while len(rows) < cap:
            draw = rng.integers(0, 2, size=n)
            key = draw.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(draw.astype(float))
        bits = np.array(rows)
    corners = lo + bits * (hi - lo)
    center = (lo + hi) / 2.0
    return np.vstack([corners, center])


def lh_sample(lo, hi, n: int, rng: np.random.Generator, keep=None) -> np.ndarray:
    """Latin hypercube: one point per equal-width stratum in every dimension.

    With ``keep`` (an ``(m, d)`` array of points -> boolean mask of the ones
    to keep), the design keeps to a region: hypercubes of n points are drawn
    from ``rng`` until n of their points pass ``keep`` or ``LH_BATCHES``
    hypercubes are drawn. The points that pass come first, in the order
    drawn; only when that budget runs out do the first hypercube's points
    that fail fill the design up to n. So it always has n points, and no
    other rejected draw is returned.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    first = _hypercube(lo, hi, n, rng)
    if keep is None:
        return first
    passed = keep(first)
    parts = [first[passed]]
    count, drawn = len(parts[0]), 1
    while count < n and drawn < LH_BATCHES:
        batch = _hypercube(lo, hi, n, rng)
        parts.append(batch[keep(batch)])
        count, drawn = count + len(parts[-1]), drawn + 1
    parts.append(first[~passed])
    return np.concatenate(parts)[:n]


def _hypercube(lo: np.ndarray, hi: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """One Latin hypercube of n points. It draws ``rng.random((n, d))`` and
    then, column by column, what ``rng.permutation(n)`` would."""
    u = rng.random((n, lo.shape[0]))
    strata = rng.permuted(np.tile(np.arange(n)[:, None], (1, lo.shape[0])), axis=0)
    return lo + (strata + u) / n * (hi - lo)


def knn_boundary_sample(points, labels, values, k: int, lo, hi) -> np.ndarray:
    """Secant zero-crossings between opposite-label nearest neighbors.

    For every point, each opposite-label point among its k nearest neighbors
    contributes x_i + g_i / (g_i - g_j) * (x_j - x_i), clipped to the box,
    where g is the constraint value behind each point's label. The
    neighbors come from blocks of rows of the squared-distance matrix, a
    block's d arrays of squared coordinate differences holding near
    ``KNN_BLOCK`` elements in all, with one ``argpartition`` along the
    rows. The distances are summed over coordinates in numpy's order
    (``_pairwise_sum``), so they match a per-point distance pass bit for
    bit. Each unordered pair contributes once, from its first occurrence
    with points ascending and each point's neighbors in ``argpartition``
    order. Pairs with a non-finite or equal value are skipped.
    Near-duplicates (within 1e-7) are dropped.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    if len(set(labels.tolist())) < 2:
        raise DegenerateDataset("secant sampling needs both labels present")
    values = np.asarray(values, dtype=float)
    m, d = points.shape
    k = min(k, m - 1)
    coords = np.ascontiguousarray(points.T)
    nbrs = np.empty((m, k), dtype=np.intp)
    rows = max(1, KNN_BLOCK // (m * d))
    for start in range(0, m, rows):
        stop = min(m, start + rows)
        d2 = _pairwise_sum([(c[None, :] - c[start:stop, None]) ** 2 for c in coords])
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        nbrs[start:stop] = np.argpartition(d2, k - 1, axis=1)[:, :k]
    i = np.repeat(np.arange(m), k)
    j = nbrs.ravel()
    opposite = labels[i] != labels[j]
    i, j = i[opposite], j[opposite]
    # first occurrence of each unordered pair: the stable sort keeps
    # occurrences of one pair in order
    pair = np.minimum(i, j) * m + np.maximum(i, j)
    order = np.argsort(pair, kind="stable")
    first = np.ones(order.size, dtype=bool)
    first[1:] = pair[order[1:]] != pair[order[:-1]]
    keep = np.sort(order[first])
    i, j = i[keep], j[keep]
    gi, gj = values[i], values[j]
    ok = (gi != gj) & np.isfinite(gi) & np.isfinite(gj)
    i, j, gi, gj = i[ok], j[ok], gi[ok], gj[ok]
    t = gi / (gi - gj)
    new = points[i] + t[:, None] * (points[j] - points[i])
    return _dedupe(np.clip(new, lo, hi), tol=1e-7)


def _pairwise_sum(terms):
    """The elementwise sum of a list of equal-shape arrays, rounded as
    numpy's ``sum`` rounds a contiguous axis holding them in order:
    pairwise, one term after another below 8 terms, else in 8 interleaved
    partial sums added as a tree, then the remainder one after another;
    above 128 terms the two halves are summed apart and added.

    ``_pairwise_sum([(x[:, c] - p[c]) ** 2 for c in range(d)])`` is thus
    ``((x - p) ** 2).sum(axis=1)`` bit for bit, without a reduction over a
    short axis.
    """
    n = len(terms)
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if n < 8:
        total, rest = terms[0].copy(), terms[1:]
    else:
        part = [t.copy() for t in terms[:8]]
        full = n - n % 8
        for i in range(8, full, 8):
            for j in range(8):
                part[j] += terms[i + j]
        total = ((part[0] + part[1]) + (part[2] + part[3])) + ((part[4] + part[5]) + (part[6] + part[7]))
        rest = terms[full:]
    for t in rest:
        total += t
    return total


def _dedupe(pts: np.ndarray, tol: float) -> np.ndarray:
    """The points in order, less each one within ``tol`` (max norm) of an
    earlier kept point.

    A match needs first coordinates within ``tol``, so each point is tested
    only against the earlier kept points in its window of the points sorted
    on the first coordinate. The window reaches 2 tol, twice what a match
    needs, so rounding at its edges loses no match.
    """
    order = np.argsort(pts[:, 0], kind="stable")
    first = pts[order, 0]
    starts = np.searchsorted(first, pts[:, 0] - 2.0 * tol, side="left")
    ends = np.searchsorted(first, pts[:, 0] + 2.0 * tol, side="right")
    keep = np.zeros(pts.shape[0], dtype=bool)
    for i, p in enumerate(pts):
        near = order[starts[i]:ends[i]]
        near = near[keep[near]]  # kept so far; later points are not kept yet
        keep[i] = near.size == 0 or np.abs(pts[near] - p).max(axis=1).min() > tol
    return pts[keep]


# ---------------------------------------------------------------------------
# Polytope sampling
# ---------------------------------------------------------------------------

def chebyshev_center(poly: Polyhedron):
    """Center and radius of the largest ball inside the polyhedron (LP)."""
    n = poly.dim
    A, b = poly.full_rows()
    norms = np.linalg.norm(A, axis=1)
    m = A.shape[0]
    # variables (x, r): maximize r subject to A x + ||a_i|| r <= b; the
    # radius is bounded by the box diagonal, and anything at the negative
    # cap is already a certificate of emptiness
    diag = float(np.linalg.norm(poly.hi - poly.lo)) + 1.0
    rows = np.hstack([A, norms[:, None]])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    lower = np.concatenate([poly.lo - 1.0, [-diag]])
    upper = np.concatenate([poly.hi + 1.0, [diag]])
    lp = milp.LpProblem(
        c=c, rows=rows, senses=["<="] * m, rhs=b, lower=lower, upper=upper
    )
    sol = milp.solve_lp(lp)
    if sol.status != "optimal":
        raise EmptyPolyhedron(f"center LP ended with status {sol.status}")
    center, radius = sol.x[:n], float(sol.x[n])
    if radius <= 0.0:
        raise EmptyPolyhedron("polyhedron has empty interior")
    return center, radius


def hit_and_run(
    polys: list,
    starts: list,
    n: int,
    rng: np.random.Generator,
    burn_in: int = 0,
) -> list:
    """Uniform-limit MCMC samples along random chords, one chain per
    polyhedron (all of one dimension d), the chains stepped together as
    arrays.

    Chain p starts at ``starts[p]`` (clipped to the box when outside
    ``polys[p]``) and returns an ``(n, d)`` array after ``burn_in``
    discarded steps, or None when 100 consecutive chords degenerate to
    length below 1e-12 (a zero direction counts as one). Every output
    satisfies all rows with slack >= -1e-9.

    Draws are taken chain by chain before any step: per step
    ``rng.normal(size=d)`` and then ``rng.random()`` for the chord position.
    The rows of all polyhedra are stacked zero-padded, with padded ``b`` =
    +inf, and each product runs as one matrix-vector product per chain. So
    a chain that never collapses is bit for bit the chain run alone, one
    polyhedron after another on the same generator, with each step placed
    by ``rng.uniform(lam_min, lam_max)``. A collapsed step uses up its
    draws, and a chain that runs out draws more after all the others.
    """
    P = len(polys)
    if P == 0 or n == 0:
        return [np.empty((0, poly.dim)) for poly in polys]
    d = polys[0].dim
    steps = burn_in + n
    M = max(poly.A.shape[0] for poly in polys) + 2 * d
    A3 = np.zeros((P, M, d))
    B = np.full((P, M), np.inf)
    for p, poly in enumerate(polys):
        A, b = poly.full_rows()
        A3[p, :len(b)] = A
        B[p, :len(b)] = b

    def draw(U, W):
        """Fill one chain's next directions U and positions W."""
        for s in range(len(W)):
            rng.standard_normal(out=U[s])
            W[s] = rng.random()
        U += 0.0  # rng.normal(size=d) is 0.0 + 1.0 * z, which has no -0.0

    U = np.empty((P, steps, d))
    W = np.empty((P, steps))
    for p in range(P):
        draw(U[p], W[p])
    drawn = np.full(P, steps)
    used = np.zeros(P, dtype=int)

    X = np.array(starts, dtype=float).reshape(P, d)
    outside = ~(np.matmul(A3, X[:, :, None])[:, :, 0] <= B).all(axis=1)
    for p in np.nonzero(outside)[0]:
        X[p] = np.clip(X[p], polys[p].lo, polys[p].hi)

    out = np.empty((P, n, d))
    live = np.arange(P)  # chain of each row of A3, B and X
    taken = np.zeros(P, dtype=int)
    collapsed = np.zeros(P, dtype=int)
    dead = np.zeros(P, dtype=bool)
    while live.size:
        for p in live[used[live] == drawn[live]]:
            if drawn[p] == U.shape[1]:
                U = np.concatenate([U, np.empty((P, steps, d))], axis=1)
                W = np.concatenate([W, np.empty((P, steps))], axis=1)
            draw(U[p, drawn[p]:drawn[p] + steps], W[p, drawn[p]:drawn[p] + steps])
            drawn[p] += steps
        u = U[live, used[live]]
        w = W[live, used[live]]
        used[live] += 1
        norm = np.sqrt(np.matmul(u[:, None, :], u[:, :, None]))[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = u / norm[:, None]
            Au = np.matmul(A3, u[:, :, None])[:, :, 0]
            ratio = (B - np.matmul(A3, X[:, :, None])[:, :, 0]) / Au
        lam_max = np.where(Au > 1e-14, ratio, np.inf).min(axis=1)
        lam_min = np.where(Au < -1e-14, ratio, -np.inf).max(axis=1)
        ok = np.isfinite(lam_max) & np.isfinite(lam_min) & ~(lam_max - lam_min < 1e-12)
        lam = lam_min[ok] + (lam_max[ok] - lam_min[ok]) * w[ok]
        X[ok] = X[ok] + lam[:, None] * u[ok]
        collapsed[live] = np.where(ok, 0, collapsed[live] + 1)
        taken[live[ok]] += 1
        record = ok & (taken[live] > burn_in)
        out[live[record], taken[live[record]] - burn_in - 1] = X[record]
        dead[live] = collapsed[live] >= 100
        keep = (taken[live] < steps) & ~dead[live]
        if not keep.all():
            live, A3, B, X = live[keep], A3[keep], B[keep], X[keep]
    return [None if dead[p] else out[p] for p in range(P)]


# ---------------------------------------------------------------------------
# Committee-driven adaptive sampling
# ---------------------------------------------------------------------------

@dataclass
class AdaptiveSampleResult:
    points: np.ndarray
    polyhedra: list = field(default_factory=list)


def oct_adaptive_sample(
    points,
    labels,
    rng: np.random.Generator,
    train_tree,
    lo,
    hi,
    deadline: float = math.inf,
    rows=((), ()),
) -> AdaptiveSampleResult:
    """One adaptive round: train a committee of ``COMMITTEE_SIZE`` trees on
    random subsets of min(m, max(50, m // 2)) of the m points, locate the
    points whose vote gap is at most ``DISCORDANCE`` of the committee,
    intersect the leaf regions the committee routes them to, and
    hit-and-run those regions for ``HR_PER_POLY`` new (unlabeled) samples
    each.

    ``train_tree(X, y, seed)`` must return a tree exposing ``leaves()``
    (``(value, path)`` pairs, path entries ``(a, b, on_left_side)``) and
    ``route(X)`` (each row's index into ``leaves()``). Each tree routes
    every point once; a point's votes are its leaves' values, and the
    ambiguous points' leaves come from the same walk. Each distinct
    combination of leaves gives one polyhedron, in the order the ambiguous
    points first reach it. A polyhedron is kept when it holds a ball of
    radius 1e-9: its chain starts at the point that first reached it when
    that point's distance to every face, box faces included, is at least
    1e-9, and else at the center of ``chebyshev_center``, which must have
    that radius. The Chebyshev radius is never below the point's distance,
    so the LP only settles the points near a face. One ``hit_and_run``
    call then fills every kept polyhedron, and a chain that collapses adds
    nothing. When
    ``deadline`` (a ``time.monotonic()`` instant) passes while the
    polyhedra are being checked, no further polyhedron is kept and the
    round samples the ones it has.

    ``rows``, a pair ``(A, b)`` (none by default), joins every polyhedron
    after its split rows, so that every sample satisfies ``A @ x <= b`` to 1e-9 too; a
    point that found its region outside those rows hands its region to the
    Chebyshev LP.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m, d = points.shape
    K = COMMITTEE_SIZE
    C = min(m, max(50, m // 2))

    committee = []
    for _ in range(K):
        idx = rng.choice(m, size=C, replace=False)
        committee.append(train_tree(points[idx], labels[idx], int(rng.integers(0, 2**31 - 1))))

    leaves = [tree.leaves() for tree in committee]
    routes = np.column_stack([tree.route(points) for tree in committee])
    pos = sum(
        (np.array([value for value, _ in tree_leaves])[route] >= 0.5).astype(float)
        for tree_leaves, route in zip(leaves, routes.T)
    )
    gap = np.abs(pos - (K - pos))
    ambiguous = np.nonzero(gap <= K * DISCORDANCE)[0]

    # one polyhedron per distinct combination of leaves, in the order the
    # ambiguous points first reach it, each beside the point that first
    # reaches it
    polys, finders = [], []
    if ambiguous.size:
        routes = routes[ambiguous]
        _, first = np.unique(routes, axis=0, return_index=True)
        for i in np.sort(first):
            rows_a, rows_b = [], []
            for tree_leaves, leaf in zip(leaves, routes[i]):
                for a, bb, went_left in tree_leaves[leaf][1]:
                    if went_left:
                        rows_a.append(a)
                        rows_b.append(bb)
                    else:
                        # strict side a.x > b, closed with a small margin
                        rows_a.append(-a)
                        rows_b.append(-(bb + STRICT_MARGIN))
            polys.append(Polyhedron(
                A=np.vstack([np.array(rows_a).reshape(-1, d), np.reshape(rows[0], (-1, d))]),
                b=np.concatenate([rows_b, rows[1]]),
                lo=np.asarray(lo, dtype=float),
                hi=np.asarray(hi, dtype=float),
            ))
            finders.append(points[ambiguous[i]])

    kept, starts = [], []
    for pi, (poly, start) in enumerate(zip(polys, finders)):
        if time.monotonic() > deadline:
            break
        A, b = poly.full_rows()
        if not np.min((b - A @ start) / np.linalg.norm(A, axis=1)) >= 1e-9:
            # too near a face, or outside by the strict-side margin: the
            # Chebyshev LP decides, as its radius is at least the point's
            try:
                start, radius = chebyshev_center(poly)
            except EmptyPolyhedron:
                continue
            if radius < 1e-9:
                continue
        kept.append(pi)
        starts.append(start)
    chains = hit_and_run(
        [polys[pi] for pi in kept], starts, HR_PER_POLY, rng, burn_in=HR_BURN_IN
    )
    filled = [(pi, draws) for pi, draws in zip(kept, chains) if draws is not None]
    return AdaptiveSampleResult(
        points=np.concatenate([draws for _, draws in filled] + [np.empty((0, d))]),
        polyhedra=polys,
    )
