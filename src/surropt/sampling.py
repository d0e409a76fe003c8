"""Feasibility-dataset generation for nonlinear constraints.

Four stages: box-corner sampling, Latin hypercube filling, secant-step
boundary refinement between opposite-label neighbors, and committee-driven
adaptive sampling that trains several trees on random data subsets, finds
points where the committee disagrees, intersects the leaf regions around
them, and fills those regions with hit-and-run chains.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import milp
from .errors import DegenerateDataset, EmptyPolyhedron, NumericalCollapse

STRICT_MARGIN = 1e-7  # closed-set stand-in for strict split sides
CONTAIN_TOL = 1e-9


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

    def contains(self, x, tol: float = CONTAIN_TOL) -> bool:
        A, b = self.full_rows()
        return bool(np.all(A @ x <= b + tol))

    def canonical_key(self, decimals: int = 10):
        """Hashable identity used to drop duplicate polyhedra."""
        rows = sorted(
            (tuple(np.round(self.A[i], decimals)) + (round(float(self.b[i]), decimals),))
            for i in range(self.A.shape[0])
        )
        return tuple(rows)


@dataclass
class SamplerConfig:
    """Knobs for the whole sampling pipeline."""

    n_lh: int = 300
    knn_k: int = 10
    committee_size: int = 5          # trees trained on random subsets
    subset_size: Optional[int] = None  # default: min(|D|, max(50, |D|/2))
    discordance: float = 0.5           # committee vote-gap threshold in [0, 1]
    hr_per_poly: int = 10
    hr_burn_in: int = 20
    adaptive_rounds: int = 1
    corner_cap_exp: int = 10           # enumerate at most 2^this corners
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.discordance <= 1.0:
            raise ValueError("discordance must lie in [0, 1]")
        for field_name in ("n_lh", "knn_k", "committee_size", "hr_per_poly"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")


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


def lh_sample(lo, hi, n: int, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube: one point per equal-width stratum in every dimension."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.shape[0]
    u = rng.random((n, d))
    pts = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        pts[:, j] = lo[j] + (perm + u[:, j]) / n * (hi[j] - lo[j])
    return pts


def knn_boundary_sample(points, labels, evaluate: Callable, k: int, lo, hi) -> np.ndarray:
    """Secant zero-crossings between opposite-label nearest neighbors.

    For every point, each opposite-label point among its k nearest neighbors
    contributes x_i + g_i / (g_i - g_j) * (x_j - x_i), clipped to the box.
    Pairs with a non-finite value are skipped. Near-duplicates (within 1e-7)
    are dropped.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    if len(set(labels.tolist())) < 2:
        raise DegenerateDataset("secant sampling needs both labels present")
    m = points.shape[0]
    values = np.array([float(evaluate(points[i])) for i in range(m)])
    k = min(k, m - 1)
    out = []
    seen_pairs = set()
    for i in range(m):
        d2 = ((points - points[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        nbrs = np.argpartition(d2, k - 1)[:k]
        for j in nbrs:
            j = int(j)
            if labels[i] == labels[j]:
                continue
            pair = (min(i, j), max(i, j))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            gi, gj = values[i], values[j]
            if gi == gj or not (math.isfinite(gi) and math.isfinite(gj)):
                continue
            t = gi / (gi - gj)
            new = points[i] + t * (points[j] - points[i])
            out.append(np.clip(new, lo, hi))
    if not out:
        return np.empty((0, points.shape[1]))
    return _dedupe(np.array(out), tol=1e-7)


def _dedupe(pts: np.ndarray, tol: float) -> np.ndarray:
    kept = np.empty_like(pts)
    count = 0
    for p in pts:
        if count == 0 or np.abs(kept[:count] - p).max(axis=1).min() > tol:
            kept[count] = p
            count += 1
    return kept[:count].copy()


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


def find_interior_point(poly: Polyhedron) -> np.ndarray:
    return chebyshev_center(poly)[0]


def hit_and_run(
    poly: Polyhedron,
    x0,
    n: int,
    rng: np.random.Generator,
    burn_in: int = 0,
) -> np.ndarray:
    """Uniform-limit MCMC samples along random chords of the polyhedron.

    Every output satisfies all rows with slack >= -1e-9. Raises
    NumericalCollapse when 100 consecutive chords degenerate to length below
    1e-12.
    """
    A, b = poly.full_rows()
    x = np.asarray(x0, dtype=float).copy()
    if not poly.contains(x, tol=0.0):
        x = np.clip(x, poly.lo, poly.hi)
    out = np.empty((n, poly.dim))
    collapsed = 0
    produced = 0
    step = 0
    while produced < n:
        u = rng.normal(size=poly.dim)
        norm = np.linalg.norm(u)
        if norm == 0.0:
            continue
        u /= norm
        Au = A @ u
        slack = b - A @ x
        lam_max = math.inf
        lam_min = -math.inf
        pos = Au > 1e-14
        neg = Au < -1e-14
        if pos.any():
            lam_max = float(np.min(slack[pos] / Au[pos]))
        if neg.any():
            lam_min = float(np.max(slack[neg] / Au[neg]))
        if not math.isfinite(lam_max) or not math.isfinite(lam_min):
            # bounded box guarantees this cannot persist; treat as degenerate
            collapsed += 1
        elif lam_max - lam_min < 1e-12:
            collapsed += 1
        else:
            collapsed = 0
            lam = rng.uniform(lam_min, lam_max)
            x = x + lam * u
            step += 1
            if step > burn_in:
                out[produced] = x
                produced += 1
        if collapsed >= 100:
            raise NumericalCollapse("hit-and-run chord collapsed 100 times in a row")
    return out


# ---------------------------------------------------------------------------
# Committee-driven adaptive sampling
# ---------------------------------------------------------------------------

@dataclass
class AdaptiveSampleResult:
    points: np.ndarray
    labels: np.ndarray
    committee: list = field(default_factory=list)
    polyhedra: list = field(default_factory=list)
    point_poly: np.ndarray = None  # source polyhedron index per point


def oct_adaptive_sample(
    points,
    labels,
    label_fn: Callable,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    train_tree,
    lo,
    hi,
    deadline: Optional[float] = None,
) -> AdaptiveSampleResult:
    """One adaptive round: train a tree committee on random subsets, locate
    high-disagreement dataset points, intersect the leaf regions the
    committee routes them to, and hit-and-run those regions for new labeled
    samples.

    ``train_tree(X, y, seed)`` must return a tree exposing ``predict_one`` and
    ``leaf_path``; ``label_fn(x)`` returns the 0/1 feasibility label. When a
    ``deadline`` (time.monotonic seconds) passes mid-round, the round stops
    early and returns whatever it has gathered.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m = points.shape[0]
    K = cfg.committee_size
    if K < 2:
        raise ValueError("committee needs at least two members")
    C = cfg.subset_size
    if C is None:
        C = min(m, max(50, m // 2))
    C = min(C, m)

    committee = []
    for i in range(K):
        idx = rng.choice(m, size=C, replace=False)
        committee.append(train_tree(points[idx], labels[idx], int(rng.integers(0, 2**31 - 1))))

    votes = np.zeros((m, K))
    for t, tree in enumerate(committee):
        for i in range(m):
            votes[i, t] = 1.0 if tree.predict_one(points[i]) >= 0.5 else 0.0
    pos = votes.sum(axis=1)
    gap = np.abs(pos - (K - pos))
    ambiguous = np.nonzero(gap <= K * cfg.discordance)[0]

    polys = []
    keys = {}
    for i in ambiguous:
        rows_a, rows_b = [], []
        for tree in committee:
            for a, bb, went_left in tree.leaf_path(points[i]):
                if went_left:
                    rows_a.append(a)
                    rows_b.append(bb)
                else:
                    # strict side a.x > b, closed with a small margin
                    rows_a.append(-a)
                    rows_b.append(-(bb + STRICT_MARGIN))
        poly = Polyhedron(
            A=np.array(rows_a).reshape(-1, points.shape[1]),
            b=np.array(rows_b),
            lo=np.asarray(lo, dtype=float),
            hi=np.asarray(hi, dtype=float),
        )
        key = poly.canonical_key()
        if key not in keys:
            keys[key] = len(polys)
            polys.append(poly)

    new_pts = []
    new_labels = []
    sources = []
    for pi, poly in enumerate(polys):
        if deadline is not None and time.monotonic() > deadline:
            break
        try:
            center, radius = chebyshev_center(poly)
        except EmptyPolyhedron:
            continue
        if radius < 1e-9:
            continue
        try:
            draws = hit_and_run(poly, center, cfg.hr_per_poly, rng, burn_in=cfg.hr_burn_in)
        except NumericalCollapse:
            continue
        for p in draws:
            new_pts.append(p)
            new_labels.append(float(label_fn(p)))
            sources.append(pi)

    if new_pts:
        pts = np.array(new_pts)
        lbl = np.array(new_labels)
        src = np.array(sources)
    else:
        pts = np.empty((0, points.shape[1]))
        lbl = np.empty((0,))
        src = np.empty((0,), dtype=int)
    return AdaptiveSampleResult(
        points=pts, labels=lbl, committee=committee, polyhedra=polys, point_poly=src
    )
