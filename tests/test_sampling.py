import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surropt import sampling as S
from surropt.errors import DegenerateDataset, EmptyPolyhedron
from surropt.learners import train_tree


def test_boundary_all_corners_small_box():
    pts = S.boundary_sample([0.51, 0.3], [1.5, 1.6], cap=1024)
    assert pts.shape == (4, 2)
    corners = {(0.51, 0.3), (0.51, 1.6), (1.5, 0.3), (1.5, 1.6)}
    assert {tuple(p) for p in pts} == corners


def test_boundary_one_dimensional():
    pts = S.boundary_sample([0.0], [1.0], cap=16)
    assert sorted(p[0] for p in pts) == [0.0, 1.0]


def test_boundary_capped_corners_unique_plus_center():
    rng = np.random.default_rng(0)
    pts = S.boundary_sample(np.zeros(20), np.ones(20), cap=100, rng=rng)
    assert pts.shape == (101, 20)
    assert len({tuple(p) for p in pts}) == 101
    assert np.allclose(pts[-1], 0.5)  # center rides along


def test_lh_stratification():
    for n in (1, 4, 16):
        pts = S.lh_sample([0.0], [1.0], n, np.random.default_rng(1))
        strata = sorted(min(int(p[0] * n), n - 1) for p in pts)
        assert strata == list(range(n))


def test_lh_deterministic_given_seed():
    a = S.lh_sample([0.0, -1.0], [1.0, 2.0], 8, np.random.default_rng(5))
    b = S.lh_sample([0.0, -1.0], [1.0, 2.0], 8, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_knn_secant_midpoint():
    pts = np.array([[0.0], [1.0]])
    labels = np.array([1.0, 0.0])
    new = S.knn_boundary_sample(pts, labels, [-0.5, 0.5], k=1, lo=[0.0], hi=[1.0])
    assert new.shape == (1, 1)
    assert new[0, 0] == pytest.approx(0.5)


def test_knn_secant_asymmetric_values():
    pts = np.array([[0.0], [1.0]])
    labels = np.array([1.0, 0.0])
    new = S.knn_boundary_sample(
        pts, labels, [-1.0, 3.0], k=1, lo=[0.0], hi=[1.0]
    )
    assert new[0, 0] == pytest.approx(0.25)


def test_knn_single_label_raises():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(DegenerateDataset):
        S.knn_boundary_sample(pts, np.array([1.0, 1.0]), [-1.0, -1.0], k=1, lo=[0.0], hi=[1.0])


def test_knn_points_clip_to_box():
    pts = np.array([[0.0], [0.4]])
    labels = np.array([1.0, 0.0])
    # steep secant would extrapolate past the box without clipping
    new = S.knn_boundary_sample(
        pts, labels, pts[:, 0] * 10 - 3.5, k=1, lo=[0.0], hi=[0.3]
    )
    assert (new >= 0.0).all() and (new <= 0.3).all()


def test_knn_matches_full_distance_matrix():
    # reference: neighbours from the full m x m distance matrix
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.0, 1.0, size=(60, 3))

    def g(p):
        return float(p @ p - 0.6)

    labels = np.array([1.0 if g(p) <= 0 else 0.0 for p in pts])
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    expected, seen = [], set()
    for i in range(len(pts)):
        for j in np.argpartition(d2[i], 4)[:5]:
            pair = (min(i, int(j)), max(i, int(j)))
            if labels[i] == labels[j] or pair in seen:
                continue
            seen.add(pair)
            t = g(pts[i]) / (g(pts[i]) - g(pts[j]))
            expected.append(np.clip(pts[i] + t * (pts[j] - pts[i]), -1.0, 1.0))
    values = [g(p) for p in pts]
    new = S.knn_boundary_sample(pts, labels, values, k=5, lo=np.full(3, -1.0), hi=np.ones(3))
    assert np.array_equal(new, S._dedupe(np.array(expected), tol=1e-7))


def test_knn_skips_pairs_with_non_finite_values():
    # a black box that returns NaN on part of the box: secants through a
    # NaN value are skipped, so every sample has finite coordinates
    def g(p):
        return math.nan if p[0] > 0.7 else p[1] - 0.5

    # the first point sits in the NaN region next to feasible points
    pts = np.vstack([[0.8, 0.2], S.lh_sample([0.0, 0.0], [1.0, 1.0], 200, np.random.default_rng(3))])
    labels = np.array([1.0 if g(p) <= 1e-6 else 0.0 for p in pts])
    values = [g(p) for p in pts]
    new = S.knn_boundary_sample(pts, labels, values, k=10, lo=[0.0, 0.0], hi=[1.0, 1.0])
    assert len(new) > 0
    assert np.isfinite(new).all()
    assert np.allclose(new[:, 1], 0.5)


def _knn_reference(points, labels, values, k, lo, hi):
    """The per-point loop, as a reference: for each point one distance
    pass, one argpartition and a walk over its k neighbors, each unordered
    opposite-label pair taken at its first occurrence."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    m = points.shape[0]
    k = min(k, m - 1)
    out, seen = [], set()
    for i in range(m):
        d2 = ((points - points[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        for j in np.argpartition(d2, k - 1)[:k]:
            j = int(j)
            pair = (min(i, j), max(i, j))
            if labels[i] == labels[j] or pair in seen:
                continue
            seen.add(pair)
            gi, gj = values[i], values[j]
            if gi == gj or not (math.isfinite(gi) and math.isfinite(gj)):
                continue
            t = gi / (gi - gj)
            out.append(np.clip(points[i] + t * (points[j] - points[i]), lo, hi))
    if not out:
        return np.empty((0, points.shape[1]))
    return S._dedupe(np.array(out), tol=1e-7)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 60),
    d=st.integers(1, 9),
    k=st.integers(1, 70),
    n_dups=st.integers(0, 20),
    values=st.sampled_from(["continuous", "equal", "non_finite"]),
    flip=st.booleans(),
    block_rows=st.sampled_from([1, 3, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=2, d=1, k=5, n_dups=0, values="continuous", flip=False, block_rows=1, seed=0)
def test_knn_matches_the_per_point_loop(m, d, k, n_dups, values, flip, block_rows, seed):
    # duplicated points tie distances, rounded values make equal pairs, and
    # k reaches past m - 1; the blocks of distance rows run from one row to
    # all of them
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(m, d))
    pts = np.vstack([base, base[rng.integers(0, m, size=n_dups)]])[rng.permutation(m + n_dups)]
    n = len(pts)
    g = rng.normal(size=n)
    if values == "equal":
        g = np.round(g)
    elif values == "non_finite":
        bad = rng.random(n) < 0.3
        g[bad] = rng.choice([math.nan, math.inf, -math.inf], size=int(bad.sum()))
    labels = (g <= 0.0).astype(float)
    if flip:
        labels = 1.0 - labels
    if labels.min() == labels.max():
        labels[0] = 1.0 - labels[0]
    lo, hi = np.full(d, -0.8), np.full(d, 0.8)
    with mock.patch.object(S, "KNN_BLOCK", block_rows * n * d):
        got = S.knn_boundary_sample(pts, labels, g, k, lo, hi)
    want = _knn_reference(pts, labels, g, k, lo, hi)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.integers(1, 20), st.integers(120, 300)),
    shape=st.sampled_from([(), (3,), (4, 5)]),
    scale_exp=st.integers(-100, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_sum_rounds_as_numpy_sum(n, shape, scale_exp, seed):
    # up to 7 terms one after another, then 8 partial sums added as a
    # tree, and halves above 128 terms
    rng = np.random.default_rng(seed)
    stacked = rng.standard_normal(shape + (n,)) * 10.0 ** (scale_exp * rng.random(n))
    got = S._pairwise_sum([stacked[..., i] for i in range(n)])
    assert np.array_equal(got, stacked.sum(axis=-1))


def _dedupe_reference(pts, tol):
    """Quadratic reference: keep each point unless an earlier kept one lies
    within tol of it in the max norm."""
    kept = []
    for p in pts:
        if not kept or np.abs(np.array(kept) - p).max(axis=1).min() > tol:
            kept.append(p)
    return np.array(kept).reshape(-1, pts.shape[1])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 4),
    tol_exp=st.integers(-9, -1),
    scale_exp=st.integers(-6, 9),
    n_dups=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_dedupe_matches_quadratic_reference(n, d, tol_exp, scale_exp, n_dups, seed):
    # near-duplicates are planted strictly inside, exactly at and outside
    # tol of a base point, in every coordinate or in one
    rng = np.random.default_rng(seed)
    tol = 10.0 ** tol_exp
    base = rng.uniform(-1.0, 1.0, size=(n, d)) * 10.0 ** scale_exp
    offsets = tol * rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=(n_dups, d))
    offsets[rng.random(n_dups) < 0.3, 1:] = 0.0
    dups = base[rng.integers(0, n, size=n_dups)] + offsets
    pts = np.vstack([base, dups])[rng.permutation(n + n_dups)]
    assert np.array_equal(S._dedupe(pts, tol), _dedupe_reference(pts, tol))



def test_chebyshev_unit_box():
    poly = S.Polyhedron(A=np.empty((0, 2)), b=np.empty(0), lo=np.zeros(2), hi=np.ones(2))
    center, radius = S.chebyshev_center(poly)
    assert np.allclose(center, [0.5, 0.5])
    assert radius == pytest.approx(0.5)


def test_chebyshev_triangle_incenter():
    poly = S.Polyhedron(
        A=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
        b=np.array([0.0, 0.0, 1.0]),
        lo=np.array([-5.0, -5.0]),
        hi=np.array([5.0, 5.0]),
    )
    _, radius = S.chebyshev_center(poly)
    assert radius == pytest.approx(1.0 / (2.0 + math.sqrt(2.0)), abs=1e-7)


def test_chebyshev_empty():
    poly = S.Polyhedron(
        A=np.array([[1.0], [-1.0]]),
        b=np.array([0.0, -1.0]),
        lo=np.array([-5.0]),
        hi=np.array([5.0]),
    )
    with pytest.raises(EmptyPolyhedron):
        S.chebyshev_center(poly)


def test_hit_and_run_containment_and_means():
    poly = S.Polyhedron(A=np.empty((0, 2)), b=np.empty(0), lo=np.zeros(2), hi=np.ones(2))
    [draws] = S.hit_and_run([poly], [np.array([0.5, 0.5])], 10_000, np.random.default_rng(11), burn_in=20)
    assert draws.shape == (10_000, 2)
    assert (draws >= -1e-9).all() and (draws <= 1.0 + 1e-9).all()
    means = draws.mean(axis=0)
    assert (means >= 0.45).all() and (means <= 0.55).all()


def test_hit_and_run_respects_rows():
    poly = S.Polyhedron(
        A=np.array([[1.0, 1.0]]), b=np.array([1.0]), lo=np.zeros(2), hi=np.ones(2)
    )
    [draws] = S.hit_and_run([poly], [np.array([0.25, 0.25])], 2000, np.random.default_rng(3), burn_in=10)
    assert (draws.sum(axis=1) <= 1.0 + 1e-9).all()


def test_hit_and_run_collapse():
    degenerate = S.Polyhedron(
        A=np.empty((0, 2)), b=np.empty(0), lo=np.array([0.3, 0.3]), hi=np.array([0.3, 0.3])
    )
    assert S.hit_and_run([degenerate], [np.array([0.3, 0.3])], 5, np.random.default_rng(0)) == [None]


def _hit_and_run_reference(poly, x0, n, rng, burn_in=0):
    """One chain run alone, as ``hit_and_run`` ran before its chains were
    stepped together; None where that loop raised on collapse."""
    A, b = poly.full_rows()
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(A @ x <= b):
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
            return None
    return out


def _random_polyhedron(rng, d):
    """A box around an interior point, cut by 0-24 random rows that keep
    the point strictly inside; returns the polyhedron and the point."""
    x0 = rng.normal(size=d)
    lo = x0 - rng.uniform(0.01, 3.0, size=d)
    hi = x0 + rng.uniform(0.01, 3.0, size=d)
    m = int(rng.integers(0, 25))
    A = rng.normal(size=(m, d)) * rng.choice([1e-3, 1.0, 50.0], size=(m, 1))
    A[rng.random(size=(m, d)) < 0.3] = 0.0
    b = A @ x0 + rng.uniform(1e-3, 2.0, size=m)
    return S.Polyhedron(A=A, b=b, lo=lo, hi=hi), x0


def test_hit_and_run_lockstep_matches_chains_run_alone():
    # every chain of one call is byte-identical to the chain run alone on
    # a shared generator, and the generator ends in the same state
    rng = np.random.default_rng(2023)
    chains = 0
    for case in range(60):
        d = int(rng.integers(1, 12))
        made = [_random_polyhedron(rng, d) for _ in range(int(rng.integers(1, 61)))]
        polys = [poly for poly, _ in made]
        starts = [x0 for _, x0 in made]
        n, burn_in = int(rng.integers(1, 13)), int(rng.integers(0, 21))
        lockstep, alone = np.random.default_rng(case), np.random.default_rng(case)
        got = S.hit_and_run(polys, starts, n, lockstep, burn_in=burn_in)
        want = [_hit_and_run_reference(p, x0, n, alone, burn_in) for p, x0 in zip(polys, starts)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert w is not None and g.shape == (n, d)
            assert g.tobytes() == w.tobytes()
        assert lockstep.random() == alone.random()
        chains += len(got)
    assert chains > 1000


def test_hit_and_run_collapsed_chain_leaves_the_others_whole():
    rng = np.random.default_rng(5)
    healthy = [_random_polyhedron(rng, 3) for _ in range(4)]
    degenerate = S.Polyhedron(
        A=np.empty((0, 3)), b=np.empty(0), lo=np.array([0.0, 0.2, 0.0]), hi=np.array([1.0, 0.2, 1.0])
    )
    polys = [healthy[0][0], healthy[1][0], degenerate, healthy[2][0], healthy[3][0]]
    starts = [healthy[0][1], healthy[1][1], np.array([0.5, 0.2, 0.5]), healthy[2][1], healthy[3][1]]
    got = S.hit_and_run(polys, starts, 7, np.random.default_rng(0), burn_in=3)
    assert got[2] is None
    for i in (0, 1, 3, 4):
        assert got[i].shape == (7, 3)
        A, b = polys[i].full_rows()
        assert (got[i] @ A.T <= b + 1e-9).all()


# ---------------------------------------------------------------------------
# Committee-driven adaptive sampling
# ---------------------------------------------------------------------------

def _tree_trainer(X, y, seed):
    return train_tree(X, y, task="classifier", max_depth=3, oblique=True)


def _recording_trainer(committee):
    """``_tree_trainer`` that appends every tree it trains to ``committee``."""

    def trainer(X, y, seed):
        committee.append(_tree_trainer(X, y, seed))
        return committee[-1]

    return trainer


def _sampler(monkeypatch, committee_size, hr_per_poly, hr_burn_in):
    """Patch the adaptive round's sizes; the discordance stays 0.5."""
    monkeypatch.setattr(S, "COMMITTEE_SIZE", committee_size)
    monkeypatch.setattr(S, "HR_PER_POLY", hr_per_poly)
    monkeypatch.setattr(S, "HR_BURN_IN", hr_burn_in)


def test_adaptive_identical_committee_returns_nothing(monkeypatch):
    # cleanly separable line: every subset learns the same split, so the
    # committee never disagrees and no region qualifies
    rng = np.random.default_rng(2)
    X = np.vstack([rng.uniform(0, 0.4, size=(60, 2)), rng.uniform(0.6, 1.0, size=(60, 2))])
    y = np.array([1.0] * 60 + [0.0] * 60)
    _sampler(monkeypatch, committee_size=5, hr_per_poly=5, hr_burn_in=5)
    res = S.oct_adaptive_sample(X, y, np.random.default_rng(0), _tree_trainer, np.zeros(2), np.ones(2))
    assert len(res.points) == 0


class _Stump:
    """Hand-built one-split tree for committee tests."""

    def __init__(self, threshold):
        self.a = np.array([1.0, 0.0])
        self.b = threshold

    def leaves(self):
        return [(1.0, [(self.a, self.b, True)]), (0.0, [(self.a, self.b, False)])]

    def route(self, X):
        return np.array([0 if float(self.a @ x) <= self.b else 1 for x in X], dtype=int)


def test_adaptive_two_disagreeing_stumps_sample_the_gap(monkeypatch):
    # stumps split at 0.4 and 0.6: points between them get split votes
    stumps = iter([_Stump(0.4), _Stump(0.6)])
    X = np.array([[0.2, 0.5], [0.5, 0.5], [0.8, 0.5]])
    y = np.array([1.0, 1.0, 0.0])
    _sampler(monkeypatch, committee_size=2, hr_per_poly=8, hr_burn_in=5)
    res = S.oct_adaptive_sample(
        X, y, np.random.default_rng(0), lambda X_, y_, s: next(stumps),
        np.zeros(2), np.ones(2),
    )
    assert len(res.polyhedra) == 1
    assert len(res.points) == 8
    # every sample lies in the disagreement band (0.4, 0.6]
    assert (res.points[:, 0] > 0.4 - 1e-9).all()
    assert (res.points[:, 0] <= 0.6 + 1e-9).all()


def test_adaptive_points_lie_in_source_polyhedra(monkeypatch):
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(150, 2))
    y = ((X[:, 0] - 0.5) ** 2 + (X[:, 1] - 0.5) ** 2 <= 0.09).astype(float)
    _sampler(monkeypatch, committee_size=4, hr_per_poly=6, hr_burn_in=10)
    calls = []
    hit_and_run = S.hit_and_run

    def recording(polys, starts, n, rng, burn_in=0):
        calls.append((list(polys), hit_and_run(polys, starts, n, rng, burn_in=burn_in)))
        return calls[-1][1]

    monkeypatch.setattr(S, "hit_and_run", recording)
    res = S.oct_adaptive_sample(X, y, np.random.default_rng(1), _tree_trainer, np.zeros(2), np.ones(2))
    [(polys, chains)] = calls
    filled = [(poly, draws) for poly, draws in zip(polys, chains) if draws is not None]
    assert len(filled) > 1
    # the round's points are the chains' draws, in order, each in its chain's polyhedron
    assert np.array_equal(res.points, np.vstack([draws for _, draws in filled]))
    for poly, draws in filled:
        assert any(poly is p for p in res.polyhedra)
        A, b = poly.full_rows()
        assert (draws @ A.T <= b + 1e-9).all()


def test_lh_sample_tops_up_from_its_first_hypercube_when_the_budget_runs_out(monkeypatch):
    # x0 < 0.2 holds at exactly 4 of 20 strata, so each hypercube passes 4
    # points; after 3 hypercubes the first one's other points fill the design
    monkeypatch.setattr(S, "LH_BATCHES", 3)
    lo, hi = np.zeros(2), np.ones(2)
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    points = S.lh_sample(lo, hi, 20, rng, keep=lambda p: p[:, 0] < 0.2)
    drawn = [S.lh_sample(lo, hi, 20, twin) for _ in range(3)]
    assert np.array_equal(points[:12], np.vstack([h[h[:, 0] < 0.2] for h in drawn]))
    assert np.array_equal(points[12:], drawn[0][drawn[0][:, 0] >= 0.2][:8])
    assert rng.bit_generator.state == twin.bit_generator.state
    # a region no point reaches: the first hypercube, after the whole budget
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    points = S.lh_sample(lo, hi, 20, rng, keep=lambda p: np.zeros(len(p), dtype=bool))
    assert np.array_equal(points, S.lh_sample(lo, hi, 20, twin))
    S.lh_sample(lo, hi, 20, twin), S.lh_sample(lo, hi, 20, twin)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 5])
def test_adaptive_samples_satisfy_the_extra_rows(d, monkeypatch):
    # two rows cut the unit box; the data lie on both sides of them, so some
    # regions are found by points outside the rows and go to the Chebyshev LP
    rng = np.random.default_rng(30 + d)
    X = rng.uniform(0, 1, size=(200, d))
    y = (X[:, 0] + np.sin(3.0 * X[:, 1]) <= 1.0).astype(float)
    A = np.vstack([np.ones(d), rng.normal(size=d)])
    b = np.array([0.6 * d, A[1].sum() / 2.0 + 0.1])
    _sampler(monkeypatch, committee_size=5, hr_per_poly=6, hr_burn_in=10)
    res = S.oct_adaptive_sample(
        X, y, np.random.default_rng(d), _tree_trainer, np.zeros(d), np.ones(d), rows=(A, b)
    )
    assert len(res.points) > 0
    assert (res.points @ A.T <= b + 1e-9).all()
    for poly in res.polyhedra:
        assert np.array_equal(poly.A[-2:], A) and np.array_equal(poly.b[-2:], b)


def test_adaptive_discordance_guarantee_at_samples(monkeypatch):
    rng = np.random.default_rng(9)
    X = rng.uniform(0, 1, size=(200, 2))
    y = (X[:, 0] + 0.5 * np.sin(4 * X[:, 1]) <= 0.7).astype(float)
    K, tau = 5, S.DISCORDANCE
    _sampler(monkeypatch, committee_size=K, hr_per_poly=5, hr_burn_in=10)
    committee = []
    res = S.oct_adaptive_sample(
        X, y, np.random.default_rng(2), _recording_trainer(committee), np.zeros(2), np.ones(2)
    )
    assert len(committee) == K
    for point in res.points:
        votes = sum(1.0 if t.predict_one(point) >= 0.5 else 0.0 for t in committee)
        assert abs(votes - (K - votes)) <= K * tau + 1e-9


def test_route_reaches_the_leaf_predict_one_reaches():
    rng = np.random.default_rng(12)
    for _ in range(6):
        d = int(rng.integers(1, 5))
        X = rng.uniform(-1, 1, size=(120, d))
        y = (np.sin(3 * X[:, 0]) + X.sum(axis=1) ** 2 <= 0.5).astype(float)
        tree = train_tree(X, y, task="classifier", max_depth=4, oblique=True)
        leaves = tree.leaves()
        Q = np.vstack([X, rng.uniform(-1.5, 1.5, size=(80, d))])
        routed = tree.route(Q)
        assert routed.shape == (len(Q),)
        for x, leaf in zip(Q, routed):
            value, path = leaves[leaf]
            assert value == tree.predict_one(x)
            assert all((float(a @ x) <= b) == on_left for a, b, on_left in path)
    assert tree.route(np.empty((0, d))).shape == (0,)


def _polyhedra_reference(points, committee, discordance, lo, hi):
    """The adaptive round's polyhedra built one ambiguous point at a time,
    each tree walked node by node: one per distinct combination of leaves
    (the turns taken in every tree), in the order the points first reach it."""
    K = len(committee)
    pos = sum((np.array([t.predict_one(x) for x in points]) >= 0.5).astype(float) for t in committee)
    polys, seen = [], set()
    for i in np.nonzero(np.abs(pos - (K - pos)) <= K * discordance)[0]:
        rows_a, rows_b, turns = [], [], []
        for tree in committee:
            node = tree.root
            while not node.is_leaf:
                went_left = float(node.a @ points[i]) <= node.b
                turns.append(went_left)
                if went_left:
                    rows_a.append(node.a)
                    rows_b.append(node.b)
                    node = node.left
                else:
                    rows_a.append(-node.a)
                    rows_b.append(-(node.b + S.STRICT_MARGIN))
                    node = node.right
            turns.append(None)  # end of this tree's path
        if tuple(turns) not in seen:
            seen.add(tuple(turns))
            polys.append(S.Polyhedron(
                A=np.array(rows_a).reshape(-1, points.shape[1]), b=np.array(rows_b), lo=lo, hi=hi
            ))
    return polys


def test_adaptive_polyhedra_match_per_point_construction(monkeypatch):
    rng = np.random.default_rng(21)
    for case in range(4):
        d = 2 + case
        X = rng.uniform(0, 1, size=(160, d))
        y = (np.linalg.norm(X - 0.5, axis=1) <= 0.35).astype(float)
        _sampler(monkeypatch, committee_size=4, hr_per_poly=2, hr_burn_in=2)
        committee = []
        res = S.oct_adaptive_sample(
            X, y, np.random.default_rng(case), _recording_trainer(committee), np.zeros(d), np.ones(d)
        )
        want = _polyhedra_reference(X, committee, S.DISCORDANCE, np.zeros(d), np.ones(d))
        assert len(want) > 1
        assert len(res.polyhedra) == len(want)
        for got, ref in zip(res.polyhedra, want):
            assert got.A.tobytes() == ref.A.tobytes() and got.b.tobytes() == ref.b.tobytes()


def _chebyshev_keeps(poly):
    """The region rule the adaptive round had before its chains started at
    the points that found their regions: a Chebyshev ball of radius 1e-9."""
    try:
        _, radius = S.chebyshev_center(poly)
    except EmptyPolyhedron:
        return False
    return radius >= 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 10])
def test_adaptive_keeps_the_regions_the_chebyshev_rule_keeps(d, monkeypatch):
    # coordinates on a coarse grid, some nudged by 1e-8: ties, points on
    # the box faces, and points within the strict-side margin of a split
    rng = np.random.default_rng(70 + d)
    m = 160
    X = rng.integers(0, 9, size=(m, d)) / 8.0
    X = np.clip(X + rng.choice([0.0, 1e-8, -1e-8], size=X.shape), 0.0, 1.0)
    y = (rng.random(m) < 0.5).astype(float)
    calls = []
    hit_and_run = S.hit_and_run

    def recording(polys, starts, n, rng, burn_in=0):
        calls.append((list(polys), [np.array(x) for x in starts]))
        return hit_and_run(polys, starts, n, rng, burn_in=burn_in)

    monkeypatch.setattr(S, "hit_and_run", recording)
    res = S.oct_adaptive_sample(
        X, y, np.random.default_rng(d), lambda X_, y_, s: train_tree(X_, y_),
        np.zeros(d), np.ones(d),
    )
    [(kept, starts)] = calls
    want = [poly for poly in res.polyhedra if _chebyshev_keeps(poly)]
    assert len(want) > 0
    assert [id(poly) for poly in kept] == [id(poly) for poly in want]
    for poly, start in zip(kept, starts):
        A, b = poly.full_rows()
        assert np.all(A @ start <= b + 1e-9)
