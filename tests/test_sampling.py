import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt import sampling as S
from surropt.errors import DegenerateDataset, EmptyPolyhedron, NumericalCollapse
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



def _canonical_key_reference(poly, decimals=10):
    """The tuple key: rows of A rounded by numpy and b by Python's round,
    as tuples of floats, sorted."""
    return tuple(sorted(
        (tuple(np.round(poly.A[i], decimals)) + (round(float(poly.b[i]), decimals),))
        for i in range(poly.A.shape[0])
    ))


# halfway between two multiples of 1e-10, where rounding rules disagree
_TIES = st.integers(-10**7, 10**7).map(lambda k: (k + 0.5) / 1e10)
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-11, -1e-11, 5e-11, -5e-11]),
    _TIES,
    st.floats(-1e-9, 1e-9),
    st.floats(-1e6, 1e6),
)
_TWINS = {
    "negated": lambda v: -v,
    "up": lambda v: float(np.nextafter(v, np.inf)),
    "down": lambda v: float(np.nextafter(v, -np.inf)),
    "rounded": lambda v: round(v, 10),
    "tie": lambda v: (math.floor(v * 1e10) + 0.5) / 1e10,
}


@settings(max_examples=400, deadline=None)
@given(data=st.data(), m=st.integers(0, 6), n=st.integers(1, 3))
def test_canonical_key_matches_reference_duplicate_decisions(data, m, n):
    # a second [A | b] with its rows permuted and a few entries moved to a
    # signed zero, a neighbouring float, a rounding tie or their rounding
    M = np.array(data.draw(st.lists(_ENTRIES, min_size=m * (n + 1), max_size=m * (n + 1))))
    M = M.reshape(m, n + 1)
    twin = M[data.draw(st.permutations(range(m)))] if m else M.copy()
    for _ in range(data.draw(st.integers(0, 3)) if m else 0):
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n))
        twin[i, j] = _TWINS[data.draw(st.sampled_from(sorted(_TWINS)))](float(twin[i, j]))
    P, Q = (S.Polyhedron(A=X[:, :n], b=X[:, n], lo=-np.ones(n), hi=np.ones(n)) for X in (M, twin))
    same = P.canonical_key() == Q.canonical_key()
    assert same == (_canonical_key_reference(P) == _canonical_key_reference(Q))


def test_canonical_key_tells_shapes_apart():
    # [[1, 3], [2, 4]] and [[1, 3, 2, 4]] have the same bytes in row order
    two = S.Polyhedron(A=[[1.0], [2.0]], b=[3.0, 4.0], lo=[0.0], hi=[1.0])
    one = S.Polyhedron(A=[[1.0, 3.0, 2.0]], b=[4.0], lo=np.zeros(3), hi=np.ones(3))
    assert two.canonical_key() != one.canonical_key()
    assert _canonical_key_reference(two) != _canonical_key_reference(one)


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
    draws = S.hit_and_run(poly, np.array([0.5, 0.5]), 10_000, np.random.default_rng(11), burn_in=20)
    assert draws.shape == (10_000, 2)
    assert (draws >= -1e-9).all() and (draws <= 1.0 + 1e-9).all()
    means = draws.mean(axis=0)
    assert (means >= 0.45).all() and (means <= 0.55).all()


def test_hit_and_run_respects_rows():
    poly = S.Polyhedron(
        A=np.array([[1.0, 1.0]]), b=np.array([1.0]), lo=np.zeros(2), hi=np.ones(2)
    )
    draws = S.hit_and_run(poly, np.array([0.25, 0.25]), 2000, np.random.default_rng(3), burn_in=10)
    assert (draws.sum(axis=1) <= 1.0 + 1e-9).all()


def test_hit_and_run_collapse():
    degenerate = S.Polyhedron(
        A=np.empty((0, 2)), b=np.empty(0), lo=np.array([0.3, 0.3]), hi=np.array([0.3, 0.3])
    )
    with pytest.raises(NumericalCollapse):
        S.hit_and_run(degenerate, np.array([0.3, 0.3]), 5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Committee-driven adaptive sampling
# ---------------------------------------------------------------------------

def _tree_trainer(X, y, seed):
    return train_tree(X, y, task="classifier", max_depth=3, oblique=True, seed=seed)


def test_adaptive_identical_committee_returns_nothing():
    # cleanly separable line: every subset learns the same split, so the
    # committee never disagrees and no region qualifies
    rng = np.random.default_rng(2)
    X = np.vstack([rng.uniform(0, 0.4, size=(60, 2)), rng.uniform(0.6, 1.0, size=(60, 2))])
    y = np.array([1.0] * 60 + [0.0] * 60)
    cfg = S.SamplerConfig(committee_size=5, discordance=0.5, hr_per_poly=5, hr_burn_in=5)
    res = S.oct_adaptive_sample(
        X, y, cfg, np.random.default_rng(0), _tree_trainer, np.zeros(2), np.ones(2)
    )
    assert len(res.points) == 0


class _Stump:
    """Hand-built one-split tree for committee tests."""

    def __init__(self, threshold):
        self.a = np.array([1.0, 0.0])
        self.b = threshold

    def predict_one(self, x):
        return 1.0 if float(self.a @ x) <= self.b else 0.0

    def predict(self, X):
        return np.array([self.predict_one(x) for x in X])

    def leaf_path(self, x):
        return [(self.a, self.b, float(self.a @ x) <= self.b)]


def test_adaptive_two_disagreeing_stumps_sample_the_gap():
    # stumps split at 0.4 and 0.6: points between them get split votes
    stumps = iter([_Stump(0.4), _Stump(0.6)])
    X = np.array([[0.2, 0.5], [0.5, 0.5], [0.8, 0.5]])
    y = np.array([1.0, 1.0, 0.0])
    cfg = S.SamplerConfig(committee_size=2, subset_size=3, discordance=0.5, hr_per_poly=8, hr_burn_in=5)
    res = S.oct_adaptive_sample(
        X, y, cfg,
        np.random.default_rng(0), lambda X_, y_, s: next(stumps),
        np.zeros(2), np.ones(2),
    )
    assert len(res.polyhedra) == 1
    assert len(res.points) == 8
    # every sample lies in the disagreement band (0.4, 0.6]
    assert (res.points[:, 0] > 0.4 - 1e-9).all()
    assert (res.points[:, 0] <= 0.6 + 1e-9).all()


def test_adaptive_points_lie_in_source_polyhedra():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(150, 2))
    y = ((X[:, 0] - 0.5) ** 2 + (X[:, 1] - 0.5) ** 2 <= 0.09).astype(float)
    cfg = S.SamplerConfig(committee_size=4, subset_size=60, discordance=0.5, hr_per_poly=6, hr_burn_in=10)
    res = S.oct_adaptive_sample(
        X, y, cfg, np.random.default_rng(1), _tree_trainer, np.zeros(2), np.ones(2)
    )
    for point, poly_idx in zip(res.points, res.point_poly):
        assert res.polyhedra[poly_idx].contains(point, tol=1e-9)


def test_adaptive_discordance_guarantee_at_samples():
    rng = np.random.default_rng(9)
    X = rng.uniform(0, 1, size=(200, 2))
    y = (X[:, 0] + 0.5 * np.sin(4 * X[:, 1]) <= 0.7).astype(float)
    K, tau = 5, 0.5
    cfg = S.SamplerConfig(committee_size=K, subset_size=80, discordance=tau, hr_per_poly=5, hr_burn_in=10)
    res = S.oct_adaptive_sample(
        X, y, cfg, np.random.default_rng(2), _tree_trainer, np.zeros(2), np.ones(2)
    )
    for point in res.points:
        votes = sum(1.0 if t.predict_one(point) >= 0.5 else 0.0 for t in res.committee)
        assert abs(votes - (K - votes)) <= K * tau + 1e-9
