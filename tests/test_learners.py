import itertools
import math
import pickle
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surropt import learners as L
from surropt.errors import DegenerateDataset


def _grid_1d(n=21):
    return np.linspace(0, 1, n).reshape(-1, 1)


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------

def test_svc_separates_threshold_data():
    X = _grid_1d()
    y = (X[:, 0] >= 0.5).astype(float)
    model = L.train_svc(X, y)
    assert model.predict_one([0.4]) < 0.0
    assert model.predict_one([0.6]) > 0.0


def test_svc_degenerate_identical_rows():
    X = np.ones((10, 2))
    y = np.array([0.0, 1.0] * 5)
    with pytest.raises(DegenerateDataset):
        L.train_svc(X, y)


def test_svc_single_label_raises():
    with pytest.raises(DegenerateDataset):
        L.train_svc(_grid_1d(), np.ones(21))


def test_svc_deterministic():
    X = _grid_1d()
    y = (X[:, 0] >= 0.5).astype(float)
    a = L.train_svc(X, y)
    b = L.train_svc(X, y)
    assert a.beta0 == b.beta0
    assert np.array_equal(a.beta, b.beta)


def test_svr_recovers_linear_generator():
    X = np.linspace(0, 1, 30).reshape(-1, 1)
    y = 2.0 * X[:, 0] + 1.0
    model = L.train_svr(X, y)
    assert model.beta[0] == pytest.approx(2.0, abs=1e-3)
    assert model.beta0 == pytest.approx(1.0, abs=1e-3)


def test_svr_constant_labels():
    X = np.linspace(0, 1, 15).reshape(-1, 1)
    model = L.train_svr(X, np.full(15, 3.7))
    assert np.allclose(model.beta, 0.0)
    assert model.beta0 == pytest.approx(3.7)


def test_svr_needs_enough_samples():
    with pytest.raises(DegenerateDataset):
        L.train_svr(np.array([[0.1, 0.2]]), np.array([1.0]))


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

def test_tree_recovers_axis_threshold():
    rng = np.random.default_rng(3)
    X = rng.uniform([0.51, 0.3], [1.5, 1.6], size=(400, 2))
    y = (X[:, 1] >= 0.9319).astype(float)
    tree = L.train_tree(X, y, "classifier", max_depth=4)
    root = tree.root
    assert not root.is_leaf
    # axis split on the second feature near the generating threshold
    assert np.array_equal(root.a, [0.0, 1.0])
    assert root.b == pytest.approx(0.9319, abs=0.02)
    acc = np.mean([tree.predict_one(r) == y[i] for i, r in enumerate(X)])
    assert acc == 1.0


def test_tree_pure_dataset_single_leaf():
    X = _grid_1d()
    tree = L.train_tree(X, np.ones(len(X)), "classifier")
    assert tree.root.is_leaf
    assert tree.predict_one([0.3]) == 1.0


def test_tree_xor_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    tree = L.train_tree(X, y, "classifier", max_depth=2)
    assert all(tree.predict_one(r) == y[i] for i, r in enumerate(X))


def test_tree_axis_splits_are_one_hot():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(200, 3))
    y = (X[:, 0] <= 0.5).astype(float)
    tree = L.train_tree(X, y, "classifier", max_depth=3, oblique=False)

    def check(node):
        if node.is_leaf:
            return
        assert np.count_nonzero(node.a) == 1
        assert node.a[np.nonzero(node.a)[0][0]] == 1.0
        check(node.left)
        check(node.right)

    check(tree.root)


def test_tree_leaf_partition_of_the_box():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(300, 2))
    y = (X[:, 0] + np.sin(3 * X[:, 1]) <= 0.8).astype(float)
    tree = L.train_tree(X, y, "classifier", max_depth=4)
    leaves = tree.leaves()
    for point in rng.uniform(0, 1, size=(1000, 2)):
        hits = sum(
            all(
                (float(a @ point) <= b) if on_left else (float(a @ point) > b)
                for a, b, on_left in path
            )
            for _, path in leaves
        )
        assert hits == 1


def test_tree_traversal_matches_leaf_membership():
    rng = np.random.default_rng(13)
    X = rng.uniform(-1, 1, size=(250, 2))
    y = (X[:, 0] ** 2 + X[:, 1] <= 0.3).astype(float)
    tree = L.train_tree(X, y, "classifier", max_depth=4)
    leaves = tree.leaves()
    for point in rng.uniform(-1, 1, size=(1000, 2)):
        by_traversal = tree.predict_one(point)
        by_membership = None
        for value, path in leaves:
            if all(
                (float(a @ point) <= b) if on_left else (float(a @ point) > b)
                for a, b, on_left in path
            ):
                by_membership = value
                break
        assert by_membership == by_traversal


def _impurity_scan(proj, y, order, classification):
    """The one-column split scan, as a reference: (score, threshold) of the
    best split of ``proj`` with its rows in ``order``, or None."""
    p = proj[order]
    t = y[order]
    m = len(t)
    valid = np.nonzero(p[:-1] < p[1:] - 1e-14)[0]
    if valid.size == 0:
        return None
    left_n = valid + 1.0
    right_n = m - left_n
    if classification:
        c1 = np.cumsum(t)[valid]
        l1 = c1
        l0 = left_n - c1
        r1 = t.sum() - c1
        r0 = right_n - r1
        gini_l = left_n - (l1 * l1 + l0 * l0) / left_n
        gini_r = right_n - (r1 * r1 + r0 * r0) / right_n
        score = gini_l + gini_r
    else:
        cs = np.cumsum(t)[valid]
        cs2 = np.cumsum(t * t)[valid]
        tot = t.sum()
        tot2 = (t * t).sum()
        sse_l = cs2 - cs * cs / left_n
        sse_r = (tot2 - cs2) - (tot - cs) ** 2 / right_n
        score = sse_l + sse_r
    k = int(np.argmin(score))
    i = valid[k]
    return float(score[k]), 0.5 * (p[i] + p[i + 1])


def _reference_tree(X, y, task, max_depth, oblique):
    """Frozen per-node build: every node sorts every column of its own rows
    again. ``train_tree`` must return exactly its tree."""
    classification = task == "classifier"

    def scan(proj, yv):
        return _impurity_scan(proj, yv, np.argsort(proj, kind="stable"), classification)

    def leaf(yv):
        if classification:
            return L._Node(value=1.0 if yv.mean() >= 0.5 else 0.0)
        return L._Node(value=float(yv.mean()))

    def build(Xv, yv, depth):
        m, n = Xv.shape
        pure = len(np.unique(yv)) <= 1 if classification else float(yv.std()) < 1e-12
        if depth >= max_depth or m < 2 or pure:
            return leaf(yv)
        parent = L._node_impurity(yv, classification)
        best = None
        for j in range(n):
            res = scan(Xv[:, j], yv)
            if res is not None and (best is None or res[0] < best[0] - 1e-12):
                a = np.zeros(n)
                a[j] = 1.0
                best = (res[0], a, res[1])
        if oblique:
            w = L._oblique_direction(Xv, yv, classification)
            if w is not None:
                res = scan(Xv @ w, yv)
                if res is not None and (best is None or res[0] < best[0] - 1e-12):
                    best = (res[0], w, res[1])
        if best is None or best[0] > parent + 1e-12:
            return leaf(yv)
        _, a, thr = best
        mask = Xv @ a <= thr
        if not mask.any() or mask.all():
            return leaf(yv)
        node = L._Node(a=a, b=float(thr))
        node.left = build(Xv[mask], yv[mask], depth + 1)
        node.right = build(Xv[~mask], yv[~mask], depth + 1)
        return node

    return L.ObliqueTree(root=build(np.asarray(X, dtype=float), np.asarray(y, dtype=float), 0))


def _tree_bytes(node):
    if node.is_leaf:
        return (float(node.value).hex(),)
    return (node.a.tobytes(), float(node.b).hex(), _tree_bytes(node.left), _tree_bytes(node.right))


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(2, 150),
    d=st.integers(1, 6),
    levels=st.sampled_from([2, 3, 5, 0]),
    task=st.sampled_from(["classifier", "regressor"]),
    oblique=st.booleans(),
    max_depth=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_presorted_tree_matches_per_node_sorting(m, d, levels, task, oblique, max_depth, seed):
    # ``levels`` > 0 rounds each coordinate onto that many values, so most
    # columns tie; 0 keeps them continuous
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 2.0, size=(m, d))
    if levels:
        X = np.round(X * (levels - 1) / 3.0)
    if task == "classifier":
        y = (np.sin(2.0 * X).sum(axis=1) + rng.normal(0.0, 0.5, size=m) >= 0.0).astype(float)
    else:
        y = np.round(np.cos(X).sum(axis=1) + rng.normal(0.0, 0.3, size=m), 1)
    got = L.train_tree(X, y, task, max_depth=max_depth, oblique=oblique)
    want = _reference_tree(X, y, task, max_depth, oblique)
    assert _tree_bytes(got.root) == _tree_bytes(want.root)

    ens = L.train_gbm(X, y, task, n_trees=4, depth=max_depth)
    pred = np.full(m, ens.base)
    for tree, w in zip(ens.trees, ens.weights):
        ref = _reference_tree(X, y - pred, "regressor", max_depth, False)
        assert _tree_bytes(tree.root) == _tree_bytes(ref.root)
        pred += w * ref.predict(X)


def _best_split_reference(columns, y, span, Xv, yv, classification, oblique):
    """The per-column split search, as a reference: ``_impurity_scan`` once
    per column of the node, the columns compared in order, then the oblique
    candidate, scanned alone."""
    n = len(columns)
    best = None
    for j in range(n):
        res = _impurity_scan(columns[j], y, span[j], classification)
        if res is not None and (best is None or res[0] < best[0] - 1e-12):
            a = np.zeros(n)
            a[j] = 1.0
            best = (res[0], a, res[1])
    if oblique:
        w = L._oblique_direction(Xv, yv, classification)
        if w is not None:
            proj = Xv @ w
            res = _impurity_scan(proj, yv, np.argsort(proj, kind="stable"), classification)
            if res is not None and (best is None or res[0] < best[0] - 1e-12):
                best = (res[0], w, res[1])
    if best is None or best[0] > L._node_impurity(yv, classification) + 1e-12:
        return None
    return best[1], best[2]


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 80),
    d=st.integers(1, 5),
    size=st.integers(2, 80),
    levels=st.sampled_from([0, 2, 3]),
    constant=st.integers(0, 5),
    task=st.sampled_from(["classifier", "regressor"]),
    huge=st.booleans(),
    oblique=st.booleans(),
    block=st.sampled_from([1, 100, L.SPLIT_BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=2, d=2, size=2, levels=0, constant=0, task="classifier", huge=False, oblique=False,
         block=L.SPLIT_BLOCK, seed=0)
@example(m=9, d=3, size=9, levels=0, constant=3, task="regressor", huge=False, oblique=True,
         block=L.SPLIT_BLOCK, seed=1)
def test_split_search_matches_per_column_scans(m, d, size, levels, constant, task, huge, oblique, block, seed):
    # a node of ``size`` of the m rows, in each column's presorted order;
    # the first ``constant`` columns have no valid split, ``levels`` rounds
    # the others onto few values (ties), ``huge`` regression targets of
    # alternating sign overflow the scores, and ``block`` gathers from one
    # column at a time up to every column at once
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 2.0, size=(m, d))
    if levels:
        X = np.round(X * (levels - 1) / 3.0)
    X[:, :constant] = X[0, :constant]
    if task == "classifier":
        y = (rng.random(m) < 0.4).astype(float)
    elif huge:
        y = np.where(np.arange(m) % 2 == 0, 1e154, -1e154) * rng.uniform(1.0, 2.0, size=m)
    else:
        y = np.round(rng.normal(size=m), 1)
    idx = np.sort(rng.choice(m, size=min(size, m), replace=False))
    inside = np.zeros(m, dtype=bool)
    inside[idx] = True
    span = np.array([order[inside[order]] for order in L._presort(X)])
    columns = np.ascontiguousarray(X.T)
    args = (columns, y, span, X[idx], y[idx], task == "classifier", oblique)
    with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(L, "SPLIT_BLOCK", block):
        scans = L._scan_splits(np.take_along_axis(columns, span, axis=1), y[span], task == "classifier")
        alone = [_impurity_scan(columns[j], y, span[j], task == "classifier") for j in range(d)]
        got = L._best_split(*args)
        want = _best_split_reference(*args)
    assert [None if r is None else (r[0].hex(), float(r[1]).hex()) for r in scans] == [
        None if r is None else (r[0].hex(), float(r[1]).hex()) for r in alone
    ]
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got[0], want[0])
        assert float(got[1]).hex() == float(want[1]).hex()


def test_split_search_takes_the_first_valid_position_when_every_score_overflows():
    # every valid position's score is +inf and so is the node's impurity:
    # the per-column scan keeps its first valid position (between rows 1
    # and 2), not the invalid tie at position 0
    s = math.sqrt(0.9e308)
    y = np.array([1.0, 1.0, s, -0.9 * s, 0.8 * s])
    X = np.array([[0.0], [0.0], [1.0], [2.0], [3.0]])
    args = (np.ascontiguousarray(X.T), y, L._presort(X), X, y, False, False)
    with np.errstate(over="ignore", invalid="ignore"):
        got = L._best_split(*args)
        want = _best_split_reference(*args)
    assert want[1] == 0.5
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


@settings(max_examples=200, deadline=None)
@given(
    y=st.lists(
        st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, -0.0, 1.0])), min_size=1, max_size=40
    )
)
def test_median_matches_numpy(y):
    y = np.array(y)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = L._median(y), np.median(y)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.signbit(got) == np.signbit(want)


# ---------------------------------------------------------------------------
# Boosted ensembles
# ---------------------------------------------------------------------------

def test_gbm_single_tree_equals_tree_plus_base():
    X = _grid_1d(40)
    y = np.sin(3 * X[:, 0])
    ens = L.train_gbm(X, y, "regressor", n_trees=1, lr=1.0)
    lone = ens.trees[0]
    for x in ([0.1], [0.5], [0.9]):
        assert ens.predict_one(x) == pytest.approx(ens.base + lone.predict_one(x), abs=1e-12)


def test_gbm_threshold_accuracy():
    X = _grid_1d(60)
    y = (X[:, 0] >= 0.5).astype(float)
    ens = L.train_gbm(X, y, "classifier")
    acc = np.mean([(ens.predict_one(r) >= 0.5) == (y[i] >= 0.5) for i, r in enumerate(X)])
    assert acc >= 0.95


def test_gbm_residuals_nonincreasing():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(80, 2))
    y = X[:, 0] * 2 + np.sin(4 * X[:, 1])
    base = float(y.mean())
    pred = np.full(len(y), base)
    last_sse = float(((y - pred) ** 2).sum())
    ens = L.train_gbm(X, y, "regressor", n_trees=8, lr=0.3, depth=2)
    for tree, w in zip(ens.trees, ens.weights):
        pred = pred + w * np.array([tree.predict_one(r) for r in X])
        sse = float(((y - pred) ** 2).sum())
        assert sse <= last_sse + 1e-9
        last_sse = sse


def test_gbm_prediction_is_weighted_sum():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(60, 2))
    y = X[:, 0] - X[:, 1] ** 2
    ens = L.train_gbm(X, y, "regressor")
    for point in rng.uniform(0, 1, size=(20, 2)):
        manual = ens.base + sum(
            w * t.predict_one(point) for w, t in zip(ens.weights, ens.trees)
        )
        assert ens.predict_one(point) == pytest.approx(manual, abs=1e-12)


def test_gbm_constant_trees_always_feasible():
    stump = L.ObliqueTree(root=L._Node(value=1.0))
    ens = L.GbmEnsemble(base=0.0, trees=[stump, stump], weights=[0.5, 0.5])
    assert ens.predict_one([0.3]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

def test_mlp_fits_identity_with_one_unit():
    X = np.linspace(0, 1, 50).reshape(-1, 1)
    net = L.train_mlp(X, X[:, 0], "regressor", hidden=(1,), epochs=800, seed=0)
    grid = np.linspace(0, 1, 21).reshape(-1, 1)
    mse = np.mean([(net.predict_one(r) - r[0]) ** 2 for r in grid])
    assert mse < 1e-2


def test_mlp_classifier_accuracy():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(200, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] >= 0.1).astype(float)
    net = L.train_mlp(X, y, "classifier", epochs=600)
    acc = np.mean([(net.predict_one(r) >= 0.0) == (y[i] >= 0.5) for i, r in enumerate(X)])
    assert acc >= 0.9


def test_mlp_deterministic_given_seed():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(100, 2))
    y = (X[:, 0] >= 0.0).astype(float)
    a = L.train_mlp(X, y, "classifier", epochs=100, seed=5)
    b = L.train_mlp(X, y, "classifier", epochs=100, seed=5)
    for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)


def _prepare_mlp(X, y, task):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Xs, mu, sd = L._standardize(X)
    if task == "regressor":
        y_mu, y_sd = float(y.mean()), float(y.std())
        y_sd = y_sd if y_sd > 1e-15 else 1.0
        target = (y - y_mu) / y_sd
    else:
        y_mu, y_sd = 0.0, 1.0
        target = y
    return Xs, mu, sd, target, y_mu, y_sd


def _initial_weights(Xs, sizes, seed, attempt):
    m = len(Xs)
    rng = np.random.default_rng(seed + 7919 * attempt)
    Ws, bs = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        W = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        if layer == 0:
            anchors = Xs[rng.integers(0, m, size=fan_out)]
            b = -np.einsum("ij,ij->i", W, anchors)
        else:
            b = np.zeros(fan_out)
        Ws.append(W)
        bs.append(b)
    return Ws, bs


def _loss(z, target, task):
    if task == "regressor":
        return float(((z - target) ** 2).mean())
    return float((np.logaddexp(0.0, z) - target * z).mean())


def _logit_gradient(z, target, task):
    if task == "regressor":
        return (z - target) / len(z)
    return (1.0 / (1.0 + np.exp(-z)) - target) / len(z)


def _adam(params, mom1, mom2, grads, step, lr):
    """One Adam step on each array of ``params``, in place."""
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    corr1 = 1.0 - beta1 ** step
    corr2 = 1.0 - beta2 ** step
    for i, g in enumerate(grads):
        mom1[i] = beta1 * mom1[i] + (1 - beta1) * g
        mom2[i] = beta2 * mom2[i] + (1 - beta2) * g ** 2
        params[i] -= lr * (mom1[i] / corr1) / (np.sqrt(mom2[i] / corr2) + adam_eps)


def _fold(Ws, bs, mu, sd, y_mu, y_sd):
    Ws[0] = Ws[0] / sd[None, :]
    bs[0] = bs[0] - Ws[0] @ mu
    Ws[-1] = Ws[-1] * y_sd
    bs[-1] = bs[-1] * y_sd + y_mu
    return list(zip(Ws, bs))


def _batch_rows(m, epochs, seed):
    """The rows of each Adam step: all m in order when m <= ``L.MLP_BATCH``,
    else consecutive slices of B rows of a permutation drawn per pass."""
    B = L.MLP_BATCH
    if m <= B:
        return [np.arange(m)] * epochs
    rng = np.random.default_rng(seed + 104729)
    rows = []
    for k in range(epochs):
        j = k % (m // B)
        if j == 0:
            perm = rng.permutation(m)
        rows.append(perm[j * B:(j + 1) * B])
    return rows


def _reference_mlp(X, y, task, hidden, epochs, lr, seed, restarts):
    """Per-restart training loop with samples as columns: one restart at a
    time, (units, batch) activations, fresh arrays every step, the restart
    scored over all rows. ``train_mlp`` must return exactly its weights."""
    Xs, mu, sd, target, y_mu, y_sd = _prepare_mlp(X, y, task)
    sizes = [Xs.shape[1]] + list(hidden) + [1]
    best = None
    for attempt in range(max(1, restarts)):
        Ws, bs = _initial_weights(Xs, sizes, seed, attempt)
        mom1 = [np.zeros_like(p) for p in Ws + bs]
        mom2 = [np.zeros_like(p) for p in Ws + bs]

        def forward(rows):
            h = np.ascontiguousarray(Xs[rows].T)
            acts = [h]
            for W, b in zip(Ws[:-1], bs[:-1]):
                h = np.maximum(0.0, W @ h + b[:, None])
                acts.append(h)
            return acts, (Ws[-1] @ h + bs[-1][:, None])[0]

        for step, rows in enumerate(_batch_rows(len(Xs), epochs, seed), start=1):
            acts, z = forward(rows)
            grad = _logit_gradient(z, target[rows], task)[None, :]
            gWs = [None] * len(Ws)
            gbs = [None] * len(bs)
            for layer in range(len(Ws) - 1, -1, -1):
                gWs[layer] = grad @ acts[layer].T
                gbs[layer] = grad.sum(axis=1)
                if layer > 0:
                    grad = (Ws[layer].T @ grad) * (acts[layer] > 0)
            _adam(Ws + bs, mom1, mom2, gWs + gbs, step, lr)
        loss = _loss(forward(np.arange(len(Xs)))[1], target, task)
        if best is None or loss < best[2]:
            best = (Ws, bs, loss)
    return _fold(best[0], best[1], mu, sd, y_mu, y_sd)


def _row_major_mlp(X, y, task, hidden, epochs, lr, seed, restarts):
    """Independent oracle: the per-restart loop with samples as rows, (m,
    units) activations and fresh arrays every step. Its products and sums
    run in another order than ``train_mlp``'s, so the weights agree only to
    rounding."""
    Xs, mu, sd, target, y_mu, y_sd = _prepare_mlp(X, y, task)
    sizes = [Xs.shape[1]] + list(hidden) + [1]
    best = None
    for attempt in range(max(1, restarts)):
        Ws, bs = _initial_weights(Xs, sizes, seed, attempt)
        mom1 = [np.zeros_like(p) for p in Ws + bs]
        mom2 = [np.zeros_like(p) for p in Ws + bs]

        def forward():
            h = Xs
            acts = [h]
            for W, b in zip(Ws[:-1], bs[:-1]):
                h = np.maximum(0.0, h @ W.T + b)
                acts.append(h)
            return acts, (h @ Ws[-1].T + bs[-1]).ravel()

        for step in range(1, epochs + 1):
            acts, z = forward()
            grad = _logit_gradient(z, target, task)[:, None]
            gWs = [None] * len(Ws)
            gbs = [None] * len(bs)
            for layer in range(len(Ws) - 1, -1, -1):
                gWs[layer] = grad.T @ acts[layer]
                gbs[layer] = grad.sum(axis=0)
                if layer > 0:
                    grad = (grad @ Ws[layer]) * (acts[layer] > 0)
            _adam(Ws + bs, mom1, mom2, gWs + gbs, step, lr)
        loss = _loss(forward()[1], target, task)
        if best is None or loss < best[2]:
            best = (Ws, bs, loss)
    return _fold(best[0], best[1], mu, sd, y_mu, y_sd)


def _mlp_case(task):
    rng = np.random.default_rng(17)
    X = rng.uniform(-2.0, 3.0, size=(90, 3))
    if task == "classifier":
        y = (np.sin(X).sum(axis=1) >= 0.2).astype(float)
    else:
        y = 10.0 * np.cos(X).sum(axis=1) + 3.0
    return X, y


def _mlp_settings(test):
    """The 16 settings both exact-reference and oracle tests run."""
    test = pytest.mark.parametrize("restarts", [1, 3])(test)
    test = pytest.mark.parametrize("task", ["classifier", "regressor"])(test)
    return pytest.mark.parametrize("hidden", [(8,), (4, 3), (3, 1), ()])(test)


@_mlp_settings
def test_mlp_stacked_restarts_match_reference_loop(hidden, task, restarts):
    X, y = _mlp_case(task)
    kw = dict(hidden=hidden, epochs=120, lr=0.01, seed=4, restarts=restarts)
    net = L.train_mlp(X, y, task, **kw)
    ref = _reference_mlp(X, y, task, **kw)
    assert len(net.layers) == len(ref)
    for (W, b), (W_ref, b_ref) in zip(net.layers, ref):
        assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)


@_mlp_settings
def test_mlp_minibatches_match_reference_loop(hidden, task, restarts, monkeypatch):
    # the 90 rows in batches of 32: two per pass, 26 rows left over each pass
    monkeypatch.setattr(L, "MLP_BATCH", 32)
    test_mlp_stacked_restarts_match_reference_loop(hidden, task, restarts)


@_mlp_settings
def test_mlp_agrees_with_the_row_major_oracle(hidden, task, restarts):
    X, y = _mlp_case(task)
    kw = dict(hidden=hidden, epochs=120, lr=0.01, seed=4, restarts=restarts)
    net = L.train_mlp(X, y, task, **kw)
    oracle = _row_major_mlp(X, y, task, **kw)
    for (W, b), (W_o, b_o) in zip(net.layers, oracle):
        for got, want in ((W, W_o), (b, b_o)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if task == "classifier":
        labels = L.Mlp(layers=oracle).predict(X) >= 0.0
        assert np.array_equal(net.predict(X) >= 0.0, labels)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(10, 300),
    n=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 10), max_size=2).map(tuple),
    R=st.integers(1, 4),
    task=st.sampled_from(["classifier", "regressor"]),
    seed=st.integers(0, 2**32 - 1),
    batch=st.one_of(st.just(L.MLP_BATCH), st.integers(1, 300)),
)
# m = B - 1, B, B + 1 and 2B + 1 around a batch of B = 32 rows
@example(m=31, n=3, hidden=(4, 3), R=3, task="classifier", seed=11, batch=32)
@example(m=32, n=3, hidden=(4, 3), R=3, task="regressor", seed=12, batch=32)
@example(m=33, n=3, hidden=(4, 3), R=3, task="classifier", seed=13, batch=32)
@example(m=65, n=3, hidden=(4, 3), R=3, task="regressor", seed=14, batch=32)
def test_mlp_stacked_restarts_match_lone_runs_on_random_shapes(m, n, hidden, R, task, seed, batch):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0, size=n)
    y = np.sin(X).sum(axis=1) + rng.normal(0.0, 0.3, size=m)
    if task == "classifier":
        y = (y >= np.median(y)).astype(float)
    kw = dict(hidden=hidden, epochs=20, lr=0.05, seed=seed % 1000, restarts=R)
    with mock.patch.object(L, "MLP_BATCH", batch):
        net = L.train_mlp(X, y, task, **kw)
        ref = _reference_mlp(X, y, task, **kw)
    for (W, b), (W_ref, b_ref) in zip(net.layers, ref):
        assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)


def test_mlp_zero_weights_bias_pass_through():
    net = L.Mlp(
        layers=[(np.zeros((4, 2)), np.zeros(4)), (np.zeros((1, 4)), np.array([3.0]))],
    )
    for point in ([0.0, 0.0], [1.0, -1.0], [5.0, 2.0]):
        assert net.predict_one(point) == 3.0


def _fake_clock(monkeypatch):
    """``learners``' clock reads 0, 1, 2, ... one tick per read."""
    ticks = itertools.count()
    monkeypatch.setattr(L, "time", types.SimpleNamespace(monotonic=lambda: float(next(ticks))))


def _blob_data():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(80, 2))
    return X, (X[:, 0] ** 2 + X[:, 1] < 0.3).astype(float)


def test_mlp_stops_at_the_first_clock_check_past_its_deadline(monkeypatch):
    # the checks after epochs 10, 20 and 30 read 0, 1 and 2; 2 > 1.5 stops
    # training there, with the best restart after exactly those epochs
    X, y = _blob_data()
    short = L.train_mlp(X, y, epochs=3 * L.MLP_CLOCK_EVERY)
    _fake_clock(monkeypatch)
    cut = L.train_mlp(X, y, deadline=1.5)
    assert pickle.dumps(cut) == pickle.dumps(short)
    assert pickle.dumps(cut) != pickle.dumps(L.train_mlp(X, y))


def test_mlp_on_batches_stops_at_the_first_clock_check_past_its_deadline(monkeypatch):
    # 80 rows in batches of 32: the clock is read after steps 10, 20 and 30
    # as with one batch, and the cut network is the 30-step one
    monkeypatch.setattr(L, "MLP_BATCH", 32)
    test_mlp_stops_at_the_first_clock_check_past_its_deadline(monkeypatch)


def test_select_surrogate_hands_its_deadline_to_the_mlp(monkeypatch):
    # selection reads 0 before the MLP starts; the MLP's checks read 1, 2
    # and 3, and 3 > 2.5 stops it after 30 epochs
    X, y = _blob_data()
    train_mlp = L.train_mlp

    def thirty_epochs(*args, **kwargs):
        kwargs.pop("deadline", None)
        return train_mlp(*args, epochs=3 * L.MLP_CLOCK_EVERY, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(L, "train_mlp", thirty_epochs)
        short = L.select_surrogate(X, y, candidates=("mlp",), seed=4)
    _fake_clock(monkeypatch)
    cut = L.select_surrogate(X, y, candidates=("mlp",), seed=4, deadline=2.5)
    assert pickle.dumps(cut.model) == pickle.dumps(short.model)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def test_linear_model_native_output():
    model = L.LinearModel(beta0=0.0, beta=np.array([1.0, 0.0]))
    assert model.predict_one([0.3, 9.0]) == pytest.approx(0.3)


def test_selected_surrogates_score_high_on_worked_example():
    # regenerated samples of the two log constraints admit an accurate model
    from surropt.benchmarks import illustrative_problem
    from surropt.driver import RunConfig, _sample_constraint
    from surropt.model import standardize

    sp = standardize(illustrative_problem())
    cfg = RunConfig(seed=11, time_limit=60)
    for i, con in enumerate(sp.nonlinear):
        points, labels, _ = _sample_constraint(
            sp, con, cfg, np.random.default_rng(100 + i)
        )
        sur = L.select_surrogate(points, labels, "classifier", seed=5)
        assert sur.validation_score >= 0.95


def test_select_tie_break_prefers_svm():
    rng = np.random.default_rng(6)
    X = np.vstack([rng.uniform(0, 0.4, size=(40, 2)), rng.uniform(0.6, 1.0, size=(40, 2))])
    y = np.array([1.0] * 40 + [0.0] * 40)
    sur = L.select_surrogate(X, y, "classifier", seed=1)
    assert sur.validation_score == 1.0
    assert sur.family == "svm"
    assert sur.threshold == 0.0


def test_select_stops_after_a_perfect_score(monkeypatch):
    # a band in x0: no line separates it, a tree does
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(200, 2))
    X = X[np.abs(np.abs(X[:, 0] - 0.5) - 0.2) > 0.05]
    y = (np.abs(X[:, 0] - 0.5) > 0.2).astype(float)
    # the full loop: each family alone sees the same seeded split
    alone = [L.select_surrogate(X, y, "classifier", candidates=(f,), seed=1) for f in L.FAMILY_ORDER]
    best = max(alone, key=lambda s: s.validation_score)  # the first of equal scores

    trained = []
    train_family = L._train_family

    def recording(family, *args):
        trained.append(family)
        return train_family(family, *args)

    monkeypatch.setattr(L, "_train_family", recording)
    sur = L.select_surrogate(X, y, "classifier", seed=1)
    assert sur.validation_score == 1.0
    assert trained == ["svm", "tree"]
    assert (sur.family, sur.validation_score) == (best.family, best.validation_score)
    assert pickle.dumps(sur.model) == pickle.dumps(best.model)


def test_select_single_label_raises():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, size=(30, 2))
    with pytest.raises(DegenerateDataset):
        L.select_surrogate(X, np.ones(30), "classifier")


def test_select_too_few_samples():
    with pytest.raises(DegenerateDataset):
        L.select_surrogate(np.zeros((5, 1)), np.array([0, 1, 0, 1, 0.0]), "classifier")


def test_select_regressor_scores_r2():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(120, 2))
    y = 3 * X[:, 0] - X[:, 1] + 0.5
    sur = L.select_surrogate(X, y, "regressor", seed=2)
    assert sur.task == "regressor"
    assert sur.validation_score > 0.99


def test_batched_predict_matches_predict_one():
    rng = np.random.default_rng(21)
    X = rng.uniform(-1, 1, size=(150, 3))
    y = (X[:, 0] + 0.7 * X[:, 1] - X[:, 2] ** 2 >= 0.0).astype(float)
    y_reg = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2]
    oblique = L.train_tree(X, y, "classifier", max_depth=4, oblique=True)
    assert any(np.count_nonzero(a) > 1 for _, path in oblique.leaves() for a, _, _ in path)
    models = [
        oblique,
        L.train_tree(X, y_reg, "regressor", max_depth=3, oblique=False),
        L.train_gbm(X, y_reg, "regressor"),
        L.train_svr(X, y_reg),
        L.train_mlp(X, y, "classifier", hidden=(4, 3), epochs=50),
    ]
    queries = rng.uniform(-1.2, 1.2, size=(60, 3))
    for model in models:
        for Q in (X, queries, queries[:0]):
            batched = model.predict(Q)
            assert batched.shape == (len(Q),)
            assert np.array_equal(batched, np.array([model.predict_one(q) for q in Q], dtype=float))
