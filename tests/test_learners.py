import math

import numpy as np
import pytest

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
    stump = L.ObliqueTree(root=L._Node(value=1.0), n_features=1)
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


def _reference_mlp(X, y, task, hidden, epochs, lr, seed, restarts):
    """Frozen per-restart training loop: one restart at a time, fresh arrays
    every step. ``train_mlp`` must return exactly its weights."""
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
    m, n = Xs.shape
    sizes = [n] + list(hidden) + [1]
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    best = None
    for attempt in range(max(1, restarts)):
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
        mW = [np.zeros_like(W) for W in Ws]
        vW = [np.zeros_like(W) for W in Ws]
        mb = [np.zeros_like(b) for b in bs]
        vb = [np.zeros_like(b) for b in bs]
        for step in range(1, epochs + 1):
            acts = [Xs]
            h = Xs
            for W, b in zip(Ws[:-1], bs[:-1]):
                h = np.maximum(0.0, h @ W.T + b)
                acts.append(h)
            z = (h @ Ws[-1].T + bs[-1]).ravel()
            if task == "regressor":
                delta = (z - target) / m
            else:
                delta = (1.0 / (1.0 + np.exp(-z)) - target) / m
            grad = delta[:, None]
            gWs = [None] * len(Ws)
            gbs = [None] * len(bs)
            for layer in range(len(Ws) - 1, -1, -1):
                gWs[layer] = grad.T @ acts[layer]
                gbs[layer] = grad.sum(axis=0)
                if layer > 0:
                    grad = (grad @ Ws[layer]) * (acts[layer] > 0)
            corr1 = 1.0 - beta1 ** step
            corr2 = 1.0 - beta2 ** step
            for layer in range(len(Ws)):
                mW[layer] = beta1 * mW[layer] + (1 - beta1) * gWs[layer]
                vW[layer] = beta2 * vW[layer] + (1 - beta2) * gWs[layer] ** 2
                mb[layer] = beta1 * mb[layer] + (1 - beta1) * gbs[layer]
                vb[layer] = beta2 * vb[layer] + (1 - beta2) * gbs[layer] ** 2
                Ws[layer] -= lr * (mW[layer] / corr1) / (np.sqrt(vW[layer] / corr2) + adam_eps)
                bs[layer] -= lr * (mb[layer] / corr1) / (np.sqrt(vb[layer] / corr2) + adam_eps)
        h = Xs
        for W, b in zip(Ws[:-1], bs[:-1]):
            h = np.maximum(0.0, h @ W.T + b)
        z = (h @ Ws[-1].T + bs[-1]).ravel()
        if task == "regressor":
            loss = float(((z - target) ** 2).mean())
        else:
            loss = float((np.logaddexp(0.0, z) - target * z).mean())
        if best is None or loss < best[2]:
            best = (Ws, bs, loss)
    Ws, bs, _ = best
    Ws[0] = Ws[0] / sd[None, :]
    bs[0] = bs[0] - Ws[0] @ mu
    Ws[-1] = Ws[-1] * y_sd
    bs[-1] = bs[-1] * y_sd + y_mu
    return list(zip(Ws, bs))


@pytest.mark.parametrize("hidden", [(8,), (4, 3)])
@pytest.mark.parametrize("task", ["classifier", "regressor"])
@pytest.mark.parametrize("restarts", [1, 3])
def test_mlp_stacked_restarts_match_reference_loop(hidden, task, restarts):
    rng = np.random.default_rng(17)
    X = rng.uniform(-2.0, 3.0, size=(90, 3))
    if task == "classifier":
        y = (np.sin(X).sum(axis=1) >= 0.2).astype(float)
    else:
        y = 10.0 * np.cos(X).sum(axis=1) + 3.0
    kw = dict(hidden=hidden, epochs=120, lr=0.01, seed=4, restarts=restarts)
    net = L.train_mlp(X, y, task, **kw)
    ref = _reference_mlp(X, y, task, **kw)
    assert len(net.layers) == len(ref)
    for (W, b), (W_ref, b_ref) in zip(net.layers, ref):
        assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)


def test_mlp_zero_weights_bias_pass_through():
    net = L.Mlp(
        layers=[(np.zeros((4, 2)), np.zeros(4)), (np.zeros((1, 4)), np.array([3.0]))],
        task="regressor",
    )
    for point in ([0.0, 0.0], [1.0, -1.0], [5.0, 2.0]):
        assert net.predict_one(point) == 3.0


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
        _, points, labels, _ = _sample_constraint(
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


def test_surrogate_dump_load_roundtrip():
    rng = np.random.default_rng(12)
    X = rng.uniform(0, 1, size=(80, 2))
    y = (X[:, 0] <= 0.6).astype(float)
    for family in ("svm", "tree", "gbm", "mlp"):
        sur = L.select_surrogate(X, y, "classifier", candidates=(family,), seed=3)
        back = L.load_surrogate(L.dump_surrogate(sur))
        assert back.family == sur.family
        for point in rng.uniform(0, 1, size=(25, 2)):
            assert back.raw(point) == pytest.approx(sur.raw(point), abs=1e-12)


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
