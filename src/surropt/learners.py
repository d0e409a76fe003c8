"""Trainable surrogate families: linear SVM, oblique trees, boosted trees, MLP.

All training is deterministic given (dataset order, seed): full-batch
subgradient or Adam loops, no stochastic minibatching. Trees are greedy
top-down with axis-parallel splits plus, optionally, one oblique candidate
per node taken from a local linear fit. Thresholds follow the embedding
rules: 0 for margin-based classifiers (SVM, MLP logit), 0.5 for tree and
boosted ensembles trained on 0/1 labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDataset

FAMILY_ORDER = ("svm", "tree", "gbm", "mlp")  # tie-break: cheapest encoding first


@dataclass
class LearnerParams:
    tree_depth: int = 4
    tree_oblique: bool = True
    gbm_trees: int = 10
    gbm_lr: float = 0.3
    gbm_depth: int = 2
    mlp_hidden: tuple = (8,)
    mlp_epochs: int = 600
    mlp_lr: float = 0.01
    svc_epochs: int = 300
    svr_epochs: int = 200


# ---------------------------------------------------------------------------
# Model containers
# ---------------------------------------------------------------------------

def _rowwise(W, X):
    """Row i is ``W @ X[i]``, rounded exactly as that single product rounds.

    A stack of matrix-vector products runs the same kernel per row as one
    product does; ``X @ W.T`` would take a matrix-matrix kernel whose sums
    can differ in the last bit.
    """
    return np.matmul(W, X[:, :, None])[:, :, 0]


@dataclass
class LinearModel:
    beta0: float
    beta: np.ndarray

    def predict_one(self, x) -> float:
        return float(self.beta0 + self.beta @ np.asarray(x, dtype=float))

    def predict(self, X) -> np.ndarray:
        """``predict_one`` over the rows of X, bit for bit."""
        return self.beta0 + _rowwise(self.beta[None, :], np.asarray(X, dtype=float))[:, 0]


class _Node:
    __slots__ = ("a", "b", "left", "right", "value")

    def __init__(self, value=None, a=None, b=None, left=None, right=None):
        self.value = value
        self.a = a
        self.b = b
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


@dataclass
class ObliqueTree:
    """Binary tree with hyperplane splits a @ x <= b routing left.

    Axis-parallel splits keep ``a`` one-hot with coefficient exactly 1, so
    downstream code can tell the two kinds apart.
    """

    root: _Node
    n_features: int

    def predict_one(self, x) -> float:
        node = self.root
        x = np.asarray(x, dtype=float)
        while not node.is_leaf:
            node = node.left if float(node.a @ x) <= node.b else node.right
        return float(node.value)

    def predict(self, X) -> np.ndarray:
        """``predict_one`` over the rows of X: each node splits the index set
        of the rows that reach it."""
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = node.value
            elif len(idx):
                left = _rowwise(node.a[None, :], X[idx])[:, 0] <= node.b
                stack.append((node.left, idx[left]))
                stack.append((node.right, idx[~left]))
        return out

    def leaf_path(self, x):
        """Splits along the routing of x as (a, b, went_left) triples."""
        node = self.root
        x = np.asarray(x, dtype=float)
        path = []
        while not node.is_leaf:
            went_left = float(node.a @ x) <= node.b
            path.append((node.a, node.b, went_left))
            node = node.left if went_left else node.right
        return path

    def leaves(self):
        """All leaves as (value, path) with path entries (a, b, on_left_side)."""
        out = []

        def walk(node, path):
            if node.is_leaf:
                out.append((float(node.value), list(path)))
                return
            walk(node.left, path + [(node.a, node.b, True)])
            walk(node.right, path + [(node.a, node.b, False)])

        walk(self.root, [])
        return out


@dataclass
class GbmEnsemble:
    base: float
    trees: list
    weights: list

    def predict_one(self, x) -> float:
        return float(
            self.base + sum(w * t.predict_one(x) for w, t in zip(self.weights, self.trees))
        )

    def predict(self, X) -> np.ndarray:
        """``predict_one`` over the rows of X, members summed in the same order."""
        total = np.zeros(len(X))
        for w, t in zip(self.weights, self.trees):
            total = total + w * t.predict(X)
        return self.base + total


@dataclass
class Mlp:
    """ReLU network; ``layers`` holds (W, b) pairs, last layer linear."""

    layers: list
    task: str

    def predict_one(self, x) -> float:
        h = np.asarray(x, dtype=float)
        for W, b in self.layers[:-1]:
            h = np.maximum(0.0, W @ h + b)
        W, b = self.layers[-1]
        return float((W @ h + b)[0])

    def predict(self, X) -> np.ndarray:
        """``predict_one`` over the rows of X, bit for bit."""
        h = np.asarray(X, dtype=float)
        for W, b in self.layers[:-1]:
            h = np.maximum(0.0, _rowwise(W, h) + b)
        W, b = self.layers[-1]
        return (_rowwise(W, h) + b)[:, 0]


@dataclass
class Surrogate:
    """A trained model standing in for one nonlinear constraint or objective."""

    model: object
    family: str
    task: str  # classifier | regressor
    threshold: float
    validation_score: float
    support: tuple = ()
    constraint_id: str = ""

    def raw(self, x) -> float:
        return predict(self, x)

    def decision(self, x) -> bool:
        return predict(self, x) >= self.threshold


def predict(s, x) -> float:
    """Model-native output: margin, leaf value, weighted sum, or logit."""
    model = s.model if isinstance(s, Surrogate) else s
    return float(model.predict_one(x))


# ---------------------------------------------------------------------------
# Linear SVM training
# ---------------------------------------------------------------------------

def _standardize(X):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (X - mu) / sd, mu, sd


def train_svc(X, y, seed: int = 0, epochs: int = 300, reg: float = 1e-3) -> LinearModel:
    """Hinge-loss linear classifier by full-batch projected subgradient."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = X.shape
    labels = set(np.unique(y).tolist())
    if len(labels) < 2:
        raise DegenerateDataset("classifier training needs both labels")
    if np.allclose(X, X[0]):
        raise DegenerateDataset("all feature rows identical with mixed labels")
    t = np.where(y >= 0.5, 1.0, -1.0)
    Xs, mu, sd = _standardize(X)
    w = np.zeros(n)
    b = 0.0
    w_avg = np.zeros(n)
    b_avg = 0.0
    avg_count = 0
    radius = 1.0 / math.sqrt(reg)
    for step in range(1, epochs + 1):
        margins = t * (Xs @ w + b)
        viol = margins < 1.0
        gw = reg * w - (t[viol, None] * Xs[viol]).sum(axis=0) / m
        gb = -t[viol].sum() / m
        eta = 1.0 / (reg * (step + 10.0))
        w -= eta * gw
        b -= eta * gb
        nw = np.linalg.norm(w)
        if nw > radius:
            w *= radius / nw
        if step > epochs // 2:
            w_avg += w
            b_avg += b
            avg_count += 1
    w = w_avg / avg_count
    b = b_avg / avg_count
    beta = w / sd
    beta0 = b - float(w @ (mu / sd))
    return LinearModel(beta0=beta0, beta=beta)


def train_svr(X, y, seed: int = 0, epochs: int = 200, reg: float = 1e-8, eps: Optional[float] = None) -> LinearModel:
    """Linear regression with an insensitive band: residuals smaller than
    eps (default 1 percent of the label spread) carry no loss."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = X.shape
    if m < n + 1:
        raise DegenerateDataset(f"need at least {n + 1} samples for {n} features")
    Xs, mu, sd = _standardize(X)
    y_mu = y.mean()
    y_sd = y.std()
    if y_sd < 1e-15:
        return LinearModel(beta0=float(y_mu), beta=np.zeros(n))
    ys = (y - y_mu) / y_sd
    eps_s = 0.01 if eps is None else eps / y_sd
    # least-squares start, then polish under the insensitive loss
    A = np.hstack([Xs, np.ones((m, 1))])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    w, b = coef[:n].copy(), float(coef[n])
    for step in range(1, epochs + 1):
        r = Xs @ w + b - ys
        active = np.abs(r) > eps_s
        sign = np.sign(r) * active
        gw = reg * w + (sign[:, None] * Xs).sum(axis=0) / m
        gb = sign.sum() / m
        eta = 0.05 / (1.0 + 0.2 * step)
        w -= eta * gw
        b -= eta * gb
    beta = w * y_sd / sd
    beta0 = y_mu + y_sd * (b - float(w @ (mu / sd)))
    return LinearModel(beta0=beta0, beta=beta)


# ---------------------------------------------------------------------------
# Greedy oblique trees
# ---------------------------------------------------------------------------

def _impurity_scan(proj, y, classification):
    """Best threshold on a 1-D projection; returns (score, threshold) where
    lower score is better, or None when no valid split exists."""
    order = np.argsort(proj, kind="stable")
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
    threshold = 0.5 * (p[i] + p[i + 1])
    return float(score[k]), threshold


def _node_impurity(y, classification):
    m = len(y)
    if classification:
        n1 = y.sum()
        return m - (n1 * n1 + (m - n1) ** 2) / m
    return float(((y - y.mean()) ** 2).sum())


def _oblique_direction(X, y, classification):
    t = np.where(y >= (0.5 if classification else np.median(y)), 1.0, -1.0)
    Xc = X - X.mean(axis=0)
    n = X.shape[1]
    G = Xc.T @ Xc + 1e-6 * np.eye(n)
    w = np.linalg.solve(G, Xc.T @ t)
    norm = np.linalg.norm(w)
    if norm < 1e-12:
        return None
    return w / norm


def train_tree(
    X,
    y,
    task: str = "classifier",
    max_depth: int = 4,
    oblique: bool = True,
    seed: int = 0,
) -> ObliqueTree:
    """Greedy top-down tree. Each node compares the best axis-parallel split
    with (optionally) the hyperplane of a local linear fit and keeps the one
    with more impurity reduction. Impure nodes split even at zero gain until
    the depth cap."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    classification = task == "classifier"

    def leaf(yv) -> _Node:
        if classification:
            return _Node(value=1.0 if yv.mean() >= 0.5 else 0.0)
        return _Node(value=float(yv.mean()))

    def build(Xv, yv, depth) -> _Node:
        m, n = Xv.shape
        pure = (
            len(np.unique(yv)) <= 1
            if classification
            else float(yv.std()) < 1e-12
        )
        if depth >= max_depth or m < 2 or pure:
            return leaf(yv)
        parent = _node_impurity(yv, classification)
        best = None  # (score, a, threshold)
        for j in range(n):
            res = _impurity_scan(Xv[:, j], yv, classification)
            if res is None:
                continue
            score, thr = res
            if best is None or score < best[0] - 1e-12:
                a = np.zeros(n)
                a[j] = 1.0
                best = (score, a, thr)
        if oblique:
            w = _oblique_direction(Xv, yv, classification)
            if w is not None:
                res = _impurity_scan(Xv @ w, yv, classification)
                if res is not None and (best is None or res[0] < best[0] - 1e-12):
                    best = (res[0], w, res[1])
        if best is None or best[0] > parent + 1e-12:
            return leaf(yv)
        _, a, thr = best
        mask = Xv @ a <= thr
        if not mask.any() or mask.all():
            return leaf(yv)
        node = _Node(a=a, b=float(thr))
        node.left = build(Xv[mask], yv[mask], depth + 1)
        node.right = build(Xv[~mask], yv[~mask], depth + 1)
        return node

    return ObliqueTree(root=build(X, y, 0), n_features=X.shape[1])


def train_gbm(
    X,
    y,
    task: str = "classifier",
    n_trees: int = 10,
    lr: float = 0.3,
    depth: int = 2,
    seed: int = 0,
) -> GbmEnsemble:
    """Stagewise least-squares boosting on residuals with shallow axis trees.
    Classification boosts the 0/1 targets directly and thresholds at 0.5."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    base = float(y.mean())
    pred = np.full(len(y), base)
    trees = []
    for _ in range(n_trees):
        resid = y - pred
        tree = train_tree(X, resid, task="regressor", max_depth=depth, oblique=False)
        trees.append(tree)
        pred += lr * tree.predict(X)
    return GbmEnsemble(base=base, trees=trees, weights=[lr] * n_trees)


# ---------------------------------------------------------------------------
# MLP training (full-batch Adam)
# ---------------------------------------------------------------------------

def _layer_views(flat, shapes):
    """(W, b) views of a flat (R, P) parameter array, one row per restart.

    Each W is (R, fan_out, fan_in) with the strides a fresh C-ordered
    matrix has, so stacked matmul takes the same BLAS path as one restart.
    """
    R, P = flat.shape
    item = flat.itemsize
    Ws, bs = [], []
    off = 0
    for fan_out, fan_in in shapes:
        Ws.append(np.lib.stride_tricks.as_strided(
            flat[:, off:], shape=(R, fan_out, fan_in), strides=(P * item, fan_in * item, item)
        ))
        off += fan_out * fan_in
        bs.append(flat[:, off:off + fan_out])
        off += fan_out
    return Ws, bs


def train_mlp(
    X,
    y,
    task: str = "classifier",
    hidden=(8,),
    epochs: int = 600,
    lr: float = 0.01,
    seed: int = 0,
    restarts: int = 3,
) -> Mlp:
    """One-logit ReLU network trained with full-batch Adam; squared error
    for regression, logistic loss for classification.

    Runs a few deterministic restarts and keeps the lowest training loss,
    which protects small networks from dead-unit local minima. The restarts
    train together: restart r's weights are row r of one (R, P) array, and
    every epoch runs one stacked forward pass, backward pass and Adam update
    in preallocated buffers. Each restart's arithmetic is exactly that of a
    lone run. Input (and regression target) standardization is folded back
    into the weights so the returned network acts on raw coordinates.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Xs, mu, sd = _standardize(X)
    if task == "regressor":
        y_mu, y_sd = float(y.mean()), float(y.std())
        y_sd = y_sd if y_sd > 1e-15 else 1.0
        target = (y - y_mu) / y_sd
    else:
        y_mu, y_sd = 0.0, 1.0
        target = y

    m, n = Xs.shape
    R = max(1, restarts)
    sizes = [n] + list(hidden) + [1]
    shapes = list(zip(sizes[1:], sizes[:-1]))  # (fan_out, fan_in) per layer
    P = sum(fan_out * (fan_in + 1) for fan_out, fan_in in shapes)
    theta = np.empty((R, P))
    grad = np.empty((R, P))
    Ws, bs = _layer_views(theta, shapes)
    gWs, gbs = _layer_views(grad, shapes)

    for r in range(R):
        rng = np.random.default_rng(seed + 7919 * r)
        for layer, (fan_out, fan_in) in enumerate(shapes):
            W = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
            Ws[layer][r] = W
            if layer == 0:
                # place each unit's kink on a training point so no unit starts dead
                anchors = Xs[rng.integers(0, m, size=fan_out)]
                bs[0][r] = -np.einsum("ij,ij->i", W, anchors)
            else:
                bs[layer][r] = 0.0

    acts = [Xs[None]] + [np.empty((R, m, h)) for h in hidden]
    alive = [None] + [np.empty((R, m, h), dtype=bool) for h in hidden]
    # back[l + 1] is the loss gradient at layer l's pre-activation; the last
    # one shares z's memory, since each step turns the logits into it
    back = [None] + [np.empty((R, m, h)) for h in hidden]
    z3 = np.empty((R, m, 1))
    z = z3[:, :, 0]
    back.append(z[:, :, None])  # the (m, 1) layout a lone run backpropagates
    WTs = [W.transpose(0, 2, 1) for W in Ws]
    b3s = [b[:, None, :] for b in bs]
    backTs = [None] + [g.transpose(0, 2, 1) for g in back[1:]]
    mom1 = np.zeros((R, P))
    mom2 = np.zeros((R, P))
    tmp = np.empty((R, P))
    tmp2 = np.empty((R, P))
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    last = len(shapes) - 1

    def forward():
        for layer in range(last):
            h = acts[layer + 1]
            np.matmul(acts[layer], WTs[layer], out=h)
            h += b3s[layer]
            np.maximum(0.0, h, out=h)
        np.matmul(acts[last], WTs[last], out=z3)
        np.add(z3, b3s[last], out=z3)

    for step in range(1, epochs + 1):
        forward()
        if task != "regressor":
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.divide(1.0, z, out=z)
        z -= target
        z /= m
        for layer in range(last, -1, -1):
            np.matmul(backTs[layer + 1], acts[layer], out=gWs[layer])
            np.sum(back[layer + 1], axis=1, out=gbs[layer])
            if layer > 0:
                below = back[layer]
                if layer == last:
                    # a K=1 product is an outer product: same bits, no matmul
                    np.multiply(back[layer + 1], Ws[layer], out=below)
                else:
                    np.matmul(back[layer + 1], Ws[layer], out=below)
                np.greater(acts[layer], 0, out=alive[layer])
                np.multiply(below, alive[layer], out=below)
        corr1 = 1.0 - beta1 ** step
        corr2 = 1.0 - beta2 ** step
        mom1 *= beta1
        np.multiply(1 - beta1, grad, out=tmp)
        mom1 += tmp
        mom2 *= beta2
        np.square(grad, out=tmp)
        tmp *= 1 - beta2
        mom2 += tmp
        np.divide(mom1, corr1, out=tmp)
        tmp *= lr
        np.divide(mom2, corr2, out=tmp2)
        np.sqrt(tmp2, out=tmp2)
        tmp2 += adam_eps
        tmp /= tmp2
        theta -= tmp

    forward()
    best, best_loss = 0, None
    for r in range(R):
        zr = z[r]
        if task == "regressor":
            loss = float(((zr - target) ** 2).mean())
        else:
            loss = float((np.logaddexp(0.0, zr) - target * zr).mean())
        if best_loss is None or loss < best_loss:
            best, best_loss = r, loss
    Ws = [W[best].copy() for W in Ws]
    bs = [b[best].copy() for b in bs]

    # fold input standardization into the first layer, target scaling into the last
    Ws[0] = Ws[0] / sd[None, :]
    bs[0] = bs[0] - Ws[0] @ mu
    Ws[-1] = Ws[-1] * y_sd
    bs[-1] = bs[-1] * y_sd + y_mu
    return Mlp(layers=[(W, b) for W, b in zip(Ws, bs)], task=task)


# ---------------------------------------------------------------------------
# Model selection
# ---------------------------------------------------------------------------

_CLF_THRESHOLD = {"svm": 0.0, "tree": 0.5, "gbm": 0.5, "mlp": 0.0}


def _train_family(family, X, y, task, params: LearnerParams, seed: int):
    if family == "svm":
        if task == "classifier":
            return train_svc(X, y, seed=seed, epochs=params.svc_epochs)
        return train_svr(X, y, seed=seed, epochs=params.svr_epochs)
    if family == "tree":
        return train_tree(X, y, task=task, max_depth=params.tree_depth, oblique=params.tree_oblique, seed=seed)
    if family == "gbm":
        return train_gbm(X, y, task=task, n_trees=params.gbm_trees, lr=params.gbm_lr, depth=params.gbm_depth, seed=seed)
    if family == "mlp":
        return train_mlp(X, y, task=task, hidden=params.mlp_hidden, epochs=params.mlp_epochs, lr=params.mlp_lr, seed=seed)
    raise ValueError(f"unknown family {family!r}")


def _score(model, family, X, y, task) -> float:
    preds = model.predict(X)
    if task == "classifier":
        thr = _CLF_THRESHOLD[family]
        return float(((preds >= thr) == (y >= 0.5)).mean())
    ss_res = float(((preds - y) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot < 1e-15:
        return 1.0 if ss_res < 1e-12 else -math.inf
    return 1.0 - ss_res / ss_tot


def select_surrogate(
    X,
    y,
    task: str = "classifier",
    candidates=FAMILY_ORDER,
    split_ratio: float = 0.7,
    seed: int = 0,
    params: Optional[LearnerParams] = None,
) -> Surrogate:
    """Train every candidate family and keep the best validation performer.

    Deterministic stratified split, accuracy for classifiers and R^2 for
    regressors, ties resolved by the fixed family order (cheapest MIO
    encoding first).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(y)
    if m < 10:
        raise DegenerateDataset("need at least 10 samples to split and select")
    if task == "classifier" and len(np.unique(y)) < 2:
        raise DegenerateDataset("single-label dataset")
    params = params or LearnerParams()
    rng = np.random.default_rng(seed)

    if task == "classifier":
        train_idx = []
        val_idx = []
        for lbl in (0.0, 1.0):
            idx = np.nonzero(y == lbl)[0]
            idx = idx[rng.permutation(len(idx))]
            cut = max(1, int(round(split_ratio * len(idx))))
            cut = min(cut, len(idx) - 1) if len(idx) > 1 else cut
            train_idx.extend(idx[:cut])
            val_idx.extend(idx[cut:])
        train_idx = np.array(sorted(train_idx))
        val_idx = np.array(sorted(val_idx))
    else:
        perm = rng.permutation(m)
        cut = max(2, int(round(split_ratio * m)))
        train_idx = np.sort(perm[:cut])
        val_idx = np.sort(perm[cut:])
    if len(val_idx) == 0:
        raise DegenerateDataset("validation split is empty")

    best = None
    for family in candidates:
        try:
            model = _train_family(family, X[train_idx], y[train_idx], task, params, seed)
        except DegenerateDataset:
            continue
        score = _score(model, family, X[val_idx], y[val_idx], task)
        if best is None or score > best.validation_score + 1e-12:
            threshold = _CLF_THRESHOLD[family] if task == "classifier" else 0.0
            best = Surrogate(
                model=model,
                family=family,
                task=task,
                threshold=threshold,
                validation_score=score,
            )
    if best is None:
        raise DegenerateDataset("no family could be trained on this dataset")
    return best


# ---------------------------------------------------------------------------
# Debug dump / load
# ---------------------------------------------------------------------------

def _tree_to_dict(node: _Node):
    if node.is_leaf:
        return {"value": node.value}
    return {
        "a": node.a.tolist(),
        "b": node.b,
        "left": _tree_to_dict(node.left),
        "right": _tree_to_dict(node.right),
    }


def _tree_from_dict(d) -> _Node:
    if "value" in d:
        return _Node(value=d["value"])
    return _Node(
        a=np.asarray(d["a"], dtype=float),
        b=float(d["b"]),
        left=_tree_from_dict(d["left"]),
        right=_tree_from_dict(d["right"]),
    )


def dump_surrogate(s: Surrogate) -> str:
    """Serialize a surrogate to a JSON string (debug aid)."""
    m = s.model
    if s.family == "svm":
        payload = {"beta0": m.beta0, "beta": m.beta.tolist()}
    elif s.family == "tree":
        payload = {"root": _tree_to_dict(m.root), "n_features": m.n_features}
    elif s.family == "gbm":
        payload = {
            "base": m.base,
            "weights": list(m.weights),
            "trees": [{"root": _tree_to_dict(t.root), "n_features": t.n_features} for t in m.trees],
        }
    else:
        payload = {"task": m.task, "layers": [[W.tolist(), b.tolist()] for W, b in m.layers]}
    return json.dumps(
        {
            "family": s.family,
            "task": s.task,
            "threshold": s.threshold,
            "validation_score": s.validation_score,
            "support": list(s.support),
            "constraint_id": s.constraint_id,
            "model": payload,
        }
    )


def load_surrogate(text: str) -> Surrogate:
    d = json.loads(text)
    payload = d["model"]
    family = d["family"]
    if family == "svm":
        model = LinearModel(beta0=payload["beta0"], beta=np.asarray(payload["beta"]))
    elif family == "tree":
        model = ObliqueTree(root=_tree_from_dict(payload["root"]), n_features=payload["n_features"])
    elif family == "gbm":
        model = GbmEnsemble(
            base=payload["base"],
            trees=[
                ObliqueTree(root=_tree_from_dict(t["root"]), n_features=t["n_features"])
                for t in payload["trees"]
            ],
            weights=payload["weights"],
        )
    else:
        model = Mlp(
            layers=[(np.asarray(W), np.asarray(b)) for W, b in payload["layers"]],
            task=payload["task"],
        )
    return Surrogate(
        model=model,
        family=family,
        task=d["task"],
        threshold=d["threshold"],
        validation_score=d["validation_score"],
        support=tuple(d["support"]),
        constraint_id=d["constraint_id"],
    )
