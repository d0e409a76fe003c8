"""Trainable surrogate families: linear SVM, oblique trees, boosted trees, MLP.

All training is deterministic given the dataset order (and, for the MLP,
its seed): full-batch subgradient loops, and Adam steps on all rows of an
MLP set of at most ``MLP_BATCH`` rows or on seeded minibatches of a larger
one. Trees are greedy top-down with axis-parallel splits plus,
optionally, one oblique candidate per node taken from a local linear fit. Thresholds follow the embedding
rules: 0 for margin-based classifiers (SVM, MLP logit), 0.5 for tree and
boosted ensembles trained on 0/1 labels.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataset

FAMILY_ORDER = ("svm", "tree", "gbm", "mlp")  # tie-break: cheapest encoding first
SPLIT_RATIO = 0.7  # share of each label (or of a regression set) used for training
SVC_REG = 1e-3     # ridge weight of the hinge loss
SVR_REG = 1e-8     # ridge weight of the insensitive loss
SVR_BAND = 0.01    # insensitive band, in standard deviations of the targets
MLP_CLOCK_EVERY = 10  # Adam steps between the MLP's deadline checks
MLP_BATCH = 512  # most rows one MLP Adam step trains on
SPLIT_BLOCK = 2 ** 13  # elements of the columns a node's split scan gathers at once


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

    def predict_one(self, x) -> float:
        node = self.root
        x = np.asarray(x, dtype=float)
        while not node.is_leaf:
            node = node.left if float(node.a @ x) <= node.b else node.right
        return float(node.value)

    def predict(self, X) -> np.ndarray:
        """``predict_one`` over the rows of X: the values of ``leaves()``
        at the leaves ``route(X)`` reaches."""
        return np.array([value for value, _ in self.leaves()])[self.route(X)]

    def route(self, X) -> np.ndarray:
        """Index into ``leaves()`` of the leaf each row of X reaches: each
        node splits the index set of the rows that reach it, with the
        comparisons of ``predict_one``."""
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X), dtype=int)
        leaf = 0
        stack = [(self.root, np.arange(len(X)))]
        while stack:  # left child first, the order of ``leaves()``
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = leaf
                leaf += 1
            else:
                left = _rowwise(node.a[None, :], X[idx])[:, 0] <= node.b
                stack.append((node.right, idx[~left]))
                stack.append((node.left, idx[left]))
        return out

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
    """A trained model standing in for one nonlinear constraint or objective,
    over the columns ``sorted(support)`` of what it stands in for."""

    model: object
    family: str
    task: str  # classifier | regressor
    threshold: float
    validation_score: float


# ---------------------------------------------------------------------------
# Linear SVM training
# ---------------------------------------------------------------------------

def _standardize(X):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (X - mu) / sd, mu, sd


def train_svc(X, y, epochs: int = 300) -> LinearModel:
    """Hinge-loss linear classifier by full-batch projected subgradient.

    The +-1 labels are multiplied into the standardized rows once, which is
    exact, so each epoch's subgradient sums the violating rows of that
    product."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = X.shape
    if y.min() == y.max():
        raise DegenerateDataset("classifier training needs both labels")
    if np.allclose(X, X[0]):
        raise DegenerateDataset("all feature rows identical with mixed labels")
    t = np.where(y >= 0.5, 1.0, -1.0)
    Xs, mu, sd = _standardize(X)
    tX = t[:, None] * Xs  # exact: t is +-1
    w = np.zeros(n)
    b = 0.0
    w_avg = np.zeros(n)
    b_avg = 0.0
    avg_count = 0
    radius = 1.0 / math.sqrt(SVC_REG)
    for step in range(1, epochs + 1):
        margins = t * (Xs @ w + b)
        viol = margins < 1.0
        gw = SVC_REG * w - tX[viol].sum(axis=0) / m
        gb = -t[viol].sum() / m
        eta = 1.0 / (SVC_REG * (step + 10.0))
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


def train_svr(X, y, epochs: int = 200) -> LinearModel:
    """Linear regression with an insensitive band: residuals smaller than
    SVR_BAND standard deviations of the labels carry no loss."""
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
    # least-squares start, then polish under the insensitive loss
    A = np.hstack([Xs, np.ones((m, 1))])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    w, b = coef[:n].copy(), float(coef[n])
    for step in range(1, epochs + 1):
        r = Xs @ w + b - ys
        active = np.abs(r) > SVR_BAND
        sign = np.sign(r) * active
        gw = SVR_REG * w + (sign[:, None] * Xs).sum(axis=0) / m
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

def _scan_splits(p, t, classification):
    """The best split of each row of ``p``, a projection of a node's rows
    sorted stably, with ``t`` their targets in the same order: per row,
    (score, threshold) where lower score is better, or None when no valid
    split exists.

    Row-wise cumulative sums score every position between two rows; a
    position between values within 1e-14 is invalid and scores +inf, so
    ``argmin`` takes the first best valid position. Each row's result is
    the one a scan of that row alone returns, bit for bit."""
    m = p.shape[1]
    valid = p[:, :-1] < p[:, 1:] - 1e-14
    left_n = np.arange(1.0, m)
    right_n = m - left_n
    c1 = np.cumsum(t, axis=1)[:, :-1]
    if classification:
        l0 = left_n - c1
        r1 = t.sum(axis=1)[:, None] - c1
        r0 = right_n - r1
        gini_l = left_n - (c1 * c1 + l0 * l0) / left_n
        gini_r = right_n - (r1 * r1 + r0 * r0) / right_n
        score = gini_l + gini_r
    else:
        t2 = t * t
        cs2 = np.cumsum(t2, axis=1)[:, :-1]
        sse_l = cs2 - c1 * c1 / left_n
        sse_r = (t2.sum(axis=1)[:, None] - cs2) - (t.sum(axis=1)[:, None] - c1) ** 2 / right_n
        score = sse_l + sse_r
    score[~valid] = np.inf
    out = []
    for j, i in enumerate(np.argmin(score, axis=1)):
        if not valid[j, i]:  # no valid score below +inf: the first valid position
            i = np.argmax(valid[j])
        out.append((float(score[j, i]), 0.5 * (p[j, i] + p[j, i + 1])) if valid[j, i] else None)
    return out


def _node_impurity(y, classification):
    m = len(y)
    if classification:
        n1 = y.sum()
        return m - (n1 * n1 + (m - n1) ** 2) / m
    return float(((y - y.mean()) ** 2).sum())


def _median(y):
    """``np.median(y)`` of a nonempty 1-D float array, bit for bit, without
    the ``numpy.ma`` import that ``np.median`` makes on first use."""
    half = len(y) // 2
    odd = len(y) % 2
    part = np.partition(y, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return part[-1]
    return part[half - 1 + odd:half + 1].mean()


def _oblique_direction(X, y, classification):
    t = np.where(y >= (0.5 if classification else _median(y)), 1.0, -1.0)
    Xc = X - X.mean(axis=0)
    n = X.shape[1]
    G = Xc.T @ Xc + 1e-6 * np.eye(n)
    w = np.linalg.solve(G, Xc.T @ t)
    norm = np.linalg.norm(w)
    if norm < 1e-12:
        return None
    return w / norm


def _presort(X):
    """Each column's stable argsort, one row per column."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _best_split(columns, y, span, Xv, yv, classification, oblique):
    """A node's split ``(a, threshold)``: the best axis-parallel one, from
    the node's rows in each column's order (``span``), or the hyperplane of
    a local linear fit when that scores lower by 1e-12. None when no split
    is valid or the best one raises the node's impurity by over 1e-12.

    The axis splits are scanned a block of columns at a time, each block
    one (columns x rows) gather of the span of about ``SPLIT_BLOCK``
    elements, so that large nodes stay in cache; the columns are then
    compared in order."""
    n, m = span.shape
    rows = max(1, SPLIT_BLOCK // m)
    scans = []
    for start in range(0, n, rows):
        block = span[start:start + rows]
        flat = block + columns.shape[1] * np.arange(start, start + len(block))[:, None]
        scans += _scan_splits(np.take(columns, flat), y[block], classification)
    best = None  # (score, a, threshold)
    for j, res in enumerate(scans):
        if res is not None and (best is None or res[0] < best[0] - 1e-12):
            a = np.zeros(n)
            a[j] = 1.0
            best = (res[0], a, res[1])
    if oblique:
        w = _oblique_direction(Xv, yv, classification)
        if w is not None:
            proj = Xv @ w
            order = np.argsort(proj, kind="stable")
            res = _scan_splits(proj[order][None], yv[order][None], classification)[0]
            if res is not None and (best is None or res[0] < best[0] - 1e-12):
                best = (res[0], w, res[1])
    if best is None or best[0] > _node_impurity(yv, classification) + 1e-12:
        return None
    return best[1], best[2]


def _grow(X, y, presorted, classification, max_depth, oblique) -> _Node:
    """The tree ``train_tree`` documents, given ``presorted = _presort(X)``.

    A node holds its rows' indices ``idx`` (ascending) and a span of
    columns of a copy of ``presorted`` that lists, per column of X, those
    indices in the column's stable order. A stable sort of a subset is its
    parent's order filtered to the subset (the CART presort), so a split
    partitions the span stably in place, left rows first, instead of
    sorting again. Each node scores the axis splits of its columns in
    whole-array passes over blocks of its span (``_best_split``). Oblique
    projections still sort per node.

    Nodes come off an explicit stack: a nested function that recurses
    holds itself in a reference cycle, which would keep these arrays alive
    until the cycle collector runs.
    """
    M, n = X.shape
    columns = np.ascontiguousarray(X.T)
    orders = presorted.copy()
    goes_left = np.zeros(M, dtype=bool)
    root = _Node()
    stack = [(root, X, y, np.arange(M), 0, 0)]
    while stack:
        node, Xv, yv, idx, start, depth = stack.pop()
        m = len(yv)
        span = orders[:, start:start + m]
        pure = m < 2 or (yv.min() == yv.max() if classification else float(yv.std()) < 1e-12)
        split = None
        if depth < max_depth and not pure:
            split = _best_split(columns, y, span, Xv, yv, classification, oblique)
        mask = None if split is None else Xv @ split[0] <= split[1]
        if mask is None or not mask.any() or mask.all():
            if classification:
                node.value = 1.0 if yv.mean() >= 0.5 else 0.0
            else:
                node.value = float(yv.mean())
            continue
        k = int(mask.sum())
        goes_left[idx] = mask
        side = goes_left[span]
        span[:] = np.concatenate([span[side].reshape(n, k), span[~side].reshape(n, m - k)], axis=1)
        node.a, node.b = split[0], float(split[1])
        node.left, node.right = _Node(), _Node()
        stack.append((node.right, Xv[~mask], yv[~mask], idx[~mask], start + k, depth + 1))
        stack.append((node.left, Xv[mask], yv[mask], idx[mask], start, depth + 1))
    return root


def train_tree(
    X,
    y,
    task: str = "classifier",
    max_depth: int = 4,
    oblique: bool = True,
) -> ObliqueTree:
    """Greedy top-down tree. Each node compares the best axis-parallel split
    with (optionally) the hyperplane of a local linear fit and keeps the one
    with more impurity reduction. Impure nodes split even at zero gain until
    the depth cap. Each column of X is sorted once, at the root, and every
    split partitions those orders (``_grow``); each node scans the axis
    splits of a block of columns in one pass. The tree is bit for bit the
    one that sorting each node's rows again and scanning each column alone
    would grow."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return ObliqueTree(root=_grow(X, y, _presort(X), task == "classifier", max_depth, oblique))


def train_gbm(
    X,
    y,
    task: str = "classifier",
    n_trees: int = 10,
    lr: float = 0.3,
    depth: int = 2,
) -> GbmEnsemble:
    """Stagewise least-squares boosting on residuals with shallow axis trees.
    Classification boosts the 0/1 targets directly and thresholds at 0.5.
    Every member is the tree ``train_tree(X, residuals, "regressor",
    max_depth=depth, oblique=False)`` returns, and all members share one
    presort of X."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    orders = _presort(X)
    base = float(y.mean())
    pred = np.full(len(y), base)
    trees = []
    for _ in range(n_trees):
        resid = y - pred
        tree = ObliqueTree(root=_grow(X, resid, orders, False, depth, False))
        trees.append(tree)
        pred += lr * tree.predict(X)
    return GbmEnsemble(base=base, trees=trees, weights=[lr] * n_trees)


# ---------------------------------------------------------------------------
# MLP training (Adam on batches of at most MLP_BATCH rows)
# ---------------------------------------------------------------------------

def _layer_views(flat, shapes):
    """(W, b) views of a flat (R, P) parameter array, one row per restart.

    Each W is (R, fan_out, fan_in) with the strides a fresh C-ordered
    matrix has, so stacked matmul takes the same BLAS path as one restart;
    each b is (R, fan_out), contiguous along the units.
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
    deadline: float = math.inf,
) -> Mlp:
    """One-logit ReLU network trained with ``epochs`` Adam steps; squared
    error for regression, logistic loss for classification.

    Each step takes the mean gradient over a batch of B = min(m,
    ``MLP_BATCH``) rows. With m <= ``MLP_BATCH`` the batch is every row in
    order. Otherwise step k trains on ``perm[j*B:(j+1)*B]`` with
    j = (k - 1) mod (m // B), and ``perm`` is drawn afresh from
    ``default_rng(seed + 104729)`` whenever j is 0; the m mod B rows left
    over sit out that pass. The first layer's kinks are anchored on rows
    drawn from all m, and after the last step one forward pass over all m
    rows scores the restarts.

    Every ``MLP_CLOCK_EVERY`` steps, training stops once ``deadline`` (a
    ``time.monotonic()`` instant) has passed, and the best restart so far
    is returned as after that many steps.

    Runs a few deterministic restarts and keeps the lowest training loss,
    which protects small networks from dead-unit local minima. The restarts
    train together: restart r's weights are row r of one (R, P) array, and
    every step runs one stacked forward pass, backward pass and Adam update
    on the same batch in preallocated buffers. Activations, back-propagated
    gradients and ReLU masks are (R, units, B), the samples contiguous, so
    every broadcast and bias-gradient sum streams along the samples. Each
    restart's arithmetic is exactly that of a lone run in this layout,
    ``h = max(0, W @ h + b)`` on the (n, B) transposed batch. Input (and
    regression target) standardization is folded back into the weights so
    the returned network acts on raw coordinates.
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
    size = min(m, MLP_BATCH)
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

    # acts[l] is layer l's input and acts[-1] the logits z; back[l + 1] is
    # the loss gradient at layer l's pre-activation, the last one in z's
    # memory. With more than MLP_BATCH rows, acts[0] and `batch_target` are
    # refilled with each step's batch
    XsT = np.ascontiguousarray(Xs.T)
    batch_X = XsT if size == m else np.empty((n, size))
    batch_target = target if size == m else np.empty(size)
    back = [None] + [np.empty((R, h, size)) for h in hidden] + [np.empty((R, 1, size))]
    acts = [batch_X[None]] + [np.empty((R, h, size)) for h in hidden] + back[-1:]
    alive = [None] + [np.empty((R, h, size), dtype=bool) for h in hidden]
    z = back[-1][:, 0, :]
    actTs = [a.transpose(0, 2, 1) for a in acts]
    WTs = [W.transpose(0, 2, 1) for W in Ws]
    b3s = [b[:, :, None] for b in bs]
    mom1 = np.zeros((R, P))
    mom2 = np.zeros((R, P))
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    last = len(shapes) - 1
    batch_rng = np.random.default_rng(seed + 104729)
    per_pass = m // size  # batches per pass over the rows

    def forward(acts):
        for layer in range(last + 1):
            h = acts[layer + 1]
            np.matmul(Ws[layer], acts[layer], out=h)
            h += b3s[layer]
            if layer < last:
                np.maximum(0.0, h, out=h)

    for step in range(1, epochs + 1):
        if size < m:
            j = (step - 1) % per_pass
            if j == 0:
                perm = batch_rng.permutation(m)
            rows = perm[j * size:(j + 1) * size]
            np.take(XsT, rows, axis=1, out=batch_X)
            np.take(target, rows, out=batch_target)
        forward(acts)
        if task != "regressor":
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.divide(1.0, z, out=z)
        z -= batch_target
        z /= size
        for layer in range(last, -1, -1):
            g = back[layer + 1]
            np.matmul(g, actTs[layer], out=gWs[layer])
            np.sum(g, axis=2, out=gbs[layer])
            if layer > 0:
                below = back[layer]
                if layer == last:
                    np.multiply(WTs[layer], g, out=below)
                else:
                    np.matmul(WTs[layer], g, out=below)
                np.greater(acts[layer], 0, out=alive[layer])
                np.multiply(below, alive[layer], out=below)
        corr1 = 1.0 - beta1 ** step
        corr2 = 1.0 - beta2 ** step
        mom1 = beta1 * mom1 + (1 - beta1) * grad
        mom2 = beta2 * mom2 + (1 - beta2) * grad ** 2
        theta -= lr * (mom1 / corr1) / (np.sqrt(mom2 / corr2) + adam_eps)
        if step % MLP_CLOCK_EVERY == 0 and time.monotonic() > deadline:
            break

    if size < m:
        acts = [XsT[None]] + [np.empty((R, h, m)) for h in hidden] + [np.empty((R, 1, m))]
    forward(acts)
    z = acts[-1][:, 0, :]
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
    return Mlp(layers=[(W, b) for W, b in zip(Ws, bs)])


# ---------------------------------------------------------------------------
# Model selection
# ---------------------------------------------------------------------------

_CLF_THRESHOLD = {"svm": 0.0, "tree": 0.5, "gbm": 0.5, "mlp": 0.0}


def _train_family(family, X, y, task, seed: int, deadline: float):
    if family == "svm":
        return train_svc(X, y) if task == "classifier" else train_svr(X, y)
    if family == "tree":
        return train_tree(X, y, task=task)
    if family == "gbm":
        return train_gbm(X, y, task=task)
    if family == "mlp":
        return train_mlp(X, y, task=task, seed=seed, deadline=deadline)
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
    seed: int = 0,
    deadline: float = math.inf,
) -> Surrogate | None:
    """Train the candidate families in order and keep the best validation performer.

    Deterministic stratified split, accuracy for classifiers and R^2 for
    regressors, ties resolved by the fixed family order (cheapest MIO
    encoding first). Neither score exceeds 1.0, so the families after one
    that scores 1.0 are not trained: they could at best tie. Returns None
    when a family is due after ``deadline`` (a ``time.monotonic()``
    instant), which it does not start; an MLP stops training soon after it.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(y)
    if m < 10:
        raise DegenerateDataset("need at least 10 samples to split and select")
    if task == "classifier" and y.min() == y.max():
        raise DegenerateDataset("single-label dataset")
    rng = np.random.default_rng(seed)

    if task == "classifier":
        train_idx = []
        val_idx = []
        for lbl in (0.0, 1.0):
            idx = np.nonzero(y == lbl)[0]
            idx = idx[rng.permutation(len(idx))]
            cut = max(1, int(round(SPLIT_RATIO * len(idx))))
            cut = min(cut, len(idx) - 1) if len(idx) > 1 else cut
            train_idx.extend(idx[:cut])
            val_idx.extend(idx[cut:])
        train_idx = np.array(sorted(train_idx))
        val_idx = np.array(sorted(val_idx))
    else:
        perm = rng.permutation(m)
        cut = max(2, int(round(SPLIT_RATIO * m)))
        train_idx = np.sort(perm[:cut])
        val_idx = np.sort(perm[cut:])
    if len(val_idx) == 0:
        raise DegenerateDataset("validation split is empty")

    best = None
    for family in candidates:
        if time.monotonic() > deadline:
            return None
        try:
            model = _train_family(family, X[train_idx], y[train_idx], task, seed, deadline)
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
        if best is not None and best.validation_score >= 1.0:
            break
    if best is None:
        raise DegenerateDataset("no family could be trained on this dataset")
    return best
