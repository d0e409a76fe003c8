"""Compile trained surrogates into mixed-integer linear constraints.

Each encoder returns its model's output as an affine expression ``(coeffs,
const)`` over model columns, with no output column: a tree's leaf binaries,
with one big-M row per side of each split, weighted by the leaf values, a
boosted ensemble's members scaled by their weights, a ReLU network's last
layer over the hidden units of the per-neuron big-M encoding, or a linear
model's own coefficients. Robust counterparts add a dual norm of the
coefficient-by-input elementwise product to every affected row, linearized
exactly for dual norms 1 and infinity. ``assemble`` writes the original
linear rows, one threshold row per classifier or two band rows per equality,
and optional relaxation slacks penalized in the objective; an unrelaxed tree
keeps only the leaves that can satisfy its rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedNorm
from .learners import GbmEnsemble, LinearModel, Mlp, ObliqueTree, Surrogate
from .milp import MilpModel
from .model import EQUALITY_BAND, LinearObjective, StandardProblem

SPLIT_EPS_SCALE = 1e-6  # strict-side margin, scaled by the row norm
BIG_M_SAFETY = 1.01
BIG_M_FLOOR = 1.0


@dataclass
class RobustConfig:
    """Uncertainty radius and the norm of the coefficient uncertainty set.

    ``p`` names the uncertainty set's norm; rows are tightened with the dual
    norm q (p=1 -> q=inf, p=inf -> q=1). No other norm has a linear
    encoding.
    """

    rho: float = 0.0
    p: float = 1.0

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")

    @property
    def q(self) -> float:
        if self.p == 1.0:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        raise UnsupportedNorm(f"no dual-norm rule for p={self.p}")

    @property
    def active(self) -> bool:
        return self.rho > 0.0


@dataclass
class RelaxConfig:
    penalty: float

    def __post_init__(self):
        if self.penalty <= 0:
            raise ValueError("relaxation penalty must be positive")


# ---------------------------------------------------------------------------
# Interval helpers
# ---------------------------------------------------------------------------

def affine_range(coeffs, lo, hi, const: float = 0.0):
    """Interval bounds of const + coeffs @ x over the box."""
    coeffs = np.asarray(coeffs, dtype=float)
    low = const + float(np.minimum(coeffs * lo, coeffs * hi).sum())
    high = const + float(np.maximum(coeffs * lo, coeffs * hi).sum())
    return low, high


def big_m_value(a, b: float, lo, hi) -> float:
    """Interval bound on |a @ x - b| over the box, padded and floored."""
    low, high = affine_range(a, lo, hi, -b)
    return max(BIG_M_FLOOR, BIG_M_SAFETY * max(abs(low), abs(high)))


def _norm_upper(a, lo, hi, q: float) -> float:
    mags = np.maximum(np.abs(np.asarray(a) * lo), np.abs(np.asarray(a) * hi))
    if math.isinf(q):
        return float(mags.max()) if len(mags) else 0.0
    return float(mags.sum())


def _split_eps(a) -> float:
    return SPLIT_EPS_SCALE * max(1.0, float(np.linalg.norm(a)))


# ---------------------------------------------------------------------------
# Norm linearization
# ---------------------------------------------------------------------------

def add_norm_var(m: MilpModel, a, cols, lo, hi, q: float) -> int:
    """Add t >= || a (*) x ||_q rows over the columns in ``cols``.

    The componentwise products a_k * x_k are affine, so the envelope is exact
    for q in {1, inf}: the smallest admissible t equals the norm.
    """
    a = np.asarray(a, dtype=float)
    nz = [k for k in range(len(a)) if a[k] != 0.0]
    t_up = BIG_M_SAFETY * _norm_upper(a, lo, hi, q) + 1e-9
    t = m.add_var(0.0, t_up)
    if math.isinf(q):
        for k in nz:
            m.add_row({cols[k]: a[k], t: -1.0}, "<=", 0.0)
            m.add_row({cols[k]: -a[k], t: -1.0}, "<=", 0.0)
        return t
    if q == 1.0:
        s_vars = []
        for k in nz:
            s_up = BIG_M_SAFETY * max(abs(a[k] * lo[k]), abs(a[k] * hi[k])) + 1e-9
            s = m.add_var(0.0, s_up)
            m.add_row({cols[k]: a[k], s: -1.0}, "<=", 0.0)
            m.add_row({cols[k]: -a[k], s: -1.0}, "<=", 0.0)
            s_vars.append(s)
        m.add_row({**{s: 1.0 for s in s_vars}, t: -1.0}, "<=", 0.0)
        return t
    raise UnsupportedNorm(f"built-in solver cannot linearize q={q}")


# ---------------------------------------------------------------------------
# Family encodings
# ---------------------------------------------------------------------------

def encode_linear_model(model: LinearModel, m: MilpModel, cols, lo, hi,
                        robust: Optional[RobustConfig] = None) -> tuple:
    """``beta @ x + beta0``, less ``rho * ||beta (*) x||_q`` when robust."""
    beta = np.asarray(model.beta, dtype=float)
    coeffs = {cols[k]: beta[k] for k in range(len(beta)) if beta[k] != 0.0}
    if robust is not None and robust.active:
        coeffs[add_norm_var(m, beta, cols, lo, hi, robust.q)] = -robust.rho
    return coeffs, float(model.beta0)


def encode_tree(tree: ObliqueTree, m: MilpModel, cols, lo, hi,
                robust: Optional[RobustConfig] = None) -> tuple:
    """One binary z_i per leaf, summing to 1, and two big-M rows per split:
    ``a.x <= b`` holds unless no leaf of the left subtree is chosen, and
    ``a.x >= b + eps`` unless none of the right subtree's is. The output is
    ``sum v_i z_i``, returned as ``{z_i: v_i}`` in leaf order. Robust mode
    widens each split row by rho * ||a (*) x||_q on its restrictive side,
    with one norm column per split."""
    leaves = tree.leaves()
    zs = [m.add_binary() for _ in leaves]
    m.add_row({z: 1.0 for z in zs}, "=", 1.0)
    rho = robust.rho if robust is not None else 0.0

    def walk(node, first):
        """Write the rows of the splits under ``node``, whose leaves start
        at ``zs[first]``; return the index past its last leaf."""
        if node.is_leaf:
            return first + 1
        a, b = np.asarray(node.a, dtype=float), node.b
        M, t = big_m_value(a, b, lo, hi), None
        if rho > 0.0:
            t = add_norm_var(m, a, cols, lo, hi, robust.q)
            M += BIG_M_SAFETY * (rho * _norm_upper(a, lo, hi, robust.q))
        mid = walk(node.left, first)
        end = walk(node.right, mid)
        coeffs = {cols[k]: a[k] for k in range(len(a)) if a[k] != 0.0}
        # a.x + rho t <= b + M (1 - sum of the left leaves)
        m.add_row(_with_coef({**coeffs, **{z: M for z in zs[first:mid]}}, t, rho), "<=", b + M)
        # a.x - rho t >= b - M (1 - sum of the right leaves) + eps
        m.add_row(_with_coef({**coeffs, **{z: -M for z in zs[mid:end]}}, t, -rho),
                  ">=", b - M + _split_eps(a))
        return end

    walk(tree.root, 0)
    return {z: v for z, (v, _) in zip(zs, leaves)}, 0.0


def encode_gbm(ens: GbmEnsemble, m: MilpModel, cols, lo, hi,
               robust: Optional[RobustConfig] = None) -> tuple:
    """Encode every tree; the output is ``base`` plus the members' outputs
    scaled by their weights."""
    coeffs = {}
    for w, tree in zip(ens.weights, ens.trees):
        leaves, _ = encode_tree(tree, m, cols, lo, hi, robust=robust)
        coeffs.update({z: w * v for z, v in leaves.items()})
    return coeffs, float(ens.base)


def encode_mlp(net: Mlp, m: MilpModel, cols, lo, hi) -> tuple:
    """Standard big-M ReLU encoding with per-neuron interval bounds; the
    output is the last layer over the last hidden units.

    Units that an interval pass proves always active get an equality row and
    no binary; provably inactive units pin to zero.
    """
    prev_cols = list(cols)
    prev_lo = np.asarray(lo, dtype=float).copy()
    prev_hi = np.asarray(hi, dtype=float).copy()
    for W, b in net.layers[:-1]:
        n_out = W.shape[0]
        new_cols = []
        new_lo = np.zeros(n_out)
        new_hi = np.zeros(n_out)
        for i in range(n_out):
            w = W[i]
            pre_lo, pre_hi = affine_range(w, prev_lo, prev_hi, float(b[i]))
            wcoeffs = {prev_cols[k]: w[k] for k in range(len(w)) if w[k] != 0.0}
            if pre_hi <= 0.0:
                u = m.add_var(0.0, 0.0)
            elif pre_lo >= 0.0:
                u = m.add_var(pre_lo, pre_hi)
                coeffs = dict(wcoeffs)
                coeffs[u] = coeffs.get(u, 0.0) - 1.0
                m.add_row(coeffs, "=", -float(b[i]))
            else:
                u = m.add_var(0.0, pre_hi)
                z = m.add_binary()
                # u >= pre
                coeffs = dict(wcoeffs)
                coeffs[u] = coeffs.get(u, 0.0) - 1.0
                m.add_row(coeffs, "<=", -float(b[i]))
                # u <= pre - pre_lo (1 - z)
                coeffs = {u: 1.0}
                for k, v in wcoeffs.items():
                    coeffs[k] = coeffs.get(k, 0.0) - v
                coeffs[z] = coeffs.get(z, 0.0) - pre_lo
                m.add_row(coeffs, "<=", float(b[i]) - pre_lo)
                # u <= pre_hi z
                m.add_row({u: 1.0, z: -pre_hi}, "<=", 0.0)
            new_cols.append(u)
            new_lo[i] = max(0.0, pre_lo)
            new_hi[i] = max(0.0, pre_hi)
        prev_cols, prev_lo, prev_hi = new_cols, new_lo, new_hi

    W, b = net.layers[-1]
    return {prev_cols[k]: W[0][k] for k in range(W.shape[1]) if W[0][k] != 0.0}, float(b[0])


# ---------------------------------------------------------------------------
# Unified assembly
# ---------------------------------------------------------------------------

ALWAYS_FEASIBLE = "always_feasible"
ALWAYS_INFEASIBLE = "always_infeasible"


def assemble(
    sp: StandardProblem,
    constraint_surrogates,
    objective_surrogate: Optional[Surrogate] = None,
    robust: Optional[RobustConfig] = None,
    relax: Optional[RelaxConfig] = None,
) -> MilpModel:
    """Build the unified approximation model.

    ``constraint_surrogates`` aligns with ``sp.nonlinear``; each entry is a
    Surrogate, ALWAYS_FEASIBLE (constraint dropped), or ALWAYS_INFEASIBLE
    (an unsatisfiable marker row that only relaxation can absorb). A
    surrogate reads the columns ``sorted(con.support)`` of its constraint,
    and the objective's reads ``sorted(sp.objective.support)``. Equality
    constraints use a regressor surrogate held inside a small band around
    zero. With ``relax`` set, every surrogate rule gains a nonnegative slack
    penalized in the objective; without it, a tree leaf whose value misses
    its rule gets upper bound 0, which leaves the integer feasible set as it
    is. Columns 0..n-1 are the variables of ``sp.vars``.
    """
    m = MilpModel(name=sp.name or "model")
    for v in sp.vars:
        m.add_var(v.lower, v.upper, integral=v.integral)
    for row in sp.linear:
        coeffs = {k: row.coeffs[k] for k in range(sp.n) if row.coeffs[k] != 0.0}
        m.add_row(coeffs, row.sense, row.rhs)

    lo_all, hi_all = sp.box()
    relax_vars = []

    for con, sur in zip(sp.nonlinear, constraint_surrogates):
        if sur == ALWAYS_FEASIBLE:
            continue
        u = None
        if relax is not None:
            u = m.add_var(0.0, math.inf)
            relax_vars.append(u)
        if sur == ALWAYS_INFEASIBLE:
            # no feasible sample was ever seen: 0 >= 1 unless relaxed
            m.add_row(_with_coef({}, u, 1.0), ">=", 1.0)
            continue

        support = sorted(con.support)
        coeffs, const = encode_surrogate(sur, m, support, lo_all[support], hi_all[support], robust)
        if con.sense == "=0":
            # regression surrogate pinned inside a band around zero
            rules = [("<=", EQUALITY_BAND - const, -1.0), (">=", -EQUALITY_BAND - const, 1.0)]
        else:
            rules = [(">=", sur.threshold - const, 1.0)]
        for sense, rhs, slack in rules:
            m.add_row(_with_coef(coeffs, u, slack), sense, rhs)
        if u is None and sur.family == "tree":
            # with one leaf chosen the output is its value; a slack could pay for a miss
            for z, v in coeffs.items():
                if any(v > rhs if sense == "<=" else v < rhs for sense, rhs, _ in rules):
                    m.upper[z] = 0.0

    if isinstance(sp.objective, LinearObjective):
        coeffs = {k: c for k, c in enumerate(sp.objective.coeffs) if c != 0.0}
        const = sp.objective.constant
    elif objective_surrogate is None:
        raise ValueError("nonlinear objective needs a regressor surrogate")
    else:
        support = sorted(sp.objective.support)
        coeffs, const = encode_surrogate(
            objective_surrogate, m, support, lo_all[support], hi_all[support], None
        )
    for col, c in coeffs.items():
        m.add_objective_term(col, float(c))
    m.obj_const = float(const)

    for u in relax_vars:
        m.add_objective_term(u, relax.penalty)

    m.registry = {"relax_vars": relax_vars}
    return m


def _with_coef(coeffs: dict, var: Optional[int], coef: float) -> dict:
    if var is not None:
        coeffs = dict(coeffs)
        coeffs[var] = coef
    return coeffs


def encode_surrogate(sur: Surrogate, m, cols, lo, hi, robust) -> tuple:
    """Any family's output as an affine expression ``(coeffs, const)``. A
    linear regressor stays nominal, as only a classifier's margin is robust."""
    if sur.family == "svm":
        return encode_linear_model(sur.model, m, cols, lo, hi,
                                   robust if sur.task == "classifier" else None)
    if sur.family == "tree":
        return encode_tree(sur.model, m, cols, lo, hi, robust=robust)
    if sur.family == "gbm":
        return encode_gbm(sur.model, m, cols, lo, hi, robust=robust)
    if sur.family == "mlp":
        return encode_mlp(sur.model, m, cols, lo, hi)
    raise ValueError(f"unknown family {sur.family!r}")

