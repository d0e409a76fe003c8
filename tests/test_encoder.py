import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt import encoder as E
from surropt import learners as L
from surropt import milp
from surropt.errors import UnsupportedNorm
from surropt.model import (
    LinearConstraint,
    LinearObjective,
    NonlinearConstraint,
    StandardProblem,
    VarSpec,
)


def _box_model(lo, hi):
    m = milp.MilpModel()
    cols = [m.add_var(lo[j], hi[j]) for j in range(len(lo))]
    return m, cols


def _pin(m, cols, point):
    """Fix the input columns at ``point`` by their bounds."""
    for col, v in zip(cols, point):
        m.lower[col] = m.upper[col] = float(v)


def _solve_for(m, expr, sign=1.0):
    """Solve ``m`` minimizing sign * (const + coeffs @ x) of the output ``expr``."""
    coeffs, const = expr
    m.obj = {j: sign * c for j, c in coeffs.items()}
    m.obj_const = sign * const
    return milp.solve_milp(m)


def _add_threshold(m, expr, threshold):
    """The classifier rule const + coeffs @ x >= threshold."""
    coeffs, const = expr
    m.add_row(coeffs, ">=", threshold - const)


def _surrogate(model, family, task="classifier"):
    thr = {"svm": 0.0, "tree": 0.5, "gbm": 0.5, "mlp": 0.0}[family] if task == "classifier" else 0.0
    return L.Surrogate(model=model, family=family, task=task, threshold=thr, validation_score=1.0)


def test_big_m_examples():
    assert E.big_m_value(np.array([1.0, 0.0]), 0.0, np.zeros(2), np.ones(2)) == pytest.approx(1.01)
    assert E.big_m_value(np.zeros(2), 0.0, np.zeros(2), np.ones(2)) == pytest.approx(1.0)
    assert E.big_m_value(np.array([1.0, 1.0]), 0.0, -np.ones(2), np.ones(2)) == pytest.approx(2.02)


def test_robust_config_dual_norms():
    assert E.RobustConfig(rho=0.1, p=1.0).q == math.inf
    assert E.RobustConfig(rho=0.1, p=math.inf).q == 1.0
    for p in (2.0, 3.0):
        with pytest.raises(UnsupportedNorm):
            E.RobustConfig(rho=0.1, p=p).q


def test_encode_svr_fidelity_at_fixed_point():
    lo, hi = np.zeros(1), np.ones(1)
    m, cols = _box_model(lo, hi)
    out = E.encode_linear_model(L.LinearModel(beta0=1.0, beta=np.array([2.0])), m, cols, lo, hi)
    _pin(m, cols, [0.5])
    sol = _solve_for(m, out)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_encode_svc_feasible_halfspace():
    lo, hi = -np.ones(2), np.ones(2)
    m, cols = _box_model(lo, hi)
    out = E.encode_linear_model(L.LinearModel(beta0=0.0, beta=np.array([1.0, 0.0])), m, cols, lo, hi)
    _add_threshold(m, out, 0.0)
    m.add_objective_term(cols[0], 1.0)
    sol = milp.solve_milp(m)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)  # x1 >= 0 is the region


def _four_leaf_mixed_tree():
    """Depth-3 tree with one axis root and two oblique splits, four leaves."""
    a1 = np.array([0.0, -1.0])        # x2 >= 0.9319 routes left
    a2 = np.array([0.1712, -0.06246])
    a3 = np.array([0.4823, -0.4313])
    leaf1 = L._Node(value=1.0)
    leaf2 = L._Node(value=1.0)
    leaf3 = L._Node(value=1.0)
    leaf4 = L._Node(value=0.0)
    n3 = L._Node(a=a3, b=0.04902, left=leaf3, right=leaf4)
    n2 = L._Node(a=a2, b=0.06421, left=leaf2, right=n3)
    root = L._Node(a=a1, b=-0.9319, left=leaf1, right=n2)
    return L.ObliqueTree(root=root)


def test_encode_tree_forces_leaf_at_fixed_point():
    tree = _four_leaf_mixed_tree()
    lo = np.array([0.51, 0.3])
    hi = np.array([1.5, 1.6])
    m, cols = _box_model(lo, hi)
    out = E.encode_tree(tree, m, cols, lo, hi)
    leaf_binaries = list(np.flatnonzero(m.integral))  # one per leaf, in leaf order
    assert list(out[0]) == leaf_binaries and len(leaf_binaries) == 4
    _pin(m, cols, [1.0, 1.0])
    sol = _solve_for(m, out)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)  # y equals leaf prediction
    assert sol.x[leaf_binaries[0]] == pytest.approx(1.0)   # first leaf is active


def test_encode_tree_max_output_over_box():
    tree = _four_leaf_mixed_tree()
    lo = np.array([0.51, 0.3])
    hi = np.array([1.5, 1.6])
    m, cols = _box_model(lo, hi)
    out = E.encode_tree(tree, m, cols, lo, hi)
    sol = _solve_for(m, out, -1.0)
    assert sol.status == "optimal"
    assert -sol.objective == pytest.approx(1.0, abs=1e-9)


def test_encode_single_leaf_tree():
    tree = L.ObliqueTree(root=L._Node(value=1.0))
    lo, hi = np.zeros(1), np.ones(1)
    m, cols = _box_model(lo, hi)
    out = E.encode_tree(tree, m, cols, lo, hi)
    sol = _solve_for(m, out)
    assert sol.objective == pytest.approx(1.0)


def test_robust_zero_rho_identical_rows():
    tree = _four_leaf_mixed_tree()
    lo = np.array([0.51, 0.3])
    hi = np.array([1.5, 1.6])
    plain, cols = _box_model(lo, hi)
    E.encode_tree(tree, plain, cols, lo, hi, robust=None)
    robust, cols2 = _box_model(lo, hi)
    E.encode_tree(tree, robust, cols2, lo, hi, robust=E.RobustConfig(rho=0.0, p=1.0))
    assert milp.models_equal(plain, robust)


def _norm_columns(tree, lo, hi):
    """Columns a robust tree encoding adds over the plain one; with p = 1 the
    dual norm is inf, which takes one column per norm."""
    plain, cols = _box_model(lo, hi)
    E.encode_tree(tree, plain, cols, lo, hi)
    robust, cols = _box_model(lo, hi)
    E.encode_tree(tree, robust, cols, lo, hi, robust=E.RobustConfig(rho=0.1, p=1.0))
    return robust.n_vars - plain.n_vars


def test_robust_tree_gets_one_norm_variable_per_split():
    tree = _four_leaf_mixed_tree()

    def as_lists(node):
        if not node.is_leaf:
            node.a = [float(v) for v in node.a]
            as_lists(node.left)
            as_lists(node.right)

    as_lists(tree.root)
    lo, hi = np.array([0.51, 0.3]), np.array([1.5, 1.6])
    assert _norm_columns(tree, lo, hi) == 3


def test_robust_tree_encoding_survives_a_pickle_round_trip():
    rng = np.random.default_rng(23)
    lo, hi = -np.ones(2), np.ones(2)
    X = rng.uniform(lo, hi, size=(220, 2))
    y = (X[:, 0] ** 2 + X[:, 1] <= 0.2).astype(float)
    tree = L.train_tree(X, y, "classifier")

    def encoded(t):
        m, cols = _box_model(lo, hi)
        E.encode_tree(t, m, cols, lo, hi, robust=E.RobustConfig(rho=0.1, p=1.0))
        return m

    assert _norm_columns(tree, lo, hi) > 1
    assert milp.fingerprint(encoded(pickle.loads(pickle.dumps(tree)))) == milp.fingerprint(encoded(tree))


def test_robustify_linear_one_dimensional_example():
    # beta0=0, beta=1, rho=0.1, q=inf: region is x - 0.1|x| >= 0, so min x = 0
    lo, hi = -np.ones(1), np.ones(1)
    m, cols = _box_model(lo, hi)
    out = E.encode_linear_model(L.LinearModel(beta0=0.0, beta=np.array([1.0])), m, cols, lo, hi,
                                robust=E.RobustConfig(rho=0.1, p=1.0))
    _add_threshold(m, out, 0.0)
    m.add_objective_term(cols[0], 1.0)
    sol = milp.solve_milp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-7)


def _fidelity_models(rng):
    lo, hi = -np.ones(2), np.ones(2)
    X = rng.uniform(lo, hi, size=(250, 2))
    y_reg = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1]
    y_clf = (X[:, 0] ** 2 + X[:, 1] <= 0.5).astype(float)
    out = []
    out.append(_surrogate(L.train_svr(X, y_reg), "svm", "regressor"))
    out.append(_surrogate(L.train_tree(X, y_reg, "regressor"), "tree", "regressor"))
    out.append(_surrogate(L.train_gbm(X, y_reg, "regressor", n_trees=5), "gbm", "regressor"))
    out.append(_surrogate(L.train_mlp(X, y_reg, "regressor", epochs=150), "mlp", "regressor"))
    out.append(_surrogate(L.train_svc(X, y_clf), "svm"))
    out.append(_surrogate(L.train_tree(X, y_clf, "classifier"), "tree"))
    out.append(_surrogate(L.train_gbm(X, y_clf, "classifier", n_trees=5), "gbm"))
    out.append(_surrogate(L.train_mlp(X, y_clf, "classifier", epochs=150), "mlp"))
    return (lo, hi), out


def test_gbm_encoding_reproduces_predict():
    rng = np.random.default_rng(5)
    lo, hi = -np.ones(2), np.ones(2)
    X = rng.uniform(lo, hi, size=(200, 2))
    y = np.sin(2 * X[:, 0]) - X[:, 1] ** 2
    ens = L.train_gbm(X, y, "regressor", n_trees=5)
    sur = _surrogate(ens, "gbm", "regressor")
    for _ in range(20):
        x = rng.uniform(lo, hi)
        m, cols = _box_model(lo, hi)
        out = E.encode_gbm(ens, m, cols, lo, hi)
        _pin(m, cols, x)
        sol = _solve_for(m, out)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(sur.model.predict_one(x), abs=1e-9)


def test_mlp_relu_negative_branch():
    # single hidden unit computing max(0, x1) over [-1, 1]
    net = L.Mlp(
        layers=[(np.array([[1.0]]), np.zeros(1)), (np.array([[1.0]]), np.zeros(1))],
    )
    lo, hi = -np.ones(1), np.ones(1)
    m, cols = _box_model(lo, hi)
    out = E.encode_mlp(net, m, cols, lo, hi)
    _pin(m, cols, [-0.5])
    sol = _solve_for(m, out)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_mlp_zero_weight_constant_output():
    net = L.Mlp(
        layers=[(np.zeros((3, 2)), np.zeros(3)), (np.zeros((1, 3)), np.array([3.0]))],
    )
    lo, hi = np.zeros(2), np.ones(2)
    for point in ([0.1, 0.9], [0.7, 0.2]):
        m, cols = _box_model(lo, hi)
        out = E.encode_mlp(net, m, cols, lo, hi)
        _pin(m, cols, point)
        assert _solve_for(m, out).objective == pytest.approx(3.0, abs=1e-9)


def test_fidelity_all_families_regression_and_verdicts():
    rng = np.random.default_rng(17)
    (lo, hi), surrogates = _fidelity_models(rng)
    for sur in surrogates:
        for _ in range(12):
            x = rng.uniform(lo, hi)
            m, cols = _box_model(lo, hi)
            out = E.encode_surrogate(sur, m, cols, lo, hi, None)
            if sur.task == "regressor":
                _pin(m, cols, x)
                low = _solve_for(m, out)
                high = _solve_for(m, out, -1.0)
                want = sur.model.predict_one(x)
                assert low.objective == pytest.approx(want, abs=1e-6)
                assert -high.objective == pytest.approx(want, abs=1e-6)
            else:
                _add_threshold(m, out, sur.threshold)
                _pin(m, cols, x)
                sol = milp.solve_milp(m)
                assert (sol.status == "optimal") == (sur.model.predict_one(x) >= sur.threshold)


# ---------------------------------------------------------------------------
# Robust nestedness (the encoding at fixed points)
# ---------------------------------------------------------------------------

def _encoded_feasible(sur, point, robust, lo, hi) -> bool:
    """Does the surrogate's encoding, robustified by ``robust``, admit the
    point once every input column is pinned to it?"""
    m, cols = _box_model(lo, hi)
    _add_threshold(m, E.encode_surrogate(sur, m, cols, lo, hi, robust), sur.threshold)
    _pin(m, cols, point)
    return milp.solve_milp(m).status == "optimal"


def test_robust_nestedness_all_families_both_norms():
    rng = np.random.default_rng(23)
    lo, hi = -np.ones(2), np.ones(2)
    X = rng.uniform(lo, hi, size=(220, 2))
    y = (X[:, 0] + 0.7 * X[:, 1] <= 0.2).astype(float)
    surrogates = [
        _surrogate(L.train_svc(X, y), "svm"),
        _surrogate(L.train_tree(X, y, "classifier"), "tree"),
        _surrogate(L.train_gbm(X, y, "classifier", n_trees=5), "gbm"),
    ]
    for p in (1.0, math.inf):
        for sur in surrogates:
            tight = E.RobustConfig(rho=0.1, p=p)
            loose = E.RobustConfig(rho=0.01, p=p)
            for point in rng.uniform(lo, hi, size=(100, 2)):
                in_loose = _encoded_feasible(sur, point, loose, lo, hi)
                if _encoded_feasible(sur, point, tight, lo, hi):
                    assert in_loose
                if in_loose:
                    assert (_encoded_feasible(sur, point, None, lo, hi)
                            or sur.model.predict_one(point) >= sur.threshold)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _toy_standard_problem(support=frozenset({0})):
    return StandardProblem(
        vars=(VarSpec(name="x1", lower=0.0, upper=1.0), VarSpec(name="x2", lower=0.0, upper=1.0)),
        objective=LinearObjective(np.array([1.0, 0.0])),
        linear=(LinearConstraint(np.array([1.0, 1.0]), "<=", 1.5),),
        nonlinear=(
            NonlinearConstraint(evaluator=lambda x: 0.0, sense="<=0", support=support),
            NonlinearConstraint(evaluator=lambda x: 0.0, sense="<=0", support=frozenset({0})),
        ),
    )


def test_assemble_pure_linear_matches_linear_part():
    sp = StandardProblem(
        vars=(VarSpec(name="x1", lower=0.0, upper=1.0), VarSpec(name="x2", lower=0.0, upper=1.0)),
        objective=LinearObjective(np.array([-1.0, -2.0])),
        linear=(LinearConstraint(np.array([1.0, 1.0]), "<=", 1.0),),
    )
    model = E.assemble(sp, [])
    assert model.n_vars == 2
    assert model.n_rows == 1
    sol = milp.solve_milp(model)
    assert sol.objective == pytest.approx(-2.0)


def test_assemble_contradictory_surrogates_relaxation():
    sp = _toy_standard_problem()
    lower = _surrogate(L.LinearModel(beta0=-0.6, beta=np.array([1.0])), "svm")
    upper = _surrogate(L.LinearModel(beta0=0.4, beta=np.array([-1.0])), "svm")
    unrelaxed = E.assemble(sp, [lower, upper])
    assert milp.solve_milp(unrelaxed).status == "infeasible"
    relaxed = E.assemble(sp, [lower, upper], relax=E.RelaxConfig(100.0))
    sol = milp.solve_milp(relaxed)
    assert sol.status == "optimal"
    slack = sum(sol.x[u] for u in relaxed.registry["relax_vars"])
    assert slack > 0.0


def test_assemble_equality_constraint_band():
    sp = StandardProblem(
        vars=(VarSpec(name="x1", lower=0.0, upper=1.0),),
        objective=LinearObjective(np.array([1.0])),
        nonlinear=(
            NonlinearConstraint(evaluator=lambda x: x[0] - 0.5, sense="=0", support=frozenset({0})),
        ),
    )
    regressor = _surrogate(
        L.LinearModel(beta0=-0.5, beta=np.array([1.0])), "svm", task="regressor"
    )
    model = E.assemble(sp, [regressor])
    sol = milp.solve_milp(model)
    assert sol.status == "optimal"
    # minimizing x1 pushes against the equality band around 0.5
    assert sol.x[0] == pytest.approx(0.5, abs=2e-4)


def test_assemble_always_infeasible_marker():
    sp = _toy_standard_problem()
    plain = E.assemble(sp, [E.ALWAYS_INFEASIBLE, E.ALWAYS_FEASIBLE])
    assert milp.solve_milp(plain).status == "infeasible"
    relaxed = E.assemble(
        sp, [E.ALWAYS_INFEASIBLE, E.ALWAYS_FEASIBLE], relax=E.RelaxConfig(10.0)
    )
    sol = milp.solve_milp(relaxed)
    assert sol.status == "optimal"


def test_assemble_relaxed_feasible_when_core_feasible():
    rng = np.random.default_rng(31)
    lo, hi = np.zeros(2), np.ones(2)
    X = rng.uniform(lo, hi, size=(150, 2))
    y = (X[:, 0] + X[:, 1] <= 0.15).astype(float)  # tiny feasible corner
    sp = _toy_standard_problem(support=frozenset({0, 1}))
    for family in ("svm", "tree", "gbm", "mlp"):
        sur = L.select_surrogate(X, y, "classifier", candidates=(family,), seed=1)
        model = E.assemble(sp, [sur, E.ALWAYS_FEASIBLE], relax=E.RelaxConfig(100.0))
        assert milp.solve_milp(model).status == "optimal"


# ---------------------------------------------------------------------------
# Leaves that cannot satisfy their rule (differential, against HiGHS)
# ---------------------------------------------------------------------------

def _highs(model):
    """(status, objective) of the model under scipy.optimize.milp. HiGHS
    picks the integer point; the LP over the other columns is then solved
    again at 1e-10 tolerances, as HiGHS's own point may violate a row by
    1e-6."""
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.optimize import milp as highs_milp

    lp = model.to_lp()
    senses = np.array(lp.senses)
    res = highs_milp(
        lp.c,
        constraints=LinearConstraint(lp.rows, np.where(senses == "<=", -np.inf, lp.rhs),
                                     np.where(senses == ">=", np.inf, lp.rhs)),
        integrality=np.array(model.integral, dtype=int),
        bounds=Bounds(lp.lower, lp.upper),
        options={"mip_rel_gap": 1e-9},
    )
    if res.status != 0:
        return res.status, None
    ints, at = np.array(model.integral), np.round(res.x)
    return _linprog(lp, np.where(ints, at, lp.lower), np.where(ints, at, lp.upper))


def _linprog(lp, lower, upper):
    """(status, objective) of the LP ``lp`` between the column bounds
    ``lower`` and ``upper`` under HiGHS at 1e-10 tolerances."""
    from scipy.optimize import linprog

    senses = np.array(lp.senses)
    sign = np.where(senses == ">=", -1.0, 1.0)
    ineq = senses != "="
    res = linprog(
        lp.c, A_ub=(sign[:, None] * lp.rows)[ineq], b_ub=(sign * lp.rhs)[ineq],
        A_eq=lp.rows[~ineq], b_eq=lp.rhs[~ineq], bounds=np.column_stack([lower, upper]),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    return res.status, (res.fun + lp.const if res.status == 0 else None)


def _random_tree_constraint(rng, lo, hi):
    """A random constraint with a tree surrogate trained on points of the
    box: a classifier of a random half-space or ball at a random threshold,
    or an equality's regressor of a random staircase, often shifted into or
    just out of ``EQUALITY_BAND``."""
    d = len(lo)
    X = rng.uniform(lo, hi, size=(int(rng.integers(30, 120)), d))
    w = rng.normal(size=d)
    if rng.random() < 0.5:
        inside = X @ w < rng.normal() if rng.random() < 0.5 else ((X - X[0]) ** 2).sum(1) < rng.random()
        y = np.where(rng.random(len(X)) < 0.1, rng.random(len(X)) < 0.5, inside).astype(float)
        if len(np.unique(y)) < 2:
            y[0] = 1.0 - y[0]
        tree, sense = L.train_tree(X, y, "classifier", max_depth=int(rng.integers(1, 5))), "<=0"
        threshold = float(rng.uniform(0.05, 0.95))
    else:
        shift = rng.choice([0.0, 0.0, rng.uniform(-3.0, 3.0) * E.EQUALITY_BAND])
        y = 0.5 * np.floor(2.0 * (X @ w)) + shift
        tree, sense = L.train_tree(X, y, "regressor", max_depth=int(rng.integers(1, 5))), "=0"
        threshold = 0.0
    con = NonlinearConstraint(evaluator=lambda x: 0.0, sense=sense, support=frozenset(range(d)))
    task = "classifier" if sense == "<=0" else "regressor"
    return con, L.Surrogate(model=tree, family="tree", task=task, threshold=threshold,
                            validation_score=1.0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_unreachable_leaves_leave_the_optimum_unchanged(seed):
    # the leaf rule fixes at 0 only binaries no integer point can set, so
    # restoring every leaf's upper bound gives the same status and optimum
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    lo = rng.uniform(-2.0, 0.0, size=d)
    hi = lo + rng.uniform(0.5, 3.0, size=d)
    cons, surs = zip(*(_random_tree_constraint(rng, lo, hi) for _ in range(int(rng.integers(1, 3)))))
    sp = StandardProblem(
        vars=tuple(VarSpec(name=f"x{j}", lower=lo[j], upper=hi[j]) for j in range(d)),
        objective=LinearObjective(rng.normal(size=d)),
        nonlinear=cons,
    )
    robust = E.RobustConfig(rho=0.05, p=1.0) if rng.random() < 0.3 else None
    pruned = E.assemble(sp, list(surs), robust=robust)
    full = E.assemble(sp, list(surs), robust=robust)
    for j in np.flatnonzero(full.integral):
        full.upper[j] = 1.0
    status, objective = _highs(pruned)
    full_status, full_objective = _highs(full)
    assert status == full_status
    if status == 0:
        assert objective == pytest.approx(full_objective, rel=1e-9, abs=1e-9)


def test_assemble_fixes_only_an_unrelaxed_trees_unreachable_leaves():
    sp = _toy_standard_problem(support=frozenset({0, 1}))
    tree = _surrogate(_four_leaf_mixed_tree(), "tree")  # leaf values 1, 1, 1, 0
    for relax, last_upper in ((None, 0.0), (E.RelaxConfig(10.0), 1.0)):
        model = E.assemble(sp, [tree, E.ALWAYS_FEASIBLE], relax=relax)
        assert [model.upper[j] for j in np.flatnonzero(model.integral)] == [1.0, 1.0, 1.0, last_upper]


# ---------------------------------------------------------------------------
# Split rows against the per-leaf encoding they replace
# ---------------------------------------------------------------------------

def _splits(node):
    return 0 if node.is_leaf else 1 + _splits(node.left) + _splits(node.right)


@pytest.mark.parametrize("task", ["classifier", "regressor"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_tree_rows_are_two_per_split_with_one_norm_column_each(task, depth):
    for seed in range(3):
        rng = np.random.default_rng(10 * depth + seed)
        lo, hi = -np.ones(3), np.ones(3)
        X = rng.uniform(lo, hi, size=(150, 3))
        score = X @ rng.normal(size=3) + 0.5 * np.sin(4.0 * X[:, 0])
        y = (score > 0.0).astype(float) if task == "classifier" else np.floor(2.0 * score)
        tree = L.train_tree(X, y, task, max_depth=depth)
        m, cols = _box_model(lo, hi)
        E.encode_tree(tree, m, cols, lo, hi)
        assert m.n_rows == 1 + 2 * _splits(tree.root)
        assert _norm_columns(tree, lo, hi) == _splits(tree.root)


def _per_leaf_tree(tree, m, cols, lo, hi, robust=None):
    """The per-leaf encoding, as a reference: one big-M row for every (leaf,
    split on its path) pair, with that split's M, eps and robust margin, and
    a norm column of its own."""
    leaves = tree.leaves()
    zs = [m.add_binary() for _ in leaves]
    m.add_row({z: 1.0 for z in zs}, "=", 1.0)
    rho = robust.rho if robust is not None else 0.0
    for z, (_, path) in zip(zs, leaves):
        for split, b, on_left in path:
            a = np.asarray(split, dtype=float)
            row = {cols[k]: a[k] for k in range(len(a)) if a[k] != 0.0}
            M = E.big_m_value(a, b, lo, hi)
            if rho > 0.0:
                row[E.add_norm_var(m, a, cols, lo, hi, robust.q)] = rho if on_left else -rho
                M += E.BIG_M_SAFETY * (rho * E._norm_upper(a, lo, hi, robust.q))
            if on_left:
                m.add_row({**row, z: M}, "<=", b + M)
            else:
                m.add_row({**row, z: -M}, ">=", b - M + E._split_eps(a))
    return {z: v for z, (v, _) in zip(zs, leaves)}, 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_split_rows_are_as_tight_as_the_per_leaf_rows(seed):
    # each split row implies every per-leaf row of its side, as the leaf
    # binaries are nonnegative, and the two agree at every integer point
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    lo = rng.uniform(-2.0, 0.0, size=d)
    hi = lo + rng.uniform(0.5, 3.0, size=d)
    _, sur = _random_tree_constraint(rng, lo, hi)
    robust = E.RobustConfig(rho=0.05, p=float(rng.choice([1.0, math.inf]))) if rng.random() < 0.4 else None
    c, weight = rng.normal(size=d), float(rng.normal())
    models = []
    for encode in (E.encode_tree, _per_leaf_tree):
        m, cols = _box_model(lo, hi)
        out = encode(sur.model, m, cols, lo, hi, robust=robust)
        if sur.task == "classifier":
            _add_threshold(m, out, sur.threshold)
        m.obj = {col: c[k] for k, col in enumerate(cols)}
        for z, v in out[0].items():
            m.add_objective_term(z, weight * v)
        models.append(m)
    split, per_leaf = models
    assert split.n_rows <= per_leaf.n_rows
    lp_split, lp_leaf = (_linprog(m.to_lp(), m.lower, m.upper) for m in models)
    assert lp_split[0] != 0 or lp_leaf[0] == 0  # a feasible split LP has a feasible reference
    if lp_split[0] == 0:
        assert lp_split[1] >= lp_leaf[1] - 1e-9 * max(1.0, abs(lp_leaf[1]))
    (status, objective), (leaf_status, leaf_objective) = _highs(split), _highs(per_leaf)
    assert status == leaf_status
    if status == 0:
        assert objective == pytest.approx(leaf_objective, rel=1e-9, abs=1e-9)
