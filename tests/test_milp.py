import heapq
import itertools
import math
import os
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from highs_lp import assert_reads_as, solve_lp_file
from surropt import milp
from surropt.errors import NumericalFailure


def _lp(c, rows, senses, rhs, lower, upper, **kw):
    return milp.LpProblem(
        c=np.asarray(c, dtype=float),
        rows=np.asarray(rows, dtype=float).reshape(len(senses), -1),
        senses=list(senses),
        rhs=np.asarray(rhs, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        **kw,
    )


def test_lp_simple_maximize():
    # max x + y is min -x - y
    lp = _lp([-1, -1], [[1, 1]], ["<="], [1], [0, 0], [np.inf, np.inf])
    sol = milp.solve_lp(lp)
    assert sol.status == "optimal"
    assert -sol.objective == pytest.approx(1.0)


def test_lp_lower_bounded_min():
    lp = _lp([1], [[1]], [">="], [3], [-np.inf], [np.inf])
    assert milp.solve_lp(lp).objective == pytest.approx(3.0)


def test_lp_infeasible_and_unbounded():
    bad = _lp([1], [[1], [1]], ["<=", ">="], [0, 1], [-np.inf], [np.inf])
    assert milp.solve_lp(bad).status == "infeasible"
    free = _lp([-1], [[1]], [">="], [0], [-np.inf], [np.inf])
    assert milp.solve_lp(free).status == "unbounded"


def test_lp_matches_scipy_on_random_instances():
    from scipy.optimize import linprog

    rng = np.random.default_rng(0)
    for _ in range(150):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        c = rng.normal(size=n)
        lo = np.where(rng.random(n) < 0.8, rng.uniform(-2, 0, n), -np.inf)
        hi = np.where(rng.random(n) < 0.8, rng.uniform(0.5, 3, n), np.inf)
        senses = [("<=", ">=", "=")[rng.integers(0, 3)] for _ in range(m)]
        sol = milp.solve_lp(_lp(c, A, senses, b, lo, hi))
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for i, sense in enumerate(senses):
            if sense == "<=":
                A_ub.append(A[i]); b_ub.append(b[i])
            elif sense == ">=":
                A_ub.append(-A[i]); b_ub.append(-b[i])
            else:
                A_eq.append(A[i]); b_eq.append(b[i])
        ref = linprog(
            c,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[
                (None if not np.isfinite(l) else l, None if not np.isfinite(u) else u)
                for l, u in zip(lo, hi)
            ],
            method="highs",
        )
        ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status)
        assert sol.status == ref_status
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


def test_lp_matches_scipy_under_blands_rule(monkeypatch):
    # a limit of 0 runs Bland's rule from the first pivot, phase one included
    monkeypatch.setattr(milp, "STALL_LIMIT", 0)
    test_lp_matches_scipy_on_random_instances()


def test_milp_binary_knapsack():
    m = milp.MilpModel()
    a = m.add_binary()
    b = m.add_binary()
    m.add_row({a: 1.0, b: 1.0}, "<=", 1.0)
    m.add_objective_term(a, -1.0)
    m.add_objective_term(b, -1.0)
    sol = milp.solve_milp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0)
    assert sol.gap <= 1e-6


def test_milp_integral_relaxation_solves_at_root():
    m = milp.MilpModel()
    b0 = m.add_binary()
    b1 = m.add_binary()
    m.add_row({b0: 1.0, b1: 1.0}, "=", 1.0)
    m.add_objective_term(b0, 2.0)
    m.add_objective_term(b1, 1.0)
    sol = milp.solve_milp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.nodes == 1


def test_milp_infeasible_status():
    m = milp.MilpModel()
    z = m.add_binary()
    m.add_row({z: 1.0}, ">=", 2.0)
    assert milp.solve_milp(m).status == "infeasible"


def _random_model(rng):
    nb = int(rng.integers(1, 13))
    nc = int(rng.integers(0, 4))
    m = milp.MilpModel()
    bs = [m.add_binary() for _ in range(nb)]
    cs = [
        m.add_var(float(rng.uniform(-3, 0)), float(rng.uniform(0.5, 3)))
        for _ in range(nc)
    ]
    for _ in range(int(rng.integers(1, 8))):
        coeffs = {j: float(rng.normal()) for j in bs + cs if rng.random() < 0.7}
        if coeffs:
            m.add_row(coeffs, ("<=", ">=")[int(rng.integers(0, 2))], float(rng.normal() * 2))
    for j in bs + cs:
        m.add_objective_term(j, float(rng.normal()))
    return m, bs


def _enumerate_best(model, binaries):
    best = None
    for assignment in itertools.product([0.0, 1.0], repeat=len(binaries)):
        lo = list(model.lower)
        hi = list(model.upper)
        for j, v in zip(binaries, assignment):
            lo[j] = hi[j] = v
        sol = milp.solve_lp(replace(model.to_lp(), lower=lo, upper=hi))
        if sol.status == "optimal" and (best is None or sol.objective < best):
            best = sol.objective
    return best


def test_milp_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(50):
        model, binaries = _random_model(rng)
        sol = milp.solve_milp(model)
        best = _enumerate_best(model, binaries)
        if best is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(best, abs=1e-6, rel=1e-6)


def test_milp_general_integers_match_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(10):
        nb = int(rng.integers(0, 5))
        ng = int(rng.integers(1, 4))
        m = milp.MilpModel()
        bs = [m.add_binary() for _ in range(nb)]
        gs = [m.add_var(0, int(rng.integers(2, 5)), integral=True) for _ in range(ng)]
        for _ in range(int(rng.integers(1, 6))):
            coeffs = {j: float(rng.normal()) for j in bs + gs if rng.random() < 0.7}
            if coeffs:
                m.add_row(coeffs, ("<=", ">=")[int(rng.integers(0, 2))], float(rng.normal() * 3))
        for j in bs + gs:
            m.add_objective_term(j, float(rng.normal()))
        sol = milp.solve_milp(m)
        ranges = [range(2)] * nb + [range(int(m.upper[j]) + 1) for j in gs]
        best = None
        for assign in itertools.product(*ranges):
            lo = list(m.lower)
            hi = list(m.upper)
            for j, v in zip(bs + gs, assign):
                lo[j] = hi[j] = float(v)
            r = milp.solve_lp(replace(m.to_lp(), lower=lo, upper=hi))
            if r.status == "optimal" and (best is None or r.objective < best):
                best = r.objective
        if best is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(best, abs=1e-6, rel=1e-6)


def test_milp_solution_satisfies_rows_and_integrality():
    rng = np.random.default_rng(21)
    for _ in range(20):
        model, _ = _random_model(rng)
        sol = milp.solve_milp(model)
        if sol.status != "optimal":
            continue
        assert _rows_hold(model, sol.x)
        for j in np.flatnonzero(model.integral):
            assert abs(sol.x[j] - round(sol.x[j])) <= 1e-6
        assert sol.bound <= sol.objective + 1e-9


def _rows_hold(model, x, tol=1e-6):
    """Does x satisfy every row of the model to ``tol``?"""
    lp = model.to_lp()
    senses = np.array(lp.senses, dtype=object)
    excess = lp.rows @ x - lp.rhs
    violation = np.where(senses == ">=", -excess, np.where(senses == "<=", excess, np.abs(excess)))
    return bool(np.all(violation <= tol))


def test_pivot_budget_failure():
    # maximizing forces at least one pivot, which the zero budget forbids
    lp = _lp([-1, -1], [[1, 1]], ["<="], [1], [0, 0], [np.inf, np.inf])
    with pytest.raises(NumericalFailure):
        milp.solve_lp(lp, max_pivots=0)


# ---------------------------------------------------------------------------
# Differential checks against scipy (HiGHS) and warm-start properties
# ---------------------------------------------------------------------------

def _highs_milp(model):
    """scipy.optimize.milp's result for the model (its objective lacks ``obj_const``)."""
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.optimize import milp as highs_milp

    n = model.n_vars
    c = np.zeros(n)
    for j, v in model.obj.items():
        c[j] = v
    A = np.zeros((model.n_rows, n))
    lb = np.full(model.n_rows, -np.inf)
    ub = np.full(model.n_rows, np.inf)
    for i, coeffs in enumerate(model.row_coeffs):
        for j, v in coeffs.items():
            A[i, j] = v
        if model.row_senses[i] != ">=":
            ub[i] = model.row_rhs[i]
        if model.row_senses[i] != "<=":
            lb[i] = model.row_rhs[i]
    return highs_milp(
        c,
        constraints=LinearConstraint(A, lb, ub) if model.n_rows else None,
        integrality=np.array(model.integral, dtype=int),
        bounds=Bounds(model.lower, model.upper),
        options={"mip_rel_gap": 1e-9},
    )


def _scipy_milp(model):
    """(status, objective) of the model under scipy.optimize.milp."""
    res = _highs_milp(model)
    status = {0: "optimal", 2: "infeasible"}.get(res.status, f"scipy status {res.status}")
    return status, (res.fun + model.obj_const if res.status == 0 else None)


def _lp_objective_at(model, fixed):
    """Objective of the model with the columns of ``fixed`` (index -> value)
    fixed, by scipy's linprog at 1e-10 tolerances; None when infeasible."""
    from scipy.optimize import linprog

    lower, upper = list(model.lower), list(model.upper)
    for j, v in fixed.items():
        lower[j] = upper[j] = float(v)
    lp = replace(model.to_lp(), lower=lower, upper=upper)
    sign = np.array([-1.0 if s == ">=" else 1.0 for s in lp.senses])
    ineq = np.array([s != "=" for s in lp.senses], dtype=bool)
    res = linprog(
        lp.c,
        A_ub=(lp.rows * sign[:, None])[ineq], b_ub=(lp.rhs * sign)[ineq],
        A_eq=lp.rows[~ineq], b_eq=lp.rhs[~ineq],
        bounds=[(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
                for lo, hi in zip(lower, upper)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    return res.fun + lp.const if res.status == 0 else None


def _exact_reference(model):
    """(status, objective) of a model whose integer columns are all boxed.

    HiGHS picks the integer point; the LP over the other columns is then
    solved again at 1e-10 tolerances, since HiGHS's own point may violate a
    row by up to 1e-7. When HiGHS gives no verdict, every integer point is
    tried.
    """
    res = _highs_milp(model)
    ints = np.flatnonzero(model.integral).tolist()
    if res.status == 2:
        return "infeasible", None
    if res.status == 0:
        objective = _lp_objective_at(model, {j: round(res.x[j]) for j in ints})
        if objective is not None:
            return "optimal", objective
    ranges = [range(math.ceil(model.lower[j]), math.floor(model.upper[j]) + 1) for j in ints]
    objectives = [
        objective for point in itertools.product(*ranges)
        if (objective := _lp_objective_at(model, dict(zip(ints, point)))) is not None
    ]
    return ("optimal", min(objectives)) if objectives else ("infeasible", None)


def _assert_matches_scipy(model):
    sol = milp.solve_milp(model)
    ref_status, ref_obj = _scipy_milp(model)
    assert sol.status == ref_status
    if ref_status == "optimal":
        assert sol.objective == pytest.approx(ref_obj, abs=1e-6, rel=1e-6)


def _random_mixed_model(rng):
    """Binaries, general integers and continuous columns with any kind of bounds."""
    m = milp.MilpModel()
    cols = [m.add_binary() for _ in range(int(rng.integers(0, 5)))]
    cols += [
        m.add_var(float(rng.integers(-2, 1)), float(rng.integers(1, 4)), integral=True)
        for _ in range(int(rng.integers(0, 3)))
    ]
    for i in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 4))  # boxed, lower only, upper only, free
        lo = float(rng.uniform(-3, 0)) if kind in (0, 1) else -np.inf
        hi = float(rng.uniform(0.5, 3)) if kind in (0, 2) else np.inf
        j = m.add_var(lo, hi)
        # rows, not bounds, keep one-sided and free columns finite
        if not np.isfinite(lo):
            m.add_row({j: 1.0}, ">=", -4.0)
        if not np.isfinite(hi):
            m.add_row({j: 1.0}, "<=", 4.0)
        cols.append(j)
    for _ in range(int(rng.integers(1, 6))):
        coeffs = {j: float(rng.normal()) for j in cols if rng.random() < 0.6}
        if coeffs:
            sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
            m.add_row(coeffs, sense, float(rng.normal() * 2))
    for j in cols:
        m.add_objective_term(j, float(rng.normal()))
    m.obj_const = float(rng.normal())
    return m


def test_milp_matches_scipy_on_random_mixed_models():
    rng = np.random.default_rng(2024)
    statuses = set()
    for _ in range(120):
        model = _random_mixed_model(rng)
        _assert_matches_scipy(model)
        statuses.add(milp.solve_milp(model).status)
    assert statuses == {"optimal", "infeasible"}


def test_milp_matches_scipy_on_illustrative_grid_models(monkeypatch):
    from surropt import driver
    from surropt.benchmarks import illustrative_problem
    from surropt.encoder import RelaxConfig, RobustConfig

    inputs = []
    assemble = driver.assemble

    def recording_assemble(sp, surrogates, objective_surrogate, robust, relax):
        inputs.append((sp, surrogates, objective_surrogate))
        return assemble(sp, surrogates, objective_surrogate, robust, relax)

    monkeypatch.setattr(driver, "assemble", recording_assemble)
    cfg = driver.RunConfig(seed=4)
    driver.solve_global(illustrative_problem(), cfg)
    sp, surrogates, objective_surrogate = inputs[0]
    statuses = []
    for rho in cfg.rho_grid:
        for lam in cfg.lambda_grid:
            model = assemble(
                sp, surrogates, objective_surrogate,
                RobustConfig(rho=rho, p=cfg.norm_p) if rho > 0 else None,
                RelaxConfig(lam) if lam is not None else None,
            )
            _assert_matches_scipy(model)
            statuses.append(milp.solve_milp(model).status)
    assert len(statuses) == len(cfg.rho_grid) * len(cfg.lambda_grid)
    assert "optimal" in statuses


def test_speed_reducer_robust_models_are_decided_by_propagation():
    """The four robust speed-reducer models of solve seed 3 leave some tree
    with no feasible leaf; propagation proves that before any LP."""
    from surropt import driver
    from surropt.benchmarks import speed_reducer_problem
    from surropt.encoder import RelaxConfig, RobustConfig
    from surropt.model import standardize

    cfg = driver.RunConfig(seed=3)
    sp = standardize(speed_reducer_problem())
    trained = driver.train(sp, driver.sample(sp, cfg), cfg)
    for rho in (0.1, 1.0):
        for relax in (None, RelaxConfig(100.0)):
            model = driver.assemble(
                sp, trained.constraints, trained.objective, RobustConfig(rho=rho, p=cfg.norm_p), relax
            )
            _assert_matches_scipy(model)
            sol = milp.solve_milp(model)
            assert (sol.status, sol.nodes, sol.pivots) == ("infeasible", 0, 0), (rho, relax)


def _model_with_settled_parts(rng):
    """A random mixed model plus fixed columns and rows no point of the box
    can violate; returns it with the counts of both."""
    m = _random_mixed_model(rng)
    for i in range(int(rng.integers(0, 4))):
        integral = bool(rng.random() < 0.5)
        v = float(rng.integers(-2, 3)) if integral else float(rng.uniform(-2, 2))
        j = m.add_var(v, v, integral=integral)
        m.add_objective_term(j, float(rng.normal()))
        for coeffs in m.row_coeffs:
            if rng.random() < 0.5:
                coeffs[j] = float(rng.normal())
    n_fixed = sum(lo == hi for lo, hi in zip(m.lower, m.upper))
    boxed = [j for j in range(m.n_vars) if np.isfinite(m.lower[j]) and np.isfinite(m.upper[j])]
    n_slack = int(rng.integers(0, 4))
    for _ in range(n_slack):
        coeffs = {j: float(rng.normal()) for j in boxed if rng.random() < 0.7}
        most = sum(a * (m.upper[j] if a > 0 else m.lower[j]) for j, a in coeffs.items())
        least = sum(a * (m.lower[j] if a > 0 else m.upper[j]) for j, a in coeffs.items())
        gap = 1e-3 + float(rng.exponential(1.0))
        if rng.random() < 0.5:
            m.add_row(coeffs, "<=", most + gap)
        else:
            m.add_row(coeffs, ">=", least - gap)
    return m, n_fixed, n_slack


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=35361)     # HiGHS gives no verdict (status 4); the model is infeasible
@example(seed=41812075)  # HiGHS's point violates an = row by 9.2e-8; the tree is exhausted
def test_reduced_branch_and_bound_matches_scipy_on_models_with_settled_parts(seed):
    model, n_fixed, n_slack = _model_with_settled_parts(np.random.default_rng(seed))
    sol = _assert_matches_exact_reference(model)
    if sol.nodes:
        # propagation only narrows the box, so what was settled before it stays settled
        assert sol.rows <= model.n_rows - n_slack and sol.cols <= model.n_vars - n_fixed
    else:
        assert (sol.rows, sol.cols) == (0, 0)


def _assert_matches_exact_reference(model):
    """Solve the model; its status, objective and point must agree with
    ``_exact_reference``. Returns the solution."""
    sol = milp.solve_milp(model)
    ref_status, ref_obj = _exact_reference(model)
    assert sol.status == ref_status
    if ref_status == "optimal":
        assert sol.objective == pytest.approx(ref_obj, abs=1e-6, rel=1e-6)
        assert sol.gap <= milp.GAP_TOL
        assert sol.x.shape == (model.n_vars,)
        assert _rows_hold(model, sol.x)
        assert np.all(np.array(model.lower) - 1e-7 <= sol.x)
        assert np.all(sol.x <= np.array(model.upper) + 1e-7)
        for j in np.flatnonzero(model.integral):
            assert sol.x[j] == round(sol.x[j])
    return sol


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_branch_and_bound_matches_scipy_with_singleton_rows(seed):
    # one-entry rows of either sign and any sense, on integer columns too,
    # where rhs / a is often fractional; _reduce folds them into the bounds
    rng = np.random.default_rng(seed)
    model = _random_mixed_model(rng)
    for _ in range(int(rng.integers(1, 4))):
        j = int(rng.integers(0, model.n_vars))
        lo, hi = max(model.lower[j], -4.0), min(model.upper[j], 4.0)
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        model.add_row({j: a}, sense, a * float(rng.uniform(lo - 0.5, hi + 0.5)))
    _assert_matches_exact_reference(model)


def test_reduce_folds_a_singleton_row_into_its_column_bound():
    # propagation leaves x's bound 1e-6 * (1 + 0.5) above the row x <= 0.5,
    # so without the fold the row would stay in the reduced LP
    m = milp.MilpModel()
    x, y = m.add_var(0.0, 1.0), m.add_var(0.0, 1.0)
    m.add_row({x: 1.0}, "<=", 0.5)
    m.add_row({x: 1.0, y: 1.0}, "<=", 1.2)
    m.add_objective_term(x, -1.0)
    m.add_objective_term(y, -1.0)
    sol = milp.solve_milp(m)
    assert sol.status == "optimal" and sol.objective == pytest.approx(-1.2)
    assert (sol.rows, sol.cols) == (1, 2)
    assert sol.x[x] <= 0.5


def _speed_reducer_box_datasets(sp, n, rng):
    """n uniform points over each speed-reducer support box, integers
    rounded, labeled by their constraint (values for the objective): a
    dataset that does not depend on the sampler."""
    from surropt.model import feasibility_labels

    lo, hi = sp.box()
    datasets = []
    for target in (*sp.nonlinear, sp.objective):
        support = sorted(target.support)
        points = rng.uniform(lo[support], hi[support], size=(n, len(support)))
        for k, j in enumerate(support):
            if sp.vars[j].integral:
                points[:, k] = np.round(points[:, k])
        x = np.repeat(((lo + hi) / 2.0)[None, :], n, axis=0)
        x[:, support] = points
        values = np.array([target.value(row) for row in x])
        if target is sp.objective:
            datasets.append((points, None, values))
        else:
            datasets.append((points, feasibility_labels(values, target.sense), None))
    return datasets


def test_speed_reducer_branch_and_bound_runs_on_less_than_half_the_rows():
    """Trees for the constraints and an MLP for the objective, trained on
    1,000 uniform box points each, give a rho=0.01 model of 106 rows; after
    propagation most of them cannot bind (the paths of leaves that miss the
    threshold, the ReLUs whose sign is settled), and branch and bound leaves
    them out."""
    from surropt.benchmarks import speed_reducer_problem
    from surropt.encoder import ALWAYS_FEASIBLE, ALWAYS_INFEASIBLE, RobustConfig, assemble
    from surropt.learners import select_surrogate
    from surropt.model import standardize

    sp = standardize(speed_reducer_problem())
    *constraints, (points, _, values) = _speed_reducer_box_datasets(
        sp, 1000, np.random.default_rng(0)
    )
    surrogates = [
        select_surrogate(X, y, candidates=("tree",)) if len(np.unique(y)) == 2
        else ALWAYS_FEASIBLE if y[0] == 1.0 else ALWAYS_INFEASIBLE
        for X, y, _ in constraints
    ]
    objective = select_surrogate(points, values, task="regressor")
    assert objective.family == "mlp"
    model = assemble(sp, surrogates, objective, RobustConfig(rho=0.01, p=1.0), None)
    sol = milp.solve_milp(model)
    assert sol.status == "optimal"
    assert 0 < 2 * sol.rows < model.n_rows and sol.cols < model.n_vars
    ref_status, ref_obj = _scipy_milp(model)
    assert ref_status == "optimal"
    assert sol.objective == pytest.approx(ref_obj, abs=1e-6, rel=1e-6)
    assert _rows_hold(model, sol.x)


@pytest.fixture(scope="module")
def speed_reducer_models():
    """Seed 3's speed-reducer models without relaxation, by rho (0 and 0.01)."""
    from surropt import driver
    from surropt.benchmarks import speed_reducer_problem
    from surropt.encoder import RobustConfig
    from surropt.model import standardize

    cfg = driver.RunConfig(seed=3)
    sp = standardize(speed_reducer_problem())
    trained = driver.train(sp, driver.sample(sp, cfg), cfg)
    return {
        rho: driver.assemble(
            sp, trained.constraints, trained.objective,
            RobustConfig(rho=rho, p=cfg.norm_p) if rho > 0 else None, None,
        )
        for rho in (0.0, 0.01)
    }


def _pseudocost_reference(x, int_idx, gains, counts):
    """``milp._pseudocost_column`` as a loop over the candidate columns."""
    overall = [gains[d].sum() / counts[d].sum() if counts[d].sum() else 1.0 for d in (0, 1)]
    best, best_score = None, -math.inf
    for j in int_idx:
        if abs(x[j] - round(x[j])) <= milp.INT_TOL:
            continue
        f = x[j] - math.floor(x[j])
        mean = [gains[d, j] / counts[d, j] if counts[d, j] else overall[d] for d in (0, 1)]
        score = max(mean[0] * f, 1e-6) * max(mean[1] * (1.0 - f), 1e-6)
        if score > best_score:
            best, best_score = j, score
    return best


def _fractional_point(rng, n):
    """n values, some integral, some on a 1/8 grid (so with exact ties), the rest anywhere."""
    kind = rng.integers(0, 3, size=n)
    whole = rng.integers(-3, 4, size=n).astype(float)
    return np.where(kind == 0, whole, np.where(kind == 1, whole + rng.integers(1, 8, size=n) / 8.0,
                                               rng.uniform(-3.0, 3.0, size=n)))


def test_pseudocost_branching_without_observations_is_most_fractional():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        x = _fractional_point(rng, n)
        int_idx = np.flatnonzero(rng.random(n) < 0.7)
        j = milp._fractional(x, int_idx)
        if j is None:
            continue
        empty = np.zeros((2, n))
        assert milp._pseudocost_column(x, int_idx, empty, empty) == j


def test_pseudocost_branching_follows_the_product_score():
    # column 0 is the most fractional, but its own observations say that
    # branching it barely moves the bound; column 2 has none and takes the
    # mean over all observations in each direction
    x = np.array([0.5, 0.3, 0.8])
    int_idx = np.arange(3)
    gains = np.array([[0.1, 10.0, 0.0], [0.1, 10.0, 0.0]])
    counts = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    # scores: 0.05 * 0.05, 3 * 7 and (5.05 * 0.8) * (5.05 * 0.2)
    assert milp._fractional(x, int_idx) == 0
    assert milp._pseudocost_column(x, int_idx, gains, counts) == 1
    # column 1 saw no rise down, so its product is floored at 1e-6 * 7; column 2
    # takes the means over all columns, 0.05 down and 5.05 up: 0.04 * 1.01
    gains[:, 1] = [0.0, 10.0]
    assert milp._pseudocost_column(x, int_idx, gains, counts) == 2
    # with no up observations anywhere, every up estimate is 1 per unit, and
    # column 0's 0.05 * 0.5 beats column 2's 0.04 * 0.2
    counts[1] = 0.0
    assert milp._pseudocost_column(x, int_idx, gains, counts) == 0

    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        x = _fractional_point(rng, n)
        int_idx = np.flatnonzero(rng.random(n) < 0.7)
        if milp._fractional(x, int_idx) is None:
            continue
        counts = rng.integers(0, 3, size=(2, n)).astype(float)
        gains = counts * rng.exponential(1.0, size=(2, n)) * (rng.random((2, n)) < 0.8)
        assert milp._pseudocost_column(x, int_idx, gains, counts) == _pseudocost_reference(
            x, int_idx, gains, counts)


def test_speed_reducer_branch_and_bound_takes_few_node_lps(speed_reducer_models):
    """Most-fractional branching took 388 and 380 LPs on these two models."""
    for rho, model in speed_reducer_models.items():
        sol = milp.solve_milp(model)
        ref_status, ref_obj = _scipy_milp(model)
        assert sol.status == ref_status == "optimal", rho
        assert sol.objective == pytest.approx(ref_obj, abs=1e-6, rel=1e-6), rho
        assert sol.nodes <= 120, (rho, sol.nodes)


def test_dive_stops_at_the_time_limit(speed_reducer_models, monkeypatch):
    starts = []
    solve_lp = milp.solve_lp

    def slow_solve_lp(*args, **kwargs):
        starts.append(time.monotonic())
        time.sleep(0.02)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(milp, "solve_lp", slow_solve_lp)
    t0 = time.monotonic()
    sol = milp.solve_milp(speed_reducer_models[0.0], time_limit=0.01)
    assert sol.status == "time_limit"
    late = [t for t in starts if t > t0 + 0.01]
    assert len(late) <= 1, f"{len(late)} of {len(starts)} LPs started after the deadline"


@pytest.mark.parametrize("limit", [1, 30])
def test_node_limited_solve_reports_the_least_open_bound(speed_reducer_models, monkeypatch, limit):
    # the open nodes are the heap the tree pops from, each (bound, ...), or
    # the root alone before the first pop
    heaps, objectives = [], []
    solve_lp = milp.solve_lp

    def recording_solve_lp(*args, **kwargs):
        sol = solve_lp(*args, **kwargs)
        objectives.append(sol.objective)
        return sol

    class RecordingHeapq:
        @staticmethod
        def heappush(heap, item):
            heaps.append(heap)
            heapq.heappush(heap, item)

        @staticmethod
        def heappop(heap):
            heaps.append(heap)
            return heapq.heappop(heap)

    monkeypatch.setattr(milp, "solve_lp", recording_solve_lp)
    monkeypatch.setattr(milp, "heapq", RecordingHeapq)
    monkeypatch.setattr(milp, "NODE_LIMIT", limit)
    sol = milp.solve_milp(speed_reducer_models[0.0])
    assert sol.status == "time_limit"
    assert sol.nodes == len(objectives) <= limit + 1  # a node's two children are solved together
    open_bounds = [item[0] for item in heaps[-1]] if heaps else objectives[:1]
    incumbent = math.inf if sol.objective is None else sol.objective
    assert sol.bound == min(open_bounds + [incumbent])


def test_reduce_keeps_singleton_rows_whose_bounds_would_cross():
    # x >= 0.5 and x <= 0.5 - 1e-8 cross by less than the simplex tolerance;
    # folded, they would leave a box with lower > upper and no point at all
    m = milp.MilpModel()
    x, b = m.add_var(0.0, 1.0), m.add_binary()
    m.add_row({x: 1.0}, ">=", 0.5)
    m.add_row({x: 1.0}, "<=", 0.5 - 1e-8)
    m.add_row({x: 1.0, b: 1.0}, "<=", 1.3)
    m.add_objective_term(x, 1.0)
    m.add_objective_term(b, -1.0)
    sol = milp.solve_milp(m)
    assert sol.status == "optimal" and sol.rows == 2
    assert sol.x[x] == pytest.approx(0.5, abs=1e-7)


def _propagation_case(rng, hold):
    """Rows over mixed columns; with ``hold`` each row holds at a point x0
    inside the bounds whose integer coordinates are integers."""
    n = int(rng.integers(1, 7))
    integral = rng.random(n) < 0.5
    lower = np.where(integral, rng.integers(-3, 1, n), rng.uniform(-3, 0, n))
    upper = np.where(integral, lower + rng.integers(0, 4, n), lower + rng.uniform(0, 4, n))
    # continuous columns may lose a bound; rows then keep them finite or not
    lower[~integral & (rng.random(n) < 0.2)] = -np.inf
    upper[~integral & (rng.random(n) < 0.2)] = np.inf
    span_lo = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper - 5, -5))
    span_hi = np.where(np.isfinite(upper), upper, span_lo + 5)
    x0 = rng.uniform(span_lo, span_hi)
    x0[integral] = np.round(x0[integral])
    m = int(rng.integers(0, 7))
    rows = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
    senses = [("<=", ">=", "=")[int(k)] for k in rng.integers(0, 3, m)]
    act = rows @ x0
    gap = rng.exponential(1.0, m) * (rng.random(m) < 0.6)
    rhs = np.where([s == "<=" for s in senses], act + gap, np.where([s == ">=" for s in senses], act - gap, act))
    if not hold:
        rhs = rhs + rng.normal(0.0, 2.0, m)
    return rows, senses, rhs, lower, upper, integral, x0


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hold=st.booleans())
def test_propagation_keeps_feasible_points_and_agrees_with_scipy(seed, hold):
    rows, senses, rhs, lower, upper, integral, x0 = _propagation_case(np.random.default_rng(seed), hold)
    bounds = milp.propagate(rows, senses, rhs, lower, upper, integral)
    if hold:
        assert bounds is not None
        lo, hi = bounds
        assert np.all(lo <= x0) and np.all(x0 <= hi)
        assert np.all(lo >= lower) and np.all(hi <= upper)
    if bounds is None:
        model = milp.MilpModel()
        for j in range(len(x0)):
            model.add_var(lower[j], upper[j], integral=bool(integral[j]))
        for i, sense in enumerate(senses):
            model.add_row(dict(enumerate(rows[i])), sense, rhs[i])
        assert _scipy_milp(model)[0] == "infeasible"


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_propagation_keeps_every_box_point_that_satisfies_the_rows(seed):
    # inequality rows through quantiles of the points' activities, so that
    # some of the box's corners and random points satisfy every row
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    integral = rng.random(n) < 0.3
    lower = np.where(integral, rng.integers(-3, 1, n), rng.uniform(-3, 0, n))
    upper = lower + np.where(integral, rng.integers(0, 4, n), rng.uniform(0, 4, n))
    corners = np.array(list(itertools.product(*zip(lower, upper))))
    points = np.vstack([corners, rng.uniform(lower, upper, size=(500, n))])
    points[:, integral] = np.round(points[:, integral])
    rows = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
    senses = ["<=" if s else ">=" for s in rng.random(m) < 0.5]
    act = points @ rows.T
    rhs = np.array([np.quantile(act[:, i], 0.7 if s == "<=" else 0.3) for i, s in enumerate(senses)])
    holds = np.where(np.array(senses) == "<=", act <= rhs, act >= rhs).all(axis=1)
    bounds = milp.propagate(rows, senses, rhs, lower, upper, integral)
    if holds.any():
        assert bounds is not None
        lo, hi = bounds
        assert np.all(lo <= points[holds]) and np.all(points[holds] <= hi)


def _random_lp(rng, minimize):
    """A random LP; one that maximizes has its costs negated."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 7))
    A = rng.normal(size=(m, n))
    A[rng.random((m, n)) < 0.3] = 0.0
    lo = np.where(rng.random(n) < 0.7, rng.uniform(-3, 0, n), -np.inf)
    hi = np.where(rng.random(n) < 0.7, rng.uniform(0.5, 3, n), np.inf)
    senses = [("<=", ">=", "=")[int(rng.integers(0, 3))] for _ in range(m)]
    return milp.LpProblem(
        c=rng.normal(size=n) * (1.0 if minimize else -1.0), rows=A, senses=senses,
        rhs=rng.normal(size=m) + 1.0, lower=lo, upper=hi,
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    minimize=st.booleans(),
    upper=st.booleans(),
    shift=st.floats(-4.0, 4.0),
)
# the warm start meets an infeasibility too small to prove and starts over from the slack basis
@example(seed=98813, minimize=False, upper=False, shift=1.1114224981056767e-07)
def test_warm_start_matches_cold_solve(seed, minimize, upper, shift):
    """A child LP differs from its parent in one bound; warm and cold agree."""
    rng = np.random.default_rng(seed)
    parent_lp = _random_lp(rng, minimize)
    parent = milp.solve_lp(parent_lp)
    assume(parent.status == "optimal")
    j = int(rng.integers(0, parent_lp.c.size))
    lower, upper_b = parent_lp.lower.copy(), parent_lp.upper.copy()
    # tighten one bound around the parent's value; it may cross the other bound
    value = parent.x[j] + shift
    if upper:
        upper_b[j] = min(upper_b[j], value)
    else:
        lower[j] = max(lower[j], value)
    child_lp = milp.LpProblem(
        c=parent_lp.c, rows=parent_lp.rows, senses=parent_lp.senses, rhs=parent_lp.rhs,
        lower=lower, upper=upper_b,
    )
    warm = milp.solve_lp(child_lp, start=parent.basis)
    cold = milp.solve_lp(child_lp)
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, rel=1e-7, abs=1e-7)


def test_warm_start_detects_row_infeasible_child():
    # x + y >= 1.5 with both in [0, 1]: fixing x at 0 keeps every bound
    # consistent, so only the row proves the child infeasible
    lp = _lp([1, 1], [[1, 1]], [">="], [1.5], [0, 0], [1, 1])
    parent = milp.solve_lp(lp)
    child = _lp([1, 1], [[1, 1]], [">="], [1.5], [0, 0], [0, 1])
    assert milp.solve_lp(child, start=parent.basis).status == "infeasible"


def test_unusable_start_falls_back_to_cold_solve():
    lp = _lp([1, 2], [[1, 1]], [">="], [1], [0, 0], [3, 3])
    other = milp.solve_lp(_lp([1], [[1]], [">="], [1], [0], [3]))
    warm = milp.solve_lp(lp, start=other.basis)
    assert warm.status == "optimal"
    assert warm.objective == pytest.approx(milp.solve_lp(lp).objective)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_lp_with_non_finite_rows_raises(bad):
    lp = _lp([1, 1], [[1, bad]], [">="], [1], [0, 0], [1, 1])
    with pytest.raises(NumericalFailure, match="not finite"):
        milp.solve_lp(lp)


def test_milp_pivots_sum_over_its_lp_solves(monkeypatch):
    calls = []
    solve_lp = milp.solve_lp

    def counting_solve_lp(lp, *args, **kwargs):
        sol = solve_lp(lp, *args, **kwargs)
        calls.append(sol.pivots)
        return sol

    monkeypatch.setattr(milp, "solve_lp", counting_solve_lp)
    rng = np.random.default_rng(11)
    branched = 0
    for _ in range(30):
        calls.clear()
        sol = milp.solve_milp(_random_mixed_model(rng))
        assert sol.nodes == len(calls)
        assert sol.pivots == sum(calls)
        branched += sol.nodes > 1
    assert branched > 0


def test_branch_and_bound_solves_only_the_root_cold(monkeypatch):
    """Only the root LP starts from the slack basis; every later one from a parent's."""
    starts = []
    slack_basis = milp._slack_basis

    def counting_slack_basis(*args, **kwargs):
        starts.append(1)
        return slack_basis(*args, **kwargs)

    monkeypatch.setattr(milp, "_slack_basis", counting_slack_basis)
    rng = np.random.default_rng(5)
    for _ in range(30):
        starts.clear()
        sol = milp.solve_milp(_random_mixed_model(rng))
        # a model bound propagation proves infeasible runs no LP at all
        assert len(starts) == (1 if sol.nodes > 0 else 0), f"{len(starts)} slack starts in {sol.nodes} LPs"


# ---------------------------------------------------------------------------
# LP-format files and the external solver seam
# ---------------------------------------------------------------------------

def _demo_model():
    m = milp.MilpModel("demo")
    x = m.add_var(-1.5, 2.5)
    z = m.add_binary()
    g = m.add_var(0, 5, integral=True)
    m.add_row({x: 1.25, z: -2.0}, "<=", 3.5)
    m.add_row({g: 1.0, x: -0.5}, ">=", -1.0)
    m.add_objective_term(x, 0.75)
    m.add_objective_term(z, -1.0)
    m.obj_const = 4.25
    return m


def test_lp_file_roundtrip(tmp_path):
    model = _demo_model()
    path = tmp_path / "model.lp"
    milp.export_lp_file(model, str(path))
    assert_reads_as(path, model)
    status, objective, _ = solve_lp_file(path)
    assert status.name == "kOptimal"
    assert objective == milp.solve_milp(model).objective == 2.125


def test_lp_file_empty_model(tmp_path):
    model = milp.MilpModel()
    path = tmp_path / "empty.lp"
    milp.export_lp_file(model, str(path))
    assert_reads_as(path, model)


_COEFS = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0])


@st.composite
def _model_specs(draw):
    n = draw(st.integers(1, 4))
    columns = st.sets(st.integers(0, n - 1), min_size=1)
    return {
        "vars": [(draw(st.sampled_from([-1.0, 0.0])), draw(st.sampled_from([1.0, 2.0])),
                  draw(st.booleans())) for _ in range(n)],
        "obj": {j: draw(_COEFS) for j in draw(columns)},
        "obj_const": draw(_COEFS),
        "rows": [({j: draw(_COEFS) for j in draw(columns)}, draw(st.sampled_from(["<=", ">=", "="])),
                  draw(_COEFS)) for _ in range(draw(st.integers(1, 4)))],
    }


def _build(spec, tag, reverse=False):
    """The model of ``spec``, its name and registry tagged; ``reverse`` inserts
    terms backwards."""
    order = reversed if reverse else list
    model = milp.MilpModel(name=f"model-{tag}")
    for lower, upper, integral in spec["vars"]:
        model.add_var(lower, upper, integral)
    for j, coef in order(spec["obj"].items()):
        model.add_objective_term(j, coef)
    model.obj_const = spec["obj_const"]
    for coeffs, sense, rhs in spec["rows"]:
        model.add_row(dict(order(coeffs.items())), sense, rhs)
    model.registry = {"tag": tag}
    return model


def _perturb(model, field, i, j):
    """Change one compared field of ``model`` in place."""
    i_var, i_row = i % model.n_vars, i % model.n_rows
    if field == "lower":
        model.lower[i_var] -= 1.0
    elif field == "upper":
        model.upper[i_var] += 1.0
    elif field == "integral":
        model.integral[i_var] = not model.integral[i_var]
    elif field == "obj":
        key = sorted(model.obj)[j % len(model.obj)]
        model.obj[key] += 0.25
    elif field == "obj_const":
        model.obj_const += 0.25
    elif field == "sense":
        model.row_senses[i_row] = {"<=": ">=", ">=": "=", "=": "<="}[model.row_senses[i_row]]
    elif field == "rhs":
        model.row_rhs[i_row] += 0.25
    else:
        coeffs = model.row_coeffs[i_row]
        coeffs[sorted(coeffs)[j % len(coeffs)]] += 0.25


@settings(max_examples=150, deadline=None)
@given(
    _model_specs(),
    st.sampled_from(["lower", "upper", "integral", "obj", "obj_const", "sense", "rhs", "row"]),
    st.integers(0, 10),
    st.integers(0, 10),
)
def test_models_equal_ignores_names_and_sees_every_compared_field(spec, field, i, j):
    a, b = _build(spec, "a"), _build(spec, "b", reverse=True)
    assert milp.models_equal(a, b)
    assert hash(milp.fingerprint(a)) == hash(milp.fingerprint(b))
    _perturb(b, field, i, j)
    assert not milp.models_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(_model_specs())
def test_lp_file_of_any_model_reads_back_in_highs(spec):
    model = _build(spec, "lp")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.lp")
        milp.export_lp_file(model, path)
        assert_reads_as(path, model)


def test_external_solver_seam(tmp_path, monkeypatch):
    script = tmp_path / "extsolve.py"
    # HiGHS reads and solves the file and writes its solution by name
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "from highs_lp import solve_lp_file\n"
        "status, objective, values = solve_lp_file(sys.argv[1])\n"
        "assert status.name == 'kOptimal', status\n"
        "with open(sys.argv[2], 'w') as fh:\n"
        "    fh.write(f'status optimal\\nobjective {objective!r}\\n')\n"
        "    fh.writelines(f'{name} {value!r}\\n' for name, value in values.items())\n"
    )
    model = _demo_model()
    builtin = milp.solve_milp(model)
    monkeypatch.setenv(milp.EXTERNAL_SOLVER_ENV, f"{sys.executable} {script}")
    ext = milp.solve(model, solver="external")
    assert ext.status == "optimal"
    assert ext.objective == pytest.approx(builtin.objective, abs=1e-9)
    # the values came back to their columns: x, z and g = -1.5, 1, an integer
    lp = model.to_lp()
    assert lp.c @ ext.x + lp.const == pytest.approx(ext.objective, abs=1e-9)
    assert list(ext.x[:2]) == [-1.5, 1.0] and ext.x[2] == round(ext.x[2])
    assert _rows_hold(model, ext.x)


def test_external_solver_requires_env(monkeypatch):
    monkeypatch.delenv(milp.EXTERNAL_SOLVER_ENV, raising=False)
    with pytest.raises(ValueError):
        milp.solve(_demo_model(), solver="external")


def test_external_solver_timeout_is_time_limit(tmp_path, monkeypatch):
    script = tmp_path / "slow.py"
    script.write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setenv(milp.EXTERNAL_SOLVER_ENV, f"{sys.executable} {script}")
    t0 = time.monotonic()
    sol = milp.solve(_demo_model(), time_limit=0.5, solver="external")
    assert sol.status == "time_limit"
    assert sol.x is None
    assert time.monotonic() - t0 < 30


@pytest.mark.parametrize(
    "body",
    [
        "import sys\nsys.exit(7)\n",
        "pass\n",
        "import sys\nopen(sys.argv[2], 'w').write('status optimal\\nobjective abc\\n')\n",
        "import sys\nopen(sys.argv[2], 'w').write('status banana\\n')\n",
        "import sys\nopen(sys.argv[2], 'w').write('status optimal\\nx0\\n')\n",
        "import sys\nopen(sys.argv[2], 'w').write('status optimal\\nobjective -1.0\\nx0 nan\\n')\n",
        "import sys\nopen(sys.argv[2], 'w').write('status optimal\\nobjective inf\\nx0 0.5\\n')\n",
    ],
    ids=["nonzero-exit", "no-solution-file", "bad-objective", "bad-status", "bad-line",
         "nan-value", "inf-objective"],
)
def test_external_solver_failure_is_error(body, tmp_path, monkeypatch):
    script = tmp_path / "failing.py"
    script.write_text(body)
    monkeypatch.setenv(milp.EXTERNAL_SOLVER_ENV, f"{sys.executable} {script}")
    sol = milp.solve(_demo_model(), solver="external")
    assert sol.status == "error"
    assert sol.x is None
