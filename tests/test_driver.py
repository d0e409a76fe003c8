import math

import numpy as np
import pytest

from surropt import milp
from surropt.driver import (
    RunConfig,
    _full_violation,
    Toggles,
    generate_quadratic_sigmoid,
    solve_global,
)
from surropt.errors import InfeasibleApproximation
from surropt.expr import load_problem
from surropt.model import standardize
from surropt.sampling import SamplerConfig


def _fast_config(**kw):
    base = dict(
        sampler=SamplerConfig(n_lh=120, hr_per_poly=5, hr_burn_in=10),
        rho_grid=(0.0, 0.1),
        lambda_grid=(None, 1e2),
        time_limit=120.0,
        seed=0,
    )
    base.update(kw)
    return RunConfig(**base)


def test_qsigmoid_generator_deterministic():
    a = generate_quadratic_sigmoid(4, 3, seed=11)
    b = generate_quadratic_sigmoid(4, 3, seed=11)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=4)
        assert a.objective.value(x) == b.objective.value(x)
        for ca, cb in zip(a.nonlinear, b.nonlinear):
            assert ca.value(x) == cb.value(x)


def test_qsigmoid_form_split():
    # floor(1/2) = 0 sigmoid-cap rows, one ratio row
    p = generate_quadratic_sigmoid(1, 1, seed=0)
    assert len(p.nonlinear) == 1
    assert p.nonlinear[0].name == "q0"
    # m=5: two sigmoid caps, three ratio rows
    p5 = generate_quadratic_sigmoid(2, 5, seed=0)
    assert len(p5.nonlinear) == 5


def test_qsigmoid_sigmoid_boundary_value():
    # at a root of the quadratic the sigmoid sits exactly on its cap
    p = generate_quadratic_sigmoid(2, 2, seed=3)
    con = p.nonlinear[0]
    rng = np.random.default_rng(1)
    # bisection along a random segment to find a zero of the cap function
    for _ in range(50):
        a = rng.uniform(-2, 2, size=2)
        b = rng.uniform(-2, 2, size=2)
        fa, fb = con.value(a), con.value(b)
        if fa * fb < 0:
            for _ in range(80):
                mid = (a + b) / 2
                fm = con.value(mid)
                if fa * fm <= 0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            assert abs(con.value((a + b) / 2)) < 1e-9
            break
    else:
        pytest.skip("no sign change found on random segments")


def test_qsigmoid_gradients_match_finite_differences():
    p = generate_quadratic_sigmoid(3, 4, seed=7)
    rng = np.random.default_rng(2)
    for con in p.nonlinear:
        for _ in range(5):
            x = rng.uniform(-2, 2, size=3)
            g = con.grad(x)
            fd = np.zeros(3)
            for i in range(3):
                h = 1e-6 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (con.value(xp) - con.value(xm)) / (2 * h)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_purely_linear_problem_matches_direct_milp():
    doc = {
        "schema": 1,
        "name": "lp",
        "variables": [
            {"name": "x", "lower": 0, "upper": 4},
            {"name": "n", "lower": 0, "upper": 3, "integral": True},
        ],
        "objective": {"linear": [-1.0, -2.0]},
        "constraints": [{"expression": "x+n-4.5", "sense": "<=0"}],
    }
    problem = load_problem(doc)
    report = solve_global(problem, _fast_config())
    sp = standardize(problem)
    from surropt.encoder import assemble

    direct = milp.solve_milp(assemble(sp, []))
    assert report.status == "ok"
    assert report.objective == pytest.approx(direct.objective, abs=1e-9)
    assert report.x[1] == pytest.approx(round(report.x[1]))


def test_training_happens_once_regardless_of_grid():
    problem = generate_quadratic_sigmoid(3, 2, seed=1)
    small = solve_global(problem, _fast_config(rho_grid=(0.0,), lambda_grid=(None,)))
    full = solve_global(
        problem, _fast_config(rho_grid=(0.0, 0.01, 0.1, 1.0), lambda_grid=(None, 1e2, 1e4))
    )
    assert small.training_runs == full.training_runs
    trained = [
        info for info in full.families.values()
        if info["family"] in ("svm", "tree", "gbm", "mlp")
    ]
    assert full.training_runs == len(trained)


def test_toggles_off_bit_reproducible():
    problem = generate_quadratic_sigmoid(3, 2, seed=4)
    toggles = Toggles(oct_sampling=False, robustness=False, relaxation=False, momentum=False)
    a = solve_global(problem, _fast_config(toggles=toggles, seed=9))
    b = solve_global(problem, _fast_config(toggles=toggles, seed=9))
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert len(a.cells) == 1


def test_report_best_is_min_over_feasible_cells():
    problem = generate_quadratic_sigmoid(4, 2, seed=6)
    report = solve_global(problem, _fast_config())
    merits = [c.refined.merit for c in report.cells if c.status == "optimal" and c.feasible]
    assert merits
    winner_merit = min(merits)
    assert report.objective <= winner_merit + 1e-9
    for cell in report.cells:
        if cell.status == "optimal" and cell.feasible:
            assert report.objective <= cell.refined.merit + 1e-9


def test_infeasible_linear_core_raises():
    # coupled rows stay out of the box absorption and make every cell infeasible
    doc = {
        "schema": 1,
        "variables": [
            {"name": "x", "lower": 0, "upper": 1},
            {"name": "y", "lower": 0, "upper": 1},
        ],
        "objective": {"linear": [1.0, 0.0]},
        "constraints": [
            {"expression": "x+y-3", "sense": ">=0"},
            {"expression": "x+y-1", "sense": "<=0"},
            {"expression": "exp(x)-2", "sense": "<=0"},
        ],
    }
    problem = load_problem(doc)
    with pytest.raises(InfeasibleApproximation):
        solve_global(problem, _fast_config())


def test_time_limit_partial_report():
    problem = generate_quadratic_sigmoid(6, 3, seed=8)
    report = solve_global(problem, _fast_config(time_limit=1e-3))
    assert report.status == "time_limit"


def test_time_limit_wall_clock_stays_close():
    # checks happen between sampling stages, constraints, and grid cells, so
    # the overshoot is bounded by one stage; the 10 percent grace applies at
    # realistic limits, here we allow one stage worth of slack
    problem = generate_quadratic_sigmoid(8, 4, seed=12)
    limit = 3.0
    report = solve_global(problem, RunConfig(time_limit=limit, seed=0))
    assert report.total_seconds <= limit + 2.0


def test_blackbox_constraint_end_to_end():
    # evaluator supplied through the registry; gradients fall back to
    # central differences inside the refinement stage
    doc = {
        "schema": 1,
        "name": "blackbox-demo",
        "variables": [
            {"name": "x", "lower": -1, "upper": 1},
            {"name": "y", "lower": -1, "upper": 1},
        ],
        "objective": {"linear": [0.0, -1.0]},
        "blackbox": [{"name": "disc", "sense": "<=0", "support": ["x", "y"]}],
    }
    problem = load_problem(doc, blackbox_registry={"disc": lambda v: v[0] ** 2 + v[1] ** 2 - 0.5})
    report = solve_global(problem, _fast_config(seed=2))
    assert report.status == "ok"
    # max y on the disc of radius sqrt(0.5)
    assert report.objective == pytest.approx(-math.sqrt(0.5), abs=1e-3)
    assert max(report.violations) <= 1e-6


def test_nan_evaluator_is_never_reported_feasible():
    # the black box fails (returns NaN) on half of the box, including the
    # corner (1, 1) that the linear objective pulls toward
    def g(v):
        return math.nan if v[0] > 0.5 else v[0] + v[1] - 1.5

    doc = {
        "schema": 1,
        "name": "nan-demo",
        "variables": [
            {"name": "x", "lower": 0, "upper": 1},
            {"name": "y", "lower": 0, "upper": 1},
        ],
        "objective": {"linear": [-1.0, -1.0]},
        "blackbox": [{"name": "g", "sense": "<=0", "support": ["x", "y"]}],
    }
    problem = load_problem(doc, blackbox_registry={"g": g})
    assert problem.nonlinear[0].violation(np.array([1.0, 1.0])) == math.inf
    report = solve_global(problem, _fast_config())
    for cell in report.cells:
        if cell.feasible:
            assert math.isfinite(g(cell.refined.x))
    if report.status == "ok":
        assert math.isfinite(g(report.x))


def test_domain_error_while_sampling_labels_the_point_infeasible():
    # ln(x1) is undefined on the left third of the box; sampling labels
    # those points infeasible instead of letting DomainError escape
    doc = {
        "schema": 1,
        "name": "ln-domain",
        "variables": [
            {"name": "x1", "lower": -1, "upper": 2},
            {"name": "x2", "lower": 0, "upper": 2},
        ],
        "objective": {"linear": [0.0, -1.0]},
        "constraints": [{"name": "g", "expression": "x2 - ln(x1) - 1", "sense": "<=0"}],
    }
    report = solve_global(load_problem(doc), _fast_config())
    assert report.status == "ok"
    x1, x2 = report.x
    assert x1 > 0 and x2 - math.log(x1) - 1 <= 1e-6


def test_objective_domain_error_while_sampling_drops_the_point():
    # the objective's ln(x1) fails on the left third of the box; sampling
    # drops those points instead of letting DomainError escape
    doc = {
        "schema": 1,
        "name": "ln-objective",
        "variables": [
            {"name": "x1", "lower": -1, "upper": 2},
            {"name": "x2", "lower": 0, "upper": 2},
        ],
        "objective": {"expression": "x2 - ln(x1)"},
        "constraints": [{"name": "c", "expression": "x1 + x2 - 3", "sense": "<=0"}],
    }
    report = solve_global(load_problem(doc), _fast_config())
    assert report.status == "ok"
    x1, x2 = report.x
    assert x1 > 0 and math.isfinite(report.objective)
    assert report.objective == pytest.approx(x2 - math.log(x1))


def test_failed_evaluation_is_infinite_violation():
    doc = {
        "schema": 1,
        "name": "ln-domain",
        "variables": [
            {"name": "x1", "lower": -1, "upper": 2},
            {"name": "x2", "lower": 0, "upper": 2},
        ],
        "objective": {"linear": [0.0, -1.0]},
        "constraints": [{"name": "g", "expression": "x2 - ln(x1) - 1", "sense": "<=0"}],
    }
    sp = standardize(load_problem(doc))
    outside = np.array([-0.5, 1.0])
    assert sp.nonlinear[0].violation(outside) == math.inf
    assert _full_violation(sp, outside) == math.inf
    assert _full_violation(sp, np.array([1.0, 0.5])) == 0.0


def test_shipped_problem_files_match_module_documents():
    import os

    from surropt.benchmarks import ILLUSTRATIVE_DOC, SPEED_REDUCER_DOC, illustrative_problem, speed_reducer_problem
    from surropt.model import structurally_equal

    base = os.path.join(os.path.dirname(__file__), "..", "problems")
    from_file = load_problem(os.path.join(base, "illustrative.prob"))
    assert structurally_equal(from_file, illustrative_problem())
    from_file = load_problem(os.path.join(base, "speed_reducer.prob"))
    assert structurally_equal(from_file, speed_reducer_problem())


def test_report_to_dict_is_json_friendly():
    import json

    problem = generate_quadratic_sigmoid(2, 1, seed=3)
    report = solve_global(problem, _fast_config())
    text = json.dumps(report.to_dict())
    assert "objective" in text
    cells = json.loads(text)["cells"]
    for cell, result in zip(cells, report.cells):
        assert (cell["nodes"], cell["pivots"], cell["gap"], cell["bound"]) == (
            result.nodes, result.pivots, result.gap, result.bound
        )
        assert cell["wall_time"] == round(result.wall_time, 4)
        assert cell["warning"] == (None if result.refined is None else result.refined.warning)
        if cell["status"] == "optimal":
            assert cell["nodes"] >= 1 and cell["gap"] is not None
