import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt import milp
from surropt import sampling as S
from surropt.benchmarks import (
    generate_quadratic_sigmoid,
    illustrative_problem,
    speed_reducer_problem,
)
from surropt.driver import (
    RunConfig,
    _full_violation,
    _sample_constraint,
    _static_sample,
    _support_rows,
    sample,
    solve_global,
    solve_grid,
    train,
)
from surropt.encoder import ALWAYS_FEASIBLE, ALWAYS_INFEASIBLE
from surropt.errors import InfeasibleApproximation
from surropt.expr import load_problem
from surropt.model import (
    LinearConstraint,
    LinearObjective,
    NonlinearConstraint,
    NonlinearObjective,
    StandardProblem,
    VarSpec,
    feasibility_labels,
    standardize,
)
from surropt.refine import TIME_LIMIT_WARNING


@pytest.fixture
def fast_sampler(monkeypatch):
    """A smaller Latin hypercube and shorter hit-and-run chains, for speed."""
    monkeypatch.setattr(S, "N_LH", 120)
    monkeypatch.setattr(S, "HR_PER_POLY", 5)
    monkeypatch.setattr(S, "HR_BURN_IN", 10)


def _fast_config(**kw):
    """A two-by-two grid; the tests that use it shrink the sampler with ``fast_sampler``."""
    base = dict(
        rho_grid=(0.0, 0.1),
        lambda_grid=(None, 1e2),
        time_limit=120.0,
        seed=0,
    )
    base.update(kw)
    return RunConfig(**base)


def test_a_solve_keeps_numpy_ma_unimported():
    # numpy 2 imports numpy.ma on the first plain np.unique or np.median,
    # about 12 ms of a fresh process; the solve path calls neither
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from surropt import RunConfig, solve_global\n"
        "from surropt.benchmarks import speed_reducer_problem\n"
        "solve_global(speed_reducer_problem(), RunConfig(seed=3))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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


def test_held_out_qsigmoid_reaches_its_oracle_value():
    # every grid cell refines the same MILP point, in a poor basin; the
    # refined point must still reach the 300-restart oracle value, -5.939
    report = solve_global(generate_quadratic_sigmoid(6, 2, seed=12), RunConfig(seed=0))
    assert report.status == "ok"
    assert report.objective <= -5.93


def test_held_out_high_dimensional_qsigmoid_reaches_its_better_value():
    # the one instance whose objective the corner rule for d >= 9 made
    # worse (-6.1446 -> -5.8931); the 300-restart oracle reads -5.2860
    report = solve_global(generate_quadratic_sigmoid(9, 2, seed=56), RunConfig(seed=0))
    assert report.status == "ok"
    assert report.objective <= -6.14


@pytest.mark.parametrize(
    "n, m, seed, objective", [(9, 2, 30, -8.2150), (10, 3, 31, -11.1023), (10, 2, 53, -12.5971)]
)
def test_high_dimensional_qsigmoid_keeps_its_objective(n, m, seed, objective):
    # only supports of 9 or more variables draw random corners; these ended
    # at the same values while every corner up to d = 10 was enumerated
    report = solve_global(generate_quadratic_sigmoid(n, m, seed=seed), RunConfig(seed=0))
    assert report.status == "ok"
    assert abs(report.objective - objective) <= 1e-4


@pytest.mark.parametrize(
    "n_lh, d, corners",
    [(300, 2, 4), (300, 7, 128), (300, 8, 256), (300, 9, 90), (300, 10, 100),
     (600, 9, 512), (600, 10, 100)],
)
def test_static_corners_never_outnumber_the_latin_hypercube(n_lh, d, corners, monkeypatch):
    # every corner while 2^d <= max(n_lh, 50 d), drawing nothing; else 10 d
    # distinct random corners and the center
    sp = standardize(generate_quadratic_sigmoid(d, 1, seed=5))
    support = list(range(d))
    lo, hi = sp.box()
    n = max(n_lh, 50 * d)
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    monkeypatch.setattr(S, "N_LH", n_lh)
    points = _static_sample(sp, support, rng, _support_rows(sp, support))
    if corners == 2 ** d:
        expected = np.vstack([S.boundary_sample(lo, hi, corners), S.lh_sample(lo, hi, n, twin)])
    else:
        expected = np.vstack([S.boundary_sample(lo, hi, corners, twin), S.lh_sample(lo, hi, n, twin)])
        picked = points[:corners]
        assert np.all((picked == lo) | (picked == hi))
        assert len(np.unique(picked, axis=0)) == corners
        assert np.array_equal(points[corners], (lo + hi) / 2.0)
        corners += 1
    assert len(points) == corners + n
    assert np.array_equal(points, expected)
    assert rng.bit_generator.state == twin.bit_generator.state


def _frozen_static_sample(sp, support, rng):
    """``_static_sample`` before it kept to the support rows, with the Latin
    hypercube of that time inlined: box corners and ``n_lh`` box points."""
    lo_all, hi_all = sp.box()
    lo, hi = lo_all[support], hi_all[support]
    d = len(support)
    n_lh = max(S.N_LH, 50 * d)
    cap = 2 ** d if 2 ** d <= n_lh else 10 * d
    corners = S.boundary_sample(lo, hi, cap, rng)
    u = rng.random((n_lh, d))
    design = np.empty((n_lh, d))
    for j in range(d):
        perm = rng.permutation(n_lh)
        design[:, j] = lo[j] + (perm + u[:, j]) / n_lh * (hi[j] - lo[j])
    points = np.vstack([corners, design])
    for j_local, j in enumerate(support):
        if sp.vars[j].integral:
            points[:, j_local] = np.clip(np.round(points[:, j_local]), lo[j_local], hi[j_local])
    return points


def _problem_with_rows(lower, upper, integral, rows):
    """A standard problem over the given box with the given linear rows and
    one nonlinear constraint over every variable."""
    n = len(lower)
    return StandardProblem(
        vars=tuple(VarSpec(name=f"x{j}", lower=float(lower[j]), upper=float(upper[j]),
                           integral=bool(integral[j])) for j in range(n)),
        objective=LinearObjective(np.zeros(n)),
        linear=tuple(LinearConstraint(np.asarray(a, dtype=float), sense, rhs)
                     for a, sense, rhs in rows),
        nonlinear=(NonlinearConstraint(evaluator=lambda x: float(x.sum()), sense="<=0",
                                       support=frozenset(range(n))),),
    )


@pytest.mark.parametrize("d", [2, 3, 9, 10])
def test_static_sample_without_support_rows_draws_what_it_drew_before(d):
    # qsigmoid has no rows; here an equality row and a row that reaches past
    # the support are no support rows either
    gen = np.random.default_rng(d)
    lower = gen.uniform(-2.0, 0.0, d + 1)
    upper = lower + gen.uniform(0.5, 3.0, d + 1)
    integral = np.zeros(d + 1, dtype=bool)
    integral[0] = True
    lower[0], upper[0] = 0.0, 6.0
    rows = [(gen.normal(size=d + 1) * (np.arange(d + 1) < d), "=", 0.1),
            (gen.normal(size=d + 1), "<=", 0.0)]
    problems = [standardize(generate_quadratic_sigmoid(d, 1, seed=d)),
                _problem_with_rows(lower, upper, integral, rows)]
    for sp in problems:
        support = list(range(d))
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        points = _static_sample(sp, support, rng, _support_rows(sp, support))
        assert points.tobytes() == _frozen_static_sample(sp, support, twin).tobytes()
        assert rng.random() == twin.random()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), extra=st.integers(0, 2),
       n_rows=st.integers(1, 4))
def test_static_sample_keeps_to_the_support_rows(seed, d, extra, n_rows):
    # every support row holds at the central half of the box, so the
    # rounded points pass often enough that the draw budget never runs out
    rng = np.random.default_rng(seed)
    n = d + extra
    integral = rng.random(n) < 0.4
    lower = np.where(integral, rng.integers(-3, 3, n), rng.uniform(-2.0, 1.0, n)).astype(float)
    upper = lower + np.where(integral, rng.integers(2, 6, n), rng.uniform(0.1, 4.0, n))
    support = sorted(rng.choice(n, size=d, replace=False).tolist())
    center, half = (lower + upper) / 2.0, (upper - lower) / 2.0
    rows = []
    for _ in range(n_rows):
        a = rng.normal(size=n) * (rng.random(n) < 0.8)
        a[[j for j in range(n) if j not in support]] = 0.0
        rhs = float(a @ center + np.abs(a) @ half / 2.0)
        rows.append((a, "<=", rhs) if rng.random() < 0.5 else (-a, ">=", -rhs))
    rows.append((rng.normal(size=n), "=", 0.0))          # an equality: no support row
    if extra:
        rows.append((np.ones(n), "<=", float(lower.sum())))  # reaches past the support
    sp = _problem_with_rows(lower, upper, integral, rows)
    support_rows = rows[:n_rows]

    points = _static_sample(sp, support, np.random.default_rng(seed + 1), _support_rows(sp, support))

    def inside(pts):
        x = np.repeat(center[None, :], len(pts), axis=0)
        x[:, support] = pts
        return np.array([all(LinearConstraint(a, s, r).violation(row) <= 1e-9
                             for a, s, r in support_rows) for row in x], dtype=bool)

    lo, hi = lower[support], upper[support]
    corners = S.boundary_sample(lo, hi, 2 ** d)
    corners[:, integral[support]] = np.round(corners[:, integral[support]])
    n_lh = max(S.N_LH, 50 * d)
    assert len(points) == inside(corners).sum() + n_lh
    assert inside(points).all()
    local = points[:, integral[support]]
    assert np.array_equal(local, np.round(local))
    assert (points >= lo).all() and (points <= hi).all()


def test_speed_reducer_static_design_keeps_to_its_rows():
    # x1 >= 5 x2 holds on 1% of g1's box and on 2 of its 8 corners; 116 of
    # the objective's 128 corners break a row
    sp = standardize(speed_reducer_problem())
    g1 = sorted(sp.nonlinear[0].support)
    points = _static_sample(sp, g1, np.random.default_rng(0), _support_rows(sp, g1))
    assert len(points) == 2 + 300
    assert (points[:, 0] - 5.0 * points[:, 1] >= -1e-9).all()
    objective = sorted(sp.objective.support)
    points = _static_sample(sp, objective, np.random.default_rng(0), _support_rows(sp, objective))
    assert len(points) == 12 + 350


def test_an_equality_written_as_two_rows_is_no_support_row():
    # x0 + x1 = 1 as a pair, once scaled; a pair with room between its rows stays
    pair = [([1.0, 1.0, 0.0], "<=", 1.0), ([2.0, 2.0, 0.0], ">=", 2.0)]
    slab = [([0.0, 1.0, -1.0], "<=", 0.5), ([0.0, -1.0, 1.0], "<=", 0.0)]
    sp = _problem_with_rows([0.0] * 3, [1.0] * 3, [False] * 3, pair + slab)
    A, b = _support_rows(sp, [0, 1, 2])
    assert np.array_equal(A, [[0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(b, [0.5, 0.0])
    A, b = _support_rows(sp, [0, 1])
    assert A.shape == (0, 2) and b.shape == (0,)


@pytest.mark.parametrize("case", ["pair", "integer pair", "cycle"])
def test_adaptive_rounds_sample_the_box_when_the_rows_leave_no_interior(case, monkeypatch):
    # an equality written as two rows is no support row, and rows whose
    # region has no interior but are no pair (x0 <= x1 <= x2 <= x0) make
    # box points top the static design up: either way the adaptive round
    # gets no rows and still adds samples
    d = 3
    if case == "cycle":
        rows = [([1.0, -1.0, 0.0], "<=", 0.0), ([0.0, 1.0, -1.0], "<=", 0.0),
                ([-1.0, 0.0, 1.0], "<=", 0.0)]
    else:
        rows = [([1.0, 1.0, 0.0], "<=", 2.0), ([-1.0, -1.0, 0.0], "<=", -2.0)]
    sp = _problem_with_rows([0.0] * d, [4.0] * d, [case == "integer pair"] * d, rows)
    sp = replace(sp, nonlinear=(NonlinearConstraint(
        evaluator=lambda x: float(np.sin(x[0]) + np.cos(x[1] * x[2] / 3.0)), sense="<=0",
        support=frozenset(range(d))),))
    rounds = []
    adaptive = S.oct_adaptive_sample

    def recorded(*args, rows, **kwargs):
        result = adaptive(*args, rows=rows, **kwargs)
        rounds.append((rows, len(result.points)))
        return result

    monkeypatch.setattr(S, "oct_adaptive_sample", recorded)
    _sample_constraint(sp, sp.nonlinear[0], RunConfig(seed=0), np.random.default_rng(0))
    [(adaptive_rows, added)] = rounds
    assert adaptive_rows[0].shape == (0, d) and adaptive_rows[1].shape == (0,)
    assert added > 0


def test_purely_linear_problem_matches_direct_milp(fast_sampler):
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


def test_training_happens_once_regardless_of_grid(fast_sampler):
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


def test_toggles_off_bit_reproducible(fast_sampler):
    problem = generate_quadratic_sigmoid(3, 2, seed=4)
    # every enhancement off: no adaptive rounds, no robustness, no relaxation, no momentum
    off = dict(adaptive_rounds=0, rho_grid=(0.0,), lambda_grid=(None,), momentum=0.0, seed=9)
    a = solve_global(problem, _fast_config(**off))
    b = solve_global(problem, _fast_config(**off))
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert len(a.cells) == 1


@pytest.mark.parametrize("norm_p", [2.0, 3.0, 0.5, math.nan])
def test_unsupported_norm_is_rejected_up_front(norm_p):
    with pytest.raises(ValueError, match="norm_p"):
        RunConfig(norm_p=norm_p)


@pytest.mark.parametrize("field, value, message", [
    ("rho_grid", (0.0, math.inf), "robustness"), ("rho_grid", (math.nan,), "robustness"),
    ("lambda_grid", (None, math.inf), "relaxation"), ("lambda_grid", (math.nan,), "relaxation"),
    ("solver", "bogus", "solver"), ("momentum", 1.0, "momentum"), ("momentum", -0.5, "momentum"),
    ("seed", -1, "seed"), ("seed", 1.5, "seed"),
    ("adaptive_rounds", -1, "adaptive_rounds"), ("adaptive_rounds", 1.5, "adaptive_rounds"),
])
def test_unrunnable_settings_are_rejected_up_front(field, value, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**{field: value})


def test_report_best_is_min_over_feasible_cells(fast_sampler):
    problem = generate_quadratic_sigmoid(4, 2, seed=6)
    report = solve_global(problem, _fast_config())
    merits = [c.refined.merit for c in report.cells if c.status == "optimal" and c.feasible]
    assert merits
    winner_merit = min(merits)
    assert report.objective <= winner_merit + 1e-9
    for cell in report.cells:
        if cell.status == "optimal" and cell.feasible:
            assert report.objective <= cell.refined.merit + 1e-9


def test_infeasible_linear_core_raises(fast_sampler):
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


def test_time_limit_partial_report(fast_sampler):
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


def test_blackbox_constraint_end_to_end(fast_sampler):
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


def test_nan_evaluator_is_never_reported_feasible(fast_sampler):
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


def test_domain_error_while_sampling_labels_the_point_infeasible(fast_sampler):
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


def test_objective_domain_error_while_sampling_drops_the_point(fast_sampler):
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


class _Recorder:
    """Evaluator wrapper: keeps each value by the bytes of x and counts
    calls at a point it has seen before (a failed call records NaN)."""

    def __init__(self, fn):
        self.fn, self.values, self.repeats = fn, {}, 0

    def __call__(self, x):
        key = x.tobytes()
        self.repeats += key in self.values
        self.values[key] = math.nan
        self.values[key] = value = self.fn(x)
        return value


def test_adaptive_round_solves_few_chebyshev_lps(monkeypatch):
    # chains start at the point that found their region; the LP runs only
    # for a point within 1e-9 of a face (315 LPs when every region had one)
    calls = []
    chebyshev_center = S.chebyshev_center

    def counting(poly):
        calls.append(poly)
        return chebyshev_center(poly)

    monkeypatch.setattr(S, "chebyshev_center", counting)
    sample(standardize(generate_quadratic_sigmoid(10, 2, seed=2024)), RunConfig(seed=0))
    assert 0 < len(calls) <= 40


def test_sampling_evaluates_each_point_once():
    # an "=0" black box that fails on the left tenth of the box and is
    # exactly 0 at the corner (1, 0); n is integral, so adaptive points round
    doc = {
        "schema": 1,
        "name": "equality-blackbox",
        "variables": [
            {"name": "x", "lower": -1, "upper": 1},
            {"name": "n", "lower": 0, "upper": 3, "integral": True},
        ],
        "objective": {"linear": [1.0, 1.0]},
        "blackbox": [{"name": "h", "sense": "=0", "support": ["x", "n"]}],
    }
    equality = load_problem(
        doc, blackbox_registry={"h": lambda v: math.nan if v[0] < -0.9 else v[0] + v[1] - 1.0}
    )
    cases = [(illustrative_problem(), 0), (speed_reducer_problem(), 3), (equality, 0)]
    for problem, seed in cases:
        recorded = replace(
            problem,
            nonlinear=tuple(replace(c, evaluator=_Recorder(c.evaluator)) for c in problem.nonlinear),
        )
        sp = standardize(recorded)
        datasets = sample(sp, RunConfig(seed=seed))
        lo, hi = sp.box()
        for con, dataset in zip(sp.nonlinear, datasets):
            assert con.evaluator.repeats == 0, (problem.name, con.name)
            if isinstance(dataset, str):  # a proved label: no point at all
                assert dataset in (ALWAYS_FEASIBLE, ALWAYS_INFEASIBLE)
                assert con.evaluator.values == {}, (problem.name, con.name)
                continue
            points, labels, values = dataset
            seen = []
            for p in points:
                x = (lo + hi) / 2.0
                x[sorted(con.support)] = p
                seen.append(con.evaluator.values[x.tobytes()])
            assert np.array_equal(labels, feasibility_labels(seen, con.sense))
            if con.sense == "=0":
                assert np.array_equal(values, seen) and np.isfinite(values).all()
                assert labels.min() == 0.0 and labels.max() == 1.0
            else:
                assert values is None


def test_speed_reducer_sampling_never_calls_the_proved_constraints():
    # over x1 >= 5 x2 (g1, g2) and the box (g4, g7), interval bounds prove
    # these four feasible, where their static designs cost 1,216 calls
    problem = speed_reducer_problem()
    recorded = replace(
        problem,
        nonlinear=tuple(replace(c, evaluator=_Recorder(c.evaluator)) for c in problem.nonlinear),
    )
    sp = standardize(recorded)
    datasets = sample(sp, RunConfig(seed=3))
    calls = {con.name: len(con.evaluator.values) for con in sp.nonlinear}
    assert {name for name, n in calls.items() if n == 0} == {"g1", "g2", "g4", "g7"}, calls
    proved = {con.name: d for con, d in zip(sp.nonlinear, datasets) if isinstance(d, str)}
    assert proved == dict.fromkeys(("g1", "g2", "g4", "g7"), ALWAYS_FEASIBLE)


def test_proved_labels_pass_through_training_untrained():
    # the row x - y >= 0.5 tightens the box to x >= 0.5, y <= 0.5, where
    # x y^2 <= 0.25 < 0.3 (over the whole box it reaches 1), and x^2 + 1 > 0
    # everywhere; the black box has the feasible expression's values but no
    # tree, so it is sampled
    doc = {
        "schema": 1,
        "variables": [{"name": "x", "lower": 0, "upper": 1}, {"name": "y", "lower": 0, "upper": 1}],
        "objective": {"linear": [1.0, 1.0]},
        "constraints": [
            {"name": "feasible", "expression": "x*y^2 - 0.3", "sense": "<=0"},
            {"name": "infeasible", "expression": "x^2 + 1", "sense": "<=0"},
            {"name": "no_root", "expression": "x^2 + 1", "sense": "=0"},
            {"name": "row", "expression": "x - y - 0.5", "sense": ">=0"},
        ],
        "blackbox": [{"name": "box", "sense": "<=0", "support": ["x", "y"]}],
    }
    problem = load_problem(doc, blackbox_registry={"box": lambda v: v[0] * v[1] ** 2 - 0.3})
    sp = standardize(problem)
    cfg = RunConfig(adaptive_rounds=0)
    datasets = sample(sp, cfg)
    assert datasets[:3] == [ALWAYS_FEASIBLE, ALWAYS_INFEASIBLE, ALWAYS_INFEASIBLE]
    points, labels, _ = datasets[3]
    assert len(points) > 0 and labels.min() == 1.0
    trained = train(sp, datasets, cfg)
    assert trained.constraints == [ALWAYS_FEASIBLE, ALWAYS_INFEASIBLE, ALWAYS_INFEASIBLE, ALWAYS_FEASIBLE]
    assert trained.runs == 0 and trained.complete
    assert trained.families == {
        "feasible": {"family": ALWAYS_FEASIBLE, "score": 1.0, "proved": True},
        "infeasible": {"family": ALWAYS_INFEASIBLE, "score": 1.0, "proved": True},
        "no_root": {"family": ALWAYS_INFEASIBLE, "score": 1.0, "proved": True},
        "box": {"family": ALWAYS_FEASIBLE, "score": 1.0},
    }
    # without the row, x y^2 reaches 0.7 over the box: nothing is proved
    unrowed = standardize(replace(problem, nonlinear=problem.nonlinear[:1]))
    assert not isinstance(sample(unrowed, cfg)[0], str)


def test_shipped_problem_files_match_module_documents(structurally_equal):
    import os

    from surropt.benchmarks import ILLUSTRATIVE_DOC, SPEED_REDUCER_DOC, illustrative_problem, speed_reducer_problem

    base = os.path.join(os.path.dirname(__file__), "..", "problems")
    from_file = load_problem(os.path.join(base, "illustrative.prob"))
    assert structurally_equal(from_file, illustrative_problem())
    from_file = load_problem(os.path.join(base, "speed_reducer.prob"))
    assert structurally_equal(from_file, speed_reducer_problem())


def test_report_to_dict_is_json_friendly(fast_sampler):
    import json

    problem = generate_quadratic_sigmoid(2, 1, seed=3)
    report = solve_global(problem, _fast_config())
    text = json.dumps(report.to_dict())
    assert "objective" in text
    cells = json.loads(text)["cells"]
    for cell, result in zip(cells, report.cells):
        assert (cell["nodes"], cell["pivots"], cell["rows"], cell["cols"], cell["gap"], cell["bound"]) == (
            result.nodes, result.pivots, result.rows, result.cols, result.gap, result.bound
        )
        assert cell["wall_time"] == round(result.wall_time, 4)
        assert cell["warning"] == (None if result.refined is None else result.refined.warning)
        if cell["status"] == "optimal":
            assert cell["nodes"] >= 1 and cell["gap"] is not None
        if cell["nodes"] == 0:
            assert (cell["rows"], cell["cols"]) == (0, 0)
    assert any(cell["cols"] > 0 for cell in cells)


class _SupportCounter:
    """Evaluator wrapper: counts calls, and calls at an ``x[support]`` it has
    seen before."""

    def __init__(self, fn, support):
        self.fn, self.index, self.seen = fn, sorted(support), set()
        self.calls = self.repeats = 0

    def __call__(self, x):
        key = x[self.index].tobytes()
        self.calls += 1
        self.repeats += key in self.seen
        self.seen.add(key)
        return self.fn(x)


def _with_counters(problem):
    """The problem with every evaluator counted, and the counters."""
    nonlinear = tuple(
        replace(c, evaluator=_SupportCounter(c.evaluator, c.support)) for c in problem.nonlinear
    )
    objective = problem.objective
    if isinstance(objective, NonlinearObjective):
        objective = replace(objective, evaluator=_SupportCounter(objective.evaluator, objective.support))
    counted = replace(problem, nonlinear=nonlinear, objective=objective)
    counters = [c.evaluator for c in nonlinear]
    if isinstance(objective, NonlinearObjective):
        counters.append(objective.evaluator)
    return counted, counters


@pytest.mark.parametrize("make, seed", [(illustrative_problem, 0), (speed_reducer_problem, 3)])
def test_solve_evaluates_each_support_point_once(make, seed):
    # sampling, refinement and the final violation check share one memo per
    # constraint, so no (constraint, x[support]) pair is evaluated twice;
    # standardize makes the affine ones linear rows, which are never called
    problem, counters = _with_counters(make())
    sp = standardize(problem)
    kept = [c.evaluator for c in sp.nonlinear]
    if isinstance(sp.objective, NonlinearObjective):
        kept.append(sp.objective.evaluator)
    solve_global(problem, RunConfig(seed=seed))
    assert [c.calls > 0 for c in counters] == [any(c is k for k in kept) for c in counters]
    assert [c.repeats for c in counters] == [0] * len(counters)


def test_evaluation_memo_lasts_one_solve(fast_sampler):
    problem, counters = _with_counters(illustrative_problem())
    first = solve_global(problem, _fast_config())
    calls = [c.calls for c in counters]
    second = solve_global(problem, _fast_config())
    assert [c.calls for c in counters] == [2 * n for n in calls]
    assert np.array_equal(first.x, second.x)


def test_refinement_stops_at_the_time_limit(monkeypatch):
    # once refinement has begun, its third evaluator call, the first after
    # the start point's two, sleeps past the deadline; refinement must stop
    # there with a warning, however quickly it would otherwise have ended
    from surropt import driver

    deadlines = []

    def standardize_seen(problem, deadline=None):
        deadlines.append(deadline)
        return standardize(problem, deadline)

    pgd_improve = driver.pgd_improve
    refining = [False]
    calls = []          # start times of the evaluator calls since refinement began

    def pgd_seen(*args, **kwargs):
        refining[0] = True
        return pgd_improve(*args, **kwargs)

    def slow(fn):
        def evaluate(x):
            if refining[0]:
                calls.append(time.monotonic())
                if len(calls) == 3:
                    time.sleep(max(0.0, deadlines[0] + 0.01 - time.monotonic()))
            return fn(x)
        return evaluate

    monkeypatch.setattr(driver, "standardize", standardize_seen)
    monkeypatch.setattr(driver, "pgd_improve", pgd_seen)
    problem = illustrative_problem()
    problem = replace(
        problem, nonlinear=tuple(replace(c, evaluator=slow(c.evaluator)) for c in problem.nonlinear)
    )
    tick = time.monotonic()
    report = solve_global(problem, RunConfig(seed=0, time_limit=3.0))
    assert report.status == "time_limit"
    assert any(c.refined is not None and c.refined.warning == TIME_LIMIT_WARNING
               for c in report.cells)
    assert time.monotonic() - tick < 3.0 + 1.0
    # no evaluator call follows the one that slept
    assert len(calls) == 3


def test_sampling_evaluates_nothing_after_the_time_limit(monkeypatch):
    # each evaluation takes a millisecond; the kNN batch used to run all of
    # its evaluations, seconds past the limit
    from surropt import driver

    starts = []

    def slow(fn):
        def evaluate(x):
            starts.append(time.monotonic())
            time.sleep(1e-3)
            return fn(x)
        return evaluate

    deadlines = []

    def standardize_seen(problem, deadline=None):
        deadlines.append(deadline)
        return standardize(problem, deadline)

    monkeypatch.setattr(driver, "standardize", standardize_seen)
    problem = generate_quadratic_sigmoid(10, 2, seed=2024)
    problem = replace(
        problem, nonlinear=tuple(replace(c, evaluator=slow(c.evaluator)) for c in problem.nonlinear)
    )
    tick = time.monotonic()
    report = solve_global(problem, RunConfig(seed=0, time_limit=2.0))
    assert time.monotonic() - tick < 3.0
    assert report.status == "time_limit"
    # 10 ms allow for the instant between the boundary's check and the call
    assert max(starts) <= deadlines[0] + 0.01


def test_training_starts_no_family_after_the_time_limit(monkeypatch):
    # each family takes at least 0.6 s, so the limit passes while the first
    # constraint's four families train; they used to train to the end
    from surropt import driver
    from surropt import learners as L

    starts = []
    train_family = L._train_family

    def slow(*args):
        starts.append(time.monotonic())
        time.sleep(0.6)
        return train_family(*args)

    deadlines = []

    def standardize_seen(problem, deadline=None):
        deadlines.append(deadline)
        return standardize(problem, deadline)

    monkeypatch.setattr(L, "_train_family", slow)
    monkeypatch.setattr(driver, "standardize", standardize_seen)
    problem = generate_quadratic_sigmoid(10, 2, seed=2024)
    report = solve_global(problem, RunConfig(seed=0, time_limit=1.0))
    assert report.status == "time_limit"
    assert starts, "sampling used up the whole time limit"
    assert max(starts) <= deadlines[0] + 0.01


def test_deadline_passing_in_the_milp_solve_reports_time_limit(monkeypatch, fast_sampler):
    # the MILP point itself comes too late to evaluate: the cell keeps its
    # MILP counters, and the run reports instead of raising
    from surropt import driver

    solutions = []
    solve = milp.solve

    def late_solve(model, time_limit=None, **kw):
        solutions.append(solve(model, time_limit=time_limit, **kw))
        time.sleep(time_limit + 0.01)
        return solutions[-1]

    monkeypatch.setattr(driver.milp, "solve", late_solve)
    cfg = _fast_config(rho_grid=(0.0,), lambda_grid=(None,), time_limit=3.0)
    report = solve_global(illustrative_problem(), cfg)
    assert report.status == "time_limit"
    assert report.x is None
    [cell] = report.cells
    assert solutions[0].status == "optimal"
    assert (cell.status, cell.nodes, cell.pivots) == ("time_limit", solutions[0].nodes, solutions[0].pivots)


def _cell_key(cell):
    """Everything a cell reports except its wall time."""
    refined = cell.refined
    return (
        cell.rho, cell.lam, cell.status, cell.mio_objective, cell.relax_total,
        cell.max_violation, cell.feasible, cell.nodes, cell.pivots, cell.rows, cell.cols,
        cell.gap, cell.bound,
        None if refined is None else (refined.x.tobytes(), refined.merit, refined.warning),
    )


# seed 3 encodes four models with one fingerprint, so it solves once
@pytest.mark.parametrize("seed", [0, 3])
def test_solve_grid_returns_the_cells_of_solve_global(seed):
    cfg = RunConfig(seed=seed)
    report = solve_global(illustrative_problem(), cfg)
    sp = standardize(illustrative_problem())
    phases = {}
    cells = solve_grid(sp, train(sp, sample(sp, cfg), cfg), cfg, phases)
    assert [_cell_key(c) for c in cells] == [_cell_key(c) for c in report.cells]
    assert set(phases) == {"encoding", "solving", "refining"}


@pytest.mark.parametrize("seed", [0, 3])
def test_grid_solves_each_distinct_fingerprint_once(seed, monkeypatch):
    from surropt import driver

    assembled, solved = [], []
    assemble, solve = driver.assemble, milp.solve

    def recording_assemble(*args, **kwargs):
        assembled.append(assemble(*args, **kwargs))
        return assembled[-1]

    def recording_solve(model, **kwargs):
        solved.append(milp.fingerprint(model))
        return solve(model, **kwargs)

    monkeypatch.setattr(driver, "assemble", recording_assemble)
    monkeypatch.setattr(milp, "solve", recording_solve)
    solve_global(illustrative_problem(), RunConfig(seed=seed))
    distinct = {milp.fingerprint(m) for m in assembled}
    assert len(solved) == len(distinct) and set(solved) == distinct
