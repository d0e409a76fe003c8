"""Acceptance suite: one test per criterion, one printed verdict line each.

Expensive pipeline runs are shared through module-scoped fixtures. The
quadratic-sigmoid reference value was computed offline by the 10000-restart
multistart script tests/oracle_qsigmoid.py (independent of the package's
refinement code path) and is frozen below.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from surropt import encoder as enc
from surropt import learners as L
from surropt import milp
from surropt import sampling as S
from surropt.benchmarks import (
    generate_quadratic_sigmoid,
    illustrative_problem,
    speed_reducer_problem,
)
from surropt.driver import RunConfig, sample, solve_global, train
from surropt.expr import DomainError  # noqa: F401  (re-exported for helpers)
from surropt import expr as E
from surropt.model import NonlinearObjective, standardize
from surropt.refine import merit_state, pgd_improve

QSIGMOID_ORACLE = -12.06510798946531  # tests/oracle_qsigmoid.py, n=10 m=2 seed=2024
SPEED_REDUCER_EVALUATIONS = 2_700     # evaluator calls allowed to the seed-3 solve
ILLUSTRATIVE_EVALUATIONS = 1_150      # evaluator calls allowed to the seed-0 solve
QSIGMOID_EVALUATIONS = 6_000          # evaluator calls allowed to the n=10 m=2 seed=2024 solve


def _verdict(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def illustrative_runs():
    runs = {}
    for seed in range(10):
        t0 = time.monotonic()
        report = solve_global(illustrative_problem(), RunConfig(seed=seed, time_limit=60))
        runs[seed] = (report, time.monotonic() - t0)
    return runs


def _counted(problem, calls: list):
    """The same problem with every evaluator wrapped by a call counter."""
    from dataclasses import replace

    def wrap(fn):
        def evaluator(x):
            calls[0] += 1
            return fn(x)
        return evaluator

    nonlinear = tuple(replace(con, evaluator=wrap(con.evaluator)) for con in problem.nonlinear)
    objective = problem.objective
    if isinstance(objective, NonlinearObjective):
        objective = replace(objective, evaluator=wrap(objective.evaluator))
    return replace(problem, nonlinear=nonlinear, objective=objective)


@pytest.fixture(scope="module")
def speed_reducer_run():
    """The seed-3 report, its wall time and its evaluator calls."""
    calls = [0]
    problem = _counted(speed_reducer_problem(), calls)
    t0 = time.monotonic()
    report = solve_global(problem, RunConfig(seed=3, time_limit=540))
    return report, time.monotonic() - t0, calls[0]


@pytest.fixture(scope="module")
def qsigmoid_run():
    """The n=10 m=2 seed=2024 report (solve seed 0) and its evaluator calls."""
    calls = [0]
    problem = _counted(generate_quadratic_sigmoid(10, 2, seed=2024), calls)
    report = solve_global(problem, RunConfig(seed=0, time_limit=400))
    return report, calls[0]


def test_criterion_1_illustrative_optimum(illustrative_runs):
    good = 0
    slow = 0.0
    for seed, (report, wall) in illustrative_runs.items():
        slow = max(slow, wall)
        if report.status != "ok":
            continue
        if (
            abs(report.objective - (-1.1497)) <= 1e-3
            and abs(report.x[0] - 1.1497) <= 1e-2
            and abs(report.x[1] - 0.875) <= 1e-2
        ):
            good += 1
    _verdict(
        1,
        good >= 8 and slow < 60.0,
        f"{good}/10 seeds at objective -1.1497 +/- 1e-3, slowest {slow:.1f}s",
    )


def test_criterion_2_intermediate_mio_incumbent():
    hits = 0
    for seed in range(10):
        sp = standardize(illustrative_problem())
        cfg = RunConfig(seed=seed, time_limit=60)
        trained = train(sp, sample(sp, cfg), cfg)
        robust = enc.RobustConfig(rho=0.1, p=cfg.norm_p)
        model = enc.assemble(sp, trained.constraints, robust=robust)
        sol = milp.solve_milp(model, time_limit=30)
        if sol.status != "optimal":
            continue
        lp, senses = model.to_lp(), np.array(model.row_senses)
        excess = lp.rows @ sol.x - lp.rhs
        violation = np.where(senses == ">=", -excess, np.where(senses == "<=", excess, np.abs(excess)))
        surrogate_feasible = violation.max(initial=0.0) <= 1e-6
        if surrogate_feasible and abs(sol.objective - (-1.108)) <= 0.1:
            hits += 1
    _verdict(2, hits >= 5, f"{hits}/10 seeds: surrogate-feasible MIO incumbent within 0.1 of -1.108")


def test_criterion_3_speed_reducer(speed_reducer_run):
    report, wall, _ = speed_reducer_run
    sp = standardize(speed_reducer_problem())
    x = report.x
    worst = max(con.violation(x) for con in sp.nonlinear)
    worst = max(worst, max(row.violation(x) for row in sp.linear))
    lo, hi = sp.box()
    worst = max(worst, float(np.max(np.maximum(lo - x, x - hi), initial=0.0)))
    ok = (
        report.status == "ok"
        and report.objective <= 2994.47
        and abs(report.objective - 2994.36) / 2994.36 <= 0.005
        and abs(x[2] - round(x[2])) <= 1e-9
        and worst <= 1e-6
        and wall < 600.0
    )
    _verdict(
        3,
        ok,
        f"objective {report.objective:.4f}, max violation {worst:.2e}, x3={x[2]}, {wall:.0f}s",
    )


def test_speed_reducer_rows_make_g1_and_g2_always_feasible(speed_reducer_run):
    # inside the row x1 >= 5 x2, g1 >= 2.155 and g2 >= 98.1 hold everywhere,
    # and over the box g4 >= 11.08 and g7 >= 17.6: interval bounds prove all
    # four before any sample, and the report says so
    report, _, _ = speed_reducer_run
    for name in ("g1", "g2", "g4", "g7"):
        assert report.families[name] == {"family": "always_feasible", "score": 1.0, "proved": True}
    assert not any("proved" in report.families[name] for name in ("g3", "g5", "g6", "objective"))


def test_speed_reducer_evaluation_budget(speed_reducer_run):
    # 2,519 calls: sampling makes 2,467 and refinement 52. Before interval
    # bounds proved g1, g2, g4 and g7 feasible, their static designs took
    # sampling to 3,683 of 3,734, and one of refinement's g7 points was in
    # g7's design. Before the samples kept to the linear rows over their
    # supports, sampling made 4,208 of 4,257. While refinement
    # still swept coordinates after its gradient steps (1,017 of 5,225
    # calls), two curvature probes per free coordinate took the solve to
    # 8,704 calls, and line-search probes that try the constraints in index
    # order to 5,484
    _, _, calls = speed_reducer_run
    assert calls <= SPEED_REDUCER_EVALUATIONS, f"{calls} evaluator calls"


def test_illustrative_evaluation_budget():
    # 902 calls. Before refinement projected its steps onto the linearized
    # constraints (1,035 calls), backtracking that starts every search at
    # alpha = 1, not at twice the last accepted step, took the solve to
    # 1,294, line-search probes that also try the constraints in index order
    # to 1,636, and probes that evaluate every constraint even once they
    # cannot beat their bar to 3,316
    calls = [0]
    solve_global(_counted(illustrative_problem(), calls), RunConfig(seed=0, time_limit=60))
    assert calls[0] <= ILLUSTRATIVE_EVALUATIONS, f"{calls[0]} evaluator calls"


def test_criterion_4_encoding_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(17)
    lo, hi = -np.ones(2), np.ones(2)
    X = rng.uniform(lo, hi, size=(250, 2))
    y_reg = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1]
    y_clf = (X[:, 0] ** 2 + X[:, 1] <= 0.5).astype(float)
    cases = [
        ("svm", L.train_svr(X, y_reg), "regressor"),
        ("tree", L.train_tree(X, y_reg, "regressor"), "regressor"),
        ("gbm", L.train_gbm(X, y_reg, "regressor", n_trees=5), "regressor"),
        ("mlp", L.train_mlp(X, y_reg, "regressor", epochs=150), "regressor"),
        ("svm", L.train_svc(X, y_clf), "classifier"),
        ("tree", L.train_tree(X, y_clf, "classifier"), "classifier"),
        ("gbm", L.train_gbm(X, y_clf, "classifier", n_trees=5), "classifier"),
        ("mlp", L.train_mlp(X, y_clf, "classifier", epochs=150), "classifier"),
    ]
    worst_reg = 0.0
    verdict_misses = 0
    for family, model, task in cases:
        thr = {"svm": 0.0, "tree": 0.5, "gbm": 0.5, "mlp": 0.0}[family]
        sur = L.Surrogate(model=model, family=family, task=task,
                          threshold=thr if task == "classifier" else 0.0,
                          validation_score=1.0)
        for _ in range(100):
            x = rng.uniform(lo, hi)
            m = milp.MilpModel()
            cols = [m.add_var(lo[j], hi[j]) for j in range(2)]
            coeffs, const = enc.encode_surrogate(sur, m, cols, lo, hi, None)
            for col, v in zip(cols, x):  # pin the point by its bounds
                m.lower[col] = m.upper[col] = float(v)
            if task == "regressor":
                ends = []
                for sign in (1.0, -1.0):  # the least and the greatest output at x
                    m.obj = {j: sign * c for j, c in coeffs.items()}
                    m.obj_const = sign * const
                    ends.append(sign * milp.solve_milp(m).objective)
                want = sur.model.predict_one(x)
                worst_reg = max(worst_reg, *(abs(v - want) for v in ends))
            else:
                m.add_row(coeffs, ">=", thr - const)
                got = milp.solve_milp(m).status == "optimal"
                verdict_misses += got != (sur.model.predict_one(x) >= sur.threshold)
    wall = time.monotonic() - t0
    ok = worst_reg <= 1e-6 and verdict_misses == 0 and wall < 120.0
    _verdict(
        4,
        ok,
        f"regression err {worst_reg:.2e}, verdict misses {verdict_misses}, {wall:.0f}s",
    )


def test_criterion_5_relaxation_guarantee():
    from surropt.model import (
        LinearConstraint,
        LinearObjective,
        NonlinearConstraint,
        StandardProblem,
        VarSpec,
    )

    sp = StandardProblem(
        vars=(VarSpec(name="x1", lower=0.0, upper=1.0), VarSpec(name="x2", lower=0.0, upper=1.0)),
        objective=LinearObjective(np.array([1.0, 0.0])),
        linear=(LinearConstraint(np.array([1.0, 1.0]), "<=", 1.5),),
        nonlinear=(
            NonlinearConstraint(evaluator=lambda x: 0.0, sense="<=0", support=frozenset({0})),
            NonlinearConstraint(evaluator=lambda x: 0.0, sense="<=0", support=frozenset({0})),
        ),
    )
    lower = L.Surrogate(model=L.LinearModel(beta0=-0.6, beta=np.array([1.0])), family="svm",
                        task="classifier", threshold=0.0, validation_score=1.0)
    upper = L.Surrogate(model=L.LinearModel(beta0=0.4, beta=np.array([-1.0])), family="svm",
                        task="classifier", threshold=0.0, validation_score=1.0)
    unrelaxed = enc.assemble(sp, [lower, upper])
    infeasible = milp.solve_milp(unrelaxed).status == "infeasible"
    relaxed = enc.assemble(sp, [lower, upper], relax=enc.RelaxConfig(1e2))
    sol = milp.solve_milp(relaxed)
    slack = sum(sol.x[u] for u in relaxed.registry["relax_vars"]) if sol.x is not None else 0.0
    ok = infeasible and sol.status == "optimal" and slack > 0.0
    _verdict(5, ok, f"unrelaxed infeasible={infeasible}, relaxed slack {slack:.3f}")


def _encoded_feasible(sur, point, robust, lo, hi) -> bool:
    """Does the surrogate's encoding, robustified by ``robust``, admit the
    point once every input column is pinned to it?"""
    m = milp.MilpModel()
    cols = [m.add_var(lo[j], hi[j]) for j in range(len(lo))]
    coeffs, const = enc.encode_surrogate(sur, m, cols, lo, hi, robust)
    m.add_row(coeffs, ">=", sur.threshold - const)
    for col, v in zip(cols, point):
        m.lower[col] = m.upper[col] = float(v)
    return milp.solve_milp(m).status == "optimal"


def test_criterion_6_robust_nestedness():
    rng = np.random.default_rng(23)
    lo, hi = -np.ones(2), np.ones(2)
    X = rng.uniform(lo, hi, size=(220, 2))
    y = (X[:, 0] + 0.7 * X[:, 1] <= 0.2).astype(float)
    surrogates = [
        L.Surrogate(L.train_svc(X, y), "svm", "classifier", 0.0, 1.0),
        L.Surrogate(L.train_tree(X, y, "classifier"), "tree", "classifier", 0.5, 1.0),
        L.Surrogate(L.train_gbm(X, y, "classifier", n_trees=5), "gbm", "classifier", 0.5, 1.0),
    ]
    violations = 0
    for p in (1.0, math.inf):
        for sur in surrogates:
            tight = enc.RobustConfig(rho=0.1, p=p)
            loose = enc.RobustConfig(rho=0.01, p=p)
            for point in rng.uniform(lo, hi, size=(100, 2)):
                t = _encoded_feasible(sur, point, tight, lo, hi)
                l = _encoded_feasible(sur, point, loose, lo, hi)
                plain = sur.model.predict_one(point) >= sur.threshold
                if t and not l:
                    violations += 1
                if l and not plain:
                    violations += 1
    # rho = 0 must be row-identical to the plain encoding
    tree = surrogates[1].model
    a = milp.MilpModel()
    cols = [a.add_var(lo[j], hi[j]) for j in range(2)]
    enc.encode_tree(tree, a, cols, lo, hi, robust=None)
    b = milp.MilpModel()
    cols = [b.add_var(lo[j], hi[j]) for j in range(2)]
    enc.encode_tree(tree, b, cols, lo, hi, robust=enc.RobustConfig(rho=0.0, p=1.0))
    identical = milp.models_equal(a, b)
    _verdict(6, violations == 0 and identical,
             f"nestedness violations {violations}, rho=0 rows identical={identical}")


def test_criterion_7_hit_and_run():
    poly = S.Polyhedron(A=np.empty((0, 2)), b=np.empty(0), lo=np.zeros(2), hi=np.ones(2))
    [draws] = S.hit_and_run([poly], [np.array([0.5, 0.5])], 10_000, np.random.default_rng(11), burn_in=20)
    contained = bool((draws >= -1e-9).all() and (draws <= 1 + 1e-9).all())
    means = draws.mean(axis=0)
    means_ok = bool((means >= 0.45).all() and (means <= 0.55).all())
    _verdict(7, contained and means_ok, f"contained={contained}, means={np.round(means, 4)}")


def test_criterion_8_latin_hypercube():
    ok = True
    for n in (1, 4, 16):
        pts = S.lh_sample([0.0, -2.0], [1.0, 3.0], n, np.random.default_rng(1))
        for dim, (lo_d, hi_d) in enumerate([(0.0, 1.0), (-2.0, 3.0)]):
            strata = sorted(
                min(int((p[dim] - lo_d) / (hi_d - lo_d) * n), n - 1) for p in pts
            )
            ok = ok and strata == list(range(n))
    _verdict(8, ok, "one sample per stratum for n in {1, 4, 16}")


def test_criterion_9_committee_discordance(monkeypatch):
    rng = np.random.default_rng(9)
    X = rng.uniform(0, 1, size=(200, 2))
    y = (X[:, 0] + 0.5 * np.sin(4 * X[:, 1]) <= 0.7).astype(float)
    K, tau = S.COMMITTEE_SIZE, S.DISCORDANCE
    monkeypatch.setattr(S, "HR_PER_POLY", 6)
    monkeypatch.setattr(S, "HR_BURN_IN", 10)

    committee = []

    def trainer(Xs, ys, seed):
        committee.append(L.train_tree(Xs, ys, task="classifier", max_depth=3, oblique=True))
        return committee[-1]

    res = S.oct_adaptive_sample(X, y, np.random.default_rng(2), trainer, np.zeros(2), np.ones(2))
    worst = 0.0
    for point in res.points:
        votes = sum(1.0 if t.predict_one(point) >= 0.5 else 0.0 for t in committee)
        worst = max(worst, abs(votes - (K - votes)))
    ok = len(res.points) > 0 and worst <= K * tau + 1e-9
    _verdict(9, ok, f"{len(res.points)} adaptive samples, worst vote gap {worst} <= {K * tau}")


def test_criterion_10_milp_brute_force():
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    for _ in range(50):
        nb = int(rng.integers(1, 13))
        nc = int(rng.integers(0, 4))
        model = milp.MilpModel()
        bs = [model.add_binary() for _ in range(nb)]
        cs = [model.add_var(float(rng.uniform(-3, 0)), float(rng.uniform(0.5, 3)))
              for _ in range(nc)]
        for _ in range(int(rng.integers(1, 8))):
            coeffs = {j: float(rng.normal()) for j in bs + cs if rng.random() < 0.7}
            if coeffs:
                model.add_row(coeffs, ("<=", ">=")[int(rng.integers(0, 2))], float(rng.normal() * 2))
        for j in bs + cs:
            model.add_objective_term(j, float(rng.normal()))
        sol = milp.solve_milp(model)
        best = None
        for assignment in itertools.product([0.0, 1.0], repeat=nb):
            lo = list(model.lower)
            hi = list(model.upper)
            for j, v in zip(bs, assignment):
                lo[j] = hi[j] = v
            r = milp.solve_lp(replace(model.to_lp(), lower=lo, upper=hi))
            if r.status == "optimal" and (best is None or r.objective < best):
                best = r.objective
        if best is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            worst = max(worst, abs(sol.objective - best))
            checked += 1
    _verdict(10, worst <= 1e-6, f"{checked} solvable models, worst gap {worst:.2e}")


def test_criterion_11_gradient_correctness():
    import sys, os
    sys.path.insert(0, os.path.dirname(__file__))
    from test_expr import _random_expr

    rng = np.random.default_rng(42)
    checked = 0
    worst = 0.0
    while checked < 100:
        n_vars = int(rng.integers(1, 4))
        tree = _random_expr(rng, n_vars)
        x = rng.uniform(-2, 2, size=n_vars)
        try:
            value = E.eval_expr(tree, x)
            grad = E.grad_expr(tree, x)
        except DomainError:
            continue
        if not math.isfinite(value) or abs(value) > 1e8:
            continue
        if not np.all(np.isfinite(grad)) or np.max(np.abs(grad)) > 1e8:
            continue
        fd = np.zeros(n_vars)
        bad = False
        for i in range(n_vars):
            h = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            try:
                fd[i] = (E.eval_expr(tree, xp) - E.eval_expr(tree, xm)) / (2 * h)
            except DomainError:
                bad = True
                break
        if bad:
            continue
        rel = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(grad)))
        worst = max(worst, rel)
        checked += 1
    _verdict(11, worst < 1e-5, f"100 expressions, worst relative error {worst:.2e}")


def test_criterion_12_pgd_non_degradation():
    rng = np.random.default_rng(0)
    worst = -math.inf
    for instance_seed in (5, 6):
        sp = standardize(generate_quadratic_sigmoid(4, 3, seed=instance_seed))
        lo, hi = sp.box()
        for _ in range(25):
            x0 = rng.uniform(lo, hi)
            start = merit_state(sp, x0)
            out = pgd_improve(sp, x0)
            worst = max(worst, out.merit - start.merit)
    _verdict(12, worst <= 1e-12, f"50 starts, max merit increase {worst:.2e}")


def test_criterion_13_quadratic_sigmoid_vs_oracle(qsigmoid_run):
    report, _ = qsigmoid_run
    gap = abs(report.objective - QSIGMOID_ORACLE) / abs(QSIGMOID_ORACLE)
    ok = report.status == "ok" and gap <= 0.05 and max(report.violations, default=0.0) <= 1e-6
    _verdict(13, ok, f"objective {report.objective:.4f} vs oracle {QSIGMOID_ORACLE:.4f}, gap {gap:.2%}")


def test_qsigmoid_evaluation_budget(qsigmoid_run):
    # 5,601 calls: each static design holds 100 of the 1,024 box corners
    # (10 d) and the center. Enumerating every corner up to d = 10 took the
    # solve to 9,905
    _, calls = qsigmoid_run
    assert calls <= QSIGMOID_EVALUATIONS, f"{calls} evaluator calls"


def test_criterion_14_surrogate_reuse_and_grid_share(illustrative_runs):
    cells_ok = True
    reuse_ok = True
    shares = []
    for report, _ in illustrative_runs.values():
        cells_ok = cells_ok and len(report.cells) == 12
        trained = [
            info for info in report.families.values()
            if info["family"] in ("svm", "tree", "gbm", "mlp")
        ]
        reuse_ok = reuse_ok and report.training_runs == len(trained)
        # grid phase = the per-cell re-encode + re-solve work; sampling,
        # training, and refinement are their own phases. Wall-clock ratios
        # are noisy, so the criterion is judged on the median over the same
        # ten seeded runs used by criterion 1.
        grid = report.phase_seconds["encoding"] + report.phase_seconds["solving"]
        shares.append(grid / max(report.total_seconds, 1e-9))
    median_share = float(np.median(shares))
    _verdict(
        14,
        cells_ok and reuse_ok and median_share < 0.25,
        f"12 cells={cells_ok}, trained once={reuse_ok}, median grid share {median_share:.1%}",
    )
