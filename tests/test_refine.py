import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from surropt import refine
from surropt.benchmarks import generate_quadratic_sigmoid
from surropt.errors import EvaluationError, ProjectionStall, TimeLimitReached
from surropt.expr import load_problem
from surropt.model import (
    LinearConstraint,
    LinearObjective,
    NonlinearConstraint,
    NonlinearObjective,
    Problem,
    StandardProblem,
    VarSpec,
    standardize,
)
from surropt.refine import merit_state, pgd_improve, project


def _rows(*entries):
    return tuple(LinearConstraint(np.asarray(c, dtype=float), s, r) for c, s, r in entries)


def test_project_identity_when_feasible():
    rows = _rows(([1.0, 0.0], "<=", 1.0))
    x = project([0.2, 0.3], rows, np.zeros(2), np.ones(2))
    assert np.allclose(x, [0.2, 0.3])


def test_project_halfspace():
    rows = _rows(([1.0, 0.0], "<=", 1.0))
    x = project([2.0, 0.0], rows, np.full(2, -5.0), np.full(2, 5.0))
    assert np.allclose(x, [1.0, 0.0], atol=1e-9)


def test_project_diagonal_row_with_box():
    rows = _rows(([1.0, 1.0], "<=", 2.0))
    x = project([2.0, 2.0], rows, np.zeros(2), np.full(2, 3.0))
    assert np.allclose(x, [1.0, 1.0], atol=1e-8)


def test_project_respects_frozen_coordinates():
    rows = _rows(([1.0, 1.0], "<=", 2.0))
    x = project([2.0, 2.0], rows, np.zeros(2), np.full(2, 3.0),
                frozen=np.array([True, False]))
    assert x[0] == 2.0
    assert x[1] == pytest.approx(0.0, abs=1e-8)


def test_project_equality_row():
    rows = _rows(([1.0, -1.0], "=", 0.0))
    x = project([1.0, 0.0], rows, np.full(2, -5.0), np.full(2, 5.0))
    assert np.allclose(x, [0.5, 0.5], atol=1e-8)


def test_project_gearbox_wedge_reaches_its_corner():
    # x1 - 5 x2 >= 0 meets the face x2 = 0.7 at a sharp angle; a cyclic
    # projection crawls along that wedge, the exact one lands on the corner
    rows = _rows(([1.0, -5.0], ">=", 0.0), ([-1.0, 12.0], ">=", 0.0))
    x = project([3.0, 0.65], rows, np.array([2.6, 0.7]), np.array([3.6, 0.8]))
    assert np.allclose(x, [3.5, 0.7], atol=1e-9)


def test_project_empty_set_raises():
    with pytest.raises(ProjectionStall):
        project([0.5, 0.5], _rows(([1.0, 1.0], ">=", 3.0)), np.zeros(2), np.ones(2))
    with pytest.raises(ProjectionStall):
        project([0.0, 0.0], _rows(([1.0, 0.0], "<=", 0.0), ([1.0, 1e-3], ">=", 1.0)),
                np.full(2, -5.0), np.full(2, 5.0))


def test_project_non_finite_point_raises():
    for bad in ([math.nan, 0.2], [0.2, math.inf]):
        with pytest.raises(ProjectionStall):
            project(bad, _rows(([1.0, 0.0], "<=", 1.0)), np.zeros(2), np.ones(2))


def test_project_survives_a_subnormal_row_coefficient():
    # a multiplier over the subnormal coefficient overflows; such a ratio
    # can never block first, so the projection ends as in exact arithmetic
    rows = _rows(([-1.0, 0.0, 2.2250738585e-313], "<=", 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = project([-1.8, 0.0, 2.00095], rows, -np.ones(3), np.ones(3))
    assert np.allclose(x, [0.0, 0.0, 1.0], atol=1e-9)


def _nearly_dependent_problem():
    """Box [-1, 1]^2, x0 <= 0, and one equality whose gradient lies within
    about 1e-6 of the x1 axis, so its linearization nearly parallels the
    x1 bound faces and meets the box nowhere."""
    return StandardProblem(
        vars=(VarSpec(name="x0", lower=-1.0, upper=1.0), VarSpec(name="x1", lower=-1.0, upper=1.0)),
        objective=LinearObjective(np.zeros(2)),
        linear=_rows(([1.0, 0.0], "<=", 0.0)),
        nonlinear=(NonlinearConstraint(
            evaluator=lambda x: math.sin(3.0 * (1e-6 * x[0] + x[1])) - 1.5,
            sense="=0", support=frozenset({0, 1})),),
    )


def test_project_stalls_without_overflow_on_a_nearly_dependent_row():
    # the equality's row pins x1 near 11.3; reaching the face x1 = 1 along
    # it takes a step of about 1e7 in x0, which used to overflow later on
    rows = _rows(([1.0, 0.0], "<=", 0.0),
                 ([2.120525977034049e-07, 0.21221160517725934], "=", 2.391389184015425))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ProjectionStall):
            project([0.0, -0.5], rows, -np.ones(2), np.ones(2))
        for start in ([0.0, -0.5], [0.0, -1.0]):
            state = pgd_improve(_nearly_dependent_problem(), np.array(start))
            assert np.all(np.abs(state.x) <= 1.0) and state.x[0] <= 0.0


def test_project_holds_a_steep_row_to_its_distance_not_its_own_units():
    # two nearly opposite rows of norm 7.1e3 pin the projection to a band
    # about 0.04 wide; rounding alone leaves the first 1.4e-9 past its face
    # in its own units, which is 1.9e-13 in distance
    rows = _rows(
        ([-1551.3714280463673, 6928.43753614344], "<=", 35907.8212072376),
        ([1521.0218735928568, -6935.163477528996], "<=", -36174.774808733426),
        ([-7098.114784438209, -163.60472774252327], "<=", -21559.96034669812),
    )
    y = np.array([2.902670838515303, 5.844985807025349])
    z = project(y, rows, np.zeros(2), np.full(2, 10.0))
    excess = np.array([row.coeffs @ z - row.rhs for row in rows])
    norms = np.array([np.linalg.norm(row.coeffs) for row in rows])
    assert excess[0] > 1e-9  # the rounding that used to raise ProjectionStall
    assert (excess / norms <= 1e-9).all()
    # y - z is a nonnegative combination of the two band rows' normals
    coef, residual = nnls(np.array([rows[0].coeffs, rows[1].coeffs]).T, y - z)
    assert residual <= 1e-9 * np.linalg.norm(y - z)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    n_rows=st.integers(0, 6),
)
def test_project_satisfies_kkt_against_nnls(seed, n, n_rows):
    """The output is feasible and y - z is a nonnegative combination of the
    outward normals active at z (free-sign for equalities), as certified by
    an independent nonnegative least-squares fit; that is the optimality
    condition of the Euclidean projection."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.0, 3.0, n) * (rng.random(n) > 0.1)  # some fixed coordinates
    inside = rng.uniform(lo, hi)
    senses = rng.choice(["<=", ">=", "="], size=n_rows, p=[0.45, 0.45, 0.1])
    entries = []
    for sense in senses:
        a = rng.normal(size=n) * (rng.random(n) > 0.3)
        slack = 0.0 if sense == "=" else rng.exponential(0.5)
        entries.append((a, sense, a @ inside + (slack if sense == "<=" else -slack)))
    rows = _rows(*entries)
    frozen = rng.random(n) < 0.3
    y = rng.uniform(lo - 3.0, hi + 3.0)
    y[frozen] = inside[frozen]

    z = project(y, rows, lo, hi, frozen=frozen)

    assert np.array_equal(z[frozen], y[frozen])
    free = ~frozen
    assert (z[free] >= lo[free] - 1e-9).all() and (z[free] <= hi[free] + 1e-9).all()
    normals = []
    for row in rows:
        a = np.where(free, row.coeffs, 0.0)
        if a @ a < 1e-18:
            continue
        assert row.violation(z) <= 1e-9
        slack = row.rhs - row.coeffs @ z
        if row.sense == "=":
            normals += [a, -a]
        elif row.sense == "<=" and slack <= 1e-7:
            normals.append(a)
        elif row.sense == ">=" and slack >= -1e-7:
            normals.append(-a)
    for j in np.flatnonzero(free):
        e = np.zeros(n)
        e[j] = 1.0
        if z[j] >= hi[j] - 1e-12:
            normals.append(e)
        if z[j] <= lo[j] + 1e-12:
            normals.append(-e)
    step = y - z
    step[frozen] = 0.0
    if not normals:
        assert np.allclose(step, 0.0, atol=1e-12)
        return
    _, residual = nnls(np.array(normals).T, step)
    assert residual <= 1e-7 * (1.0 + np.linalg.norm(step))


def _linear_sp():
    return StandardProblem(
        vars=(VarSpec(name="x1", lower=0.0, upper=1.0), VarSpec(name="x2", lower=0.0, upper=1.0)),
        objective=LinearObjective(np.array([1.0, 1.0])),
        linear=_rows(([1.0, 1.0], ">=", 0.5)),
    )


def test_pgd_linear_problem_descends_to_face():
    sp = _linear_sp()
    out = pgd_improve(sp, np.array([0.8, 0.8]))
    assert out.merit <= merit_state(sp, np.array([0.8, 0.8])).merit
    # optimum of x1+x2 over the wedge is the row face
    assert out.objective == pytest.approx(0.5, abs=1e-6)


def test_pgd_stays_at_smooth_local_optimum():
    sp = StandardProblem(
        vars=(VarSpec(name="x1", lower=-1.0, upper=1.0),),
        objective=NonlinearObjective(
            evaluator=lambda x: float((x[0] - 0.3) ** 2),
            support=frozenset({0}),
            gradient=lambda x: np.array([2.0 * (x[0] - 0.3)]),
        ),
    )
    out = pgd_improve(sp, np.array([0.3]))
    assert out.x[0] == pytest.approx(0.3, abs=1e-6)


def test_coordinate_grid_keeps_the_best_of_nine_points_per_coordinate(monkeypatch):
    # a separable quadratic over three free coordinates and a frozen one;
    # x2's minimiser lies past its upper bound, so its best point is there
    target = np.array([0.3137, 1.2345, 4.0, 0.0])
    weights = np.array([1.0, 3.0, 0.5, 1.0])

    def f(x):
        return float(((x - target) ** 2 * weights).sum())

    sp = StandardProblem(
        vars=tuple(VarSpec(name=f"x{j}", lower=-1.0, upper=3.0, integral=j == 3) for j in range(4)),
        objective=NonlinearObjective(evaluator=f, support=frozenset(range(4))),
    )
    lo, hi = sp.box()
    frozen = np.array([False, False, False, True])
    probes = []
    merit_state_ = refine.merit_state

    def counted(sp, x, *args):
        probes.append(np.array(x))
        return merit_state_(sp, x, *args)

    state = merit_state(sp, np.array([0.0, 0.0, 0.0, 1.0]))
    monkeypatch.setattr(refine, "merit_state", counted)
    out = refine._coordinate_grid(sp, state, (), lo, hi, frozen)

    grid = np.linspace(-1.0, 3.0, 9)
    best = [grid[np.argmin((grid - t) ** 2)] for t in target[:3]]
    assert np.array_equal(out.x, [*best, 1.0])
    assert out.merit == f(out.x)
    assert len(probes) <= 9 * 3
    assert all(p[3] == 1.0 for p in probes)


def test_refinement_ends_without_a_grid_where_every_constraint_is_linearized(monkeypatch):
    # minimize -x1 - x2 over the unit disk, black boxes with gradient
    # callbacks: the last search accepts nothing where the step sees every
    # constraint, so refinement ends there without the grid
    calls = [0]

    def counted(fn):
        def evaluate(x):
            calls[0] += 1
            return fn(x)
        return evaluate

    def disk():
        return StandardProblem(
            vars=(VarSpec(name="x1", lower=-2.0, upper=2.0),
                  VarSpec(name="x2", lower=-2.0, upper=2.0)),
            objective=NonlinearObjective(
                evaluator=counted(lambda x: float(-x[0] - x[1])), support=frozenset({0, 1}),
                gradient=lambda x: np.array([-1.0, -1.0]),
            ),
            nonlinear=(
                NonlinearConstraint(
                    evaluator=counted(lambda x: float(x @ x) - 1.0), sense="<=0",
                    support=frozenset({0, 1}), gradient=lambda x: 2.0 * np.asarray(x),
                ),
            ),
        )

    grids = []
    grid_ = refine._coordinate_grid
    monkeypatch.setattr(refine, "_coordinate_grid",
                        lambda *args: grids.append(args) or grid_(*args))
    for start in ((1.0, 0.0), (0.3, 0.2)):
        out = pgd_improve(disk(), np.array(start))
        assert out.objective == pytest.approx(-math.sqrt(2.0), abs=1e-6)
    # started at the optimum, refinement evaluates the start and nothing else
    calls[0] = 0
    optimum = np.full(2, math.sqrt(0.5))
    out = pgd_improve(disk(), optimum)
    assert np.array_equal(out.x, optimum)
    assert calls[0] == 2
    assert grids == []


def test_difference_gradient_stops_at_the_deadline():
    # a black box without a gradient callback: past the deadline, the
    # central differences evaluate no new point, and refinement returns
    # the evaluated start with the time-limit warning
    calls = [0]

    def f(x):
        calls[0] += 1
        return float((x[0] - 0.3) ** 2)

    problem = Problem(
        vars=(VarSpec(name="x", lower=-1.0, upper=1.0),),
        objective=NonlinearObjective(evaluator=f, support=frozenset({0})),
    )
    deadline = time.monotonic() + 0.05
    sp = standardize(problem, deadline)
    x0 = np.array([0.8])
    start = merit_state(sp, x0)
    time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
    calls[0] = 0
    with pytest.raises(TimeLimitReached):
        sp.objective.grad(x0)
    out = pgd_improve(sp, x0)
    assert out.warning == refine.TIME_LIMIT_WARNING
    assert np.array_equal(out.x, x0) and out.merit == start.merit
    assert calls[0] == 0


def test_backtracking_starts_from_twice_the_last_accepted_step(monkeypatch):
    # f = c x^2 with c = 0.75 * 2^k: a step of alpha along the gradient maps
    # x to x (1 - 1.5 alpha 2^k), which lowers f only for alpha < 2^-k / 0.75,
    # so every search accepts 2^-k and rejects 2^(1-k). The grid is replaced
    # by a halving of x, and every probe of the second search stalls.
    k = 5
    c = 0.75 * 2.0**k
    origins, searches = [], []   # per search: its start, gradient and probed alphas
    project_ = refine.project

    def gradient(x):
        g = np.array([2.0 * c * x[0]])
        origins.append((x[0], g[0]))
        searches.append([])
        return g

    sp = StandardProblem(
        vars=(VarSpec(name="x", lower=-10.0, upper=10.0),),
        objective=NonlinearObjective(
            evaluator=lambda x: float(c * x[0] ** 2),
            support=frozenset({0}),
            gradient=gradient,
        ),
    )

    def project(p, *args, **kwargs):
        if searches:
            x, g = origins[-1]
            searches[-1].append((x - p[0]) / g)
            if len(searches) == 2:
                raise ProjectionStall("stalled on purpose")
        return project_(p, *args, **kwargs)

    monkeypatch.setattr(refine, "project", project)
    monkeypatch.setattr(refine, "_coordinate_grid",
                        lambda sp, state, *args: merit_state(sp, 0.5 * state.x))
    monkeypatch.setattr(refine, "ITERATIONS", 4)
    pgd_improve(sp, np.array([1.0]), momentum=0.0)

    assert len(searches) == 4
    powers = {0.5**h for h in range(refine.MAX_HALVINGS + 1)}
    assert all(alpha in powers for probes in searches for alpha in probes)
    assert searches[0] == [0.5**h for h in range(k + 1)]
    # the stalled search halves down to the floor and no further
    assert searches[1] == [0.5**h for h in range(k - 1, refine.MAX_HALVINGS + 1)]
    # and leaves the next search's first step where it was
    assert searches[2] == searches[3] == [0.5 ** (k - 1), 0.5**k]


@pytest.mark.parametrize("objective, sense, starts", [
    ("-x1 - x2", "<=0", [(1.0, 0.0), (0.0, -1.0), (0.3, 0.2), (-0.6, 0.8)]),
    ("x1 + x2", "=0", [(1.0, 0.0), (0.0, 1.0), (-0.2, 0.9)]),
], ids=["disk", "circle"])
def test_pgd_follows_a_curved_constraint_to_its_optimum(objective, sense, starts):
    # a linear objective over the unit disk or the unit circle: the optimum,
    # -sqrt(2), lies where the constraint curves away from every straight step
    doc = {
        "schema": 1,
        "variables": [{"name": "x1", "lower": -2.0, "upper": 2.0},
                      {"name": "x2", "lower": -2.0, "upper": 2.0}],
        "objective": {"expression": objective},
        "constraints": [{"expression": "x1^2 + x2^2 - 1", "sense": sense}],
    }
    problem = load_problem(doc)
    for start in starts:
        out = pgd_improve(standardize(problem), np.array(start))
        assert out.objective == pytest.approx(-math.sqrt(2.0), abs=1e-6)
        assert out.violations.max() <= 1e-9


def test_pgd_never_degrades_merit():
    problem = generate_quadratic_sigmoid(4, 3, seed=5)
    sp = standardize(problem)
    lo, hi = sp.box()
    rng = np.random.default_rng(0)
    for _ in range(25):
        x0 = rng.uniform(lo, hi)
        start = merit_state(sp, x0)
        out = pgd_improve(sp, x0)
        assert out.merit <= start.merit + 1e-12


def test_pgd_iterates_respect_linear_rows_and_box():
    problem = generate_quadratic_sigmoid(3, 2, seed=9)
    sp = standardize(problem)
    lo, hi = sp.box()
    out = pgd_improve(sp, np.array([1.5, -1.5, 0.2]))
    assert (out.x >= lo - 1e-8).all() and (out.x <= hi + 1e-8).all()


def test_pgd_momentum_zero_matches_disabled():
    # the CLI's --no-momentum is the only other way to turn momentum off
    from surropt import cli

    problem = generate_quadratic_sigmoid(3, 1, seed=2)
    sp = standardize(problem)
    x0 = np.array([1.0, -1.0, 0.5])
    args = cli.build_parser().parse_args(["solve", "p.prob", "--no-momentum"])
    out_zero = pgd_improve(sp, x0, momentum=0.0)
    out_off = pgd_improve(sp, x0, cli._config_from_args(args).momentum)
    assert np.array_equal(out_zero.x, out_off.x)
    assert out_zero.merit == out_off.merit


def test_pgd_freezes_integral_coordinates():
    sp = StandardProblem(
        vars=(
            VarSpec(name="n", lower=0.0, upper=5.0, integral=True),
            VarSpec(name="x", lower=0.0, upper=5.0),
        ),
        objective=LinearObjective(np.array([1.0, 1.0])),
    )
    out = pgd_improve(sp, np.array([3.0, 3.0]))
    assert out.x[0] == 3.0
    assert out.x[1] == pytest.approx(0.0, abs=1e-8)


def test_pgd_reports_warning_on_failing_evaluator():
    def bad(x):
        raise ValueError("nope")

    sp = StandardProblem(
        vars=(VarSpec(name="x", lower=0.0, upper=1.0),),
        objective=LinearObjective(np.array([1.0])),
        nonlinear=(
            NonlinearConstraint(
                evaluator=lambda x: (_ for _ in ()).throw(
                    __import__("surropt.errors", fromlist=["EvaluationError"]).EvaluationError("bad point")
                ),
                sense="<=0",
                support=frozenset({0}),
            ),
        ),
    )
    out = pgd_improve(sp, np.array([0.5]))
    assert out.warning is not None


def test_pgd_skips_non_finite_merits_and_gradient_components():
    # the constraint is NaN on the right half of the box, so merits there are
    # infinite; its gradient callback returns a finite, an infinite or a NaN
    # component. A non-finite component must reach neither the linearized
    # rows nor the step, where the linear row's 0 coefficient would meet it.
    for grad_x, x0 in ((1.0, 0.7), (math.inf, 0.45), (-math.inf, 0.45), (math.nan, 0.45)):
        sp = StandardProblem(
            vars=(VarSpec(name="x", lower=0.0, upper=1.0), VarSpec(name="y", lower=0.0, upper=1.0)),
            objective=LinearObjective(np.array([-1.0, 0.0])),
            linear=_rows(([0.0, 1.0], "<=", 0.9)),
            nonlinear=(
                NonlinearConstraint(
                    evaluator=lambda x: math.nan if x[0] > 0.5 else x[0] - 0.4,
                    sense="<=0",
                    support=frozenset({0}),
                    gradient=lambda x, grad_x=grad_x: np.array([grad_x, 0.0]),
                ),
            ),
        )
        start = merit_state(sp, [x0, 0.5]).merit
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = pgd_improve(sp, np.array([x0, 0.5]))
        assert out.merit <= start
        assert out.x[0] == pytest.approx(0.4, abs=1e-6)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_pgd_never_raises_or_degrades_on_failing_black_boxes(data, n):
    # every black box raises EvaluationError past one random half-space and
    # returns NaN past another; no gradient callbacks, so gradients take
    # central differences of the failing evaluators
    coords = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
    a_err, a_nan, center, x0 = (data.draw(coords) for _ in range(4))
    b_err, b_nan = data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-1.0, 1.0))

    def black_box(fn):
        def evaluate(x):
            if a_err @ x > b_err:
                raise EvaluationError("outside the domain")
            return math.nan if a_nan @ x > b_nan else fn(x)
        return evaluate

    radius = data.draw(st.floats(0.05, 1.0))
    tilt = data.draw(coords)
    support = frozenset(range(n))
    sp = StandardProblem(
        vars=tuple(VarSpec(name=f"x{j}", lower=-1.0, upper=1.0) for j in range(n)),
        objective=NonlinearObjective(
            evaluator=black_box(lambda x: float(tilt @ x + 0.1 * x @ x)), support=support
        ),
        nonlinear=(
            NonlinearConstraint(
                evaluator=black_box(lambda x: float((x - center) @ (x - center)) - radius**2),
                sense=data.draw(st.sampled_from(["<=0", "=0"])),
                support=support,
            ),
        ),
    )
    start = merit_state(sp, x0)
    with mock.patch.object(refine, "ITERATIONS", 4):
        out = pgd_improve(sp, x0)
    assert out.merit <= start.merit
    if out.merit == math.inf:
        assert out.warning is not None


def _merit_state_reference(sp, x, below=math.inf, order=None):
    """The full-evaluation merit: every constraint, then the objective,
    whatever ``below`` and ``order`` say."""
    v = np.array([con.violation(x) for con in sp.nonlinear])
    f = sp.objective.value(x)
    merit = f + refine.PENALTY * v.sum()
    return refine.MeritState(x=np.asarray(x, dtype=float), objective=f, violations=v,
                             merit=merit if math.isfinite(merit) else math.inf)


def _hostile_problem(data, n):
    """A problem factory and a start point, drawn from ``data``.

    The box is [-1, 1]^n with one linear row through it, 1-4 nonlinear
    constraints and a linear, smooth or partly flat objective. Each black
    box may raise EvaluationError past one random half-space, or return inf
    or NaN there. ``make(calls)`` builds a fresh problem, with empty memos,
    whose evaluators count their calls in ``calls[0]``.
    """
    coords = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
    unit = st.floats(-1.0, 1.0)
    hazards = st.sampled_from(["none", "raise", "inf", "nan"])
    row_a, row_at, x0 = data.draw(coords), data.draw(coords), data.draw(coords)
    row_slack = data.draw(st.floats(0.0, 1.0))
    frozen0 = n > 1 and data.draw(st.booleans())
    cons = [
        (data.draw(st.sampled_from(["ball", "wave"])), data.draw(st.sampled_from(["<=0", "=0"])),
         data.draw(coords), data.draw(st.floats(0.05, 4.0)), data.draw(hazards),
         data.draw(coords), data.draw(unit))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    obj_kind = data.draw(st.sampled_from(["linear", "smooth", "plateau"]))
    tilt, level = data.draw(coords), data.draw(st.floats(-1.0, 0.5))
    obj_hazard, obj_cut, obj_off = data.draw(hazards), data.draw(coords), data.draw(unit)

    def make(calls):
        def black_box(fn, hazard, cut, off):
            def evaluate(x):
                calls[0] += 1
                if hazard != "none" and cut @ x > off:
                    if hazard == "raise":
                        raise EvaluationError("outside the domain")
                    return math.inf if hazard == "inf" else math.nan
                return fn(x)
            return evaluate

        def con_fn(kind, c, r):
            if kind == "ball":
                return lambda x: float((x - c) @ (x - c)) - r**2
            return lambda x: math.sin(3.0 * float(c @ x)) - r + 0.5

        nonlinear = tuple(
            NonlinearConstraint(evaluator=black_box(con_fn(kind, c, r), hz, cut, off),
                                sense=sense, support=frozenset(range(n)))
            for kind, sense, c, r, hz, cut, off in cons
        )
        if obj_kind == "linear":
            objective = LinearObjective(tilt)
        else:
            def smooth(x):
                return float(tilt @ x + 0.1 * x @ x)

            fn = smooth if obj_kind == "smooth" else (lambda x: max(smooth(x), level))
            objective = NonlinearObjective(evaluator=black_box(fn, obj_hazard, obj_cut, obj_off),
                                           support=frozenset(range(n)))
        return StandardProblem(
            vars=tuple(VarSpec(name=f"x{j}", lower=-1.0, upper=1.0, integral=frozen0 and j == 0)
                       for j in range(n)),
            objective=objective,
            linear=_rows((row_a, "<=", float(row_a @ row_at) + row_slack)),
            nonlinear=nonlinear,
        )

    if frozen0:
        # the frozen start coordinate is an integer, and the row holds there
        x0[0] = row_at[0] = round(x0[0])
    return make, x0


def _same_state(a, b) -> bool:
    """Bit-identical x, objective, violations and merit, and the same warning."""
    def bits(v):
        return np.asarray(v, dtype=float).tobytes()
    return (bits(a.x) == bits(b.x) and bits(a.objective) == bits(b.objective)
            and bits(a.violations) == bits(b.violations) and bits(a.merit) == bits(b.merit)
            and a.warning == b.warning)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_lazy_merit_leaves_pgd_unchanged_with_fewer_calls(data, n):
    make, x0 = _hostile_problem(data, n)
    lazy_calls, full_calls = [0], [0]
    lazy = pgd_improve(make(lazy_calls), x0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "merit_state", _merit_state_reference)
        full = pgd_improve(make(full_calls), x0)
    assert _same_state(lazy, full)
    assert lazy_calls[0] <= full_calls[0]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_merit_state_is_exact_or_loses_to_its_bar(data, n):
    make, _ = _hostile_problem(data, n)
    x = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array))
    below = data.draw(st.one_of(st.floats(-3.0, 3e3), st.just(math.inf)))
    lazy_calls, full_calls = [0], [0]
    sp = make(lazy_calls)
    order = data.draw(st.permutations(range(len(sp.nonlinear))))
    lazy = merit_state(sp, x, below, order)
    full = _merit_state_reference(make(full_calls), x)
    assert _same_state(lazy, full) or (lazy.merit == math.inf and full.merit >= below)
    assert lazy_calls[0] <= full_calls[0]
    assert sorted(order) == list(range(len(sp.nonlinear)))
    if below == math.inf:
        assert _same_state(lazy, full)
