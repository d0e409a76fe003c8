import json
import math
import os
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from highs_lp import assert_reads_as, solve_lp_file
from surropt import cli, driver, milp, refine
from surropt import sampling as S
from surropt.encoder import assemble
from surropt.expr import eval_expr, load_problem, parse_expr

ILLUSTRATIVE = os.path.join(os.path.dirname(__file__), "..", "problems", "illustrative.prob")


def test_missing_file_exits_64(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", "definitely_missing.prob"])
    assert err.value.code == 64
    assert "not found" in capsys.readouterr().err


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["bench", "not-a-benchmark"])
    assert err.value.code == 64


def test_bad_problem_file_exits_64(tmp_path, capsys):
    path = tmp_path / "broken.prob"
    path.write_text('{"schema": 1}')
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(path)])
    assert err.value.code == 64


@pytest.mark.parametrize(
    "content",
    [
        b'{"schema": 1, "variables": [',                                    # not JSON
        b'\xff\xfe{"schema": 1}',                                          # not UTF-8
        None,                                                               # a directory
        b'{"schema": 1, "variables": [5]}',                                 # a variable no object
        b'{"schema": 1, "variables": [{"name": "x"}], "objective": 5}',     # an objective no object
        b'{"schema": 1, "variables": [{"name": "x", "lower": 1e999999}]}',  # a lower bound of +inf
    ],
)
def test_unreadable_problem_file_exits_64_with_one_line(content, tmp_path, capsys, monkeypatch):
    def must_not_solve(*args, **kwargs):
        raise AssertionError("solve_global ran on an unreadable problem")

    monkeypatch.setattr(cli, "solve_global", must_not_solve)
    path = tmp_path / "input.prob"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(path)])
    assert err.value.code == 64
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_solve_problem_file_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = cli.main(
        [
            "solve",
            os.path.join(os.path.dirname(__file__), "..", "problems", "illustrative.prob"),
            "--seed", "7",
            "--rho", "0.0", "0.1",
            "--lam", "none", "100",
            "--time-limit", "60",
            "--report", str(report_path),
        ]
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["status"] == "ok"
    assert abs(doc["objective"] - (-1.1497)) < 1e-3
    out = capsys.readouterr().out
    assert "objective" in out


def test_bench_illustrative_smoke(capsys):
    code = cli.main(
        ["bench", "illustrative", "--seed", "3", "--rho", "0.0", "--lam", "none",
         "--time-limit", "60", "--no-oct-sampling"]
    )
    assert code == 0
    assert "illustrative" in capsys.readouterr().out


def test_bench_qsigmoid_smoke(capsys):
    code = cli.main(
        ["bench", "qsigmoid", "--n", "2", "--m", "1", "--seed", "1",
         "--rho", "0.0", "--lam", "none", "--time-limit", "60"]
    )
    assert code == 0


def test_export_lp(tmp_path, monkeypatch):
    models = []

    def capture(*args, **kwargs):
        models.append(assemble(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(cli, "assemble", capture)
    out = tmp_path / "model.lp"
    code = cli.main(
        [
            "export-lp",
            os.path.join(os.path.dirname(__file__), "..", "problems", "illustrative.prob"),
            str(out),
            "--seed", "1",
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("\\ surropt model")
    assert "Minimize" in text and "Binaries" in text

    # HiGHS reads the model the CLI encoded and reaches the built-in optimum
    [model] = models
    assert model.n_vars > 2
    assert_reads_as(out, model)
    status, objective, _ = solve_lp_file(out)
    assert status.name == "kOptimal"
    assert objective == pytest.approx(milp.solve_milp(model).objective, rel=1e-9)


def test_external_solver_without_command_exits_64(monkeypatch, capsys):
    monkeypatch.delenv(milp.EXTERNAL_SOLVER_ENV, raising=False)

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_global ran without a solver command")

    monkeypatch.setattr(cli, "solve_global", no_solve)
    code = cli.main(["solve", ILLUSTRATIVE, "--solver", "external"])
    assert code == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and milp.EXTERNAL_SOLVER_ENV in err


@pytest.mark.parametrize("command", ["sh -c 'exit 7'", "true"])
def test_failing_external_solver_exits_64(command, monkeypatch, capsys):
    # a command that exits nonzero, and one that exits 0 without writing the solution file
    monkeypatch.setenv(milp.EXTERNAL_SOLVER_ENV, command)
    code = cli.main(["solve", ILLUSTRATIVE, "--solver", "external", "--no-oct-sampling",
                     "--rho", "0", "--lam", "none", "100"])
    assert code == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "solver failed" in err


@pytest.mark.parametrize(
    "flags",
    [["--rho"], ["--lam"], ["--lam", "abc"], ["--time-limit", "0"], ["--lam", "-5", "--rho", "1000"],
     ["--rho", "-1"], ["--rho", "nan"]],
)
def test_bad_run_flags_exit_64(flags, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_global ran with bad run flags")

    monkeypatch.setattr(cli, "solve_global", no_solve)
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", ILLUSTRATIVE, *flags])
    assert err.value.code == 64
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("command", [["solve", ILLUSTRATIVE], ["bench", "qsigmoid"]])
def test_negative_seed_exits_64(command, monkeypatch, capsys):
    # bench qsigmoid seeds its generator with --seed too, so the flag is checked first
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_global ran with a negative seed")

    monkeypatch.setattr(cli, "solve_global", no_solve)
    with pytest.raises(SystemExit) as err:
        cli.main([*command, "--seed", "-1"])
    assert err.value.code == 64
    assert capsys.readouterr().err.count("\n") == 1


def _flag(name, values):
    """``--name=value`` keeps argparse from reading a value such as -inf as a flag."""
    return values.map(lambda v: f"--{name}={v}")


_REJECTED_FLAGS = st.one_of(
    _flag("seed", st.integers(max_value=-1)),
    _flag("rho", st.sampled_from(["inf", "-inf", "nan"]) | st.floats(max_value=-1e-300)),
    _flag("lam", st.sampled_from(["inf", "nan"]) | st.floats(max_value=0.0, allow_nan=False)),
    _flag("time-limit", st.just("nan") | st.floats(max_value=0.0, allow_nan=False)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from([["solve", ILLUSTRATIVE], ["bench", "qsigmoid"], ["bench", "illustrative"]]),
       flag=_REJECTED_FLAGS)
def test_hostile_run_flags_exit_64_before_any_solve(command, flag, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError(f"solve_global ran with {flag}")

    monkeypatch.setattr(cli, "solve_global", no_solve)
    with pytest.raises(SystemExit) as err:
        cli.main([*command, flag])
    assert err.value.code == 64
    assert capsys.readouterr().err.count("\n") == 1


@given(st.floats(max_value=-1e-300) | st.floats(min_value=1.0) | st.just(math.nan))
def test_momentum_outside_the_unit_interval_is_rejected(momentum):
    with pytest.raises(ValueError, match="momentum"):
        driver.RunConfig(momentum=momentum)


def test_no_flags_set_the_enhancement_fields():
    def config(*flags):
        return cli._config_from_args(cli.build_parser().parse_args(["solve", "p.prob", *flags]))

    default = config()
    assert default.adaptive_rounds > 0 and default.momentum > 0
    # each flag leaves the other enhancements' fields alone
    assert config("--no-oct-sampling") == replace(default, adaptive_rounds=0)
    assert config("--no-robust") == replace(default, rho_grid=(0.0,))
    assert config("--no-robust", "--rho", "0.1", "1").rho_grid == (0.0,)
    assert config("--no-relax") == replace(default, lambda_grid=(None,))
    assert config("--no-momentum") == replace(default, momentum=0.0)


def test_run_settings_surface():
    # every setting a caller can vary; the rest are module constants
    assert [f.name for f in fields(driver.RunConfig)] == [
        "adaptive_rounds", "momentum", "rho_grid", "lambda_grid", "norm_p", "time_limit", "seed",
        "solver",
    ]
    assert (S.N_LH, S.COMMITTEE_SIZE, S.DISCORDANCE, S.HR_PER_POLY, S.HR_BURN_IN) == (300, 5, 0.5, 10, 20)
    assert refine.ITERATIONS == 30
    args = cli.build_parser().parse_args(["solve", "p.prob"])
    assert cli._config_from_args(args) == driver.RunConfig()


def test_export_lp_writes_the_first_model_solve_global_encodes(tmp_path, monkeypatch):
    models = []

    def capture(*args, **kwargs):
        models.append(assemble(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(driver, "assemble", capture)
    driver.solve_global(load_problem(ILLUSTRATIVE), driver.RunConfig(seed=1))
    monkeypatch.undo()

    out, first = tmp_path / "model.lp", tmp_path / "first.lp"
    assert cli.main(["export-lp", ILLUSTRATIVE, str(out), "--seed", "1"]) == 0
    milp.export_lp_file(models[0], str(first))
    assert out.read_bytes() == first.read_bytes()


def _problem_file(tmp_path, variables, constraints, objective=None):
    objective = objective or {"linear": [1.0] * len(variables)}
    doc = {"schema": 1, "name": "cli-case", "variables": variables,
           "objective": objective, "constraints": constraints}
    path = tmp_path / "case.prob"
    path.write_text(json.dumps(doc))
    return str(path)


def test_rows_that_empty_a_box_exit_2(tmp_path, capsys):
    path = _problem_file(
        tmp_path,
        [{"name": "x", "lower": 0, "upper": 1}, {"name": "y", "lower": 0, "upper": 1}],
        [{"name": "far", "expression": "x - 2", "sense": ">=0"},
         {"name": "g", "expression": "y - ln(x + 1)", "sense": "<=0"}],
    )
    assert cli.main(["solve", path]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_unbounded_nonlinear_variable_exits_64(tmp_path, capsys):
    path = _problem_file(
        tmp_path,
        [{"name": "x"}, {"name": "y", "lower": 0, "upper": 1}],
        [{"name": "g", "expression": "y - ln(x*x + 1)", "sense": "<=0"}],
    )
    assert cli.main(["solve", path]) == 64
    assert capsys.readouterr().err.count("\n") == 1


def test_equality_that_fails_everywhere_exits_2(tmp_path, capsys):
    # ln is undefined on the whole box, as for its "<=0" twin
    path = _problem_file(
        tmp_path,
        [{"name": "x", "lower": 0, "upper": 1}, {"name": "y", "lower": -0.5, "upper": -0.3}],
        [{"name": "h", "expression": "ln(y)", "sense": "=0"}],
    )
    assert cli.main(["solve", path]) == 2


@pytest.mark.parametrize("name, constraint, objective", [
    ("objective", "y - x", {"expression": "ln(-1 - x*y)"}),
    # sqrt(x) is finite only where x = 0, too few points to train on
    ("h", "sqrt(x) - y", None),
])
def test_untrainable_dataset_exits_64_naming_it(name, constraint, objective, tmp_path, capsys):
    path = _problem_file(
        tmp_path,
        [{"name": "x", "lower": -1, "upper": 0}, {"name": "y", "lower": 0, "upper": 1}],
        [{"name": "h", "expression": constraint, "sense": "=0"}],
        objective,
    )
    assert cli.main(["solve", path]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"for {name}:" in err


@pytest.mark.parametrize("flags", [["--n", "0"], ["--m", "0"]])
def test_empty_qsigmoid_exits_64(flags, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["bench", "qsigmoid", *flags])
    assert err.value.code == 64


_NAMES = ("x", "y")


@st.composite
def _expressions(draw, depth=3):
    """Expression text over x and y; ln, sqrt and division can leave their domains."""
    if depth == 0 or (depth < 3 and draw(st.booleans())):
        return draw(st.sampled_from(_NAMES + ("0.5", "2", "-1")))
    if draw(st.booleans()):
        fn = draw(st.sampled_from(["ln", "sqrt", "sin", "abs"]))
        return f"{fn}({draw(_expressions(depth - 1))})"
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    return f"({draw(_expressions(depth - 1))}){op}({draw(_expressions(depth - 1))})"


@st.composite
def _problems(draw):
    variables = []
    for name in _NAMES:
        lower = draw(st.sampled_from([-2.0, -0.5, 0.0, 0.3]))
        # a negative width makes the box empty
        width = draw(st.sampled_from([-0.5, 0.0, 0.2, 1.0, 1.0, 3.0, 3.0, 3.0]))
        variables.append({"name": name, "lower": lower, "upper": lower + width})
    constraints = [
        {"name": f"g{i}", "expression": draw(_expressions()),
         "sense": draw(st.sampled_from(["<=0", ">=0", "=0"]))}
        for i in range(draw(st.integers(1, 2)))
    ]
    objective = draw(st.one_of(
        st.builds(lambda e: {"expression": e}, _expressions()),
        st.just({"linear": [1.0, -1.0]}),
    ))
    doc = {"schema": 1, "name": "hostile", "variables": variables,
           "objective": objective, "constraints": constraints}
    return doc, draw(st.sampled_from(["0.01", "0.5", "5"]))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_problems())
def test_solve_exits_with_a_documented_code_on_hostile_problems(case):
    doc, time_limit = case
    with tempfile.TemporaryDirectory() as tmp:
        path, report_path = os.path.join(tmp, "case.prob"), os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = ["solve", path, "--time-limit", time_limit, "--report", report_path,
                "--no-oct-sampling", "--no-robust", "--no-relax"]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2, 3, 64)
        if not os.path.exists(report_path):
            return
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    if report["status"] != "ok":
        return
    # an ok point must hold up under the plain expression evaluator
    x = np.array(report["x"])
    names = {name: i for i, name in enumerate(_NAMES)}
    for v, spec in zip(x, doc["variables"]):
        assert spec["lower"] - 1e-6 <= v <= spec["upper"] + 1e-6
    for con in doc["constraints"]:
        value = eval_expr(parse_expr(con["expression"], names), x)
        slack = {"<=0": value, ">=0": -value, "=0": abs(value)}[con["sense"]]
        assert slack <= 1e-6
