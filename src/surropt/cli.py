"""Command-line interface.

Exit codes: 0 solved with a feasible point, 2 infeasible (the linear rows
or the approximation admit no point, or no cell's point is feasible), 3 time
limit, 64 usage or input errors (an unbounded nonlinear variable included),
or a MILP solver that failed with no cell solved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import benchmarks, expr, milp
from .driver import RunConfig, sample, solve_global, train
from .encoder import assemble
from .errors import InfeasibleApproximation, InfeasibleProblem, SurroptError
from .model import standardize

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="surropt", description="Surrogate-driven global optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("file")
    _add_run_flags(solve)

    bench = sub.add_parser("bench", help="run a built-in benchmark")
    bench.add_argument("name", choices=["illustrative", "speed-reducer", "qsigmoid"])
    bench.add_argument("--n", type=_positive_int, default=10, help="qsigmoid dimension")
    bench.add_argument("--m", type=_positive_int, default=2, help="qsigmoid constraint count")
    _add_run_flags(bench)

    export = sub.add_parser("export-lp", help="write the approximation model as an LP file")
    export.add_argument("file")
    export.add_argument("out")
    _add_run_flags(export)
    return parser


def _add_run_flags(p) -> None:
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--time-limit", type=float, default=RunConfig.time_limit)
    p.add_argument("--rho", type=float, nargs="*", default=None, help="robustness grid")
    p.add_argument("--lam", "--lambda", dest="lam", nargs="*", default=None,
                   help="relaxation penalties; 'none' = unrelaxed cell")
    p.add_argument("--norm-p", choices=["1", "inf"], default="1")
    p.add_argument("--no-oct-sampling", action="store_true", help="no adaptive sampling rounds")
    p.add_argument("--no-robust", action="store_true", help="rho grid (0,); overrides --rho")
    p.add_argument("--no-relax", action="store_true", help="lambda grid (none,)")
    p.add_argument("--no-momentum", action="store_true", help="PGD momentum 0")
    p.add_argument("--solver", choices=["builtin", "external"], default="builtin")
    p.add_argument("--report", help="write the run report as JSON to this path")


def _config_from_args(args) -> RunConfig:
    kwargs = {
        "seed": args.seed,
        "time_limit": args.time_limit,
        "norm_p": 1.0 if args.norm_p == "1" else float("inf"),
        "solver": args.solver,
    }
    if args.rho is not None:
        kwargs["rho_grid"] = tuple(args.rho)
    try:
        if args.lam is not None:
            lam = tuple(None if str(v).lower() == "none" else float(v) for v in args.lam)
            kwargs["lambda_grid"] = lam
        # each --no-* flag pins the field that turns its enhancement off
        if args.no_oct_sampling:
            kwargs["adaptive_rounds"] = 0
        if args.no_robust:
            kwargs["rho_grid"] = (0.0,)
        if args.no_relax:
            kwargs["lambda_grid"] = (None,)
        if args.no_momentum:
            kwargs["momentum"] = 0.0
        return RunConfig(**kwargs)
    except ValueError as exc:
        sys.stderr.write(f"surropt: bad run flags: {exc}\n")
        sys.exit(EXIT_USAGE)


def _load(path: str):
    try:
        return expr.load_problem(path)
    except FileNotFoundError:
        sys.stderr.write(f"surropt: problem file not found: {path}\n")
        sys.exit(EXIT_USAGE)
    except OSError as exc:  # a directory, no permission, ...
        sys.stderr.write(f"surropt: cannot read {path}: {exc.strerror or exc}\n")
        sys.exit(EXIT_USAGE)
    except SurroptError as exc:
        sys.stderr.write(f"surropt: cannot load {path}: {exc}\n")
        sys.exit(EXIT_USAGE)


def _emit(report, path) -> None:
    doc = report.to_dict()
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    print(f"problem:    {doc['problem']}")
    print(f"status:     {doc['status']}")
    if report.objective is not None:
        print(f"objective:  {report.objective:.6f}")
        print(f"x:          {np.array2string(report.x, precision=6)}")
        print(f"winner:     rho={report.winner[0]}, lambda={report.winner[1]}")
        worst = max(report.violations, default=0.0)
        print(f"violation:  {worst:.3e}")
    for name, info in report.families.items():
        print(f"model[{name}]: {info['family']} (score {info['score']:.4f})")
    times = ", ".join(f"{k}={v:.2f}s" for k, v in doc["phase_seconds"].items())
    print(f"phases:     {times}")
    print(f"total:      {doc['total_seconds']:.2f}s")


def _run_and_exit(problem, cfg, report_path) -> int:
    report = solve_global(problem, cfg)
    _emit(report, report_path)
    if report.status == "time_limit":
        return EXIT_TIME_LIMIT
    if report.status == "no_feasible_cell":
        return EXIT_INFEASIBLE
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    solves = args.command != "export-lp"
    if solves and args.solver == "external" and not os.environ.get(milp.EXTERNAL_SOLVER_ENV):
        sys.stderr.write(f"surropt: --solver external needs {milp.EXTERNAL_SOLVER_ENV} set\n")
        return EXIT_USAGE
    try:
        if args.command == "solve":
            return _run_and_exit(_load(args.file), cfg, args.report)
        if args.command == "bench":
            if args.name == "illustrative":
                problem = benchmarks.illustrative_problem()
            elif args.name == "speed-reducer":
                problem = benchmarks.speed_reducer_problem()
            else:
                problem = benchmarks.generate_quadratic_sigmoid(args.n, args.m, seed=args.seed)
            return _run_and_exit(problem, cfg, args.report)
        sp = standardize(_load(args.file))
        # the model solve_global encodes first on a grid that starts at rho 0
        trained = train(sp, sample(sp, cfg), cfg)
        model = assemble(sp, trained.constraints, trained.objective)
        milp.export_lp_file(model, args.out)
        print(f"wrote {model.n_vars} variables, {model.n_rows} rows to {args.out}")
        return EXIT_OK
    except (InfeasibleProblem, InfeasibleApproximation) as exc:
        sys.stderr.write(f"surropt: {exc}\n")
        return EXIT_INFEASIBLE
    except SurroptError as exc:  # an unbounded variable, a failed MILP solver, ...
        sys.stderr.write(f"surropt: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
