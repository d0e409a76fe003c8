"""One round of a workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--spans PATH]
    python3 bench/worker.py --workload NAME --setup-only

A round is every ``solve_global`` call of the workload, in an order drawn
from ``--seed``. Each call is timed, its evaluator calls are counted by a
wrapper placed on every callable of the Problem, and its result is checked
by ``checks.py``. ``--trace`` also installs the layer wrappers of
``tracing.py``. ``run.py`` starts this script; it is not meant to be run by
hand except to debug one round.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# solve seeds of each workload's operations; the instances are fixed so that
# the reference optima in references.json apply
SOLVE_SEEDS = {
    "illustrative": list(range(10)),
    "speed-reducer": [3],
    "qsigmoid": [0],
}


def build_problem(workload: str):
    from surropt import benchmarks, generate_quadratic_sigmoid

    if workload == "illustrative":
        return benchmarks.illustrative_problem()
    if workload == "speed-reducer":
        return benchmarks.speed_reducer_problem()
    return generate_quadratic_sigmoid(10, 2, seed=2024)


def counted_problem(problem, counter: list, tracer):
    """The same problem with every evaluator wrapped by a call counter."""
    from dataclasses import replace

    from surropt.model import NonlinearObjective

    def wrap(fn, key):
        def evaluator(x):
            counter[0] += 1
            if tracer is not None:
                tracer.on_evaluation(key, x)
            return fn(x)
        return evaluator

    nonlinear = tuple(
        replace(con, evaluator=wrap(con.evaluator, i)) for i, con in enumerate(problem.nonlinear)
    )
    objective = problem.objective
    if isinstance(objective, NonlinearObjective):
        objective = replace(objective, evaluator=wrap(objective.evaluator, "objective"))
    return replace(problem, nonlinear=nonlinear, objective=objective)


def run_round(workload: str, seed: int, problem, trace: bool, spans_path):
    import surropt

    import checks
    from tracing import Tracer

    refs = checks.load_references()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    counter = [0]
    solvable = counted_problem(problem, counter, tracer)
    seeds = list(SOLVE_SEEDS[workload])
    random.Random(seed).shuffle(seeds)

    ops, reports = [], []
    for s in seeds:
        if tracer is not None:
            tracer.start_solve()
        before = counter[0]
        op = {"solve_seed": s}
        tick = time.perf_counter()
        try:
            report = surropt.solve_global(solvable, surropt.RunConfig(seed=s))
        except Exception as exc:  # one failed operation; the round goes on
            op.update(seconds=time.perf_counter() - tick, error=f"{type(exc).__name__}: {exc}")
            ops.append(op)
            continue
        op["seconds"] = time.perf_counter() - tick
        op["evaluations"] = counter[0] - before
        op["problems"] = checks.CHECKS[workload](report, problem, refs)
        op["x"] = report.x.tobytes().hex() if report.x is not None else None
        op["objective"] = float(report.objective).hex() if report.objective is not None else None
        ops.append(op)
        reports.append(report)

    out = {"ops": ops}
    if tracer is not None:
        metrics = tracer.metrics(reports)
        out["layers"] = metrics
        out["self_tests"] = tracer.self_tests(metrics, counter[0])
        if spans_path:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SOLVE_SEEDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    tick = time.perf_counter()
    import surropt  # noqa: F401  (import time is part of set-up)

    problem = build_problem(args.workload)
    out = {"setup_s": time.perf_counter() - tick}
    if not args.setup_only:
        out.update(run_round(args.workload, args.seed, problem, args.trace, args.spans))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
