"""Benchmark: solve_global on three workloads, timed and counted from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every round of the workload runs in a fresh
single-threaded worker process (``worker.py``); rounds repeat until
``--seconds`` have passed, and at least one always runs. With ``--trace 0``
the last line of output is the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced rounds, each traced round paired with an
untraced one whose results must match it bit for bit. The run record and
the spans of traced rounds go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS
from worker import SOLVE_SEEDS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9       # set-up is timed in at least this many fresh processes
RUN_LIMIT_S = 170.0     # a run must end well within three minutes

# the program is single-threaded; keep numpy's BLAS that way too
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class WorkerFailed(RuntimeError):
    pass


def worker(started: float, *args: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    if remaining <= 0:
        raise WorkerFailed("no time left for another worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {' '.join(args)} passed the run limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def round_totals(result: dict) -> tuple:
    ops = result["ops"]
    return sum(op["seconds"] for op in ops), sum(op.get("evaluations", 0) for op in ops)


def failures(results: list) -> list:
    out = []
    for r in results:
        for op in r["ops"]:
            why = op.get("error") or "; ".join(op.get("problems", []))
            if why:
                out.append(f"solve seed {op['solve_seed']}: {why}")
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, started: float, record: dict) -> tuple:
    rounds = []
    while not rounds or time.perf_counter() - started < args.seconds:
        rounds.append(worker(started, "--workload", args.workload, "--seed", str(args.seed)))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(started, "--workload", args.workload, "--setup-only")["setup_s"])
    totals = [round_totals(r) for r in rounds]
    record.update(rounds=rounds, setup_s=setups)
    metrics = {
        "wall_s": metric(statistics.median(t[0] for t in totals), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "evaluations": metric(statistics.median(t[1] for t in totals), "count"),
    }
    return rounds, [], metrics


def per_layer(args, started: float, record: dict) -> tuple:
    plain, traced, problems = [], [], []
    while not traced or time.perf_counter() - started < args.seconds:
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}-{len(traced)}.json")
        base = ("--workload", args.workload, "--seed", str(args.seed))
        plain.append(worker(started, *base))
        traced.append(worker(started, *base, "--trace", "--spans", spans))
        untraced_ops = {op["solve_seed"]: op for op in plain[-1]["ops"]}
        for op in traced[-1]["ops"]:
            twin = untraced_ops[op["solve_seed"]]
            if (op.get("x"), op.get("objective")) != (twin.get("x"), twin.get("objective")):
                problems.append(f"solve seed {op['solve_seed']}: traced result differs from untraced")
        problems += traced[-1]["self_tests"]
    record.update(untraced=plain, traced=traced)
    metrics = {
        name: metric(statistics.median(r["layers"][name] for r in traced), unit)
        for name, unit in LAYER_METRICS
    }
    overhead = statistics.median(round_totals(r)[0] for r in traced) / statistics.median(
        round_totals(r)[0] for r in plain
    )
    metrics["trace.overhead"] = metric(overhead, "ratio")
    return plain + traced, problems, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SOLVE_SEEDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "surropt", "__init__.py")):
        print("bench: src/surropt not found; run from a checkout of the repository", file=sys.stderr)
        return 2

    started = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        measure = per_layer if args.trace else end_to_end
        rounds, problems, metrics = measure(args, started, record)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    failed = failures(rounds)
    for line in failed + problems:
        print(f"bench: FAIL {line}", file=sys.stderr)
    result = {
        "correct": not failed and not problems,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": len(failed),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(record, result=result), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
