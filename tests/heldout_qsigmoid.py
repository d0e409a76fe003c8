"""Held-out quadratic-sigmoid check for changes that move training results.

Solves 36 generated instances (n, m, instance seed) at solve seed 0 with the
default ``RunConfig`` and writes, per instance, the objective, the status,
the solution's bytes in hex, the winning family and validation score of
every constraint, and the seconds taken:

    python tests/heldout_qsigmoid.py --out before.json    # on the old code
    python tests/heldout_qsigmoid.py --against before.json

``--against FILE`` also prints each instance's relative objective change
against FILE (negative is better, as the objective is minimized) and exits
1 if any instance ends with a status other than ``ok`` or with an objective
worse than FILE's by more than ``--tol`` relative (default 1e-3).
"""

import argparse
import json
import sys
import time

sys.path.insert(0, "src")

from surropt.benchmarks import generate_quadratic_sigmoid  # noqa: E402
from surropt.driver import RunConfig, solve_global  # noqa: E402

INSTANCES = [
    (6, 2, 12), (6, 2, 28), (7, 2, 25), (5, 2, 22), (6, 3, 13), (9, 2, 56),
    (10, 2, 2024), (8, 2, 5), (9, 2, 7), (10, 2, 11), (7, 3, 3), (8, 3, 9),
    (10, 3, 4), (6, 2, 40), (9, 3, 21), (10, 2, 77),
] + [(n, m, s) for n in (5, 7, 8, 9, 10) for m in (2, 3) for s in (101, 202)]


def solve_all():
    results = {}
    for n, m, s in INSTANCES:
        t0 = time.monotonic()
        report = solve_global(generate_quadratic_sigmoid(n, m, seed=s), RunConfig(seed=0))
        seconds = time.monotonic() - t0
        results[f"{n},{m},{s}"] = {
            "objective": report.objective,
            "status": report.status,
            "x": None if report.x is None else report.x.tobytes().hex(),
            "families": report.to_dict()["families"],
            "seconds": round(seconds, 4),
        }
        print(f"({n},{m},{s}) {report.status} {report.objective!r} {seconds:.2f}s", file=sys.stderr)
    return results


def compare(results, reference, tol):
    """Print each instance's relative change; return the failing instances."""
    failed = []
    for key, got in results.items():
        if got["status"] != "ok":
            print(f"({key}) status {got['status']}")
            failed.append(key)
            continue
        want = reference.get(key)
        line = f"({key}) {got['objective']:.6f}"
        if want is not None and want["objective"] is not None:
            change = (got["objective"] - want["objective"]) / max(abs(want["objective"]), 1e-12)
            line += f" change {change:+.2e}" + (" same x" if got["x"] == want["x"] else "")
            if change > tol:
                line += " worse"
                failed.append(key)
        print(line)
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the results as JSON to this file (default: stdout)")
    parser.add_argument("--against", help="results JSON of an earlier run to compare with")
    parser.add_argument("--tol", type=float, default=1e-3, help="allowed relative worsening")
    args = parser.parse_args(argv)
    results = solve_all()
    text = json.dumps(results, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    elif not args.against:
        print(text)
    if args.against:
        with open(args.against) as fh:
            reference = json.load(fh)
        failed = compare(results, reference, args.tol)
        total = sum(r["seconds"] for r in results.values())
        print(f"{len(results) - len(failed)}/{len(results)} pass; {total:.1f} s in all")
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
