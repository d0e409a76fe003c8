"""Correctness checks made apart from the program.

Every constraint and objective is written out again here in plain numpy,
from the problem statements, so a result is judged without any of the
program's own evaluation code. The reference optima live in
``references.json``; ``references.py`` rebuilds them.

This module imports numpy only, so the benchmark never needs scipy.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

FEAS_TOL = 1e-6
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

ILLUSTRATIVE_LO = np.array([0.51, 0.3])
ILLUSTRATIVE_HI = np.array([1.5, 1.6])
ILLUSTRATIVE_OBJ_TOL = 1e-3

SPEED_REDUCER_LO = np.array([2.6, 0.7, 17.0, 7.3, 7.3, 2.9, 5.0])
SPEED_REDUCER_HI = np.array([3.6, 0.8, 28.0, 8.3, 8.3, 3.9, 5.5])
SPEED_REDUCER_OBJ_REL_TOL = 0.005

QSIGMOID = {"n": 10, "m": 2, "seed": 2024}
QSIGMOID_OBJ_REL_TOL = 0.05


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Problem statements in plain numpy; every constraint in "value <= 0" form
# ---------------------------------------------------------------------------

def illustrative_constraints(x) -> np.ndarray:
    x1, x2 = x
    return np.array([
        -0.43 * math.log(x1 - 0.5) - 1.1 - x1 + x2,
        -x2 + 0.33 * math.log(x1 - 0.4) + 1.2 - 0.2 * x1,
        -(-x2 + 1.1 * x1 + 0.3),
        -(-x2 - 1.5 * x1 + 2.6),
    ])


def illustrative_objective(x) -> float:
    return -float(x[0])


def speed_reducer_objective(x) -> float:
    x1, x2, x3, x4, x5, x6, x7 = x
    return float(
        0.7854 * x1 * x2**2 * (3.3333 * x3**2 + 14.9334 * x3 - 43.0934)
        - 1.5079 * x1 * (x6**2 + x7**2)
        + 7.477 * (x6**3 + x7**3)
        + 0.7854 * (x4 * x6**2 + x5 * x7**2)
    )


def speed_reducer_constraints(x) -> np.ndarray:
    """The eleven gearbox constraints, each as ``-(g) <= 0`` for ``g >= 0``."""
    x1, x2, x3, x4, x5, x6, x7 = x
    g = np.array([
        -27 + x1 * x2**2 * x3,
        -397.5 + x1 * x2**2 * x3**2,
        -1.93 + x2 * x6**4 * x3 / x4**3,
        -1.93 + x2 * x7**4 * x3 / x5**3,
        110.0 * x6**3 - math.sqrt((745 * x4 / (x2 * x3)) ** 2 + 16900000),
        85.0 * x7**3 - math.sqrt((745 * x5 / (x2 * x3)) ** 2 + 157500000),
        40 - x2 * x3,
        x1 - 5 * x2,
        12 * x2 - x1,
        x4 - 1.5 * x6 - 1.9,
        x5 - 1.1 * x7 - 1.9,
    ])
    return -g


def qsigmoid_instance(n: int, m: int, seed: int):
    """Objective coefficients and constraint data of the random
    quadratic-sigmoid family: linear objective c @ x on [-2, 2]^n; the first
    floor(m/2) constraints read sigmoid(q(x)) - 1/2 <= 0, the rest
    -1/2 - q(x) * sigmoid(q(x)) <= 0, with q(x) = x'Ax + d'x + f0 and the
    upper triangle of A drawn uniform on (-1, 1) / n.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=n)
    quads = []
    for _ in range(m):
        upper = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)) / n)
        A = upper + np.triu(upper, 1).T
        d = rng.uniform(-1.0, 1.0, size=n)
        f0 = float(rng.uniform(-1.0, 1.0))
        quads.append((A, d, f0))
    return c, quads


def qsigmoid_constraints(x, quads) -> np.ndarray:
    m = len(quads)
    out = []
    for i, (A, d, f0) in enumerate(quads):
        q = float(x @ A @ x + d @ x + f0)
        s = 1.0 / (1.0 + math.exp(-q))
        out.append(s - 0.5 if i < m // 2 else -0.5 - q * s)
    return np.array(out)


# ---------------------------------------------------------------------------
# Per-result checks: each returns a list of failure messages (empty = pass)
# ---------------------------------------------------------------------------

def _common(report, n_vars: int, lo, hi) -> list:
    problems = []
    if report.status != "ok":
        problems.append(f"status {report.status!r}")
    if report.x is None or report.objective is None:
        problems.append("no point reported")
        return problems
    x = np.asarray(report.x, dtype=float)
    if x.shape != (n_vars,) or not np.all(np.isfinite(x)):
        problems.append(f"bad point {x!r}")
        return problems
    box = float(np.max(np.maximum(lo - x, x - hi)))
    if box > FEAS_TOL:
        problems.append(f"box violated by {box:.3g}")
    trained = sum(1 for f in report.families.values() if f["family"] in ("svm", "tree", "gbm", "mlp"))
    if report.training_runs != trained:
        problems.append(f"training_runs {report.training_runs} != {trained} trained surrogates")
    return problems


def _feasible(values, what: str) -> list:
    worst = float(np.max(values))
    return [] if worst <= FEAS_TOL else [f"{what} violated by {worst:.3g}"]


def _objective_matches(report, value: float) -> list:
    if abs(report.objective - value) > FEAS_TOL * max(1.0, abs(value)):
        return [f"reported objective {report.objective!r} != recomputed {value!r}"]
    return []


def check_illustrative(report, problem, refs: dict) -> list:
    problems = _common(report, 2, ILLUSTRATIVE_LO, ILLUSTRATIVE_HI)
    if problems:
        return problems
    x = np.asarray(report.x, dtype=float)
    value = illustrative_objective(x)
    problems += _feasible(illustrative_constraints(x), "g1-g4")
    problems += _objective_matches(report, value)
    best = refs["illustrative"]["objective"]
    if abs(value - best) > ILLUSTRATIVE_OBJ_TOL:
        problems.append(f"objective {value:.6f} not within {ILLUSTRATIVE_OBJ_TOL} of {best:.6f}")
    return problems


def check_speed_reducer(report, problem, refs: dict) -> list:
    problems = _common(report, 7, SPEED_REDUCER_LO, SPEED_REDUCER_HI)
    if problems:
        return problems
    x = np.asarray(report.x, dtype=float)
    if x[2] != round(x[2]):
        problems.append(f"x3 = {x[2]!r} is not an integer")
    value = speed_reducer_objective(x)
    problems += _feasible(speed_reducer_constraints(x), "g1-g11")
    problems += _objective_matches(report, value)
    best = refs["speed-reducer"]["objective"]
    if abs(value - best) > SPEED_REDUCER_OBJ_REL_TOL * abs(best):
        problems.append(f"objective {value:.4f} not within 0.5% of {best:.4f}")
    return problems


def check_qsigmoid(report, problem, refs: dict) -> list:
    n = QSIGMOID["n"]
    c, quads = qsigmoid_instance(**QSIGMOID)
    if not np.array_equal(problem.objective.coeffs, c):
        return ["generated instance differs from the one the reference describes"]
    problems = _common(report, n, np.full(n, -2.0), np.full(n, 2.0))
    if problems:
        return problems
    x = np.asarray(report.x, dtype=float)
    value = float(c @ x)
    problems += _feasible(qsigmoid_constraints(x, quads), "q0-q1")
    problems += _objective_matches(report, value)
    best = refs["qsigmoid"]["objective"]
    if abs(value - best) > QSIGMOID_OBJ_REL_TOL * abs(best):
        problems.append(f"objective {value:.4f} not within 5% of {best:.4f}")
    return problems


CHECKS = {
    "illustrative": check_illustrative,
    "speed-reducer": check_speed_reducer,
    "qsigmoid": check_qsigmoid,
}
