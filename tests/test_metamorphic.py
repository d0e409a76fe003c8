"""Metamorphic relations on the bundled problems.

Listing the variables in another order permutes the known optimum and
nothing else, so a run on the permuted problem must still meet criteria 1
and 3 at the permuted point (Chen, Cheung & Yiu, HKUST-CS98-01, 1998;
Segura et al., *IEEE TSE*, 2016). The rows and expressions refer to the
variables by name, so loading re-indexes them. The permutation moves every
support's columns and the linear rows over them, which guards the sampler's
choice of support rows against index-order bugs.
"""

import copy
import time

import numpy as np
import pytest

from surropt.benchmarks import ILLUSTRATIVE_DOC, SPEED_REDUCER_DOC
from surropt.driver import RunConfig, solve_global
from surropt.expr import load_problem
from surropt.model import standardize


def _permuted(doc, order):
    """The problem of ``doc`` with its variables listed in ``order``: new
    variable i is old variable ``order[i]``."""
    doc = copy.deepcopy(doc)
    doc["variables"] = [doc["variables"][j] for j in order]
    return load_problem(doc)


def test_criterion_1_holds_with_the_variables_swapped():
    problem = _permuted(ILLUSTRATIVE_DOC, [1, 0])
    good, slow = 0, 0.0
    for seed in range(10):
        t0 = time.monotonic()
        report = solve_global(problem, RunConfig(seed=seed, time_limit=60))
        slow = max(slow, time.monotonic() - t0)
        if report.status != "ok":
            continue
        x2, x1 = report.x
        if abs(report.objective - (-1.1497)) <= 1e-3 and abs(x1 - 1.1497) <= 1e-2 \
                and abs(x2 - 0.875) <= 1e-2:
            good += 1
    assert good >= 8 and slow < 60.0, f"{good}/10 seeds at the optimum, slowest {slow:.1f}s"


@pytest.mark.parametrize("order", [[6, 5, 4, 3, 2, 1, 0], [2, 5, 0, 6, 3, 1, 4]])
def test_criterion_3_holds_with_the_variables_permuted(order):
    problem = _permuted(SPEED_REDUCER_DOC, order)
    t0 = time.monotonic()
    report = solve_global(problem, RunConfig(seed=3, time_limit=540))
    wall = time.monotonic() - t0
    assert report.status == "ok"
    sp = standardize(problem)
    x = report.x
    worst = max(con.violation(x) for con in sp.nonlinear)
    worst = max(worst, max(row.violation(x) for row in sp.linear))
    lo, hi = sp.box()
    worst = max(worst, float(np.max(np.maximum(lo - x, x - hi), initial=0.0)))
    x3 = x[order.index(2)]
    assert report.objective <= 2994.47
    assert abs(report.objective - 2994.36) / 2994.36 <= 0.005
    assert abs(x3 - round(x3)) <= 1e-9
    assert worst <= 1e-6 and wall < 600.0
