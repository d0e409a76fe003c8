"""Guard for the benchmark's tracer, which wraps program names by getattr.

``bench/tracing.py`` replaces functions at the names the program looks up
(``driver._sample_constraint``, ``driver.assemble``, ``milp.models_equal``
and more). A refactor that renames one of them would otherwise only break
the traced benchmark, silently. The solve also runs through the benchmark's
evaluator counter, so a sampling stage that evaluates a point twice fails
here too.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PRELUDE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracing import Tracer
from worker import counted_problem
from surropt import RunConfig, benchmarks, generate_quadratic_sigmoid, solve_global

tracer = Tracer()
tracer.install()
counter = [0]
"""

SCRIPT = PRELUDE + """
problem = counted_problem(generate_quadratic_sigmoid(2, 2, seed=1), counter, tracer)
cfg = RunConfig(rho_grid=(0.0,), lambda_grid=(None,), time_limit=60)
report = solve_global(problem, cfg)
metrics = tracer.metrics([report])
assert metrics["learners.surrogates"] >= 1 and metrics["sampling.polyhedra"] >= 1, metrics
assert metrics["sampling.repeat_evaluations"] == 0, metrics
assert tracer.self_tests(metrics, counter[0]) == [], tracer.self_tests(metrics, counter[0])
assert any(span[0] == "driver.sample" for span in tracer.spans), "no sampling span"
assert metrics["learners.surrogates"] == report.training_runs, metrics
assert metrics["encoder.models"] >= 1 and metrics["refine.pgd_calls"] >= 1, metrics
"""


# On the default grid the rho=1 models of illustrative seed 0 are proved
# infeasible by bound propagation, with no LP; the tracer's count of LP
# solves must still add up.
GRID_SCRIPT = PRELUDE + """
problem = counted_problem(benchmarks.illustrative_problem(), counter, tracer)
report = solve_global(problem, RunConfig(seed=0))
metrics = tracer.metrics([report])
assert any(c.status == "infeasible" and c.nodes == 0 for c in report.cells), report.cells
assert tracer.self_tests(metrics, counter[0]) == [], tracer.self_tests(metrics, counter[0])
assert metrics["driver.milp_cache_hits"] >= 0, metrics
"""


def _run(script):
    code = script.format(bench=os.path.join(ROOT, "bench"), src=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_installs_and_sees_every_layer():
    _run(SCRIPT)


def test_bench_tracer_counts_add_up_on_the_default_grid():
    _run(GRID_SCRIPT)
