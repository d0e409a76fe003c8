"""Spans and counts recorded from outside the program.

``Tracer.install`` replaces the public functions of each layer with
wrappers, at the name the caller looks up. ``driver`` binds ``assemble``,
``select_surrogate``, ``train_tree``, ``pgd_improve`` and ``standardize``
with from-imports, so wrappers for those go on ``driver``'s own binding; a
wrapper on the defining module would never see the driver's calls
(``standardize`` is not wrapped: the report's phase times cover it). Calls
the program makes through a module attribute (``milp.solve_lp``,
``sampling.hit_and_run``) are wrapped on that module, which catches every
caller. ``driver.train_tree`` is only the sampling committee's trainer;
the learners' own trees go through ``learners.train_tree``.

Spans (name, start, end, parent) stay in memory until the run ends; the
per-layer metrics are computed from them and from the counts.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("driver.milp_cache_hits", "count"),
    ("driver.refine_cache_hits", "count"),
    ("phase.standardize_s", "s"),
    ("phase.sampling_s", "s"),
    ("phase.training_s", "s"),
    ("phase.encoding_s", "s"),
    ("phase.solving_s", "s"),
    ("phase.refining_s", "s"),
    ("sampling.samples", "count"),
    ("sampling.evaluations", "count"),
    ("sampling.repeat_evaluations", "count"),
    ("sampling.knn_s", "s"),
    ("sampling.adaptive_s", "s"),
    ("sampling.committee_trees", "count"),
    ("sampling.committee_s", "s"),
    ("sampling.chebyshev_lps", "count"),
    ("sampling.chebyshev_s", "s"),
    ("sampling.hit_and_run_chains", "count"),
    ("sampling.hit_and_run_s", "s"),
    ("sampling.polyhedra", "count"),
    ("sampling.polyhedron_yield", "ratio"),
    ("learners.surrogates", "count"),
    ("learners.select_s", "s"),
    ("learners.svm_s", "s"),
    ("learners.tree_s", "s"),
    ("learners.gbm_s", "s"),
    ("learners.mlp_s", "s"),
    ("learners.predict_calls", "count"),
    ("encoder.models", "count"),
    ("encoder.assemble_s", "s"),
    ("encoder.rows", "count"),
    ("encoder.binaries", "count"),
    ("milp.milp_solves", "count"),
    ("milp.milp_s", "s"),
    ("milp.bb_nodes", "count"),
    ("milp.infeasible_milps", "count"),
    ("milp.infeasible_milp_s", "s"),
    ("milp.models_equal_s", "s"),
    ("milp.lp_solves", "count"),
    ("milp.lp_s", "s"),
    ("refine.pgd_calls", "count"),
    ("refine.pgd_s", "s"),
    ("refine.project_calls", "count"),
    ("refine.project_s", "s"),
    ("refine.evaluations", "count"),
    ("expr.grad_calls", "count"),
]

SAMPLING_SPAN = "driver.sample"
REFINE_SPAN = "refine.pgd"
_PHASES = ("standardize", "sampling", "training", "encoding", "solving", "refining")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()   # calls, sizes and hook-summed seconds
        self._stack = []
        self._open = Counter()    # open spans by name
        self._seen = set()        # (constraint, point) pairs evaluated while sampling

    # -- wrappers -----------------------------------------------------------
    def _span(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._open[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
            if after is not None:
                after(result, span[2] - span[1])
            return result

        setattr(owner, attr, traced)

    def _count(self, owner, attr, name):
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def _add(self, name, amount):
        self.counts[name] += amount

    def install(self) -> None:
        from surropt import driver, expr, learners, milp, model, refine, sampling

        add = self._add
        # sampling: the driver's per-constraint entry points scope the evaluations
        self._span(driver, "_sample_constraint", SAMPLING_SPAN)
        self._span(driver, "_sample_objective", SAMPLING_SPAN)
        for attr in ("boundary_sample", "lh_sample"):
            self._span(sampling, attr, "sampling." + attr, lambda r, _: add("sampling.samples", len(r)))
        self._span(sampling, "knn_boundary_sample", "sampling.knn",
                   lambda r, _: add("sampling.samples", len(r)))

        def adaptive_done(result, _):
            add("sampling.samples", len(result.points))
            add("sampling.polyhedra", len(result.polyhedra))

        self._span(sampling, "oct_adaptive_sample", "sampling.adaptive", adaptive_done)
        self._span(driver, "train_tree", "sampling.committee")
        self._span(sampling, "chebyshev_center", "sampling.chebyshev")
        self._span(sampling, "hit_and_run", "sampling.hit_and_run",
                   lambda r, _: add("sampling.hit_and_run_chains", 1))

        # learners: a GBM's member trees run inside its span and count to gbm
        self._span(driver, "select_surrogate", "learners.select")
        for attr, family in (("train_svc", "svm"), ("train_svr", "svm"), ("train_tree", "tree"),
                             ("train_gbm", "gbm"), ("train_mlp", "mlp")):
            self._span(learners, attr, "learners." + family)
        for cls in (learners.LinearModel, learners.ObliqueTree, learners.GbmEnsemble, learners.Mlp):
            self._count(cls, "predict_one", "learners.predict_calls")

        # encoder and MILP
        def assembled(m, _):
            add("encoder.rows", m.n_rows)
            add("encoder.binaries", sum(
                1 for j in range(m.n_vars) if m.integral[j] and m.lower[j] == 0.0 and m.upper[j] == 1.0
            ))

        self._span(driver, "assemble", "encoder.assemble", assembled)

        def milp_done(sol, seconds):
            add("milp.bb_nodes", sol.nodes)
            if sol.status == "infeasible":
                add("milp.infeasible_milps", 1)
                add("milp.infeasible_milp_s", seconds)

        self._span(milp, "solve_milp", "milp.milp", milp_done)
        self._span(milp, "models_equal", "milp.models_equal")
        self._span(milp, "solve_lp", "milp.lp")
        self._span(model, "infer_bound", "model.infer_bound")

        # refinement and expression gradients
        self._span(driver, "pgd_improve", REFINE_SPAN)
        self._span(refine, "project", "refine.project")
        self._count(expr, "grad_expr", "expr.grad_calls")

    def on_evaluation(self, constraint, x) -> None:
        """Called by the benchmark's evaluator wrapper for every evaluation."""
        if self._open[SAMPLING_SPAN]:
            self.counts["sampling.evaluations"] += 1
            key = (constraint, x.tobytes())
            if key in self._seen:
                self.counts["sampling.repeat_evaluations"] += 1
            self._seen.add(key)
        if self._open[REFINE_SPAN]:
            self.counts["refine.evaluations"] += 1

    def start_solve(self) -> None:
        """Repeats are counted within one solve: forget earlier solves' points."""
        self._seen.clear()

    # -- results ------------------------------------------------------------
    def _durations(self):
        calls, total, child = Counter(), Counter(), [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        return calls, total, child

    def metrics(self, reports) -> dict:
        """Per-layer metrics of one round; ``reports`` are its RunReports."""
        calls, total, child = self._durations()
        names = [s[0] for s in self.spans]
        adaptive_self = sum(
            s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == "sampling.adaptive"
        )

        def inside_gbm(i):
            parent = self.spans[i][3]
            while parent >= 0:
                if names[parent] == "learners.gbm":
                    return True
                parent = self.spans[parent][3]
            return False

        tree_s = sum(
            s[2] - s[1] for i, s in enumerate(self.spans)
            if s[0] == "learners.tree" and not inside_gbm(i)
        )
        c = self.counts
        out = {
            "driver.milp_cache_hits": calls["encoder.assemble"] - calls["milp.milp"],
            "driver.refine_cache_hits": sum(
                1 for r in reports for cell in r.cells if cell.status == "optimal"
            ) - calls[REFINE_SPAN],
        }
        for phase in _PHASES:
            out[f"phase.{phase}_s"] = sum(r.phase_seconds[phase] for r in reports)
        chains = c["sampling.hit_and_run_chains"]
        out.update({
            "sampling.samples": c["sampling.samples"],
            "sampling.evaluations": c["sampling.evaluations"],
            "sampling.repeat_evaluations": c["sampling.repeat_evaluations"],
            "sampling.knn_s": total["sampling.knn"],
            "sampling.adaptive_s": adaptive_self,
            "sampling.committee_trees": calls["sampling.committee"],
            "sampling.committee_s": total["sampling.committee"],
            "sampling.chebyshev_lps": calls["sampling.chebyshev"],
            "sampling.chebyshev_s": total["sampling.chebyshev"],
            "sampling.hit_and_run_chains": chains,
            "sampling.hit_and_run_s": total["sampling.hit_and_run"],
            "sampling.polyhedra": c["sampling.polyhedra"],
            "sampling.polyhedron_yield": chains / c["sampling.polyhedra"] if c["sampling.polyhedra"] else 0.0,
            "learners.surrogates": calls["learners.select"],
            "learners.select_s": total["learners.select"],
            "learners.svm_s": total["learners.svm"],
            "learners.tree_s": tree_s,
            "learners.gbm_s": total["learners.gbm"],
            "learners.mlp_s": total["learners.mlp"],
            "learners.predict_calls": c["learners.predict_calls"],
            "encoder.models": calls["encoder.assemble"],
            "encoder.assemble_s": total["encoder.assemble"],
            "encoder.rows": c["encoder.rows"],
            "encoder.binaries": c["encoder.binaries"],
            "milp.milp_solves": calls["milp.milp"],
            "milp.milp_s": total["milp.milp"],
            "milp.bb_nodes": c["milp.bb_nodes"],
            "milp.infeasible_milps": c["milp.infeasible_milps"],
            "milp.infeasible_milp_s": c["milp.infeasible_milp_s"],
            "milp.models_equal_s": total["milp.models_equal"],
            "milp.lp_solves": calls["milp.lp"],
            "milp.lp_s": total["milp.lp"],
            "refine.pgd_calls": calls[REFINE_SPAN],
            "refine.pgd_s": total[REFINE_SPAN],
            "refine.project_calls": calls["refine.project"],
            "refine.project_s": total["refine.project"],
            "refine.evaluations": c["refine.evaluations"],
            "expr.grad_calls": c["expr.grad_calls"],
        })
        return out

    def self_tests(self, metrics: dict, evaluations: int) -> list:
        """Invariants the counters must satisfy; returns failure messages."""
        problems = []
        if metrics["sampling.evaluations"] + metrics["refine.evaluations"] > evaluations:
            problems.append("sampling + refine evaluations exceed all evaluations")
        bound_lps = self._durations()[0]["model.infer_bound"]
        expected = metrics["milp.bb_nodes"] + metrics["sampling.chebyshev_lps"] + bound_lps
        if metrics["milp.lp_solves"] != expected:
            problems.append(
                f"lp_solves {metrics['milp.lp_solves']} != bb_nodes + chebyshev LPs"
                f" + bound LPs = {expected}"
            )
        for name in ("driver.milp_cache_hits", "driver.refine_cache_hits"):
            if metrics[name] < 0:
                problems.append(f"{name} is negative")
        return problems
