"""End-to-end pipeline: standardize, sample, train once, grid-solve, refine.

``sample`` and ``train`` are the front of the pipeline, shared by
``solve_global`` and by any caller that needs the trained surrogates (the
CLI's ``export-lp``, the tests). ``solve_grid`` runs the (rho, lambda) grid
on the surrogates trained up front; only the encoding and MILP solve repeat
per cell. Each rho first solves without relaxation and falls back to the
relaxed model only when that solve is infeasible. Every cell's incumbent is
refined by projected gradient descent and the best refined merit among
feasibility-passing cells wins.

The run's deadline is ``StandardProblem.deadline``, set by ``standardize``
and enforced where evaluations happen: the constraint and objective
objects' ``value`` raises ``TimeLimitReached`` instead of evaluating a new
point once it has passed. ``solve_global`` turns that into a ``time_limit``
report; refinement returns its best point with a warning. Only work that
evaluates nothing (training, the grid's cells, an adaptive round's
polyhedra) checks ``sp.deadline`` itself.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import milp, sampling
from .encoder import (
    ALWAYS_FEASIBLE,
    ALWAYS_INFEASIBLE,
    RelaxConfig,
    RobustConfig,
    assemble,
)
from .errors import DegenerateDataset, InfeasibleApproximation, SolverError, TimeLimitReached
from .expr import expr_range
from .learners import Surrogate, select_surrogate, train_tree
from .model import (
    FEASIBILITY_TOL,
    NonlinearObjective,
    Problem,
    StandardProblem,
    feasibility_labels,
    standardize,
)
from .refine import TIME_LIMIT_WARNING, MeritState, pgd_improve

FEAS_TOL = 1e-6  # largest violation of a refined point that counts as feasible


@dataclass
class RunConfig:
    """The settings a caller varies. Each enhancement turns off through its
    own field: ``adaptive_rounds=0`` (adaptive sampling), ``rho_grid=(0.0,)``
    (robustness), ``lambda_grid=(None,)`` (relaxation) and ``momentum=0.0``
    (refinement momentum, in [0, 1)). ``norm_p`` is 1 or inf, the norms the
    encoder linearizes, and ``solver`` is ``builtin`` or ``external``.
    Sample sizes, PGD iterations and tolerances are module constants, and
    learner hyperparameters are the trainers' defaults."""

    adaptive_rounds: int = 1
    momentum: float = 0.9
    rho_grid: tuple = (0.0, 0.01, 0.1, 1.0)
    lambda_grid: tuple = (None, 1e2, 1e4)  # None = no relaxation fallback
    norm_p: float = 1.0
    time_limit: float = 1500.0
    seed: int = 0
    solver: str = "builtin"

    def __post_init__(self):
        if not self.rho_grid or not self.lambda_grid:
            raise ValueError("grids must be nonempty")
        if self.norm_p not in (1.0, math.inf):
            raise ValueError(f"norm_p must be 1 or inf, got {self.norm_p}")
        if any(not 0 <= rho < math.inf for rho in self.rho_grid):
            raise ValueError("robustness radii must be finite and nonnegative")
        if any(lam is not None and not 0 < lam < math.inf for lam in self.lambda_grid):
            raise ValueError("relaxation penalties must be finite and positive")
        if not self.time_limit > 0:
            raise ValueError("time limit must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum coefficient must lie in [0, 1)")
        for name in ("adaptive_rounds", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 0):
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.solver not in ("builtin", "external"):
            raise ValueError(f"solver must be builtin or external, got {self.solver!r}")


@dataclass
class CellResult:
    rho: float
    lam: Optional[float]
    status: str                      # optimal | infeasible | time_limit | skipped | error
    mio_objective: Optional[float] = None
    relax_total: float = 0.0
    refined: Optional[MeritState] = None
    max_violation: Optional[float] = None
    feasible: bool = False
    wall_time: float = 0.0
    # counters of the MILP solve behind the cell (a deduplicated solve repeats them)
    nodes: int = 0
    pivots: int = 0
    rows: int = 0
    cols: int = 0
    gap: Optional[float] = None
    bound: Optional[float] = None


@dataclass
class RunReport:
    status: str                      # ok | no_feasible_cell | time_limit
    x: Optional[np.ndarray]
    objective: Optional[float]
    violations: Optional[np.ndarray]
    winner: Optional[tuple]
    families: dict
    phase_seconds: dict
    cells: list
    training_runs: int
    total_seconds: float
    mio_objective: Optional[float]
    seed: int
    problem: str = ""

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "status": self.status,
            "objective": self.objective,
            "x": None if self.x is None else [float(v) for v in self.x],
            "violations": None if self.violations is None else [float(v) for v in self.violations],
            "winner": self.winner,
            "families": self.families,
            "phase_seconds": {k: round(v, 4) for k, v in self.phase_seconds.items()},
            "cells": [
                {
                    "rho": c.rho,
                    "lambda": c.lam,
                    "status": c.status,
                    "mio_objective": c.mio_objective,
                    "refined_objective": None if c.refined is None else c.refined.objective,
                    "warning": None if c.refined is None else c.refined.warning,
                    "max_violation": c.max_violation,
                    "feasible": c.feasible,
                    "relax_total": c.relax_total,
                    "nodes": c.nodes,
                    "pivots": c.pivots,
                    "rows": c.rows,
                    "cols": c.cols,
                    "gap": c.gap,
                    "bound": c.bound,
                    "wall_time": round(c.wall_time, 4),
                }
                for c in self.cells
            ],
            "training_runs": self.training_runs,
            "total_seconds": round(self.total_seconds, 4),
            "mio_objective": self.mio_objective,
            "seed": self.seed,
        }


@dataclass
class Trained:
    """The surrogates ``assemble`` takes, trained once per run."""

    constraints: list                # per nonlinear constraint: a Surrogate or an ALWAYS_* marker
    objective: Optional[Surrogate]   # None for a linear objective
    families: dict                   # report entry per constraint (and the objective)
    runs: int                        # surrogates actually trained
    complete: bool                   # False when the deadline cut training short


# ---------------------------------------------------------------------------
# Sampling and training
# ---------------------------------------------------------------------------

def _evaluator(target, support, center):
    """``evaluate(points)``: ``target.value`` at each support point embedded
    in ``center``."""

    def evaluate(points) -> np.ndarray:
        x = np.repeat(center[None, :], len(points), axis=0)
        x[:, support] = points
        return np.array([target.value(row) for row in x], dtype=float)

    return evaluate


def _support_rows(sp: StandardProblem, support):
    """The support rows, ``(A, b)`` with ``A @ x[support] <= b``: the
    inequality rows of ``sp.linear`` with a nonzero coefficient, all of
    them in ``support``, ``>=`` rows flipped. Equality rows and rows that
    reach outside the support are left out, and so is an opposing pair with
    no room between its rows (an equality written as two rows), which would
    leave no interior to sample."""
    outside = np.ones(sp.n, dtype=bool)
    outside[support] = False
    rows = [r for r in sp.linear
            if r.sense != "=" and r.coeffs.any() and not r.coeffs[outside].any()]
    sign = np.array([1.0 if r.sense == "<=" else -1.0 for r in rows])
    A = sign[:, None] * np.array([r.coeffs[support] for r in rows]).reshape(len(rows), len(support))
    b = sign * np.array([r.rhs for r in rows])
    norm = np.linalg.norm(A, axis=1)
    unit, offset = A / norm[:, None], b / norm
    flat = (unit @ unit.T <= -1.0 + 1e-12) & (offset[:, None] + offset <= sampling.CONTAIN_TOL)
    keep = ~flat.any(axis=1)
    return A[keep], b[keep]


def _satisfies(points, rows) -> np.ndarray:
    """Which points satisfy every row of ``rows = (A, b)``, ``A @ x <= b``."""
    A, b = rows
    return (points @ A.T <= b + sampling.CONTAIN_TOL).all(axis=1)


def _static_sample(sp: StandardProblem, support, rng, rows) -> np.ndarray:
    """Box corners and a Latin hypercube over the support, integers rounded,
    kept to its support rows ``rows`` (``_support_rows``).

    The hypercube has ``n_lh = max(sampling.N_LH, 50 d)`` points, and
    the corners never outnumber it: every corner when ``2^d <= n_lh``
    (no generator draws), else ``10 d`` distinct random corners plus the
    box center, the size Loeppky, Sacks & Welch (2009) suggest for a
    whole design. A corner (or the center) that breaks a support row once
    rounded is dropped. The hypercube keeps its ``n_lh`` points: those
    inside the rows once rounded come first, and box points top it up only
    when ``lh_sample``'s draw budget runs out. With no support row the
    design, and every draw, is the box's.
    """
    lo_all, hi_all = sp.box()
    lo, hi = lo_all[support], hi_all[support]
    d = len(support)
    n_lh = max(sampling.N_LH, 50 * d)
    cap = 2 ** d if 2 ** d <= n_lh else 10 * d

    def keep(points):
        return _satisfies(_round_integrals(points, sp, support), rows)

    corners = _round_integrals(sampling.boundary_sample(lo, hi, cap, rng), sp, support)
    design = sampling.lh_sample(lo, hi, n_lh, rng, keep)
    return np.vstack([corners[keep(corners)], _round_integrals(design, sp, support)])


def _proved_label(sp: StandardProblem, con, support, rows):
    """``ALWAYS_FEASIBLE`` or ``ALWAYS_INFEASIBLE`` when an interval bound
    of ``con.expr`` gives every point one label, else None.

    The bound (``expr_range``) runs over the constraint's support box
    tightened through its support rows ``rows`` by ``milp.propagate``, with
    every column continuous, so the tightened box holds every sample and
    every point the MILP can reach. The labels are ``feasibility_labels``':
    a value, or for ``=0`` its absolute value, of at most
    ``FEASIBILITY_TOL`` is feasible. A black-box constraint, a bound
    ``expr_range`` cannot give, and rows that propagation finds empty over
    the box prove nothing.
    """
    if con.expr is None:
        return None
    lo, hi = sp.box()
    A, b = rows
    tight = milp.propagate(A, np.full(len(b), "<="), b, lo[support], hi[support],
                           np.zeros(len(support), dtype=bool))
    if tight is None:
        return None
    lo[support], hi[support] = tight
    bound = expr_range(con.expr, lo, hi)
    if bound is None:
        return None
    low, high = bound
    if con.sense == "=0":
        low, high = max(low, -high, 0.0), max(-low, high)
    if high <= FEASIBILITY_TOL:
        return ALWAYS_FEASIBLE
    if low > FEASIBILITY_TOL:
        return ALWAYS_INFEASIBLE
    return None


def _sample_constraint(sp: StandardProblem, con, cfg: RunConfig, rng):
    """Labeled feasibility samples over the constraint's own support box,
    the static and adaptive ones kept to its support rows, or the
    ``ALWAYS_*`` marker ``_proved_label`` proves, with no evaluation and no
    draw from ``rng``.

    Each point is evaluated once, after rounding; its label follows from
    its value, and a point where the evaluator fails is infeasible.
    ``sp.deadline`` ends the adaptive round's region sampling early.
    """
    support = sorted(con.support)
    rows = _support_rows(sp, support)
    proved = _proved_label(sp, con, support, rows)
    if proved is not None:
        return proved
    lo_all, hi_all = sp.box()
    lo, hi = lo_all[support], hi_all[support]
    evaluate = _evaluator(con, support, (lo_all + hi_all) / 2.0)

    points = _static_sample(sp, support, rng, rows)
    if not _satisfies(points, rows).all():
        # box points topped the design up: the rows leave too thin a region
        # to sample, so the adaptive rounds sample the box
        rows = rows[0][:0], rows[1][:0]
    values = evaluate(points)
    labels = feasibility_labels(values, con.sense)

    def extend(batch):
        batch = _round_integrals(batch, sp, support)
        new_values = np.concatenate([values, evaluate(batch)])
        return np.vstack([points, batch]), new_values, feasibility_labels(new_values, con.sense)

    if labels.min() != labels.max():
        knn_pts = sampling.knn_boundary_sample(points, labels, values, sampling.KNN_K, lo, hi)
        if len(knn_pts):
            points, values, labels = extend(knn_pts)

    if labels.min() != labels.max():
        def committee_tree(X, y, seed):  # the trees are deterministic: the seed goes unused
            return train_tree(X, y, task="classifier")

        for _ in range(cfg.adaptive_rounds):
            result = sampling.oct_adaptive_sample(
                points, labels, rng, committee_tree, lo, hi, deadline=sp.deadline, rows=rows
            )
            if len(result.points) == 0:
                break
            points, values, labels = extend(result.points)

    if con.sense != "=0":
        return points, labels, None
    kept = np.isfinite(values)
    return points[kept], labels[kept], values[kept]


def _round_integrals(points, sp: StandardProblem, support) -> np.ndarray:
    """Integer-coordinate samples snap to the nearest in-range integer."""
    points = np.array(points, dtype=float)
    for j_local, j in enumerate(support):
        v = sp.vars[j]
        if v.integral:
            points[:, j_local] = np.clip(np.round(points[:, j_local]), v.lower, v.upper)
    return points


def _sample_objective(sp: StandardProblem, rng):
    """Objective values at the static samples over the objective's support."""
    support = sorted(sp.objective.support)
    lo_all, hi_all = sp.box()
    points = _static_sample(sp, support, rng, _support_rows(sp, support))
    # a point where the objective fails or is not finite has no value to fit
    values = _evaluator(sp.objective, support, (lo_all + hi_all) / 2.0)(points)
    kept = np.isfinite(values)
    return points[kept], None, values[kept]


def sample(sp: StandardProblem, cfg: RunConfig) -> list:
    """One dataset ``(points, labels, values)`` per nonlinear constraint,
    then one for a nonlinear objective (its ``labels`` are None). A point's
    columns are ``sorted(con.support)`` of its constraint, or
    ``sorted(sp.objective.support)``. A constraint whose label an interval
    bound proves (``_proved_label``) gets its ``ALWAYS_*`` marker in place
    of a dataset, and costs no evaluation.

    ``values`` is None for an inequality constraint. Each dataset draws from
    its own stream of ``cfg.seed``. At ``sp.deadline`` the evaluations stop,
    raising ``TimeLimitReached``, and so does the evaluation-free region
    sampling of an adaptive round.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(len(sp.nonlinear) + 1)
    datasets = []
    for i, con in enumerate(sp.nonlinear):
        rng = np.random.default_rng(streams[i])
        datasets.append(_sample_constraint(sp, con, cfg, rng))
    if isinstance(sp.objective, NonlinearObjective):
        datasets.append(_sample_objective(sp, np.random.default_rng(streams[-1])))
    return datasets


def train(sp: StandardProblem, datasets, cfg: RunConfig) -> Trained:
    """Select one surrogate per dataset of ``sample``.

    An ``ALWAYS_*`` marker in place of a dataset passes through untrained,
    and its ``families`` entry carries ``"proved": True``. A dataset with
    values gets a regressor; one with labels of both kinds gets a
    classifier, and one with a single label kind gets the matching
    ``ALWAYS_*`` marker instead; so does an equality constraint with no
    finite value, which gets ``ALWAYS_INFEASIBLE``. A dataset no family can
    be trained on raises ``DegenerateDataset`` naming its constraint, or
    ``objective``. Stops early, with ``complete`` False, when
    ``sp.deadline`` passes: no dataset and no model family starts after it.
    """
    out = Trained(constraints=[], objective=None, families={}, runs=0, complete=False)
    for i, dataset in enumerate(datasets):
        if time.monotonic() > sp.deadline:
            return out
        is_objective = i == len(sp.nonlinear)
        if is_objective:
            name, seed = "objective", cfg.seed + 9973
        else:
            name, seed = sp.nonlinear[i].name or f"g{i}", cfg.seed + 101 * i
        if isinstance(dataset, str):
            out.constraints.append(dataset)
            out.families[name] = {"family": dataset, "score": 1.0, "proved": True}
            continue
        points, labels, values = dataset
        kinds = set(labels.tolist()) if values is None else set()
        if labels is not None and values is not None and len(values) == 0:
            kinds = {0.0}  # an equality that failed at every sample point
        if len(kinds) == 1:
            model = ALWAYS_FEASIBLE if 1.0 in kinds else ALWAYS_INFEASIBLE
            out.families[name] = {"family": model, "score": 1.0}
        else:
            task, targets = ("classifier", labels) if values is None else ("regressor", values)
            try:
                model = select_surrogate(
                    points, targets, task=task, seed=seed, deadline=sp.deadline
                )
            except DegenerateDataset as exc:
                raise DegenerateDataset(f"cannot train a surrogate for {name}: {exc}") from exc
            if model is None:
                return out
            out.runs += 1
            out.families[name] = {"family": model.family, "score": model.validation_score}
        if is_objective:
            out.objective = model
        else:
            out.constraints.append(model)
    out.complete = True
    return out


# ---------------------------------------------------------------------------
# Main entry
# ---------------------------------------------------------------------------

@contextmanager
def _timed(phases: dict, name: str):
    """Adds the seconds spent in the block to ``phases[name]``."""
    tick = time.monotonic()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.monotonic() - tick


def solve_global(problem: Problem, cfg: Optional[RunConfig] = None) -> RunReport:
    """Standardize, sample, train, ``solve_grid``, and report the cell whose
    refined point has the lowest merit, preferring feasible ones.

    Raises ``InfeasibleApproximation`` when every cell is infeasible, and
    ``SolverError`` when no cell was solved and the MILP solver failed.
    """
    cfg = cfg or RunConfig()
    t0 = time.monotonic()
    phases = dict.fromkeys(
        ("standardize", "sampling", "training", "encoding", "solving", "refining"), 0.0
    )

    def finish(status, trained=None, cells=(), winner=None):
        best = None if winner is None else winner.refined
        return RunReport(
            status=status,
            x=None if best is None else best.x,
            objective=None if best is None else best.objective,
            violations=None if best is None else best.violations,
            winner=None if winner is None else (winner.rho, winner.lam),
            families={} if trained is None else trained.families,
            phase_seconds=phases,
            cells=list(cells),
            training_runs=0 if trained is None else trained.runs,
            total_seconds=time.monotonic() - t0,
            mio_objective=None if winner is None else winner.mio_objective,
            seed=cfg.seed,
            problem=sp.name,
        )

    with _timed(phases, "standardize"):
        sp = standardize(problem, t0 + cfg.time_limit)
    try:
        with _timed(phases, "sampling"):
            datasets = sample(sp, cfg)
    except TimeLimitReached:
        return finish("time_limit")
    with _timed(phases, "training"):
        trained = train(sp, datasets, cfg)
    if not trained.complete or time.monotonic() > sp.deadline:
        return finish("time_limit", trained)

    cells = solve_grid(sp, trained, cfg, phases)
    cut_short = any(_cut_short(c) for c in cells)
    solved = [c for c in cells if c.status == "optimal"]
    if not solved:
        if cut_short:
            return finish("time_limit", trained, cells)
        if any(c.status == "error" for c in cells):
            raise SolverError("the MILP solver failed, and no grid cell was solved")
        raise InfeasibleApproximation("every grid cell was infeasible, even with relaxation")
    eligible = [c for c in solved if c.feasible]
    winner = min(eligible or solved, key=lambda c: c.refined.merit)
    status = "time_limit" if cut_short else "ok" if eligible else "no_feasible_cell"
    return finish(status, trained, cells, winner)


def _cut_short(cell: CellResult) -> bool:
    """The run's deadline skipped the cell, stopped its solve or its refinement."""
    return cell.status in ("skipped", "time_limit") or (
        cell.refined is not None and cell.refined.warning == TIME_LIMIT_WARNING
    )


def solve_grid(sp: StandardProblem, trained: Trained, cfg: RunConfig, phases: dict) -> list[CellResult]:
    """One ``CellResult`` per (rho, lambda) cell of ``cfg``, rho-major.

    Each rho solves its unrelaxed model once. A lambda encodes and solves
    the relaxed model only when that solve is not optimal, and after one
    relaxed model is infeasible the later lambdas are too, with no solve. A
    model whose ``milp.fingerprint`` equals an earlier one's reuses its
    solution, and a MILP point refined before reuses its refinement. Each
    cell's solve gets an equal share of the time left before ``sp.deadline``;
    a cell that would start after it is ``skipped``. The encoding, solving
    and refining seconds add to ``phases``.
    """
    cells = []
    solutions = {}      # milp.fingerprint -> MilpSolution
    refined_cache = {}  # MILP point bytes -> MeritState
    total_cells = len(cfg.rho_grid) * len(cfg.lambda_grid)
    for rho in cfg.rho_grid:
        robust_cfg = RobustConfig(rho=rho, p=cfg.norm_p) if rho > 0 else None
        base = None                 # (model, solution) of the unrelaxed solve
        relaxed_infeasible = False  # the relaxed feasible set does not depend on lambda
        for lam in cfg.lambda_grid:
            cell_tick = time.monotonic()
            remaining = sp.deadline - cell_tick
            if remaining <= 0:
                cells.append(CellResult(rho=rho, lam=lam, status="skipped"))
                continue
            budget = max(0.05, remaining / max(1, total_cells - len(cells)))
            if base is None:
                base = _encode_and_solve(
                    sp, trained, cfg, robust_cfg, None, budget, solutions, phases
                )
            model, sol = base
            if sol.status != "optimal" and lam is not None:
                if relaxed_infeasible:
                    cells.append(CellResult(rho=rho, lam=lam, status="infeasible",
                                            wall_time=time.monotonic() - cell_tick))
                    continue
                model, sol = _encode_and_solve(
                    sp, trained, cfg, robust_cfg, RelaxConfig(lam), budget, solutions, phases
                )
                relaxed_infeasible = sol.status == "infeasible"
            cell = CellResult(rho=rho, lam=lam, status=sol.status,
                              nodes=sol.nodes, pivots=sol.pivots, rows=sol.rows, cols=sol.cols,
                              gap=sol.gap, bound=sol.bound)
            if sol.status == "optimal":
                x_mio = sol.x[:sp.n]
                key = x_mio.tobytes()
                try:
                    with _timed(phases, "refining"):
                        if key not in refined_cache:
                            refined_cache[key] = pgd_improve(sp, x_mio, cfg.momentum)
                except TimeLimitReached:  # no time was left to evaluate the MILP point
                    cell.status = "time_limit"
                else:
                    cell.mio_objective = sol.objective
                    cell.relax_total = float(sum(sol.x[u] for u in model.registry["relax_vars"]))
                    cell.refined = refined_cache[key]
                    cell.max_violation = _full_violation(sp, cell.refined.x)
                    cell.feasible = cell.max_violation <= FEAS_TOL
            cell.wall_time = time.monotonic() - cell_tick
            cells.append(cell)
    return cells


def _encode_and_solve(sp, trained, cfg, robust_cfg, relax_cfg, budget, solutions, phases):
    """``(model, solution)`` of one encoding; a model whose fingerprint is in
    ``solutions`` is not solved again."""
    with _timed(phases, "encoding"):
        model = assemble(sp, trained.constraints, trained.objective, robust_cfg, relax_cfg)
    with _timed(phases, "solving"):
        key = milp.fingerprint(model)
        sol = solutions.get(key)
        if sol is None:
            sol = solutions[key] = milp.solve(model, time_limit=budget, solver=cfg.solver)
    return model, sol


def _full_violation(sp: StandardProblem, x) -> float:
    worst = 0.0
    for con in sp.nonlinear:
        worst = max(worst, con.violation(x))
    for row in sp.linear:
        worst = max(worst, row.violation(x))
    lo, hi = sp.box()
    worst = max(worst, float(np.max(np.maximum(lo - x, x - hi), initial=0.0)))
    return worst
