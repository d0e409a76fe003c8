"""End-to-end pipeline: standardize, sample, train once, grid-solve, refine.

The (rho, lambda) grid reuses the surrogates trained up front; only the
encoding and MILP solve repeat per cell. Each rho first solves without
relaxation and falls back to the relaxed model only when that solve is
infeasible. Every cell's incumbent is refined by projected gradient descent
and the best refined merit among feasibility-passing cells wins.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
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
from .errors import EvaluationError, InfeasibleApproximation
from .learners import LearnerParams, Surrogate, select_surrogate, train_tree
from .model import (
    LinearObjective,
    NonlinearObjective,
    Problem,
    StandardProblem,
    label,
    standardize,
)
from .refine import MeritState, PgdConfig, pgd_improve


@dataclass
class Toggles:
    """Enhancement switches for attribution runs."""

    oct_sampling: bool = True
    robustness: bool = True
    relaxation: bool = True
    momentum: bool = True


@dataclass
class RunConfig:
    sampler: sampling.SamplerConfig = field(default_factory=sampling.SamplerConfig)
    learner: LearnerParams = field(default_factory=LearnerParams)
    pgd: PgdConfig = field(default_factory=PgdConfig)
    rho_grid: tuple = (0.0, 0.01, 0.1, 1.0)
    lambda_grid: tuple = (None, 1e2, 1e4)  # None = no relaxation fallback
    norm_p: float = 1.0
    time_limit: float = 1500.0
    seed: int = 0
    gap_tol: float = 1e-6
    solver: str = "builtin"
    feas_tol: float = 1e-6
    toggles: Toggles = field(default_factory=Toggles)

    def __post_init__(self):
        if not self.rho_grid or not self.lambda_grid:
            raise ValueError("grids must be nonempty")
        if self.time_limit <= 0:
            raise ValueError("time limit must be positive")


@dataclass
class CellResult:
    rho: float
    lam: Optional[float]
    status: str                      # optimal | infeasible | time_limit | skipped
    mio_objective: Optional[float] = None
    mio_x: Optional[np.ndarray] = None
    relax_total: float = 0.0
    refined: Optional[MeritState] = None
    max_violation: Optional[float] = None
    feasible: bool = False
    wall_time: float = 0.0
    # counters of the MILP solve behind the cell (a deduplicated solve repeats them)
    nodes: int = 0
    pivots: int = 0
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
class _ConstraintPlan:
    """What the encoder should do for one nonlinear constraint."""

    kind: str                        # surrogate | always_feasible | always_infeasible
    surrogate: Optional[Surrogate] = None
    dataset_size: int = 0


class _Deadline(Exception):
    """Internal: the run's wall-clock budget ran out mid-phase."""


# ---------------------------------------------------------------------------
# Sampling and training
# ---------------------------------------------------------------------------

def _embed(full_template, support, point):
    x = full_template.copy()
    x[support] = point
    return x


def _sample_constraint(sp: StandardProblem, con, cfg: RunConfig, rng, deadline=None):
    """Labeled feasibility samples over the constraint's own support box."""
    support = sorted(con.support)
    lo_all, hi_all = sp.box()
    lo, hi = lo_all[support], hi_all[support]
    center = (lo_all + hi_all) / 2.0
    d = len(support)

    # a point where the evaluator fails is infeasible and has no value
    def eval_sub(p):
        try:
            return con.value(_embed(center, support, p))
        except EvaluationError:
            return math.nan

    def label_sub(p):
        try:
            return label(con, _embed(center, support, p))
        except EvaluationError:
            return 0

    def past_deadline():
        return deadline is not None and time.monotonic() > deadline

    cap = 2 ** min(d, cfg.sampler.corner_cap_exp)
    pts = [sampling.boundary_sample(lo, hi, cap, rng)]
    n_lh = max(cfg.sampler.n_lh, 50 * d)
    pts.append(sampling.lh_sample(lo, hi, n_lh, rng))
    points = np.vstack(pts)
    points = _round_integrals(points, sp, support)
    labels = np.array([label_sub(p) for p in points], dtype=float)

    if len(np.unique(labels)) == 2 and not past_deadline():
        knn_pts = sampling.knn_boundary_sample(
            points, labels, eval_sub, cfg.sampler.knn_k, lo, hi
        )
        if len(knn_pts):
            knn_pts = _round_integrals(knn_pts, sp, support)
            points = np.vstack([points, knn_pts])
            labels = np.concatenate([labels, [label_sub(p) for p in knn_pts]])

    if cfg.toggles.oct_sampling and len(np.unique(labels)) == 2:
        def committee_tree(X, y, seed):
            return train_tree(
                X, y, task="classifier",
                max_depth=cfg.learner.tree_depth, oblique=True, seed=seed,
            )

        for _ in range(cfg.sampler.adaptive_rounds):
            if past_deadline():
                break
            result = sampling.oct_adaptive_sample(
                points, labels, label_sub, cfg.sampler, rng, committee_tree, lo, hi,
                deadline=deadline,
            )
            if len(result.points) == 0:
                break
            new_pts = _round_integrals(result.points, sp, support)
            points = np.vstack([points, new_pts])
            labels = np.concatenate([labels, [label_sub(p) for p in new_pts]])

    values = None
    if con.sense == "=0":
        values = np.array([eval_sub(p) for p in points])
        kept = np.isfinite(values)
        points, labels, values = points[kept], labels[kept], values[kept]
    return support, points, labels, values


def _round_integrals(points, sp: StandardProblem, support) -> np.ndarray:
    """Integer-coordinate samples snap to the nearest in-range integer."""
    points = np.array(points, dtype=float)
    for j_local, j in enumerate(support):
        v = sp.vars[j]
        if v.integral:
            points[:, j_local] = np.clip(np.round(points[:, j_local]), v.lower, v.upper)
    return points


def _sample_objective(sp: StandardProblem, cfg: RunConfig, rng):
    objective = sp.objective
    support = sorted(objective.support)
    lo_all, hi_all = sp.box()
    lo, hi = lo_all[support], hi_all[support]
    center = (lo_all + hi_all) / 2.0
    d = len(support)
    cap = 2 ** min(d, cfg.sampler.corner_cap_exp)
    points = np.vstack(
        [
            sampling.boundary_sample(lo, hi, cap, rng),
            sampling.lh_sample(lo, hi, max(cfg.sampler.n_lh, 50 * d), rng),
        ]
    )
    points = _round_integrals(points, sp, support)
    values = np.array([objective.value(_embed(center, support, p)) for p in points])
    return support, points, values


def _train_plans(sp: StandardProblem, datasets, cfg: RunConfig, counters, deadline=None):
    plans = []
    families = {}
    for i, con in enumerate(sp.nonlinear):
        if deadline is not None and time.monotonic() > deadline:
            raise _Deadline
        support, points, labels, values = datasets[i]
        name = con.name or f"g{i}"
        if con.sense == "=0":
            sur = select_surrogate(
                points, values, task="regressor",
                seed=cfg.seed + 101 * i, params=cfg.learner,
            )
            counters["training"] += 1
            sur = replace(sur, support=tuple(support), constraint_id=name)
            plans.append(_ConstraintPlan("surrogate", sur, len(points)))
            families[name] = {"family": sur.family, "score": sur.validation_score}
            continue
        uniq = set(labels.tolist())
        if uniq == {1.0}:
            plans.append(_ConstraintPlan(ALWAYS_FEASIBLE, dataset_size=len(points)))
            families[name] = {"family": ALWAYS_FEASIBLE, "score": 1.0}
            continue
        if uniq == {0.0}:
            plans.append(_ConstraintPlan(ALWAYS_INFEASIBLE, dataset_size=len(points)))
            families[name] = {"family": ALWAYS_INFEASIBLE, "score": 1.0}
            continue
        sur = select_surrogate(
            points, labels, task="classifier",
            seed=cfg.seed + 101 * i, params=cfg.learner,
        )
        counters["training"] += 1
        sur = replace(sur, support=tuple(support), constraint_id=name)
        plans.append(_ConstraintPlan("surrogate", sur, len(points)))
        families[name] = {"family": sur.family, "score": sur.validation_score}
    return plans, families


# ---------------------------------------------------------------------------
# Main entry
# ---------------------------------------------------------------------------

def solve_global(problem: Problem, cfg: Optional[RunConfig] = None) -> RunReport:
    cfg = cfg or RunConfig()
    t0 = time.monotonic()
    phases = {
        "standardize": 0.0,
        "sampling": 0.0,
        "training": 0.0,
        "encoding": 0.0,
        "solving": 0.0,
        "refining": 0.0,
    }

    def elapsed():
        return time.monotonic() - t0

    tick = time.monotonic()
    sp = standardize(problem)
    phases["standardize"] = time.monotonic() - tick

    seed_seq = np.random.SeedSequence(cfg.seed)
    streams = seed_seq.spawn(len(sp.nonlinear) + 1)

    def partial_report(families, counters, cells):
        return RunReport(
            status="time_limit", x=None, objective=None, violations=None,
            winner=None, families=families, phase_seconds=phases, cells=cells,
            training_runs=counters["training"], total_seconds=elapsed(),
            mio_objective=None, seed=cfg.seed, problem=sp.name,
        )

    tick = time.monotonic()
    sample_deadline = t0 + cfg.time_limit
    datasets = []
    out_of_time = False
    for i, con in enumerate(sp.nonlinear):
        if elapsed() > cfg.time_limit:
            out_of_time = True
            break
        rng = np.random.default_rng(streams[i])
        datasets.append(_sample_constraint(sp, con, cfg, rng, deadline=sample_deadline))
    objective_data = None
    if isinstance(sp.objective, NonlinearObjective) and not out_of_time:
        rng = np.random.default_rng(streams[-1])
        objective_data = _sample_objective(sp, cfg, rng)
    phases["sampling"] = time.monotonic() - tick
    if out_of_time:
        return partial_report({}, {"training": 0}, [])

    counters = {"training": 0}
    tick = time.monotonic()
    deadline = t0 + cfg.time_limit
    try:
        plans, families = _train_plans(sp, datasets, cfg, counters, deadline=deadline)
        objective_surrogate = None
        if objective_data is not None:
            if time.monotonic() > deadline:
                raise _Deadline
            support, points, values = objective_data
            objective_surrogate = select_surrogate(
                points, values, task="regressor", seed=cfg.seed + 9973, params=cfg.learner,
            )
            counters["training"] += 1
            objective_surrogate = replace(
                objective_surrogate, support=tuple(support), constraint_id="objective"
            )
            families["objective"] = {
                "family": objective_surrogate.family,
                "score": objective_surrogate.validation_score,
            }
    except _Deadline:
        phases["training"] = time.monotonic() - tick
        return partial_report({}, counters, [])
    phases["training"] = time.monotonic() - tick
    if elapsed() > cfg.time_limit:
        return partial_report(families, counters, [])

    rho_list = tuple(cfg.rho_grid) if cfg.toggles.robustness else (0.0,)
    lam_list = tuple(cfg.lambda_grid) if cfg.toggles.relaxation else (None,)
    pgd_cfg = replace(cfg.pgd, use_momentum=cfg.pgd.use_momentum and cfg.toggles.momentum)
    plan_args = [p.surrogate if p.kind == "surrogate" else p.kind for p in plans]

    cells = []
    refined_cache = {}
    timed_out = False
    total_cells = len(rho_list) * len(lam_list)
    solved_models = []  # (model, solution) pairs reused across identical encodings

    def encode(robust_cfg, relax_cfg):
        tick = time.monotonic()
        model = assemble(sp, plan_args, objective_surrogate, robust_cfg, relax_cfg)
        phases["encoding"] += time.monotonic() - tick
        return model

    def run_solver(model, budget):
        tick = time.monotonic()
        for seen_model, seen_sol in solved_models:
            if milp.models_equal(seen_model, model):
                phases["solving"] += time.monotonic() - tick
                return seen_sol
        sol = milp.solve(model, time_limit=budget, gap_tol=cfg.gap_tol, solver=cfg.solver)
        solved_models.append((model, sol))
        phases["solving"] += time.monotonic() - tick
        return sol

    for rho in rho_list:
        robust_cfg = RobustConfig(rho=rho, p=cfg.norm_p) if rho > 0 else None
        base_solution = None
        base_status = None
        relaxed_infeasible = False  # the relaxed feasible set does not depend on lambda
        for lam in lam_list:
            cell_tick = time.monotonic()
            done = len(cells)
            remaining = cfg.time_limit - elapsed()
            if remaining <= 0:
                cells.append(CellResult(rho=rho, lam=lam, status="skipped"))
                timed_out = True
                continue
            budget = max(0.05, remaining / max(1, total_cells - done))

            if base_status is None:
                model = encode(robust_cfg, None)
                base_sol = run_solver(model, budget)
                base_status = base_sol.status
                if base_sol.status == "optimal":
                    base_solution = (model, base_sol)

            if base_status == "optimal":
                model, sol = base_solution
                relax_total = 0.0
            elif lam is None:
                cells.append(
                    CellResult(rho=rho, lam=lam, status=base_status,
                               wall_time=time.monotonic() - cell_tick,
                               **_milp_counters(base_sol))
                )
                if base_status == "time_limit":
                    timed_out = True
                continue
            elif relaxed_infeasible:
                cells.append(
                    CellResult(rho=rho, lam=lam, status="infeasible",
                               wall_time=time.monotonic() - cell_tick)
                )
                continue
            else:
                model = encode(robust_cfg, RelaxConfig(lam))
                sol = run_solver(model, budget)
                if sol.status != "optimal":
                    relaxed_infeasible = sol.status == "infeasible"
                    cells.append(
                        CellResult(rho=rho, lam=lam, status=sol.status,
                                   wall_time=time.monotonic() - cell_tick,
                                   **_milp_counters(sol))
                    )
                    if sol.status == "time_limit":
                        timed_out = True
                    continue
                relax_total = float(sum(sol.x[u] for u in model.registry["relax_vars"]))

            x_cols = model.registry["x_vars"]
            x_mio = np.array([sol.x[c] for c in x_cols])
            key = x_mio.tobytes()
            refine_tick = time.monotonic()
            if key not in refined_cache:
                refined_cache[key] = pgd_improve(sp, x_mio, pgd_cfg)
            refined = refined_cache[key]
            phases["refining"] += time.monotonic() - refine_tick

            max_violation = _full_violation(sp, refined.x)
            cells.append(
                CellResult(
                    rho=rho,
                    lam=lam,
                    status="optimal",
                    mio_objective=sol.objective,
                    mio_x=x_mio,
                    relax_total=relax_total,
                    refined=refined,
                    max_violation=max_violation,
                    feasible=max_violation <= cfg.feas_tol,
                    wall_time=time.monotonic() - cell_tick,
                    **_milp_counters(sol),
                )
            )

    solved = [c for c in cells if c.status == "optimal"]
    if not solved:
        if timed_out:
            return RunReport(
                status="time_limit", x=None, objective=None, violations=None,
                winner=None, families=families, phase_seconds=phases, cells=cells,
                training_runs=counters["training"], total_seconds=elapsed(),
                mio_objective=None, seed=cfg.seed, problem=sp.name,
            )
        raise InfeasibleApproximation(
            "every grid cell was infeasible, even with relaxation"
        )

    eligible = [c for c in solved if c.feasible]
    pool = eligible if eligible else solved
    winner = min(pool, key=lambda c: c.refined.merit)
    status = "ok" if eligible else "no_feasible_cell"
    if timed_out:
        status = "time_limit"
    return RunReport(
        status=status,
        x=winner.refined.x,
        objective=winner.refined.objective,
        violations=winner.refined.violations,
        winner=(winner.rho, winner.lam),
        families=families,
        phase_seconds=phases,
        cells=cells,
        training_runs=counters["training"],
        total_seconds=elapsed(),
        mio_objective=winner.mio_objective,
        seed=cfg.seed,
        problem=sp.name,
    )


def _milp_counters(sol: milp.MilpSolution) -> dict:
    return {"nodes": sol.nodes, "pivots": sol.pivots, "gap": sol.gap, "bound": sol.bound}


def _full_violation(sp: StandardProblem, x) -> float:
    worst = 0.0
    for con in sp.nonlinear:
        worst = max(worst, con.violation(x))
    for row in sp.linear:
        worst = max(worst, row.violation(x))
    lo, hi = sp.box()
    worst = max(worst, float(np.max(np.maximum(lo - x, x - hi), initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# Random benchmark generator
# ---------------------------------------------------------------------------

def generate_quadratic_sigmoid(n: int, m: int, seed: int = 0) -> Problem:
    """Random instance with a linear objective and sigmoid-of-quadratic
    constraints on the box [-2, 2]^n.

    The first floor(m/2) constraints cap a sigmoid of a quadratic at one
    half; the rest bound quadratic-times-sigmoid from below. Entries of the
    symmetric quadratic matrices are uniform on (-1, 1) scaled by 1/n.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    from .model import NonlinearConstraint, VarSpec

    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=n)
    specs = tuple(
        VarSpec(name=f"x{j}", index=j, lower=-2.0, upper=2.0) for j in range(n)
    )

    def make_quadratic():
        tri = rng.uniform(-1.0, 1.0, size=(n, n)) / n
        A = np.triu(tri)
        A = A + np.triu(A, 1).T
        d = rng.uniform(-1.0, 1.0, size=n)
        f0 = float(rng.uniform(-1.0, 1.0))
        return A, d, f0

    constraints = []
    for i in range(m):
        A, d, f0 = make_quadratic()

        def q(x, A=A, d=d, f0=f0):
            return float(x @ A @ x + d @ x + f0)

        def q_grad(x, A=A, d=d):
            return 2.0 * (A @ x) + d

        if i < m // 2:
            def value(x, q=q):
                return 1.0 / (1.0 + math.exp(-q(x))) - 0.5

            def grad(x, q=q, q_grad=q_grad):
                s = 1.0 / (1.0 + math.exp(-q(x)))
                return s * (1.0 - s) * q_grad(x)
        else:
            def value(x, q=q):
                v = q(x)
                return -0.5 - v / (1.0 + math.exp(-v))

            def grad(x, q=q, q_grad=q_grad):
                v = q(x)
                s = 1.0 / (1.0 + math.exp(-v))
                return -(s + v * s * (1.0 - s)) * q_grad(x)

        constraints.append(
            NonlinearConstraint(
                evaluator=value,
                sense="<=0",
                support=frozenset(range(n)),
                gradient=grad,
                name=f"q{i}",
            )
        )

    return Problem(
        vars=specs,
        objective=LinearObjective(coeffs=c),
        linear=(),
        nonlinear=tuple(constraints),
        name=f"quadratic-sigmoid-{n}-{m}-{seed}",
    )
