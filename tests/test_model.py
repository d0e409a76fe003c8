import math

import numpy as np
import pytest

from surropt import expr as E
from surropt.benchmarks import illustrative_problem
from surropt.errors import InfeasibleProblem, UnboundedVariable
from surropt.model import (
    LinearConstraint,
    LinearObjective,
    NonlinearConstraint,
    NonlinearObjective,
    Problem,
    VarSpec,
    infer_bound,
    feasibility_labels,
    standardize,
)


def _nl(text, names, sense="<=0"):
    tree = E.parse_expr(text, names)
    return NonlinearConstraint(
        evaluator=lambda x, t=tree: E.eval_expr(t, x),
        sense=sense,
        support=E.expr_support(tree),
        expr=tree,
    )


def test_standardize_partitions_worked_example():
    sp = standardize(illustrative_problem())
    assert len(sp.nonlinear) == 2
    assert len(sp.linear) == 2
    lo, hi = sp.box()
    assert np.allclose(lo, [0.51, 0.3])
    assert np.allclose(hi, [1.5, 1.6])


# standardize(load_problem(doc)) of the shipped problems, frozen from the code
# that split off the linear rows in the loader: (name, coeffs, sense, rhs) in
# order, the nonlinear names in order, and the objective
SHIPPED_STANDARD_FORMS = {
    "illustrative": (
        [
            ("g3", [-1.1, 1.0], "<=", 0.3),
            ("g4", [1.5, 1.0], "<=", 2.6),
        ],
        ["g1", "g2"],
        ([-1.0, -0.0], -0.0),
    ),
    "speed-reducer": (
        [
            ("g8", [-1.0, 5.0, -0.0, -0.0, -0.0, -0.0, -0.0], "<=", 0.0),
            ("g9", [1.0, -12.0, -0.0, -0.0, -0.0, -0.0, -0.0], "<=", 0.0),
            ("g10", [-0.0, -0.0, -0.0, -1.0, -0.0, 1.5, -0.0], "<=", -1.9),
            ("g11", [-0.0, -0.0, -0.0, -0.0, -1.0, -0.0, 1.1], "<=", -1.9),
        ],
        ["g1", "g2", "g3", "g4", "g5", "g6", "g7"],
        frozenset(range(7)),  # a nonlinear objective over all seven variables
    ),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_STANDARD_FORMS))
def test_standardize_keeps_the_shipped_problems_linear_rows(name):
    from surropt.benchmarks import ILLUSTRATIVE_DOC, SPEED_REDUCER_DOC

    doc = {"illustrative": ILLUSTRATIVE_DOC, "speed-reducer": SPEED_REDUCER_DOC}[name]
    rows, nonlinear, objective = SHIPPED_STANDARD_FORMS[name]
    sp = standardize(E.load_problem(doc))
    assert [(r.name, r.coeffs.tobytes(), r.sense, r.rhs) for r in sp.linear] == [
        (nm, np.array(coeffs).tobytes(), sense, rhs) for nm, coeffs, sense, rhs in rows
    ]
    assert [c.name for c in sp.nonlinear] == nonlinear
    if isinstance(objective, frozenset):
        assert isinstance(sp.objective, NonlinearObjective) and sp.objective.support == objective
    else:
        assert isinstance(sp.objective, LinearObjective)
        assert sp.objective.coeffs.tobytes() == np.array(objective[0]).tobytes()
        assert math.copysign(1.0, sp.objective.constant) == math.copysign(1.0, objective[1])


def test_standardize_makes_an_affine_python_objective_linear():
    from surropt.driver import RunConfig, sample

    names = ["x", "y"]
    tree = E.parse_expr("3*x - (y - 2)/4 + 1", names)
    p = Problem(
        vars=(VarSpec(name="x", lower=0.0, upper=1.0), VarSpec(name="y", lower=0.0, upper=1.0)),
        objective=NonlinearObjective(
            evaluator=lambda x: E.eval_expr(tree, x), support=E.expr_support(tree), expr=tree
        ),
        nonlinear=(_nl("x^2 + y^2 - 0.5", names),),
    )
    sp = standardize(p)
    assert isinstance(sp.objective, LinearObjective)
    assert sp.objective.coeffs.tolist() == [3.0, -0.25]
    assert sp.objective.constant == 1.5
    assert standardize(sp).objective.coeffs.tolist() == [3.0, -0.25]
    # only the constraint is sampled: no regressor is trained for the objective
    assert len(sample(sp, RunConfig(adaptive_rounds=0))) == 1


def test_standardize_identity_on_linear_problem(structurally_equal):
    p = Problem(
        vars=(VarSpec(name="x", lower=0.0, upper=1.0), VarSpec(name="y", lower=-1.0, upper=1.0)),
        objective=LinearObjective(np.array([1.0, 0.0])),
        linear=(LinearConstraint(np.array([1.0, 1.0]), "<=", 1.5),),
    )
    sp = standardize(p)
    assert sp.nonlinear == ()
    assert structurally_equal(sp, p)


def test_standardize_infers_missing_bounds():
    p = Problem(
        vars=(VarSpec(name="x1"),),
        objective=LinearObjective(np.array([1.0])),
        linear=(
            LinearConstraint(np.array([1.0]), "<=", 2.0),
            LinearConstraint(np.array([1.0]), ">=", -1.0),
        ),
        nonlinear=(_nl("exp(x1)-2", ["x1"]),),
    )
    sp = standardize(p)
    # single-variable rows are absorbed straight into the box
    assert sp.vars[0].lower == -1.0 and sp.vars[0].upper == 2.0
    assert sp.linear == ()


def test_standardize_inference_via_coupled_rows():
    p = Problem(
        vars=(VarSpec(name="x1", lower=0.0, upper=math.inf),
              VarSpec(name="x2", lower=0.0, upper=1.0)),
        objective=LinearObjective(np.array([1.0, 0.0])),
        linear=(LinearConstraint(np.array([1.0, 1.0]), "<=", 1.0),),
        nonlinear=(_nl("exp(x1)-2", ["x1", "x2"]),),
    )
    sp = standardize(p)
    assert sp.vars[0].upper == pytest.approx(1.0)


def test_standardize_unbounded_raises():
    p = Problem(
        vars=(VarSpec(name="x1", lower=0.0, upper=math.inf),),
        objective=LinearObjective(np.array([1.0])),
        nonlinear=(_nl("exp(x1)-2", ["x1"]),),
    )
    with pytest.raises(UnboundedVariable):
        standardize(p)


def test_standardize_idempotent(structurally_equal):
    sp1 = standardize(illustrative_problem())
    sp2 = standardize(sp1)
    assert structurally_equal(sp1, sp2)


def test_standardize_moves_affine_nonlinear_rows():
    p = Problem(
        vars=(VarSpec(name="x1", lower=0.0, upper=1.0), VarSpec(name="x2", lower=0.0, upper=1.0)),
        objective=LinearObjective(np.array([1.0, 0.0])),
        nonlinear=(_nl("x1+2*x2-1", ["x1", "x2"]),),
    )
    sp = standardize(p)
    assert sp.nonlinear == ()
    assert len(sp.linear) == 1
    assert np.allclose(sp.linear[0].coeffs, [1.0, 2.0])


def test_infer_bound_explicit_box():
    p = Problem(
        vars=(VarSpec(name="x", lower=0.3, upper=1.6),),
        objective=LinearObjective(np.array([1.0])),
    )
    assert infer_bound(p, 0, "min") == pytest.approx(0.3)
    assert infer_bound(p, 0, "max") == pytest.approx(1.6)


def test_infer_bound_lp_by_inspection():
    p = Problem(
        vars=(VarSpec(name="x1", lower=0.0, upper=math.inf),
              VarSpec(name="x2", lower=0.0, upper=math.inf)),
        objective=LinearObjective(np.zeros(2)),
        linear=(LinearConstraint(np.array([1.0, 1.0]), "<=", 1.0),),
    )
    assert infer_bound(p, 0, "max") == pytest.approx(1.0)


def test_infer_bound_unbounded_and_infeasible():
    p = Problem(
        vars=(VarSpec(name="x1", lower=0.0, upper=math.inf),),
        objective=LinearObjective(np.zeros(1)),
    )
    with pytest.raises(UnboundedVariable):
        infer_bound(p, 0, "max")
    p2 = Problem(
        vars=(VarSpec(name="x1", lower=-math.inf, upper=math.inf),),
        objective=LinearObjective(np.zeros(1)),
        linear=(
            LinearConstraint(np.array([1.0]), "<=", 0.0),
            LinearConstraint(np.array([1.0]), ">=", 1.0),
        ),
    )
    with pytest.raises(InfeasibleProblem):
        infer_bound(p2, 0, "min")


def test_inferred_bounds_are_valid_for_feasible_points():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        rows = tuple(
            LinearConstraint(rng.normal(size=n), "<=", float(rng.uniform(0.5, 2.0)))
            for _ in range(int(rng.integers(1, 4)))
        )
        p = Problem(
            vars=tuple(VarSpec(name=f"x{j}", lower=-3.0, upper=3.0) for j in range(n)),
            objective=LinearObjective(np.zeros(n)),
            linear=rows,
        )
        j = int(rng.integers(0, n))
        lo = infer_bound(p, j, "min")
        hi = infer_bound(p, j, "max")
        # sample feasible points by optimizing random directions
        from surropt import milp

        A = np.array([r.coeffs for r in rows])
        for _ in range(10):
            lp = milp.LpProblem(
                c=rng.normal(size=n),
                rows=A,
                senses=["<="] * len(rows),
                rhs=np.array([r.rhs for r in rows]),
                lower=np.full(n, -3.0),
                upper=np.full(n, 3.0),
            )
            sol = milp.solve_lp(lp)
            assert sol.status == "optimal"
            assert lo - 1e-7 <= sol.x[j] <= hi + 1e-7


def _label(con, x):
    return feasibility_labels([con.value(x)], con.sense)[0]


def test_label_hand_values():
    names = ["x1", "x2"]
    g1 = _nl("-0.43*ln(x1-0.5)-1.1-x1+x2", names)
    assert _label(g1, np.array([1.0, 1.0])) == 1
    assert _label(g1, np.array([0.51, 1.6])) == 0


def test_label_identically_zero_equality():
    h = _nl("x1-x1", ["x1"], sense="=0")
    for v in (0.2, 0.9):
        assert _label(h, np.array([v])) == 1


def test_label_threshold_contract():
    con = NonlinearConstraint(
        evaluator=lambda x: float(x[0]), sense="<=0", support=frozenset({0})
    )
    assert _label(con, np.array([1e-8])) == 1
    assert _label(con, np.array([2e-8])) == 0


def test_non_finite_value_labels_infeasible():
    # a black box returning -inf satisfies v <= tol, yet its violation is inf
    con = NonlinearConstraint(
        evaluator=lambda x: -math.inf, sense="<=0", support=frozenset({0})
    )
    assert con.violation(np.array([0.0])) == math.inf
    assert _label(con, np.array([0.0])) == 0
    for sense in ("<=0", "=0"):
        labels = feasibility_labels([-math.inf, math.inf, math.nan, 0.0], sense)
        assert labels.tolist() == [0.0, 0.0, 0.0, 1.0]
