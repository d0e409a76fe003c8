import ast
import copy
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt import expr as E
from surropt.benchmarks import ILLUSTRATIVE_DOC, SPEED_REDUCER_DOC
from surropt.errors import (
    DomainError,
    ExprSyntaxError,
    SchemaError,
    SurroptError,
    UnknownIdentifier,
)
from surropt.model import LinearObjective, NonlinearObjective, Problem, standardize

NAMES = ["x1", "x2"]


def test_parse_simple_var():
    e = E.parse_expr("x1", NAMES)
    assert e == E.Var(0)


def test_parse_constant_fold_power():
    e = E.parse_expr("2^3", [])
    assert isinstance(e, E.Const)
    assert e.value == 8.0


def test_parse_nonlinear_example_evaluates():
    e = E.parse_expr("-0.43*ln(x1-0.5)-1.1-x1+x2", NAMES)
    assert E.eval_expr(e, [1.0, 1.0]) == pytest.approx(-0.80195, abs=1e-4)
    assert E.eval_expr(e, [0.51, 1.6]) == pytest.approx(1.970, abs=1e-3)


def test_precedence_and_unary_minus():
    e = E.parse_expr("-x1^2", ["x1"])
    assert E.eval_expr(e, [3.0]) == -9.0
    e = E.parse_expr("2*x1+1-x1*x1", ["x1"])
    assert E.eval_expr(e, [2.0]) == 1.0
    # left associativity
    assert E.eval_expr(E.parse_expr("8-4-2", []), []) == 2.0
    assert E.eval_expr(E.parse_expr("8/4/2", []), []) == 1.0


def test_parse_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        E.parse_expr("x1 + ", NAMES)
    assert err.value.offset is not None
    with pytest.raises(UnknownIdentifier):
        E.parse_expr("x1 + y9", NAMES)
    with pytest.raises(ExprSyntaxError):
        E.parse_expr("", NAMES)
    with pytest.raises(ExprSyntaxError):
        E.parse_expr("x1 $ 2", NAMES)


def test_eval_constant_and_domain_errors():
    assert E.eval_expr(E.Const(5.0), [0.0]) == 5.0
    e = E.parse_expr("ln(x1-0.5)", ["x1"])
    with pytest.raises(DomainError):
        E.eval_expr(e, [0.4])
    with pytest.raises(DomainError):
        E.eval_expr(E.parse_expr("sqrt(x1)", ["x1"]), [-1.0])
    with pytest.raises(DomainError):
        E.eval_expr(E.parse_expr("1/x1", ["x1"]), [0.0])


def test_eval_g2_hand_value():
    e = E.parse_expr("-x2+0.33*ln(x1-0.4)+1.2-0.2*x1", NAMES)
    assert E.eval_expr(e, [1.0, 1.2]) == pytest.approx(-0.3686, abs=1e-4)


def test_grad_log_term():
    e = E.parse_expr("-0.43*ln(x1-0.5)", ["x1"])
    g = E.grad_expr(e, [1.0])
    assert g[0] == pytest.approx(-0.86, abs=1e-12)


def test_grad_linear_is_coefficients():
    e = E.parse_expr("3*x1-2*x2", NAMES)
    for point in ([0.0, 0.0], [1.5, -2.0], [10.0, 4.0]):
        assert np.allclose(E.grad_expr(e, point), [3.0, -2.0])


def test_grad_g1_hand_value():
    e = E.parse_expr("-0.43*ln(x1-0.5)-1.1-x1+x2", NAMES)
    g = E.grad_expr(e, [1.0, 1.0])
    assert np.allclose(g, [-1.86, 1.0], atol=1e-12)


def _random_expr(rng, n_vars, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.25:
        if rng.random() < 0.5:
            return E.Const(float(rng.uniform(-3, 3)))
        return E.Var(int(rng.integers(0, n_vars)))
    if roll < 0.55:
        op = ["neg", "exp", "ln", "sqrt", "sin", "cos"][rng.integers(0, 6)]
        arg = _random_expr(rng, n_vars, depth + 1)
        if op in ("ln", "sqrt"):
            # keep the argument positive: 0.5 + arg^2
            arg = E.Binary("+", E.Const(0.5), E.Binary("*", arg, arg))
        return E.Unary(op, arg)
    op = ["+", "-", "*", "/"][rng.integers(0, 4)]
    left = _random_expr(rng, n_vars, depth + 1)
    right = _random_expr(rng, n_vars, depth + 1)
    if op == "/":
        right = E.Binary("+", E.Const(2.0), E.Binary("*", right, right))
    return E.Binary(op, left, right)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        n_vars = int(rng.integers(1, 4))
        tree = _random_expr(rng, n_vars)
        x = rng.uniform(-2, 2, size=n_vars)
        try:
            value = E.eval_expr(tree, x)
            grad = E.grad_expr(tree, x)
        except DomainError:
            continue
        if not math.isfinite(value) or abs(value) > 1e8:
            continue
        if not np.all(np.isfinite(grad)) or np.max(np.abs(grad)) > 1e8:
            continue
        fd = np.zeros(n_vars)
        ok = True
        for i in range(n_vars):
            h = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            try:
                fd[i] = (E.eval_expr(tree, xp) - E.eval_expr(tree, xm)) / (2 * h)
            except DomainError:
                ok = False
                break
        if not ok:
            continue
        scale = max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(grad - fd)) / scale < 1e-5
        checked += 1


def _random_number(rng):
    """A number in one of the forms the tokenizer reads: 2, 2., .5, 2.5, 7e2, .5e-3."""
    whole, frac = str(rng.randrange(0, 100)), str(rng.randrange(0, 100))
    exponent = rng.choice("eE") + rng.choice(["", "+", "-"]) + str(rng.randrange(0, 4))
    return rng.choice([whole, whole + ".", "." + frac, whole + "." + frac, whole + exponent,
                       "." + frac + exponent])


def _random_text(rng, depth):
    """Expression text over a, b and c: numbers, the six functions, unary
    minus, parentheses and the five binary operators, nested to ``depth``."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return rng.choice(["a", "b", "c", _random_number(rng)])
    if r < 0.35:
        function = rng.choice(["exp", "ln", "sqrt", "sin", "cos", "abs"])
        return f"{function}({_random_text(rng, depth - 1)})"
    if r < 0.45:
        return "-" + _random_text(rng, depth - 1)
    if r < 0.55:
        return f"({_random_text(rng, depth - 1)})"
    return _random_text(rng, depth - 1) + rng.choice("+-*/^") + _random_text(rng, depth - 1)


class _FloatLiterals(ast.NodeTransformer):
    """Every number a double, as the tokenizer reads it (Python would keep
    ``2`` an exact integer)."""

    def visit_Constant(self, node):
        return ast.copy_location(ast.Constant(float(node.value)), node)


def _real_abs(v):
    if isinstance(v, complex):  # a negative base to a fractional power
        raise ValueError("complex intermediate")
    return abs(v)


# Python's functions for the grammar's, exp with the clamp eval_expr applies
_PYTHON_FUNCTIONS = {"exp": lambda v: math.exp(min(v, 700.0)), "ln": math.log, "sqrt": math.sqrt,
                     "sin": math.sin, "cos": math.cos, "abs": _real_abs}


def _python_value(text, a, b, c):
    """Python's own parse and evaluation of ``text`` with ^ read as **; None
    where it raises or goes complex, the counterpart of a DomainError."""
    tree = _FloatLiterals().visit(ast.parse(text.replace("^", "**"), mode="eval"))
    code = compile(ast.fix_missing_locations(tree), "<expr>", "eval")
    try:
        value = eval(code, {"__builtins__": {}}, dict(_PYTHON_FUNCTIONS, a=a, b=b, c=c))
    except (ArithmeticError, ValueError, TypeError):
        return None
    return None if isinstance(value, complex) else value


def test_parse_eval_matches_python_eval():
    # precedence, associativity, unary minus, number forms and domain errors
    # all checked against an independent parser and evaluator
    rng = random.Random(0)
    counts = {"equal": 0, "both raise": 0}
    for _ in range(5000):
        text = _random_text(rng, 4)
        x = [rng.choice([0.0, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]) for _ in range(3)]
        try:
            got = E.eval_expr(E.parse_expr(text, ["a", "b", "c"]), x)
        except DomainError:
            got = None
        want = _python_value(text, *x)
        if got is None or want is None:
            assert got is None and want is None, (text, x, got, want)
            counts["both raise"] += 1
        else:
            assert float.hex(got) == float.hex(want), (text, x, got, want)
            counts["equal"] += 1
    assert min(counts.values()) >= 1000, counts


# ---------------------------------------------------------------------------
# Interval bounds
# ---------------------------------------------------------------------------

_N_VARS = 3
_UNARY = ["neg", "exp", "ln", "sqrt", "sin", "cos", "abs"]
_CONSTANTS = st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 800.0, 1e200]) | st.floats(-4.0, 4.0)
_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 0.0, -0.0, 700.0])


def _trees(constants):
    """Trees of the whole grammar over ``_N_VARS`` variables and ``constants``."""
    return st.recursive(
        st.builds(E.Var, st.integers(0, _N_VARS - 1)) | st.builds(E.Const, constants),
        lambda inner: st.builds(E.Unary, st.sampled_from(_UNARY), inner)
        | st.builds(E.Binary, st.sampled_from(["+", "-", "*", "/", "^"]), inner, inner),
        max_leaves=8,
    )


# sums, products, quotients and integer powers: values exact as fractions
_RATIONAL_TREES = st.recursive(
    st.builds(E.Var, st.integers(0, _N_VARS - 1)) | st.builds(E.Const, st.floats(-4.0, 4.0)),
    lambda inner: st.builds(E.Unary, st.sampled_from(["neg", "abs"]), inner)
    | st.builds(E.Binary, st.sampled_from(["+", "-", "*", "/"]), inner, inner)
    | st.builds(E.Binary, st.just("^"), inner, st.builds(E.Const, st.integers(-3, 3).map(float))),
    max_leaves=6,
)


@st.composite
def _boxes(draw):
    """Lower and upper bounds of ``_N_VARS`` variables: integer or random
    ends (so corners hit 0), some boxes flat."""
    end = st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0)
    lo = np.array([draw(end) for _ in range(_N_VARS)])
    width = np.array([draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 3.0)) for _ in range(_N_VARS)])
    return lo, lo + width


def _box_points(lo, hi, seed, count=30):
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    return np.vstack([corners, np.random.default_rng(seed).uniform(lo, hi, size=(count, len(lo)))])


@settings(max_examples=600, deadline=None)
@given(tree=_trees(_CONSTANTS), box=_boxes(), seed=st.integers(0, 2**32 - 1))
def test_expr_range_encloses_every_value(tree, box, seed):
    # eval_expr is the oracle, at the box's corners and at random points: a
    # bound holds every value, and a point that raises DomainError, or gives
    # inf or NaN, leaves no bound. Kills the mutant that drops the check for
    # a divisor's range touching 0 (a point near the pole leaves the corners'
    # range, or a corner divides by 0)
    lo, hi = box
    bound = E.expr_range(tree, lo, hi)
    for x in _box_points(lo, hi, seed):
        try:
            value = E.eval_expr(tree, x)
        except DomainError:
            assert bound is None, (tree, x)
            continue
        if bound is not None:
            assert bound[0] <= value <= bound[1], (tree, x, value, bound)


def _exact(e, x):
    """The value of a ``_RATIONAL_TREES`` tree at x in exact rationals."""
    if isinstance(e, E.Const):
        return Fraction(e.value)
    if isinstance(e, E.Var):
        return Fraction(float(x[e.index]))
    if isinstance(e, E.Unary):
        v = _exact(e.arg, x)
        return -v if e.op == "neg" else abs(v)
    a, b = _exact(e.left, x), _exact(e.right, x)
    if e.op == "/":
        return a / b
    if e.op == "^":
        return a ** int(b)
    return {"+": a + b, "-": a - b, "*": a * b}[e.op]


@settings(max_examples=400, deadline=None)
@given(tree=_RATIONAL_TREES, box=_boxes(), seed=st.integers(0, 2**32 - 1))
def test_expr_range_encloses_exact_values(tree, box, seed):
    # a bound holds the exact real value, not only the rounded one. Kills the
    # mutant that drops outward rounding: a rounded sum or product at a
    # corner lies on either side of its exact value
    lo, hi = box
    bound = E.expr_range(tree, lo, hi)
    if bound is None:
        return
    for x in _box_points(lo, hi, seed, count=5):
        assert Fraction(bound[0]) <= _exact(tree, x) <= Fraction(bound[1]), (tree, x, bound)


@settings(max_examples=300, deadline=None)
@given(
    tree=_trees(_SPECIAL | _CONSTANTS),
    lo=st.lists(_SPECIAL | st.floats(-3.0, 3.0), min_size=_N_VARS, max_size=_N_VARS),
    hi=st.lists(_SPECIAL | st.floats(-3.0, 3.0), min_size=_N_VARS, max_size=_N_VARS),
)
def test_expr_range_never_raises(tree, lo, hi):
    # inf, NaN and overflowing constants or box ends, crossed boxes included
    bound = E.expr_range(tree, np.array(lo), np.array(hi))
    assert bound is None or (math.isfinite(bound[0]) and math.isfinite(bound[1]) and bound[0] <= bound[1])


def test_expr_range_follows_eval_semantics():
    def bound(text, lo, hi):
        return E.expr_range(E.parse_expr(text, ["a"]), [lo], [hi])

    low, high = bound("exp(a)", 800.0, 900.0)  # the clamp at 700
    assert low < math.exp(700.0) < high and high == math.nextafter(math.exp(700.0), math.inf)
    assert bound("a^3", -2.0, 1.0) == (math.nextafter(-8.0, -math.inf), math.nextafter(1.0, math.inf))
    assert bound("a^2", -2.0, 1.0) == (math.nextafter(0.0, -math.inf), math.nextafter(4.0, math.inf))
    assert bound("a^0.5", -1.0, 1.0) is None   # a negative base, a fractional power
    assert bound("a^(-1)", 0.0, 1.0) is None   # zero to a negative power
    assert bound("1/a", -1.0, 0.0) is None     # a divisor that reaches 0
    assert bound("ln(a)", 0.0, 1.0) is None and bound("sqrt(a)", -1e-9, 1.0) is None
    assert bound("sin(a) + cos(a)", -100.0, 100.0) == (
        math.nextafter(-2.0, -math.inf), math.nextafter(2.0, math.inf))
    assert bound("a * 1e200 * 1e200", 1.0, 2.0) is None  # an overflow to inf
    assert bound("a", math.nan, 1.0) is None and bound("a", 1.0, 0.0) is None


def test_support_and_affine_extraction():
    e = E.parse_expr("-x2-1.5*x1+2.6", NAMES)
    assert E.expr_support(e) == {0, 1}
    coeffs, const = E.affine_parts(e, 2)
    assert np.allclose(coeffs, [-1.5, -1.0])
    assert const == pytest.approx(2.6)
    assert E.affine_parts(E.parse_expr("ln(x1)", NAMES), 2) is None
    assert E.affine_parts(E.parse_expr("x1*x2", NAMES), 2) is None


# ---------------------------------------------------------------------------
# Problem documents
# ---------------------------------------------------------------------------

def test_load_speed_reducer_document():
    p = E.load_problem(SPEED_REDUCER_DOC)
    assert p.n == 7
    assert len(p.linear) + len(p.nonlinear) == 11
    assert p.vars[2].integral
    assert isinstance(p.objective, NonlinearObjective)


def test_load_box_only_problem():
    doc = {
        "schema": 1,
        "variables": [{"name": "x", "lower": 0, "upper": 1}],
        "objective": {"linear": [1.0]},
    }
    p = E.load_problem(doc)
    assert p.linear == () and p.nonlinear == ()
    assert isinstance(p.objective, LinearObjective)


def test_load_rejects_undeclared_variable():
    doc = {
        "schema": 1,
        "variables": [{"name": "x", "lower": 0, "upper": 1}],
        "objective": {"expression": "x"},
        "constraints": [{"expression": "y - 1", "sense": "<=0"}],
    }
    with pytest.raises(UnknownIdentifier):
        E.load_problem(doc)


def test_load_schema_validation():
    with pytest.raises(SchemaError):
        E.load_problem({"variables": []})
    with pytest.raises(SchemaError):
        E.load_problem({"schema": 99, "variables": [{"name": "x"}]})
    with pytest.raises(SchemaError):
        E.load_problem({"schema": 1, "variables": [], "objective": {"linear": []}})


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, prefix=()):
    """Every path below ``node`` to a member of a JSON object or list."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_problem_raises_only_package_errors(data):
    # any JSON value anywhere in a shipped document, infinities often: a
    # Problem whose every bound admits a value, or a SurroptError
    doc = copy.deepcopy(data.draw(st.sampled_from([ILLUSTRATIVE_DOC, SPEED_REDUCER_DOC])))
    *parents, key = data.draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for k in parents:
        node = node[k]
    node[key] = data.draw(_JSON_VALUES | st.sampled_from([math.inf, -math.inf]))
    try:
        problem = E.load_problem(doc)
    except SurroptError:
        return
    assert isinstance(problem, Problem)
    assert all(v.lower < math.inf and v.upper > -math.inf for v in problem.vars)


@pytest.mark.parametrize("text", ["(-2)^1e400", "(-1)^(1e999-1e999)", "sin(1e999) + x1", "cos(-1e999)"])
def test_constants_out_of_every_domain_parse(text):
    # folding a power or a sine that Python's math cannot take keeps the node
    tree = E.parse_expr(text, NAMES)
    with pytest.raises(DomainError):
        E.eval_expr(tree, [0.5, 0.5])


def test_load_blackbox_registry():
    doc = {
        "schema": 1,
        "variables": [{"name": "x", "lower": -1, "upper": 1}],
        "objective": {"linear": [1.0]},
        "blackbox": [{"name": "circle", "sense": "<=0", "support": ["x"]}],
    }
    with pytest.raises(SchemaError):
        E.load_problem(doc)
    p = E.load_problem(doc, blackbox_registry={"circle": lambda x: x[0] ** 2 - 0.5})
    assert len(p.nonlinear) == 1
    assert p.nonlinear[0].value([0.0]) == -0.5


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "toy.prob"
    path.write_text(
        '{"schema": 1, "variables": [{"name": "x", "lower": 0, "upper": 2}],'
        ' "objective": {"expression": "x"},'
        ' "constraints": [{"expression": "x-1", "sense": ">=0"}]}'
    )
    p = E.load_problem(str(path))
    # x - 1 >= 0 normalizes to <= 0 on the negated expression, and
    # standardize turns that affine single-variable row into the bound x >= 1
    [con] = p.nonlinear
    assert con.violation(np.array([1.5])) == 0.0
    assert con.violation(np.array([0.5])) > 0.0
    sp = standardize(p)
    assert sp.linear == () and sp.nonlinear == ()
    assert (sp.vars[0].lower, sp.vars[0].upper) == (1.0, 2.0)
