"""Expression trees: parsing, evaluation, interval bounds, reverse-mode differentiation.

Explicit nonlinear constraints are backed by small expression trees so that
exact gradients are available to the refinement phase. The grammar is
deliberately small: arithmetic, powers, and the unary functions exp, ln,
sqrt, sin, cos, abs. Problems are loaded from a JSON document (schema below).
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ExprSyntaxError,
    SchemaError,
    UnknownIdentifier,
)

_FUNCTIONS = {"exp", "ln", "sqrt", "sin", "cos", "abs"}


class Expr:
    """Base node. Immutable once built; safe to share between threads."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_expr(e: Expr, x) -> float:
    """Evaluate ``e`` at point ``x`` in IEEE doubles.

    Raises DomainError instead of returning NaN/inf on domain violations.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index])
    if isinstance(e, Unary):
        v = eval_expr(e.arg, x)
        return _apply_unary(e.op, v)
    if isinstance(e, Binary):
        a = eval_expr(e.left, x)
        b = eval_expr(e.right, x)
        return _apply_binary(e.op, a, b)
    raise TypeError(f"not an expression node: {e!r}")


def _apply_unary(op: str, v: float) -> float:
    if op == "neg":
        return -v
    if op == "exp":
        out = math.exp(min(v, 700.0))
        return out
    if op == "ln":
        if v <= 0.0:
            raise DomainError(f"ln of nonpositive value {v}")
        return math.log(v)
    if op == "sqrt":
        if v < 0.0:
            raise DomainError(f"sqrt of negative value {v}")
        return math.sqrt(v)
    if op in ("sin", "cos"):
        if math.isinf(v):
            raise DomainError(f"{op} of {v}")
        return math.sin(v) if op == "sin" else math.cos(v)
    if op == "abs":
        return abs(v)
    raise ValueError(f"unknown unary op {op!r}")


def _apply_binary(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    if op == "^":
        if a == 0.0 and b < 0.0:
            raise DomainError("zero raised to a negative power")
        try:
            if a >= 0.0 or math.isnan(a):
                return a ** b
            if b != round(b):
                raise DomainError(f"negative base {a} with non-integer exponent {b}")
            return a ** int(round(b))
        except (OverflowError, ValueError) as exc:  # round() of inf or NaN included
            raise DomainError(str(exc)) from exc
    raise ValueError(f"unknown binary op {op!r}")


# ---------------------------------------------------------------------------
# Interval enclosure
# ---------------------------------------------------------------------------

def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _outward(values):
    """The least and greatest of ``values``, each moved one ulp outward;
    None when one of them is NaN or infinite."""
    if not _finite(values):
        return None
    low, high = min(values), max(values)
    return math.nextafter(low, -math.inf), math.nextafter(high, math.inf)


def expr_range(e: Expr, lo, hi):
    """``(low, high)`` enclosing ``eval_expr(e, x)`` for every x with
    ``lo <= x <= hi``, or None.

    Interval arithmetic (Moore, 1966) with ``eval_expr``'s semantics: the
    ``exp`` clamp at 700 and integer powers of negative bases. Every
    computed bound moves outward by one ulp. None wherever some point could
    raise ``DomainError`` (a divisor or a negative power's base that may be
    0, ``ln`` or ``sqrt`` of a value that may be out of range, a negative
    base that may meet a non-integer exponent) or give a NaN or infinite
    value, and wherever a box bound is not finite. ``sin`` and ``cos`` are
    bounded by [-1, 1]. Never raises.
    """
    if isinstance(e, Const):
        return (e.value, e.value) if math.isfinite(e.value) else None
    if isinstance(e, Var):
        low, high = float(lo[e.index]), float(hi[e.index])
        return (low, high) if _finite((low, high)) and low <= high else None
    if isinstance(e, Unary):
        inner = expr_range(e.arg, lo, hi)
        return None if inner is None else _unary_range(e.op, *inner)
    if isinstance(e, Binary):
        left = expr_range(e.left, lo, hi)
        right = None if left is None else expr_range(e.right, lo, hi)
        return None if right is None else _binary_range(e.op, left, right)
    return None


def _unary_range(op: str, low: float, high: float):
    if op == "neg":
        return -high, -low
    if op == "abs":
        return (low, high) if low >= 0.0 else (-high, -low) if high <= 0.0 else (0.0, max(-low, high))
    if op in ("sin", "cos"):
        return -1.0, 1.0
    if op == "exp":
        return _outward((math.exp(min(low, 700.0)), math.exp(min(high, 700.0))))
    if op == "ln" and low > 0.0:
        return _outward((math.log(low), math.log(high)))
    if op == "sqrt" and low >= 0.0:
        return _outward((math.sqrt(low), math.sqrt(high)))
    return None


def _binary_range(op: str, left: tuple, right: tuple):
    (al, ah), (bl, bh) = left, right
    if op == "+":
        return _outward((al + bl, ah + bh))
    if op == "-":
        return _outward((al - bh, ah - bl))
    if op == "*":
        return _outward([a * b for a in left for b in right])
    if op == "/":
        if bl <= 0.0 <= bh:
            return None
        return _outward([a / b for a in left for b in right])
    if op != "^":
        return None
    integer = bl == bh and bl == round(bl)
    if not integer and al < 0.0:
        return None  # a negative base may meet a non-integer exponent
    if al <= 0.0 <= ah and bl < 0.0:
        return None  # zero raised to a negative power
    # a^b = exp(b ln a) takes its extremes at the corners for a >= 0; a
    # constant integer power x^n is monotone on each side of 0, so for a base
    # range around 0 its extremes lie at the ends or at 0
    points = [(a, b) for a in left for b in right]
    if integer and al < 0.0 < ah:
        points.append((0.0, bl))
    try:
        return _outward([_apply_binary("^", a, b) for a, b in points])
    except DomainError:
        return None  # an overflow


# ---------------------------------------------------------------------------
# Reverse-mode gradient
# ---------------------------------------------------------------------------

def grad_expr(e: Expr, x) -> np.ndarray:
    """Exact gradient of ``e`` at ``x`` via one forward and one backward pass."""
    x = np.asarray(x, dtype=float)
    values: dict[int, float] = {}

    def forward(node: Expr) -> float:
        if isinstance(node, Const):
            v = node.value
        elif isinstance(node, Var):
            v = float(x[node.index])
        elif isinstance(node, Unary):
            v = _apply_unary(node.op, forward(node.arg))
        else:
            v = _apply_binary(node.op, forward(node.left), forward(node.right))
        values[id(node)] = v
        return v

    forward(e)
    out = np.zeros(x.shape[0])

    def backward(node: Expr, adj: float) -> None:
        if adj == 0.0 or isinstance(node, Const):
            return
        if isinstance(node, Var):
            out[node.index] += adj
            return
        if isinstance(node, Unary):
            v = values[id(node.arg)]
            op = node.op
            if op == "neg":
                backward(node.arg, -adj)
            elif op == "exp":
                backward(node.arg, adj * values[id(node)])
            elif op == "ln":
                backward(node.arg, adj / v)
            elif op == "sqrt":
                if v == 0.0:
                    raise DomainError("sqrt not differentiable at 0")
                backward(node.arg, adj / (2.0 * math.sqrt(v)))
            elif op == "sin":
                backward(node.arg, adj * math.cos(v))
            elif op == "cos":
                backward(node.arg, -adj * math.sin(v))
            elif op == "abs":
                if v == 0.0:
                    raise DomainError("abs not differentiable at 0")
                backward(node.arg, adj if v > 0 else -adj)
            return
        a = values[id(node.left)]
        b = values[id(node.right)]
        op = node.op
        if op == "+":
            backward(node.left, adj)
            backward(node.right, adj)
        elif op == "-":
            backward(node.left, adj)
            backward(node.right, -adj)
        elif op == "*":
            backward(node.left, adj * b)
            backward(node.right, adj * a)
        elif op == "/":
            backward(node.left, adj / b)
            backward(node.right, -adj * a / (b * b))
        elif op == "^":
            v = values[id(node)]
            if isinstance(node.right, Const):
                p = node.right.value
                if a == 0.0:
                    backward(node.left, 0.0 if p > 1 else adj * p)
                else:
                    backward(node.left, adj * p * v / a)
            else:
                if a <= 0.0:
                    raise DomainError("power with variable exponent needs positive base")
                backward(node.left, adj * b * v / a)
                backward(node.right, adj * v * math.log(a))

    backward(e, 1.0)
    return out


def expr_support(e: Expr) -> frozenset[int]:
    """Indices of all variables appearing in the tree."""
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.index,))
    if isinstance(e, Unary):
        return expr_support(e.arg)
    return expr_support(e.left) | expr_support(e.right)


def affine_parts(e: Expr, n: int):
    """Return (coeffs, constant) when ``e`` is affine in x, else None."""
    if isinstance(e, Const):
        return np.zeros(n), e.value
    if isinstance(e, Var):
        c = np.zeros(n)
        c[e.index] = 1.0
        return c, 0.0
    if isinstance(e, Unary):
        if e.op != "neg":
            inner = affine_parts(e.arg, n)
            if inner is not None and not inner[0].any():
                try:
                    return np.zeros(n), _apply_unary(e.op, inner[1])
                except DomainError:
                    return None
            return None
        inner = affine_parts(e.arg, n)
        if inner is None:
            return None
        return -inner[0], -inner[1]
    left = affine_parts(e.left, n)
    right = affine_parts(e.right, n)
    if left is None or right is None:
        return None
    cl, kl = left
    cr, kr = right
    if e.op == "+":
        return cl + cr, kl + kr
    if e.op == "-":
        return cl - cr, kl - kr
    if e.op == "*":
        if not cl.any():
            return kl * cr, kl * kr
        if not cr.any():
            return kr * cl, kr * kl
        return None
    if e.op == "/":
        if not cr.any() and kr != 0.0:
            return cl / kr, kl / kr
        return None
    if e.op == "^":
        if not cl.any() and not cr.any():
            try:
                return np.zeros(n), _apply_binary("^", kl, kr)
            except DomainError:
                return None
        return None
    return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", off)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, var_indices: dict[str, int]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = var_indices

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", len(self.text))
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        tok = self.next()
        if tok[0] != "op" or tok[1] != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", tok[2])

    def parse(self) -> Expr:
        e = self.parse_sum()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return e

    def parse_sum(self) -> Expr:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                self.pos += 1
                rhs = self.parse_term()
                node = _fold(Binary(tok[1], node, rhs))
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "*/":
                self.pos += 1
                rhs = self.parse_factor()
                node = _fold(Binary(tok[1], node, rhs))
            else:
                return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            return _fold(Unary("neg", self.parse_factor()))
        if tok is not None and tok[0] == "op" and tok[1] == "+":
            self.pos += 1
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            exponent = self.parse_factor()  # right associative, allows 2^-3
            return _fold(Binary("^", base, exponent))
        return base

    def parse_atom(self) -> Expr:
        tok = self.next()
        kind, value, offset = tok
        if kind == "num":
            return Const(value)
        if kind == "ident":
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "(":
                if value not in _FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {value!r}", offset)
                self.pos += 1
                arg = self.parse_sum()
                self.expect_op(")")
                return _fold(Unary(value, arg))
            if value not in self.vars:
                raise UnknownIdentifier(f"unknown variable {value!r}", offset)
            return Var(self.vars[value])
        if kind == "op" and value == "(":
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {value!r}", offset)


def _fold(e: Expr) -> Expr:
    """Collapse constant subtrees eagerly; keep nodes whose folding would raise."""
    if isinstance(e, Unary) and isinstance(e.arg, Const):
        try:
            return Const(_apply_unary(e.op, e.arg.value))
        except DomainError:
            return e
    if isinstance(e, Binary) and isinstance(e.left, Const) and isinstance(e.right, Const):
        try:
            return Const(_apply_binary(e.op, e.left.value, e.right.value))
        except DomainError:
            return e
    return e


def parse_expr(text: str, variables) -> Expr:
    """Parse ``text`` into an expression tree.

    ``variables`` is either a name->index mapping or an ordered sequence of
    names. Precedence: ^ over unary minus over * and / over + and -.
    """
    if not isinstance(variables, dict):
        variables = {name: i for i, name in enumerate(variables)}
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, variables).parse()


# ---------------------------------------------------------------------------
# Problem documents
# ---------------------------------------------------------------------------

PROBLEM_SCHEMA_VERSION = 1
_KINDS = {str: "a string", list: "a list", dict: "an object", bool: "true or false"}


def _typed(value, kind, what):
    """``value`` when it is a ``kind`` (str, list, dict or bool), else SchemaError."""
    if not isinstance(value, kind):
        raise SchemaError(f"{what} must be {_KINDS[kind]}, got {type(value).__name__}")
    return value


def _number(value, what) -> float:
    """``value`` as a float when it is a number (no bool) in double range, not NaN."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.nan
        if not math.isnan(out):
            return out
    raise SchemaError(f"{what} must be a number within double range, not NaN")


def _sense(entry, label) -> str:
    sense = entry.get("sense", "<=0")
    if sense not in ("<=0", ">=0", "=0"):
        raise SchemaError(f"constraint {label}: bad sense {sense!r}")
    return sense


def load_problem(document, blackbox_registry=None):
    """Build a Problem from a JSON document, path, or already-parsed dict.

    Document layout (schema version 1)::

        {
          "schema": 1,
          "name": "...",                      # optional
          "variables": [
            {"name": "x1", "lower": 0.5, "upper": 1.5, "integral": false},
            ...
          ],
          "objective": {"expression": "..."}  # or {"linear": [...], "constant": 0.0}
          "constraints": [
            {"expression": "...", "sense": "<=0" | ">=0" | "=0", "name": "..."},
            ...
          ],
          "blackbox": [                        # optional, resolved via registry
            {"name": "...", "sense": "<=0", "support": ["x1", "x2"]}
          ]
        }

    Any other key (such as ``known_optimum``) is ignored. Every expression
    constraint becomes an expression-backed ``NonlinearConstraint`` (a
    ``>=0`` one on the negated tree) and an expression objective a
    ``NonlinearObjective``; ``standardize`` moves the affine ones into
    linear rows. A field of the wrong JSON type, a file that is not UTF-8
    JSON, and every other deviation from the layout raise ``SchemaError``
    (or a ``ParseError`` for expression text); a file that cannot be opened
    raises its ``OSError``.
    """
    from .model import (
        LinearObjective,
        NonlinearConstraint,
        NonlinearObjective,
        Problem,
        VarSpec,
    )

    if isinstance(document, (str, bytes)):
        try:
            with open(document, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SchemaError(f"not a UTF-8 JSON document: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("problem document must be a JSON object")
    schema = document.get("schema")
    if isinstance(schema, bool) or schema != PROBLEM_SCHEMA_VERSION:
        raise SchemaError(f"missing or unsupported schema version {schema!r}")
    raw_vars = document.get("variables")
    if not raw_vars or not isinstance(raw_vars, list):
        raise SchemaError("document needs a nonempty 'variables' list")

    specs = []
    names = {}
    for i, rv in enumerate(raw_vars):
        rv = _typed(rv, dict, f"variable {i}")
        if "name" not in rv:
            raise SchemaError(f"variable {i} has no name")
        nm = _typed(rv["name"], str, f"variable {i}'s name")
        if nm in names:
            raise SchemaError(f"duplicate variable name {nm!r}")
        names[nm] = i
        lower = rv.get("lower")
        upper = rv.get("upper")
        try:
            specs.append(
                VarSpec(
                    name=nm,
                    lower=-math.inf if lower is None else _number(lower, f"{nm}'s lower bound"),
                    upper=math.inf if upper is None else _number(upper, f"{nm}'s upper bound"),
                    integral=_typed(rv.get("integral", False), bool, f"{nm}'s integral flag"),
                )
            )
        except ValueError as exc:  # crossed or infinite bounds
            raise SchemaError(str(exc)) from exc
    n = len(specs)

    nonlinear = []
    for i, rc in enumerate(_typed(document.get("constraints", []), list, "'constraints'")):
        rc = _typed(rc, dict, f"constraint {i}")
        if "expression" not in rc:
            raise SchemaError(f"constraint {i} has no expression")
        label = _typed(rc.get("name", f"c{i}"), str, f"constraint {i}'s name")
        sense = _sense(rc, label)
        tree = parse_expr(_typed(rc["expression"], str, f"constraint {label}'s expression"), names)
        if sense == ">=0":
            tree = _fold(Unary("neg", tree))
        nonlinear.append(
            NonlinearConstraint(
                evaluator=lambda x, _t=tree: eval_expr(_t, x),
                sense="=0" if sense == "=0" else "<=0",
                support=expr_support(tree),
                expr=tree,
                name=label,
            )
        )

    for i, rb in enumerate(_typed(document.get("blackbox", []), list, "'blackbox'")):
        rb = _typed(rb, dict, f"black-box constraint {i}")
        nm = rb.get("name")
        if not isinstance(nm, str) or blackbox_registry is None or nm not in blackbox_registry:
            raise SchemaError(f"black-box constraint {nm!r} has no registered evaluator")
        support_names = rb.get("support")
        if not support_names or not isinstance(support_names, list):
            raise SchemaError(f"black-box constraint {nm!r} needs a support list")
        for sn in support_names:
            if not isinstance(sn, str) or sn not in names:
                raise UnknownIdentifier(f"unknown variable {sn!r}")
        sense = _sense(rb, nm)
        evaluator = blackbox_registry[nm]
        if sense == ">=0":
            evaluator = lambda x, _f=evaluator: -_f(x)
        nonlinear.append(
            NonlinearConstraint(
                evaluator=evaluator,
                sense="=0" if sense == "=0" else "<=0",
                support=frozenset(names[sn] for sn in support_names),
                name=nm,
            )
        )

    raw_obj = document.get("objective")
    if raw_obj is None:
        objective = LinearObjective(coeffs=np.zeros(n), constant=0.0)
    elif not isinstance(raw_obj, dict):
        raise SchemaError("objective must be an object")
    elif "linear" in raw_obj:
        coeffs = _typed(raw_obj["linear"], list, "linear objective")
        if len(coeffs) != n:
            raise SchemaError("linear objective length must match variable count")
        objective = LinearObjective(
            coeffs=np.array([_number(c, "linear objective coefficient") for c in coeffs]),
            constant=_number(raw_obj.get("constant", 0.0), "objective constant"),
        )
    elif "expression" in raw_obj:
        tree = parse_expr(_typed(raw_obj["expression"], str, "objective expression"), names)
        objective = NonlinearObjective(
            evaluator=lambda x, _t=tree: eval_expr(_t, x),
            support=expr_support(tree),
            expr=tree,
        )
    else:
        raise SchemaError("objective must carry 'expression' or 'linear'")

    return Problem(
        vars=tuple(specs),
        objective=objective,
        nonlinear=tuple(nonlinear),
        name=_typed(document.get("name", ""), str, "'name'"),
    )
