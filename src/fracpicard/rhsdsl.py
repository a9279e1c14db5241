"""Right-hand-side formulas parsed from text.

The CLI defines problems in config files, so the nonlinearity
``f(t, x, y)`` must come from a string.  The grammar is deliberately
small, just enough for the shipped problems plus common smooth terms:

    expr   = term , { ("+" | "-") , term } ;
    term   = unary , { ("*" | "/") , unary } ;
    unary  = "-" , unary | power ;
    power  = atom , [ "^" , unary ] ;
    atom   = number | "pi" | "e" | "t" | "x" | "y"
           | name , "(" , expr , { "," , expr } , ")"
           | "(" , expr , ")" ;

``^`` is right-associative and binds tighter than unary minus, so
``-2^2`` is ``-(2^2)`` and ``2^3^2`` is ``2^(3^2)``.  Functions are
``sqrt``, ``abs``, ``sin``, ``cos``, ``exp``, and the two-argument
``ml(order, argument)`` whose order must be a numeric literal in
``(0, 1]`` so the series policy is fixed at parse time.  Expressions are
scalar; one expression per component lifts them to vector problems.

Parse and evaluation errors carry the byte span of the offending
fragment.  Parsed trees are immutable, evaluation is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import EvalError, FracpicardError, ParseError
from .sampling import halton_points
from .specfun import mittag_leffler

__all__ = [
    "Expr",
    "Num",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "LipschitzEstimate",
    "parse",
    "evaluate",
    "to_source",
    "as_rhs",
    "estimate_lipschitz",
]

Span = tuple[int, int]

_CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("t", "x", "y")
_UNARY_FUNCS = ("sqrt", "abs", "sin", "cos", "exp")


@dataclass(frozen=True)
class Num:
    value: float
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Const:
    name: str
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Var:
    name: str
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]
    span: Span = field(compare=False, default=(0, 0))


Expr = Union[Num, Const, Var, Neg, BinOp, Call]


class LipschitzEstimate(NamedTuple):
    """Sampled Lipschitz constants; estimates, not certificates."""

    M1: float
    M2: float
    M3: float


_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


class _Token(NamedTuple):
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    span: Span


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.lastgroup is None:
            raise ParseError(f"unexpected character {text[pos]!r}", (pos, pos + 1))
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.span(kind)))
        pos = match.end()
    tokens.append(_Token("end", "", (len(text), len(text))))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.span)
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def parse(self) -> Expr:
        e = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing input {tail.text!r}", tail.span)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.at_op("+", "-"):
            op = self.advance()
            rhs = self.term()
            e = BinOp(op.text, e, rhs, (e.span[0], rhs.span[1]))
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.at_op("*", "/"):
            op = self.advance()
            rhs = self.unary()
            e = BinOp(op.text, e, rhs, (e.span[0], rhs.span[1]))
        return e

    def unary(self) -> Expr:
        if self.at_op("-"):
            op = self.advance()
            inner = self.unary()
            return Neg(inner, (op.span[0], inner.span[1]))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            exponent = self.unary()  # right-associative
            return BinOp("^", base, exponent, (base.span[0], exponent.span[1]))
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text), tok.span)
        if tok.kind == "name":
            self.advance()
            if self.at_op("("):
                return self.call(tok)
            if tok.text in _CONSTANTS:
                return Const(tok.text, tok.span)
            if tok.text in _VARIABLES:
                return Var(tok.text, tok.span)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.span)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            e = self.expr()
            closing = self.expect_op(")")
            return _respan(e, (tok.span[0], closing.span[1]))
        raise ParseError("expected a number, name, or parenthesized expression", tok.span)

    def call(self, name: _Token) -> Expr:
        self.expect_op("(")
        args = [self.expr()]
        while self.at_op(","):
            self.advance()
            args.append(self.expr())
        closing = self.expect_op(")")
        span = (name.span[0], closing.span[1])
        func = name.text
        if func in _UNARY_FUNCS:
            if len(args) != 1:
                raise ParseError(f"{func} takes exactly 1 argument, got {len(args)}", span)
            return Call(func, tuple(args), span)
        if func == "ml":
            if len(args) != 2:
                raise ParseError(f"ml takes exactly 2 arguments, got {len(args)}", span)
            order = args[0]
            if not isinstance(order, Num):
                raise ParseError("ml's first argument must be a numeric literal", order.span)
            if not (0.0 < order.value <= 1.0):
                raise ParseError(
                    f"ml order must lie in (0, 1], got {order.value}", order.span
                )
            return Call(func, tuple(args), span)
        raise ParseError(f"unknown function {name.text!r}", name.span)


def _respan(e: Expr, span: Span) -> Expr:
    return type(e)(**{**{f: getattr(e, f) for f in e.__dataclass_fields__}, "span": span})


def parse(text: str) -> Expr:
    """Parse a formula in ``t``, ``x``, ``y`` into an expression tree.

    Args:
        text: nonempty source string.

    Returns:
        The root of an immutable expression tree.

    Raises:
        ParseError: on malformed input, unknown identifiers, wrong
            arities, or an out-of-range ``ml`` order; the error carries
            the byte span.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", (0, max(1, len(text))))
    return _Parser(text).parse()


def _pow(base: float, exponent: float, span: Span) -> float:
    if base == 0.0 and exponent < 0.0:
        raise EvalError("zero raised to a negative power", span)
    if base < 0.0 and exponent != math.floor(exponent):
        raise EvalError("negative base raised to a non-integer power", span)
    try:
        return float(base**exponent)
    except OverflowError:
        raise EvalError("overflow in power", span) from None


def evaluate(e: Expr, t: float, x: float, y: float) -> float:
    """Evaluate an expression tree at scalar ``(t, x, y)``.

    Numeric faults (square root of a negative, division by zero, zero to
    a negative power, overflow, non-finite results) raise rather than
    propagating NaN or infinity.

    Raises:
        EvalError: carrying the span of the offending subexpression.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return _CONSTANTS[e.name]
    if isinstance(e, Var):
        return {"t": t, "x": x, "y": y}[e.name]
    if isinstance(e, Neg):
        return -evaluate(e.operand, t, x, y)
    if isinstance(e, BinOp):
        left = evaluate(e.left, t, x, y)
        right = evaluate(e.right, t, x, y)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            if right == 0.0:
                raise EvalError("division by zero", e.span)
            return left / right
        if e.op == "^":
            return _pow(left, right, e.span)
        raise EvalError(f"unknown operator {e.op!r}", e.span)
    if isinstance(e, Call):
        if e.func == "ml":
            order = e.args[0]
            assert isinstance(order, Num)
            z = evaluate(e.args[1], t, x, y)
            try:
                return mittag_leffler(order.value, z)
            except Exception as exc:
                raise EvalError(str(exc), e.span) from exc
        arg = evaluate(e.args[0], t, x, y)
        if e.func == "sqrt":
            if arg < 0.0:
                raise EvalError("square root of a negative value", e.span)
            return math.sqrt(arg)
        if e.func == "abs":
            return abs(arg)
        if e.func == "sin":
            return math.sin(arg)
        if e.func == "cos":
            return math.cos(arg)
        if e.func == "exp":
            try:
                value = math.exp(arg)
            except OverflowError:
                raise EvalError("overflow in exp", e.span) from None
            return value
        raise EvalError(f"unknown function {e.func!r}", e.span)
    raise EvalError(f"unknown node {type(e).__name__}", getattr(e, "span", (0, 0)))


# Precedence levels for the printer; a child below its context's minimum
# gets parentheses.  Power's left side must be strictly tighter (left
# association would change meaning), its right side admits unary.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _node_prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _PREC_ADD
        if e.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _print(e: Expr, min_prec: int) -> str:
    prec = _node_prec(e)
    if isinstance(e, Num):
        body = repr(e.value)
    elif isinstance(e, (Const, Var)):
        body = e.name
    elif isinstance(e, Neg):
        body = "-" + _print(e.operand, _PREC_NEG)
    elif isinstance(e, BinOp):
        if e.op in "+-":
            body = f"{_print(e.left, _PREC_ADD)} {e.op} {_print(e.right, _PREC_ADD + 1)}"
        elif e.op in "*/":
            body = f"{_print(e.left, _PREC_MUL)}{e.op}{_print(e.right, _PREC_MUL + 1)}"
        else:
            body = f"{_print(e.left, _PREC_POW + 1)}^{_print(e.right, _PREC_NEG)}"
    elif isinstance(e, Call):
        body = f"{e.func}({', '.join(_print(a, _PREC_ADD) for a in e.args)})"
    else:
        raise TypeError(f"unknown node {type(e).__name__}")
    if prec < min_prec:
        return f"({body})"
    return body


def to_source(e: Expr) -> str:
    """Render a tree back to parseable text.

    The output uses the fewest parentheses that preserve structure:
    ``parse(to_source(parse(s)))`` equals ``parse(s)`` node for node.
    """
    return _print(e, _PREC_ADD)


# A compiled tree maps block arguments ``t``, ``x``, ``y`` of shape ``(m,)``
# to its value (an array, or a scalar when it depends on no variable), and
# sets ``bad[k]`` for every node ``k`` at which any intermediate value is
# not finite.  Every fault ``evaluate`` guards against leaves one there
# under IEEE arithmetic (x/0 is infinite or NaN, the square root of a
# negative and a negative base to a non-integer power are NaN, zero to a
# negative power and overflow are infinite), so flagged nodes are the only
# ones that need ``evaluate`` to run again.
_Compiled = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], Union[np.ndarray, float]]

_NUMPY_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_NUMPY_UNARY = {"sqrt": np.sqrt, "abs": np.abs, "sin": np.sin, "cos": np.cos, "exp": np.exp}


def _ml_block(order: float, z: np.ndarray) -> np.ndarray:
    out = np.empty(z.shape)
    for k, zk in enumerate(z.tolist()):
        try:
            out[k] = mittag_leffler(order, zk)
        except FracpicardError:
            out[k] = math.nan  # flagged, so evaluate raises the EvalError
    return out


def _compile(e: Expr) -> _Compiled:
    if isinstance(e, (Num, Const)):
        value = e.value if isinstance(e, Num) else _CONSTANTS[e.name]
        fn = lambda t, x, y, bad: value
    elif isinstance(e, Var):
        index = _VARIABLES.index(e.name)
        fn = lambda t, x, y, bad: (t, x, y)[index]
    elif isinstance(e, Neg):
        operand = _compile(e.operand)
        fn = lambda t, x, y, bad: np.negative(operand(t, x, y, bad))
    elif isinstance(e, BinOp) and e.op in _NUMPY_BINARY:
        op = _NUMPY_BINARY[e.op]
        left, right = _compile(e.left), _compile(e.right)
        fn = lambda t, x, y, bad: op(left(t, x, y, bad), right(t, x, y, bad))
    elif isinstance(e, Call) and e.func == "ml":
        order, arg = e.args[0], _compile(e.args[1])
        assert isinstance(order, Num)
        fn = lambda t, x, y, bad: _ml_block(
            order.value, np.broadcast_to(arg(t, x, y, bad), bad.shape)
        )
    elif isinstance(e, Call) and e.func in _NUMPY_UNARY:
        func, arg = _NUMPY_UNARY[e.func], _compile(e.args[0])
        fn = lambda t, x, y, bad: func(arg(t, x, y, bad))
    else:
        fn = lambda t, x, y, bad: math.nan  # evaluate raises for what it cannot evaluate

    def checked(t, x, y, bad):
        value = fn(t, x, y, bad)
        np.logical_or(bad, ~np.isfinite(value), out=bad)
        return value

    return checked


def as_rhs(exprs: Sequence[Expr]) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Lift scalar expressions, one per component, to a block callback.

    The callback follows the ``ProblemSpec.rhs`` contract: ``t`` has
    shape ``(m, 1)``, ``x`` and ``y`` have shape ``(m, d)`` with
    ``d = len(exprs)``, and the result has shape ``(m, d)``.  Component
    ``i`` of row ``k`` evaluates ``exprs[i]`` at ``(t[k, 0], x[k, i],
    y[k, i])``: components couple through the solver, not through each
    other.

    Each tree is compiled once into numpy operations over the whole
    block.  Nodes where an intermediate value is not finite, which every
    fault :func:`evaluate` guards against (division by zero, square root
    of a negative, zero to a negative power, negative base to a
    non-integer power, overflow, a failing ``ml``) produces, are
    evaluated again, in node order, by :func:`evaluate`.  So a fault
    raises the same :class:`EvalError` with the same span as evaluating
    node by node would, and nodes without faults never walk the tree.
    Re-evaluation stops at the first node whose value is not finite;
    the other nodes re-evaluated after it are left NaN.

    Args:
        exprs: parsed trees, one per state component.

    Returns:
        A callback suitable for ``ProblemSpec.rhs``.
    """
    if len(exprs) == 0:
        raise ValueError("at least one expression is required")
    trees = tuple(exprs)
    compiled = tuple(_compile(tree) for tree in trees)

    def rhs(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        times = t[:, 0]
        out = np.empty(x.shape)
        bad = np.zeros(x.shape, dtype=bool)
        with np.errstate(all="ignore"):
            for i, fn in enumerate(compiled):
                out[:, i] = fn(times, x[:, i], y[:, i], bad[:, i])
        rows = np.flatnonzero(bad.any(axis=1))
        for j, k in enumerate(rows.tolist()):
            for i in np.flatnonzero(bad[k]).tolist():
                out[k, i] = evaluate(trees[i], float(times[k]), float(x[k, i]), float(y[k, i]))
            if not np.isfinite(out[k]).all():
                out[rows[j + 1 :]] = math.nan
                break
        return out

    return rhs


def estimate_lipschitz(
    e: Expr, T: float, box_radius: float, samples: int
) -> LipschitzEstimate:
    """Sample Lipschitz constants of an expression in each argument.

    Draws low-discrepancy pairs in ``[0, T] x [-box_radius, box_radius]**2``
    that differ in one argument at a time, takes the largest observed
    difference quotient per argument, and scales by a 1.2 safety factor.
    The result is an estimate from finitely many samples, not a
    certificate; treat it accordingly (and report it as an estimate).

    Args:
        e: the expression.
        T: time horizon, ``> 0``.
        box_radius: state box half-width, ``> 0``.
        samples: number of sample pairs per argument, at least 100.

    Returns:
        ``LipschitzEstimate(M1, M2, M3)`` for the ``t``, ``x``, ``y``
        slopes respectively.

    Raises:
        EvalError: from any sampled evaluation, with the sample's
            coordinates appended.
    """
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if box_radius <= 0.0:
        raise ValueError(f"box_radius must be > 0, got {box_radius}")
    if samples < 100:
        raise ValueError(f"samples must be at least 100, got {samples}")

    pts = halton_points(samples, 6)
    slopes = [0.0, 0.0, 0.0]
    for row in pts:
        t0 = float(row[0]) * T
        x0 = (2.0 * float(row[1]) - 1.0) * box_radius
        y0 = (2.0 * float(row[2]) - 1.0) * box_radius
        alt = (
            float(row[3]) * T,
            (2.0 * float(row[4]) - 1.0) * box_radius,
            (2.0 * float(row[5]) - 1.0) * box_radius,
        )
        base_args = (t0, x0, y0)
        try:
            base = evaluate(e, t0, x0, y0)
            for axis in range(3):
                moved = list(base_args)
                moved[axis] = alt[axis]
                gap = abs(moved[axis] - base_args[axis])
                if gap < 1e-12:
                    continue
                shifted = evaluate(e, *moved)
                slopes[axis] = max(slopes[axis], abs(shifted - base) / gap)
        except EvalError as exc:
            raise EvalError(
                f"{exc.message} while sampling at (t={t0:g}, x={x0:g}, y={y0:g})",
                exc.span,
            ) from exc
    return LipschitzEstimate(1.2 * slopes[0], 1.2 * slopes[1], 1.2 * slopes[2])
