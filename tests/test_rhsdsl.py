import math
from dataclasses import replace

import numpy as np
import pytest

from fracpicard.errors import EvalError, ExpressionError, ParseError, RhsEvaluationError
from fracpicard.fixtures import builtin_fixtures
from fracpicard.rhsdsl import (
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    Var,
    as_rhs,
    evaluate,
    parse,
    to_source,
)
from fracpicard.sampling import halton_points
from fracpicard.solver import ProblemSpec, SolverConfig, _eval_grid, pointwise, solve

from oracles import erfc_identity

REFERENCE_RHS = "sqrt(pi)/4 - t^(1/2)/2 + (x + abs(y))/2"


def ev(text, t=0.0, x=0.0, y=0.0):
    return evaluate(parse(text), t, x, y)


class TestParsePrecedence:
    def test_mul_binds_tighter_than_add(self):
        assert ev("2+3*4") == 14.0

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-2^2") == -4.0

    def test_negative_exponent(self):
        assert ev("2^-2") == 0.25

    def test_left_associative_sub_and_div(self):
        assert ev("2-3-4") == -5.0
        assert ev("16/4/2") == 2.0

    def test_parentheses_override(self):
        assert ev("(2+3)*4") == 20.0
        assert ev("(-2)^2") == 4.0
        assert ev("2^(3^2)") == 512.0
        assert ev("(2^3)^2") == 64.0

    def test_whitespace_is_free(self):
        assert parse(" 1+2 *x ") == parse("1 + 2*x")

    def test_structural_equality_ignores_spans(self):
        # the same formula written with different spacing parses to equal
        # trees even though the recorded spans differ
        a = parse("1 +    x")
        b = parse("1 + x")
        assert a == b
        assert a.span != b.span


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("1 + * 2", 4),
            ("2 @ 3", 2),
            ("(1 + 2", 6),
            ("foo", 0),
            ("1 2", 2),
        ],
    )
    def test_error_offsets(self, text, offset):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert excinfo.value.span[0] == offset
        assert f"offset {offset}" in str(excinfo.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("1 + q")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("tan(1)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="exactly 1 argument"):
            parse("sqrt(1, 2)")
        with pytest.raises(ParseError, match="exactly 2 arguments"):
            parse("ml(0.5)")

    def test_ml_order_must_be_literal(self):
        with pytest.raises(ParseError, match="numeric literal"):
            parse("ml(x, 1)")
        with pytest.raises(ParseError, match="numeric literal"):
            parse("ml(1/2, 1)")

    def test_ml_order_range(self):
        with pytest.raises(ParseError, match=r"\(0, 1\]"):
            parse("ml(2, x)")
        with pytest.raises(ParseError, match=r"\(0, 1\]"):
            parse("ml(0, x)")
        parse("ml(1, x)")  # the boundary value is allowed

    def test_parse_error_is_value_error(self):
        with pytest.raises(ValueError):
            parse("1 +")


class TestEvaluate:
    def test_reference_rhs_value(self):
        expected = math.sqrt(math.pi) / 4.0 + 1.0
        assert ev(REFERENCE_RHS, t=0.0, x=1.0, y=1.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_variables_and_constants(self):
        assert ev("t + 2*x - y", t=1.0, x=2.0, y=3.0) == 2.0
        assert ev("pi") == pytest.approx(math.pi)
        assert ev("e") == pytest.approx(math.e)

    def test_functions(self):
        assert ev("sqrt(16)") == 4.0
        assert ev("abs(0-3)") == 3.0
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("exp(1)") == pytest.approx(math.e)

    def test_ml_call(self):
        assert ev("ml(0.5, 0)") == 1.0
        assert ev("ml(0.5, 1)") == pytest.approx(erfc_identity(1.0), abs=1e-10)
        assert ev("ml(1, 1)") == pytest.approx(math.e, rel=1e-12)

    def test_ml_of_time(self):
        expr = parse("ml(0.5, 2*t^(1/2))")
        assert evaluate(expr, 0.0, 0.0, 0.0) == 1.0
        assert evaluate(expr, 0.25, 0.0, 0.0) == pytest.approx(
            erfc_identity(1.0), abs=1e-10
        )

    @pytest.mark.parametrize(
        "text",
        ["sqrt(0-1)", "1/(x-x)", "0^(0-1)", "(0-2)^0.5", "exp(1000)", "ml(0.5, 300)"],
    )
    def test_numeric_faults_raise(self, text):
        with pytest.raises(EvalError):
            ev(text, x=1.0)

    def test_eval_error_carries_span(self):
        with pytest.raises(EvalError) as excinfo:
            ev("1 + sqrt(0-1)")
        start, end = excinfo.value.span
        assert "1 + sqrt(0-1)"[start:end] == "sqrt(0-1)"

    def test_expression_error_base(self):
        # both parse and eval failures share one catchable base
        with pytest.raises(ExpressionError):
            parse("1 +")
        with pytest.raises(ExpressionError):
            ev("1/0")


class TestPrinting:
    ROUND_TRIP = [
        "1",
        "-x",
        "t + x + y",
        "2 - 3 - 4",
        "2*x + 3/y",
        "x^2^3",
        "(x^2)^3",
        "-(x + y)",
        "(-2)^2",
        "-2^2",
        "2^-2",
        "sqrt(abs(x))",
        "ml(0.5, 2*t^(1/2))",
        "sin(cos(exp(t)))",
        "(t + x)*(t - y)",
        "1/(1 + x^2)",
        REFERENCE_RHS,
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_round_trip_preserves_structure(self, text):
        tree = parse(text)
        assert parse(to_source(tree)) == tree

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_printer_is_idempotent(self, text):
        printed = to_source(parse(text))
        assert to_source(parse(printed)) == printed

    def test_minimal_parentheses(self):
        assert to_source(parse("(2*x) + (3*y)")) == "2.0*x + 3.0*y"
        assert to_source(parse("2^(3^2)")) == "2.0^3.0^2.0"
        assert "(" in to_source(parse("(2^3)^2"))


class TestAsRhs:
    def test_componentwise_lift(self):
        rhs = as_rhs([parse("x + t"), parse("2*y")])
        out = rhs(np.array([[0.5]]), np.array([[1.0, 10.0]]), np.array([[0.0, 3.0]]))[0]
        assert out == pytest.approx(np.array([1.5, 6.0]))

    def test_requires_expressions(self):
        with pytest.raises(ValueError):
            as_rhs([])

    def test_matches_direct_evaluation(self):
        tree = parse(REFERENCE_RHS)
        rhs = as_rhs([tree])
        for t, x, y in [(0.0, 1.0, 1.0), (0.25, 2.0, -1.0), (0.5, 0.0, 0.0)]:
            direct = evaluate(tree, t, x, y)
            assert rhs(np.array([[t]]), np.array([[x]]), np.array([[y]]))[0, 0] == direct


def _block(samples, d=1, T=0.5, radius=2.0):
    """Halton points in the block layout: t of shape (m, 1), x and y of shape (m, d)."""
    pts = halton_points(samples, 1 + 2 * d)
    t = pts[:, :1] * T
    x = (2.0 * pts[:, 1 : 1 + d] - 1.0) * radius
    y = (2.0 * pts[:, 1 + d :] - 1.0) * radius
    return t, x, y


def _per_node(trees, t, x, y):
    values = [
        [evaluate(tree, float(t[k, 0]), float(x[k, i]), float(y[k, i])) for i, tree in enumerate(trees)]
        for k in range(len(t))
    ]
    return np.array(values, dtype=float).reshape(len(t), len(trees))


def _stepwise(e, t, x, y):
    """``evaluate`` applied one tree node at a time to already computed children.

    ``^`` and ``exp`` take numpy's value instead, after checking it is
    within 2 ulp of ``evaluate``'s; every other node is ``evaluate``'s own
    result.  The compiled closure must reproduce this bit for bit.
    """
    if isinstance(e, (Num, Const, Var)):
        return evaluate(e, t, x, y)
    if isinstance(e, Neg):
        return -_stepwise(e.operand, t, x, y)
    if isinstance(e, BinOp):
        left, right = _stepwise(e.left, t, x, y), _stepwise(e.right, t, x, y)
        exact = evaluate(BinOp(e.op, Num(left), Num(right)), 0.0, 0.0, 0.0)
        if e.op != "^":
            return exact
        value = float(np.power(left, right))
    else:
        args = tuple(Num(_stepwise(a, t, x, y)) for a in e.args)
        exact = evaluate(Call(e.func, args), 0.0, 0.0, 0.0)
        if e.func != "exp":
            return exact
        value = float(np.exp(args[0].value))
    assert abs(value - exact) <= 2.0 * np.spacing(abs(exact))
    return value


def _inexact(e):
    """Whether the tree uses ``^`` or ``exp``, where numpy may differ in the last bits."""
    if isinstance(e, BinOp):
        return e.op == "^" or _inexact(e.left) or _inexact(e.right)
    if isinstance(e, Call):
        return e.func == "exp" or any(_inexact(a) for a in e.args)
    if isinstance(e, Neg):
        return _inexact(e.operand)
    return False


AGREEMENT = TestPrinting.ROUND_TRIP + sorted(
    {text for fixture in builtin_fixtures().values() for text in fixture.rhs_text}
)


class TestCompiledAgreement:
    @pytest.mark.parametrize("text", AGREEMENT)
    def test_matches_evaluate(self, text):
        tree = parse(text)
        t, x, y = _block(300)
        got = as_rhs([tree])(t, x, y)
        assert got.shape == (300, 1)
        stepwise = np.array([[_stepwise(tree, *row)] for row in zip(t[:, 0], x[:, 0], y[:, 0])])
        assert np.array_equal(got, stepwise)
        if not _inexact(tree):
            assert np.array_equal(got, _per_node([tree], t, x, y))

    def test_two_components(self):
        trees = [parse("sin(x) + t*y"), parse("2*x + 3/y")]
        t, x, y = _block(300, d=2)
        assert np.array_equal(as_rhs(trees)(t, x, y), _per_node(trees, t, x, y))

    def test_two_components_with_power(self):
        trees = [parse("x^2^3"), parse(REFERENCE_RHS)]
        t, x, y = _block(300, d=2)
        got = as_rhs(trees)(t, x, y)
        for i, tree in enumerate(trees):
            expected = [_stepwise(tree, *row) for row in zip(t[:, 0], x[:, i], y[:, i])]
            assert np.array_equal(got[:, i], expected)

    def test_solver_matches_pointwise_callable(self, reference):
        spec = reference.spec

        def per_node(t, x, y):
            return math.sqrt(math.pi) / 4.0 - t ** (1.0 / 2.0) / 2.0 + (x + np.abs(y)) / 2.0

        config = SolverConfig(n=256, tol=1e-10, theta_override=2.0)
        compiled = solve(replace(spec, rhs=as_rhs([parse(REFERENCE_RHS)])), config)
        lifted = solve(replace(spec, rhs=pointwise(per_node)), config)
        assert compiled.iterations == lifted.iterations
        for a, b in ((compiled.x, lifted.x), (compiled.z, lifted.z)):
            assert np.allclose(a.values, b.values, rtol=1e-13, atol=0.0)


def _first_fault(trees, t, x, y):
    """The node at which node-by-node evaluation first fails, and its error.

    The error is ``None`` when the node evaluates to a non-finite value
    without raising.
    """
    for k in range(len(t)):
        try:
            row = _per_node(trees, t[k : k + 1], x[k : k + 1], y[k : k + 1])[0]
        except EvalError as exc:
            return k, exc
        if not all(math.isfinite(v) for v in row):
            return k, None
    raise AssertionError("no node faults")


def _ramp(start, stop, m=65, d=1):
    t = np.linspace(0.0, 1.0, m)[:, None]
    x = np.repeat(np.linspace(start, stop, m)[:, None], d, axis=1)
    return t, x, np.zeros_like(x)


class TestFaultParity:
    @pytest.mark.parametrize(
        "texts,start,stop",
        [
            (["sqrt(x - 2)"], 8.0, -8.0),
            (["0^(x - 5)"], 8.0, -8.0),
            (["(-1)^t"], 8.0, -8.0),
            (["exp(1000*x)"], -8.0, 8.0),
            (["exp(-1/(t - t))"], -8.0, 8.0),
            (["ml(0.5, x)"], 8.0, -8.0),
            (["1 + sqrt(x - 1)", "sqrt(x - 2)"], 8.0, -8.0),
        ],
    )
    def test_same_error_at_same_node(self, texts, start, stop):
        trees = [parse(text) for text in texts]
        t, x, y = _ramp(start, stop, d=len(trees))
        node, expected = _first_fault(trees, t, x, y)
        rhs = as_rhs(trees)
        before = rhs(t[:node], x[:node], y[:node])
        assert np.array_equal(before, _per_node(trees, t[:node], x[:node], y[:node]))
        for end in (node + 1, len(t)):
            with pytest.raises(EvalError) as excinfo:
                rhs(t[:end], x[:end], y[:end])
            assert excinfo.value.message == expected.message
            assert excinfo.value.span == expected.span

    def test_non_finite_node_is_named_before_a_later_fault(self):
        # 1e308*x overflows to inf without raising once x > 1.8; the
        # square root fails only at the later nodes where x > 4.
        tree = parse("1e308*x + sqrt(4 - x)")
        spec = ProblemSpec(alpha=0.5, T=1.0, x0=0.0, rhs=as_rhs([tree]), M1=0.0, M2=0.5, M3=0.5)
        t, x, y = _ramp(0.0, 8.0)
        node, expected = _first_fault([tree], t, x, y)
        assert expected is None and node > 0
        with pytest.raises(RhsEvaluationError, match=f"node {node} "):
            _eval_grid(spec, t, x, y)

