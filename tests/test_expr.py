"""Expression parsing, serialization, evaluation and differentiation."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from odeuniq.expr import (
    EvalDomainError,
    Expression,
    ExprSyntaxError,
    MissingBindingError,
    UnknownFunctionError,
    UnknownVariableError,
    parse,
    substitute,
)


def test_parse_basic_arithmetic():
    e = parse("1 + 2*3 - 4/2")
    assert e.evaluate({}) == pytest.approx(5.0)


def test_precedence_and_right_assoc_power():
    assert parse("2^3^2").evaluate({}) == 512.0  # right associative
    assert parse("2*3^2").evaluate({}) == 18.0
    assert parse("-2^2").evaluate({}) == 4.0  # unary minus binds the base


def test_parentheses():
    assert parse("(1+2)*(3+4)").evaluate({}) == 21.0


def test_variables_and_bindings():
    e = parse("t*x", allowed_vars={"t", "x"})
    assert e.evaluate({"t": 2.0, "x": -3.0}) == -6.0
    assert e.free_vars == {"t", "x"}


def test_functions():
    assert parse("sqrt(4)").evaluate({}) == 2.0
    assert parse("abs(-3)").evaluate({}) == 3.0
    assert parse("exp(0)").evaluate({}) == 1.0
    assert parse("log(exp(1))").evaluate({}) == pytest.approx(1.0)
    assert parse("sin(0)").evaluate({}) == 0.0
    assert parse("cos(0)").evaluate({}) == 1.0
    assert parse("sign(-2)").evaluate({}) == -1.0
    assert parse("pow(2, 10)").evaluate({}) == 1024.0
    assert parse("min(2, 3)").evaluate({}) == 2.0
    assert parse("max(2, 3)").evaluate({}) == 3.0


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 + * 2")
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse("(1 + 2")
    with pytest.raises(ExprSyntaxError):
        parse("")


def test_unknown_function_and_variable():
    with pytest.raises(UnknownFunctionError):
        parse("foo(1)")
    with pytest.raises(UnknownVariableError):
        parse("t + y", allowed_vars={"t"})


def test_missing_binding():
    with pytest.raises(MissingBindingError):
        parse("t", allowed_vars={"t"}).evaluate({})


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        parse("1/0").evaluate({})
    with pytest.raises(EvalDomainError):
        parse("log(0)").evaluate({})
    with pytest.raises(EvalDomainError):
        parse("sqrt(0-1)").evaluate({})


def test_lambdify_returns_nonfinite_instead_of_raising():
    f = parse("1/t", allowed_vars={"t"}).lambdify(("t",))
    out = f(np.array([0.0, 1.0]))
    assert np.isinf(out[0]) and out[1] == 1.0
    g = parse("log(t)", allowed_vars={"t"}).lambdify(("t",))
    assert not np.isfinite(g(np.array([-1.0]))[0])


def test_lambdify_broadcasts_missing_variables():
    f = parse("x", allowed_vars={"t", "x"}).lambdify(("t", "x"))
    t = np.zeros((5, 1))
    x = np.arange(3.0)[None, :]
    out = f(t, x)
    assert out.shape == (5, 3)
    assert np.all(out == np.broadcast_to(x, (5, 3)))


def test_serialize_round_trip_fixed_cases():
    for src in ["t*x + 1", "sqrt(abs(x))/t", "2^t^2", "-(t+1)*x",
                "min(t, max(x, 1))", "exp(-1/t)"]:
        e = parse(src)
        again = parse(e.serialize())
        assert again.serialize() == e.serialize()


def test_derivative_polynomial():
    e = parse("t^3 + 2*t", allowed_vars={"t"})
    d = e.diff("t")
    for t in (0.5, 1.0, 2.0):
        assert d.evaluate({"t": t}) == pytest.approx(3 * t * t + 2)


def test_derivative_chain_rule():
    e = parse("exp(-1/t)", allowed_vars={"t"})
    d = e.diff("t")
    for t in (0.5, 1.0, 2.0):
        assert d.evaluate({"t": t}) == pytest.approx(math.exp(-1 / t) / t**2)


def test_derivative_abs_and_sign():
    d = parse("abs(x)", allowed_vars={"x"}).diff("x")
    assert d.evaluate({"x": 2.0}) == 1.0
    assert d.evaluate({"x": -2.0}) == -1.0


def test_derivative_wrt_absent_variable_is_zero():
    d = parse("t^2", allowed_vars={"t"}).diff("x")
    assert d.evaluate({"t": 3.0}) == 0.0


def test_substitute_scales_argument():
    om = parse("r^2", allowed_vars={"r"})
    scaled = substitute(om, {"r": parse("2*r", allowed_vars={"r"})})
    assert scaled.evaluate({"r": 3.0}) == pytest.approx(36.0)


def test_expression_immutable_and_hashable():
    e = parse("t", allowed_vars={"t"})
    with pytest.raises(AttributeError):
        e.root = None
    assert hash(e) == hash(parse("t", allowed_vars={"t"}))


# ---------------------------------------------------------------------------
# property tests

_smooth = st.sampled_from([
    "t", "t^2", "t^3 - t", "t*t + 2", "sin(t)", "cos(t)", "exp(t/4)",
    "t*sin(t)", "1/(t+3)", "sqrt(t+3)", "exp(-t^2)", "t^2*cos(t)",
])


@given(_smooth, st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=150, deadline=None)
def test_derivative_matches_finite_difference(src, t):
    e = parse(src, allowed_vars={"t"})
    d = e.diff("t")
    h = 1e-5
    fd = (e.evaluate({"t": t + h}) - e.evaluate({"t": t - h})) / (2 * h)
    exact = d.evaluate({"t": t})
    assert exact == pytest.approx(fd, abs=1e-6 + 1e-4 * abs(exact))


@st.composite
def _expr_trees(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.one_of(
            st.floats(min_value=0.0, max_value=9.0).map(lambda v: repr(round(v, 3))),
            st.sampled_from(["t", "x"])))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    a = draw(_expr_trees(depth=depth + 1))
    b = draw(_expr_trees(depth=depth + 1))
    return f"({a} {op} {b})"


@given(_expr_trees())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_round_trip(src):
    e = parse(src, allowed_vars={"t", "x"})
    again = parse(e.serialize(), allowed_vars={"t", "x"})
    assert again.root == e.root


@given(_expr_trees(), st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0))
@example("(0.0 + (0.0 / (1.0 / 0.0)))", 1.0, 0.0)  # 0/inf: strict raises
@settings(max_examples=100, deadline=None)
def test_lambdify_agrees_with_scalar_eval(src, t, x):
    e = parse(src, allowed_vars={"t", "x"})
    fn = e.lambdify(("t", "x"))
    try:
        scalar = e.evaluate({"t": t, "x": x})
    except EvalDomainError:
        out = fn(np.array([t]), np.array([x]))[0]
        assert not np.isfinite(out) or abs(out) > 1e15
        return
    vector = float(fn(np.array([t]), np.array([x]))[0])
    assert vector == pytest.approx(scalar, rel=1e-12, abs=1e-12)
