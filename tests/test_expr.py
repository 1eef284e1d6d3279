"""Expression parsing, serialization, evaluation and differentiation."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_reference
from odeuniq.expr import (
    FUNCTIONS,
    EvalDomainError,
    Expression,
    ExprSyntaxError,
    MissingBindingError,
    UnknownFunctionError,
    UnknownVariableError,
    parse,
    substitute,
)
from odeuniq import cli, expr
from odeuniq.expr import _NP_ENV, Bin, Num, Var, _np_source

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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


def test_equal_sources_share_one_function():
    pair = ("t", "x")
    assert parse("t*x", {"t", "x"}).lambdify(pair) is \
        parse("t*x", {"t", "x"}).lambdify(pair)
    du = parse("t^3 - sin(t)", {"t"}).diff("t")  # a rebuilt tree
    assert du.lambdify(("t",)) is \
        parse(du.serialize(), {"t"}).lambdify(("t",))


def test_signed_zero_sources_get_their_own_functions():
    # the trees are equal and hash alike, their sources are not
    pos, neg = (Expression(Bin("/", Num(1.0), Bin("*", Var("t"), Num(z))))
                for z in (0.0, -0.0))
    assert pos == neg and hash(pos) == hash(neg)
    f, g = pos.lambdify(("t",)), neg.lambdify(("t",))
    assert f is not g
    assert (f(np.ones(1))[0], g(np.ones(1))[0]) == (math.inf, -math.inf)


def test_second_suite_run_compiles_no_kernel(tmp_path, monkeypatch, capsys):
    sources = []

    def counted_eval(src, env):
        sources.append(src)
        return eval(src, env)  # noqa: S307 - the kernel's own source

    def suite(out):
        assert cli.main(["suite", "--corpus", str(CORPUS),
                         "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out).read_bytes()

    suite("first.json")
    monkeypatch.setattr(expr, "eval", counted_eval, raising=False)
    warm = suite("warm.json")
    assert sources == []
    expr._compile.cache_clear()
    cold = suite("cold.json")
    assert sources and len(sources) == len(set(sources))
    assert warm == cold


# '^' with a finite nonzero literal exponent is '**' on the finite_or_nan
# base, without power's nan guard; it must keep the guarded bits on every
# kind of base.  Exponents 2, 0.5 and -1 take numpy's '**' fast paths.
LITERAL_BASES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                 -3.5, -1.0, 0.25, 1.0, 7.0, 1e300]


@pytest.mark.parametrize("c", ["0.3899", "-2", "2", "0.5", "-1"])
def test_literal_exponent_power_keeps_guarded_bits(c):
    e = parse(f"(1*x)^{c}", allowed_vars={"x"})
    assert "power(" not in _np_source(e.root)
    x = np.array(LITERAL_BASES)
    with np.errstate(all="ignore"):
        base = _NP_ENV["finite_or_nan"](1.0 * x)
        want = _NP_ENV["power"](base, np.float64(float(c)))
    got = e.lambdify(("x",))(x)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("src", ["(1*x)^0", "(1*x)^x", "x^(t+1)",
                                 "(1*x)^(1/0)"])
def test_other_exponents_keep_nan_guard(src):
    assert _np_source(parse(src, allowed_vars={"t", "x"}).root) \
        .startswith("power(")


@pytest.mark.parametrize("src,x,message", [
    ("abs(x - 1)^-2", 1.0, "non-finite value inf of (abs((x-1.0))^(-2.0))"),
    ("(x - 2)^0.5", 1.0, "non-finite value nan of ((x-2.0)^0.5)"),
    ("(1/x)^0.3899", 0.0, "non-finite value nan of ((1.0/x)^0.3899)"),
    ("(1/x)^0", 0.0, "non-finite value nan of ((1.0/x)^0.0)"),
])
def test_power_domain_error_messages(src, x, message):
    with pytest.raises(EvalDomainError) as exc:
        parse(src).evaluate({"x": x})
    assert str(exc.value) == f"{message} at (x={x!r})"


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
            st.floats(min_value=-9.0, max_value=9.0).map(lambda v: repr(round(v, 3))),
            st.sampled_from(["0", "t", "x"])))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*", "/", "^", *FUNCTIONS]))
    args = [draw(_expr_trees(depth=depth + 1)) for _ in range(FUNCTIONS.get(op, 2))]
    if op in FUNCTIONS:
        return f"{op}({', '.join(args)})"
    return f"({args[0]} {op} {args[1]})"


@given(_expr_trees())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_round_trip(src):
    e = parse(src, allowed_vars={"t", "x"})
    again = parse(e.serialize(), allowed_vars={"t", "x"})
    assert again.root == e.root


@given(_expr_trees(), st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0))
@example("(0.0 + (0.0 / (1.0 / 0.0)))", 1.0, 0.0)  # 0/inf = 0
# a power turns a non-finite operand finite: 1^nan = nan^0 = inf^0 = 1^inf = 1
@example("(1 ^ sqrt(0 - 1))", 1.0, 0.0)
@example("(sqrt(0 - 1) ^ 0)", 1.0, 0.0)
@example("((1 / 0) ^ 0)", 1.0, 0.0)
@example("(1 ^ (1 / 0))", 1.0, 0.0)
@settings(max_examples=300, deadline=None)
def test_lambdify_agrees_with_scalar_eval(src, t, x):
    """evaluate and lambdify against the strict tree-walker: the same domain
    errors, values to rounding (numpy's exp and power are not math's), and
    evaluate is lambdify at one point bit for bit."""
    e = parse(src, allowed_vars={"t", "x"})
    point = {"t": t, "x": x}
    vector = float(e.lambdify(("t", "x"))(np.array([t]), np.array([x]))[0])
    try:
        ref = scalar_reference.evaluate(e, point)
    except EvalDomainError:
        with pytest.raises(EvalDomainError):
            e.evaluate(point)
        assert not np.isfinite(vector)
        return
    value = e.evaluate(point)
    assert value == pytest.approx(ref, rel=1e-12)
    assert value.hex() == vector.hex()
