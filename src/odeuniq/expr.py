"""Arithmetic expression DSL: parsing, evaluation, symbolic differentiation.

Expressions are the carrier for the right-hand side f(t, x), the gauge
functions u(t), v(t), lambda(t) and the comparison function omega(r).
They are immutable after parsing; evaluation is pure.

An expression has one semantics: the numpy kernel that ``lambdify``
compiles.  It never raises; a value is nan or inf exactly when some
intermediate result is (a division by zero, a sqrt/log/power domain
violation or an overflow).  ``evaluate`` is that kernel at one point and
raises EvalDomainError where its value is not finite.  Expressions whose
kernel sources are equal share one function, compiled once per process.

Functions: sqrt, abs, exp, log, sin, cos, sign (sign(0) = 0), pow(a, b),
min(a, b) and max(a, b).

Grammar (conventional precedence, '^' right-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' factor)?
    atom   := number | name | name '(' expr (',' expr)* ')'
            | '(' expr ')' | '-' atom
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "parse",
    "substitute",
    "ExprError",
    "ExprSyntaxError",
    "UnknownFunctionError",
    "UnknownVariableError",
    "MissingBindingError",
    "EvalDomainError",
]


# ---------------------------------------------------------------------------
# errors

class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f" (expected {expected})" if expected else ""
        super().__init__(f"syntax error at offset {position}: {message}{detail}")


class UnknownFunctionError(ExprError):
    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unknown function {name!r} at offset {position}")


class UnknownVariableError(ExprError):
    def __init__(self, name: str, position: int, allowed):
        self.name = name
        self.position = position
        allowed_s = ", ".join(sorted(allowed))
        super().__init__(
            f"unknown variable {name!r} at offset {position} (allowed: {allowed_s})"
        )


class MissingBindingError(ExprError):
    pass


class EvalDomainError(ExprError):
    """A non-finite value: division by zero, a log/sqrt/power domain
    violation or an overflow at some step of the evaluation."""


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Node = Num | Var | Neg | Bin | Call

# name -> arity
FUNCTIONS = {
    "sqrt": 1,
    "abs": 1,
    "exp": 1,
    "log": 1,
    "sin": 1,
    "cos": 1,
    "sign": 1,  # arises as the derivative of abs; sign(0) = 0
    "pow": 2,
    "min": 2,
    "max": 2,
}


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^(),]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            where = n - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", where)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, allowed_vars=None):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.allowed_vars = None if allowed_vars is None else frozenset(allowed_vars)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, text, pos = self.peek()
        if kind != "sym" or text != sym:
            raise ExprSyntaxError(f"got {text!r}" if text else "unexpected end of input",
                                  pos, expected=repr(sym))
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "sym" and text in "+-":
                self.advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "sym" and text in "*/":
                self.advance()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "sym" and text == "^":
            self.advance()
            return Bin("^", base, self.factor())  # right-associative
        return base

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            k2, t2, _ = self.peek()
            if k2 == "sym" and t2 == "(":
                if text not in FUNCTIONS:
                    raise UnknownFunctionError(text, pos)
                self.advance()
                args = [self.expr()]
                while True:
                    k3, t3, p3 = self.peek()
                    if k3 == "sym" and t3 == ",":
                        self.advance()
                        args.append(self.expr())
                    elif k3 == "sym" and t3 == ")":
                        self.advance()
                        break
                    else:
                        raise ExprSyntaxError(
                            f"got {t3!r}" if t3 else "unexpected end of input",
                            p3, expected="',' or ')'")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{text} takes {arity} argument(s), got {len(args)}", pos)
                return Call(text, tuple(args))
            if self.allowed_vars is not None and text not in self.allowed_vars:
                raise UnknownVariableError(text, pos, self.allowed_vars)
            return Var(text)
        if kind == "sym" and text == "(":
            node = self.expr()
            self.expect_sym(")")
            return node
        if kind == "sym" and text == "-":
            return Neg(self.atom())
        raise ExprSyntaxError(
            f"got {text!r}" if text else "unexpected end of input",
            pos, expected="number, name, '(' or '-'")


# ---------------------------------------------------------------------------
# serialization (canonical, fully parenthesized; same grammar as the input)

def _serialize(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_serialize(node.arg)})"
    if isinstance(node, Bin):
        return f"({_serialize(node.left)}{node.op}{_serialize(node.right)})"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_serialize(a) for a in node.args)})"
    raise TypeError(node)


def _free_vars(node: Node, out: set):
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _free_vars(node.arg, out)
    elif isinstance(node, Bin):
        _free_vars(node.left, out)
        _free_vars(node.right, out)
    elif isinstance(node, Call):
        for a in node.args:
            _free_vars(a, out)


# ---------------------------------------------------------------------------
# vectorized numpy compilation

def _nan_where_nan(a, b, value):
    return np.where(np.isnan(a) | np.isnan(b), np.nan, value)


_NP_ENV = {
    "sqrt": np.sqrt,
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sign": np.sign,
    "pow": lambda a, b: _nan_where_nan(a, b, np.power(a, b)),
    "min": np.minimum,
    "max": np.maximum,
    "power": lambda a, b: _nan_where_nan(a, b, a ** b),
    "asarray": np.asarray,
    "float64": np.float64,
    "finite_or_nan": lambda a: np.where(np.isfinite(a), a, np.nan),
    "__builtins__": {},
}

# An expression's value is non-finite exactly when one of its intermediate
# results is.  Most operations carry a non-finite operand into a non-finite
# result anyway; these can turn it finite (c/inf = 0, exp(-inf) = 0,
# min(inf, c) = c, sign(inf) = 1, 1^inf = 1), so the kernel maps such an
# operand to nan.  A power can also turn nan finite (1^nan = nan^0 = 1), so
# '^' with an intermediate operand and pow() give nan when an operand is
# nan; they keep '**' and np.power for the value otherwise.  '^' with a
# finite nonzero literal exponent c needs no such guard: nan**c is nan for
# c != 0, so it is '**' on the finite_or_nan base.
_ABSORBING_CALLS = frozenset({"exp", "sign", "pow", "min", "max"})


def _np_source(node: Node) -> str:
    if isinstance(node, Num):
        return f"float64({node.value!r})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_np_source(node.arg)})"
    if isinstance(node, Bin):
        if node.op == "^":
            left, right = _np_guarded(node.left), _np_guarded(node.right)
            if (_is_intermediate(node.left) or _is_intermediate(node.right)) \
                    and not _is_nonzero_literal(node.right):
                return f"power({left}, {right})"
            return f"({left}**{right})"
        right = _np_guarded(node.right) if node.op == "/" else _np_source(node.right)
        return f"({_np_source(node.left)}{node.op}{right})"
    if isinstance(node, Call):
        src = _np_guarded if node.fn in _ABSORBING_CALLS else _np_source
        return f"{node.fn}({', '.join(src(a) for a in node.args)})"
    raise TypeError(node)


def _is_intermediate(node: Node) -> bool:
    """True for an operation's result, False for a (negated) number or
    variable."""
    while isinstance(node, Neg):
        node = node.arg
    return isinstance(node, (Bin, Call))


def _is_nonzero_literal(node: Node) -> bool:
    """True for a (negated) finite nonzero number."""
    while isinstance(node, Neg):
        node = node.arg
    return isinstance(node, Num) and math.isfinite(node.value) \
        and node.value != 0.0


def _np_guarded(node: Node) -> str:
    """Source of an operand of an absorbing operation: an intermediate
    result is passed through finite_or_nan; a number or variable is not."""
    if _is_intermediate(node):
        return f"finite_or_nan({_np_source(node)})"
    return _np_source(node)


# ---------------------------------------------------------------------------
# symbolic differentiation with light constant folding

def _num(v: float) -> Node:
    if v < 0.0:
        return Neg(Num(-v))
    return Num(v)


def _is_num(n: Node, v: float | None = None) -> bool:
    if isinstance(n, Num):
        return v is None or n.value == v
    return False


def _add(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and math.isfinite(a.value + b.value):
        return _num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num) and math.isfinite(a.value - b.value):
        return _num(a.value - b.value)
    return Bin("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and math.isfinite(a.value * b.value):
        return _num(a.value * b.value)
    return Bin("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Bin("/", a, b)


def _neg(a: Node) -> Node:
    if isinstance(a, Neg):
        return a.arg
    if _is_num(a, 0.0):
        return Num(0.0)
    return Neg(a)


def _pow_node(a: Node, b: Node) -> Node:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return Bin("^", a, b)


def _diff(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, var))
    if isinstance(node, Bin):
        a, b = node.left, node.right
        da, db = _diff(a, var), _diff(b, var)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if node.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _pow_node(b, Num(2.0)))
        # a^b
        return _diff_power(a, b, da, db)
    if isinstance(node, Call):
        return _diff_call(node, var)
    raise TypeError(node)


def _diff_power(a: Node, b: Node, da: Node, db: Node) -> Node:
    if isinstance(b, Num):
        # d(a^c) = c * a^(c-1) * da
        return _mul(_mul(Num(b.value), _pow_node(a, _num(b.value - 1.0))), da)
    # general: a^b * (db*log(a) + b*da/a)
    return _mul(
        Bin("^", a, b),
        _add(_mul(db, Call("log", (a,))), _div(_mul(b, da), a)),
    )


def _diff_call(node: Call, var: str) -> Node:
    fn = node.fn
    a = node.args[0]
    da = _diff(a, var)
    if fn == "sqrt":
        return _div(da, _mul(Num(2.0), Call("sqrt", (a,))))
    if fn == "abs":
        return _mul(Call("sign", (a,)), da)
    if fn == "exp":
        return _mul(Call("exp", (a,)), da)
    if fn == "log":
        return _div(da, a)
    if fn == "sin":
        return _mul(Call("cos", (a,)), da)
    if fn == "cos":
        return _neg(_mul(Call("sin", (a,)), da))
    if fn == "sign":
        return Num(0.0)  # derivative 0 away from the jump; convention at 0
    if fn == "pow":
        b = node.args[1]
        return _diff_power(a, b, da, _diff(b, var))
    if fn in ("min", "max"):
        # min(a,b) = (a + b - |a - b|)/2, so
        # d min = (da + db - sign(a-b)*(da-db))/2 ; max analogous.
        b = node.args[1]
        db = _diff(b, var)
        s = _mul(Call("sign", (Bin("-", a, b),)), _sub(da, db))
        inner = _sub(_add(da, db), s) if fn == "min" else _add(_add(da, db), s)
        return _mul(Num(0.5), inner)
    raise EvalDomainError(f"cannot differentiate function {fn!r}")


# ---------------------------------------------------------------------------
# public wrapper

class Expression:
    """Immutable parsed expression over named variables."""

    __slots__ = ("root", "free_vars", "_vector_cache")

    def __init__(self, root: Node):
        object.__setattr__(self, "root", root)
        fv: set = set()
        _free_vars(root, fv)
        object.__setattr__(self, "free_vars", frozenset(fv))
        object.__setattr__(self, "_vector_cache", {})

    def __setattr__(self, *_):
        raise AttributeError("Expression is immutable")

    def __eq__(self, other):
        return isinstance(other, Expression) and self.root == other.root

    def __hash__(self):
        return hash(self.root)

    def __repr__(self):
        return f"Expression({self.serialize()!r})"

    def serialize(self) -> str:
        return _serialize(self.root)

    def evaluate(self, bindings: dict) -> float:
        """The compiled kernel at one point: lambdify's function of the free
        variables, called with one-element arrays of their bound values.
        Raises MissingBindingError when a free variable has no binding and
        EvalDomainError when the value is not finite."""
        names = tuple(sorted(self.free_vars))
        try:
            point = [float(bindings[n]) for n in names]
        except KeyError as exc:
            raise MissingBindingError(
                f"no binding for variable {exc.args[0]!r}") from None
        value = self._compiled(names)(*[np.array([v]) for v in point]).item()
        if not math.isfinite(value):
            at = ", ".join(f"{n}={v!r}" for n, v in zip(names, point))
            raise EvalDomainError(
                f"non-finite value {value!r} of {self.serialize()} at ({at})")
        return value

    def diff(self, var: str) -> "Expression":
        return Expression(_diff(self.root, var))

    def lambdify(self, varnames):
        """Compile to a vectorized numpy function of the given variables.

        The compiled function never raises on domain violations; it returns
        nan/inf there (callers detect non-finite samples).
        """
        return self._compiled(tuple(varnames))

    def _compiled(self, key: tuple):
        """lambdify's function for the signature ``key``, found once."""
        cached = self._vector_cache.get(key)
        if cached is not None:
            return cached
        missing = self.free_vars - set(key)
        if missing:
            raise MissingBindingError(
                f"expression uses {sorted(missing)} not in signature {list(key)}")
        args = ", ".join(key) if key else "_unused=0.0"
        fn = self._vector_cache[key] = _compile(
            f"lambda {args}: asarray({_np_source(self.root)}, dtype='float64')")
        return fn

    def _kernel(self, key: tuple):
        """The generated lambda behind ``_compiled(key)``, for callers that
        already hold float64 arrays and run under ``np.errstate``: it sets
        no errstate of its own, and its value has the broadcast shape of the
        variables the expression uses (0-d when it uses none)."""
        return self._compiled(key).kernel


@functools.lru_cache(maxsize=256)
def _compile(src: str):
    """The function of a generated kernel source, kept for the 256 most
    recent.  Keyed by the source, not the tree: Num(0.0) == Num(-0.0), but
    1/(t*0.0) is inf and 1/(t*-0.0) is -inf."""
    raw = eval(src, dict(_NP_ENV))  # noqa: S307 - source generated from own AST

    def fn(*arrays):
        arrs = [np.asarray(a, dtype=np.float64) for a in arrays]
        with np.errstate(all="ignore"):
            out = raw(*arrs)
        if any(a.shape != out.shape for a in arrs):
            shape = np.broadcast_shapes(*[a.shape for a in arrs])
            if out.shape != shape:  # expression ignored some variables
                out = np.broadcast_to(out, shape).copy()
        return out

    fn.kernel = raw
    return fn


def parse(source: str, allowed_vars=None) -> Expression:
    """Parse ``source`` into an Expression.

    When ``allowed_vars`` is given, any other variable name is rejected
    (used to validate signatures: f over {t, x}, gauges over {t}, omega
    over {r}).
    """
    return Expression(_Parser(source, allowed_vars).parse())


def substitute(expr: Expression, mapping: dict) -> Expression:
    """Replace free variables by sub-expressions, e.g. scale an argument:
    substitute(omega, {"r": parse("2*r", {"r"})})."""

    def repl(node: Node) -> Node:
        if isinstance(node, Var):
            sub = mapping.get(node.name)
            return sub.root if sub is not None else node
        if isinstance(node, Neg):
            return Neg(repl(node.arg))
        if isinstance(node, Bin):
            return Bin(node.op, repl(node.left), repl(node.right))
        if isinstance(node, Call):
            return Call(node.fn, tuple(repl(a) for a in node.args))
        return node

    return Expression(repl(expr.root))
