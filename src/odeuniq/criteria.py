"""Sampled numerical verifiers for the uniqueness criteria.

Each checker evaluates the hypotheses of one criterion (Nagumo-type
Lipschitz bound, Athanassov gauge bound, Constantin comparison-function
bound, and the main reparametrization-based theorem) on sample grids and
produces a structured report with margins and witness points.  A margin
is always (right side - left side) of the checked inequality; negative
means violation.

These checks are sampled necessary-condition filters, not proofs: passing
means no violation was found on the grids, with inequality slack ``tol``
to absorb quadrature noise at equality cases.

Each hypothesis is defined once, in ``HYPOTHESES``, from the problem's
expressions.  The checkers evaluate a definition on their grids and
``reverify`` evaluates the same definition at a failing witness, so every
hypothesis of every criterion can be re-checked.

The three integrals at 0+ (H1, H2 and the Osgood gate of the comparison
function) run through one sweep on the grid of their definition, which
``reverify`` re-runs at a witness, and fail one way.  With var the grid
variable (t or r), and the failing eps in the witness when the hypothesis
has an eps grid: a non-finite integrand sample gives margin nan and
``{"kind": "domain_error", var: where}``; a divergent first piece
(0, grid[0]] margin -inf and ``{"kind": "divergent", var: grid[0]}``; the
first unconverged piece j margin nan and ``{"kind": "divergent", var:
grid[j]}``, plus ``var + "0": grid[j-1]`` when j > 0.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .expr import Bin, EvalDomainError, Expression, parse
# integrate is unused here but stays bound: the benchmark's tracer wraps it
from .quadrature import (IntegrandError, integrate,  # noqa: F401
                         sweep_singular_left)

__all__ = [
    "ProblemSpec",
    "CheckConfig",
    "Hypothesis",
    "CriterionReport",
    "EquivalenceReport",
    "ProblemValidationError",
    "check_nagumo",
    "check_athanassov",
    "check_comparison_fn",
    "check_constantin",
    "check_theorem_main",
    "reduce_to_constantin",
    "reduce_problem",
    "equivalence_suite",
    "reverify",
]

EPS_CAVEAT = (
    "the 'for all eps > 0' hypothesis is sampled on a finite log-spaced "
    "eps grid; the check is a necessary-condition filter, not a proof"
)
OMEGA_EXTENSION_NOTE = (
    "omega is extended beyond r = 1 by its defining formula where evaluable"
)


class ProblemValidationError(Exception):
    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# ---------------------------------------------------------------------------
# configuration and data model

def _shared(grid):
    """The grid method ``grid`` as one read-only array per (config,
    argument), kept for the 256 most recent; the key holds the argument's
    repr, as -0.0 == 0.0 but linspace(-0.0, 0.0) != linspace(0.0, -0.0)."""

    @functools.lru_cache(maxsize=256)
    def made(config, *arg, key):
        out = grid(config, *arg)
        out.flags.writeable = False
        return out

    return functools.wraps(grid)(
        lambda config, *arg: made(config, *arg, key=tuple(map(repr, arg))))


@dataclass(frozen=True)
class CheckConfig:
    """Fields: the grid settings the command line sets.  Class constants:
    the fixed grid sizes and tolerances of the checks.  The grids are
    shared read-only arrays, one per config and argument in a process."""
    n_t: int = 200
    eps_min: float = 1e-6
    eps_max: float = 1e6
    t_min_factor = 1e-6      # t grid geometric from t_min_factor*T to T
    n_x = 101                # uniform on [-x_bound, x_bound]
    n_eps = 25
    n_limit = 40             # limit sequence t_k = T * 2^-k, k = 1..n
    tol = 1e-9               # inequality slack (scaled by eps in H2)
    limit_threshold = 1e-6   # uniform-limit proxy: final sup below this
    limit_tail = 10          # ... and non-increasing over this many tail steps
    quad_tol = 1e-11

    @_shared
    def t_grid(self, T: float) -> np.ndarray:
        return np.geomspace(self.t_min_factor * T, T, self.n_t)

    @_shared
    def x_grid(self, x_bound: float) -> np.ndarray:
        return np.linspace(-x_bound, x_bound, self.n_x)

    @_shared
    def eps_grid(self) -> np.ndarray:
        return np.geomspace(self.eps_min, self.eps_max, self.n_eps)

    @_shared
    def r_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_x)[1:]

    @_shared
    def limit_ts(self, T: float) -> np.ndarray:
        return T * 2.0 ** -np.arange(1, self.n_limit + 1, dtype=np.float64)

    @_shared
    def _gauge_grid(self, T: float) -> np.ndarray:  # validate's sample grid
        return np.geomspace(0.01 * T, T, 50)


@dataclass
class ProblemSpec:
    """An IVP x' + f(t,x) = 0, x(0) = 0 plus its gauge functions."""

    f: Expression
    u: Expression | None = None
    v: Expression | None = None
    lam: Expression | None = None
    omega: Expression | None = None
    T: float = 1.0
    x_bound: float = 1.0
    name: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        def opt(key, allowed):
            src = d.get(key)
            return None if src is None else parse(src, allowed_vars=allowed)

        spec = cls(
            f=parse(d["f"], allowed_vars={"t", "x"}),
            u=opt("u", {"t"}),
            v=opt("v", {"t"}),
            lam=opt("lambda", {"t"}),
            omega=opt("omega", {"r"}),
            T=float(d.get("T", 1.0)),
            x_bound=float(d.get("x_bound", 1.0)),
            name=str(d.get("name", "")),
        )
        problems = spec.validate()
        if problems:
            raise ProblemValidationError(problems)
        return spec

    def validate(self) -> list[str]:
        """Invariant checks performed at load time, on the default grids;
        returns all violations."""
        c = CheckConfig()
        msgs = []
        # the least sampled t, T*2^-n_limit, must be a normal float
        T_min = float(np.finfo(np.float64).tiny) * 2.0 ** c.n_limit
        if not (0.0 < self.T <= 1.0):
            msgs.append(f"T must lie in (0, 1], got {self.T!r}")
        elif self.T < T_min:
            msgs.append(f"T must be at least {T_min!r}, got {self.T!r}")
        # the x grids are linspace(-x_bound, x_bound): their span is finite
        if not (0.0 < self.x_bound and 2.0 * self.x_bound < math.inf):
            msgs.append("x_bound must be positive with 2*x_bound finite, "
                        f"got {self.x_bound!r}")
        if msgs:
            return msgs
        # f(t, 0) = 0 at all sampled t
        f0 = self.f.lambdify(("t", "x"))(c.t_grid(self.T), 0.0)
        bad = np.flatnonzero(~(np.abs(f0) <= 1e-12))
        if bad.size:
            t_bad = float(c.t_grid(self.T)[bad[0]])
            msgs.append(f"f(t, 0) != 0 at t={t_bad!r} (got {float(f0[bad[0]])!r})")
        # gauge sign conditions on a sample grid away from the underflow region
        tg = c._gauge_grid(self.T)
        for label, g in (("u", self.u), ("v", self.v), ("lambda", self.lam)):
            if g is None:
                continue
            vals = g.lambdify(("t",))(tg)
            if not np.all(np.isfinite(vals)):
                msgs.append(f"{label}(t) not finite on the sample grid")
                continue
            if label in ("u", "v"):
                dvals = g.diff("t").lambdify(("t",))(tg)
                if not np.all(dvals > 0.0):
                    msgs.append(f"{label}'(t) must be > 0 on (0, T]")
            else:
                if not np.all(vals > 0.0):
                    msgs.append("lambda(t) must be > 0 on (0, T]")
            # vanishing at 0+ along the dyadic sequence
            tail = g.lambdify(("t",))(c.limit_ts(self.T))
            tail = tail[np.isfinite(tail)]
            scale = max(abs(float(g.lambdify(('t',))(np.array([self.T]))[0])), 1.0)
            if tail.size and not abs(float(tail[-1])) <= 1e-2 * scale:
                msgs.append(f"{label}(0+) does not vanish (got {float(tail[-1])!r})")
        if self.omega is not None:
            om = self.omega.lambdify(("r",))
            r0 = float(om(np.array([0.0]))[0])
            if np.isfinite(r0) and abs(r0) > 1e-12:
                msgs.append(f"omega(0) must be 0, got {r0!r}")
        return msgs


@dataclass
class Hypothesis:
    name: str
    passed: bool
    worst_margin: float
    witness: dict
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_margin": _json_float(self.worst_margin),
            "witness": {k: _json_float(v) if isinstance(v, float) else v
                        for k, v in self.witness.items()},
            "notes": self.notes,
        }


@dataclass
class CriterionReport:
    criterion: str
    hypotheses: list
    notes: str = ""
    data: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(h.passed for h in self.hypotheses)

    def hypothesis(self, name: str) -> Hypothesis:
        for h in self.hypotheses:
            if h.name == name:
                return h
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "overall": self.overall,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "notes": self.notes,
            "data": self.data,
        }


def _json_float(x: float):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)  # 'inf', '-inf', 'nan'
    return x


# ---------------------------------------------------------------------------
# shared hypothesis machinery

def _first_nonfinite_witness(values: np.ndarray, tgrid, xgrid) -> dict | None:
    bad = ~np.isfinite(values)
    if not bad.any():
        return None
    it, ix = np.unravel_index(int(np.flatnonzero(bad.ravel())[0]), values.shape)
    return {"kind": "domain_error", "t": float(tgrid[it]), "x": float(xgrid[ix])}


def _grid_bound_hypothesis(name, lhs, rhs, tgrid, xgrid, tol, notes="") -> Hypothesis:
    """Check lhs(t,x) <= rhs(t,x) + tol on the (t, x) grid."""
    margins = rhs - lhs
    w = _first_nonfinite_witness(margins, tgrid, xgrid)
    if w is not None:
        return Hypothesis(name, False, float("nan"), w,
                          notes="non-finite sample treated as failure")
    flat = int(np.argmin(margins.ravel()))  # t-major, then x: deterministic ties
    it, ix = np.unravel_index(flat, margins.shape)
    worst = float(margins[it, ix])
    witness = {
        "kind": "grid_ineq",
        "t": float(tgrid[it]),
        "x": float(xgrid[ix]),
        "lhs": float(lhs[it, ix]),
        "rhs": float(rhs[it, ix]),
    }
    return Hypothesis(name, worst >= -tol, worst, witness, notes=notes)


def _pairwise_bound_hypothesis(name, f_vals, coeff, tgrid, xgrid, tol) -> Hypothesis:
    """Check |f(t,x1) - f(t,x2)| <= coeff(t)*|x1 - x2| + tol over x pairs.

    On the ascending x grid the margin of a pair x1 < x2 is the smaller of
    g(x2) - g(x1) for g = coeff*x -+ f, so the worst x1 for each (t, x2)
    sits at the running maximum of g: one pass, O(n_t*n_x).  Ties go to the
    least t, then the least x2, then the least x1; the reported margin is
    recomputed from f and coeff over the x1 of the chosen (t, x2)."""
    for vals, xs, what in ((f_vals, xgrid, "sample"),
                           (coeff[:, None], [0.0], "coefficient")):
        w = _first_nonfinite_witness(vals, tgrid, xs)
        if w is not None:
            return Hypothesis(name, False, float("nan"), w,
                              notes=f"non-finite {what} treated as failure")
    g = coeff[:, None] * xgrid + np.stack((-f_vals, f_vals))  # (sign, t, x)
    drops = (g[..., 1:] - np.maximum.accumulate(g, axis=-1)[..., :-1]).min(axis=0)
    it, j = np.unravel_index(int(np.argmin(drops)), drops.shape)  # t-major
    lhs = np.abs(f_vals[it, j + 1] - f_vals[it, :j + 1])
    rhs = coeff[it] * np.abs(xgrid[j + 1] - xgrid[:j + 1])
    i = int(np.argmin(rhs - lhs))
    worst = float(rhs[i] - lhs[i])
    witness = {"kind": "pair_ineq", "t": float(tgrid[it]), "x1": float(xgrid[i]),
               "x2": float(xgrid[j + 1]), "lhs": float(lhs[i]), "rhs": float(rhs[i])}
    return Hypothesis(name, worst >= -tol, worst, witness)


def _sup_profile(ratio_fn, ts, xs):
    """sup over the x grid of |ratio(t, x)| for each t of the limit sequence."""
    vals = np.abs(ratio_fn(ts[:, None], xs[None, :]))
    sups = np.where(np.isnan(vals).any(axis=1), np.nan, np.max(vals, axis=1))
    args = np.argmax(np.where(np.isnan(vals), np.inf, vals), axis=1)
    return sups, xs[args]


def _uniform_limit_hypothesis(name, ratio_fn, ts, xs, threshold,
                              tail_len) -> Hypothesis:
    """Proxy for 'ratio -> 0 as t -> 0+ uniformly in x': sup over the x grid
    is eventually non-increasing along the dyadic t sequence and its final
    value falls below the threshold."""
    sups, xargs = _sup_profile(ratio_fn, ts, xs)
    nan_idx = np.flatnonzero(np.isnan(sups))
    if nan_idx.size:
        k = int(nan_idx[0])
        return Hypothesis(name, False, float("nan"),
                          {"kind": "domain_error", "t": float(ts[k]),
                           "x": float(xargs[k])},
                          notes="non-finite sup treated as failure")
    final = float(sups[-1])
    margin = threshold - final
    # eventually non-increasing: no increase within the final tail_len steps
    increases = np.flatnonzero(sups[1:] > sups[:-1] * (1.0 + 1e-12) + 1e-300) + 1
    tail_ok = not (increases.size and increases[-1] > len(sups) - tail_len)
    if not tail_ok:
        k = int(increases[-1])
        return Hypothesis(name, False, min(margin, 0.0) - abs(float(sups[k] - sups[k - 1])),
                          {"kind": "limit_increase",
                           "t_prev": float(ts[k - 1]), "t": float(ts[k]),
                           "sup_prev": float(sups[k - 1]), "sup": float(sups[k]),
                           "x": float(xargs[k])})
    witness = {"kind": "limit_final", "t": float(ts[-1]), "x": float(xargs[-1]),
               "sup": final, "threshold": float(threshold)}
    return Hypothesis(name, final < threshold, margin, witness)


# ---------------------------------------------------------------------------
# hypothesis definitions: HYPOTHESES maps each hypothesis name to a builder
# of its definition from the problem's Expressions.  The checkers evaluate a
# definition on their grids; reverify evaluates the same one at a witness.

class _Pair(NamedTuple):
    """|f(t, x1) - f(t, x2)| <= coeff(t)*|x1 - x2|."""
    f: Callable
    coeff: Callable

    def at(self, w):
        return self.f(w["t"], w["x"]), self.coeff(w["t"])


class _Bound(NamedTuple):
    """lhs(t, x) <= rhs(t, x)."""
    lhs: Callable
    rhs: Callable

    def at(self, w):
        return self.lhs(w["t"], w["x"]), self.rhs(w["t"], w["x"])


class _Limit(NamedTuple):
    """ratio(t, x) -> 0 as t -> 0+, uniformly in x."""
    ratio: Callable

    def at(self, w):
        return (self.ratio(w["t"], w["x"]),)


class _Integral(NamedTuple):
    """int_0^t integrand(w, eps) dw <= eps*bound(t) at every t of the grid
    grid(c), integrated at the quadrature tolerance tol(c, eps).  eps is
    the H2 scale, a float or an array of scales that broadcasts against w;
    the other integrals ignore it.  H1 asks only for convergence and has no
    bound.  label names the integrand in the notes of a failure."""
    integrand: Callable
    tol: Callable
    grid: Callable
    label: str
    bound: Callable | None = None

    def at(self, w):
        return (self.integrand(w["t"], w.get("eps", 1.0)),)


class _Gate(NamedTuple):
    """The comparison-function gate: omega(0+) = 0, omega increasing, and
    the Osgood integral int_0^r omega(s)/s ds <= r, whose integrand, tol,
    grid, label and bound are read as an _Integral's."""
    omega: Callable
    integrand: Callable
    tol: Callable
    grid: Callable
    label: str
    bound: Callable

    def ratio(self, r, _x):
        return self.omega(r)  # omega(0+) = 0 as a limit that ignores x

    def at(self, w):
        r = w["r"] if "r" in w else w["t"]
        return self.omega(r), self.integrand(r, None)


def _quad_tol(c: CheckConfig, _eps) -> float:
    return c.quad_tol


def _gate(omega: Expression) -> _Gate:
    om = omega.lambdify(("r",))
    return _Gate(om, lambda s, _eps: om(s) / s, _quad_tol,
                 CheckConfig.r_grid, "omega(s)/s", lambda r: r)


def _compiled(node) -> Callable:
    return Expression(node).lambdify(("t", "x"))


def _uprime_over_u(p: ProblemSpec) -> Callable:
    du, u = p.u.diff("t").lambdify(("t",)), p.u.lambdify(("t",))
    return lambda t: du(t) / u(t)


def _constantin_bound(p: ProblemSpec) -> _Bound:
    """|f(t,x)| <= (u'/u)(t) * omega(|x|)."""
    f, om = p.f.lambdify(("t", "x")), p.omega.lambdify(("r",))
    coeff = _uprime_over_u(p)
    return _Bound(lambda t, x: np.abs(f(t, x)),
                  lambda t, x: coeff(t) * om(np.abs(x)))


def _h1(p: ProblemSpec) -> _Integral:
    """v/lambda is integrable at 0+."""
    v, lam = p.v.lambdify(("t",)), p.lam.lambdify(("t",))
    return _Integral(lambda w, _eps: v(w) / lam(w), _quad_tol,
                     lambda _c: np.array([p.T]), "v/lambda")


def _h2(p: ProblemSpec) -> _Integral:
    """int_0^t omega(eps*v(w))/lambda(w) dw <= eps*v(t) for every eps > 0."""
    v, lam = p.v.lambdify(("t",)), p.lam.lambdify(("t",))
    om = p.omega.lambdify(("r",))

    def tol(c, eps):
        # relative to eps*max(|v|, 1) over the t grid
        vmax = float(np.max(np.abs(v(c.t_grid(p.T)))))
        return np.maximum(1e-12 * eps * max(vmax, 1.0), 1e-300)

    return _Integral(lambda w, eps: om(eps * v(w)) / lam(w), tol,
                     lambda c: c.t_grid(p.T), "omega(eps*v)/lambda", v)


def _h3(p: ProblemSpec) -> _Bound:
    """|f(t,x)| <= omega(|x|)/lambda(t)."""
    f, lam = p.f.lambdify(("t", "x")), p.lam.lambdify(("t",))
    om = p.omega.lambdify(("r",))
    return _Bound(lambda t, x: np.abs(f(t, x)),
                  lambda t, x: om(np.abs(x)) / lam(t))


def _h5(p: ProblemSpec) -> _Bound:
    """|lambda(t) f(t,x)| <= v(t)."""
    f, lam = p.f.lambdify(("t", "x")), p.lam.lambdify(("t",))
    v = p.v.lambdify(("t",))
    return _Bound(lambda t, x: np.abs(lam(t) * f(t, x)), lambda t, x: v(t))


HYPOTHESES = {
    "lipschitz_1_over_t": lambda p: _Pair(p.f.lambdify(("t", "x")),
                                          lambda t: 1.0 / t),
    "uniform_limit_f": lambda p: _Limit(p.f.lambdify(("t", "x"))),
    # gauge_validity fails where u(t) = 0 makes the coefficient non-finite
    **dict.fromkeys(("lipschitz_uprime_over_u", "gauge_validity"),
                    lambda p: _Pair(p.f.lambdify(("t", "x")), _uprime_over_u(p))),
    "uniform_limit_f_over_uprime": lambda p: _Limit(_compiled(
        Bin("/", p.f.root, p.u.diff("t").root))),
    "bound_f_le_uprime_over_u_omega": _constantin_bound,
    **dict.fromkeys(("comparison_function", "omega_vanishes_at_0",
                     "omega_increasing", "osgood_integral"),
                    lambda p: _gate(p.omega)),
    "H1_integrability": _h1,
    "H2_osgood_scaled": _h2,
    "H3_bound_f_le_omega_over_lambda": _h3,
    "H4_uniform_limit_lambda_f_over_v": lambda p: _Limit(_compiled(
        Bin("/", Bin("*", p.lam.root, p.f.root), p.v.root))),
    "H4_uniform_limit_f_over_vprime": lambda p: _Limit(_compiled(
        Bin("/", p.f.root, p.v.diff("t").root))),
    "H5_domination": _h5,
}


def _sweep(name: str, p: ProblemSpec, c: CheckConfig, notes="") -> Hypothesis:
    """Evaluate the definition of a pair, bound or limit hypothesis on the
    sample grids; a non-finite sample fails it with a domain_error."""
    d = HYPOTHESES[name](p)
    xg = c.x_grid(p.x_bound)
    with np.errstate(all="ignore"):
        if isinstance(d, _Limit):
            return _uniform_limit_hypothesis(name, d.ratio, c.limit_ts(p.T), xg,
                                             c.limit_threshold, c.limit_tail)
        tg = c.t_grid(p.T)
        T, X = tg[:, None], xg[None, :]
        if isinstance(d, _Pair):
            return _pairwise_bound_hypothesis(name, d.f(T, X), d.coeff(tg), tg,
                                              xg, c.tol)
        lhs, rhs = np.broadcast_arrays(d.lhs(T, X), d.rhs(T, X))
        return _grid_bound_hypothesis(name, lhs, rhs, tg, xg, c.tol, notes=notes)


# ---------------------------------------------------------------------------
# criteria

def check_nagumo(p: ProblemSpec, c: CheckConfig | None = None) -> CriterionReport:
    """Lipschitz-in-x bound with constant 1/t plus the uniform vanishing of f."""
    c = c or CheckConfig()
    return CriterionReport("nagumo", [_sweep("lipschitz_1_over_t", p, c),
                                      _sweep("uniform_limit_f", p, c)])


def check_athanassov(p: ProblemSpec, c: CheckConfig | None = None) -> CriterionReport:
    """Lipschitz bound with coefficient u'(t)/u(t) plus f/u' -> 0 uniformly."""
    c = c or CheckConfig()
    if p.u is None:
        raise ValueError("athanassov check requires the gauge u")
    tg = c.t_grid(p.T)
    uvals = p.u.lambdify(("t",))(tg)
    if np.any(uvals == 0.0):
        t_bad = float(tg[np.flatnonzero(uvals == 0.0)[0]])
        return CriterionReport("athanassov", [Hypothesis(
            "gauge_validity", False, float("nan"),
            {"kind": "domain_error", "t": t_bad, "x": 0.0},
            notes="u(t) = 0 at a sampled t > 0")])
    return CriterionReport("athanassov", [
        _sweep("lipschitz_uprime_over_u", p, c),
        _sweep("uniform_limit_f_over_uprime", p, c)])


def _integral_sweep(name: str, d, grid, c: CheckConfig, var: str, eps=None):
    """Integrate d's integrand from 0+ to every point of ``grid``, one sweep
    member per scale of the eps grid ``eps`` (one member of scale 1 when
    the hypothesis has no eps grid).  Returns the (grid x scale) array of
    integral/scale, or the failing Hypothesis of the first member that
    fails, by the module's failure convention."""
    scales = np.ones(1) if eps is None else eps

    def family(w, members):
        shape = (len(members),) + w.shape
        y = d.integrand(w, scales[members].reshape((-1,) + (1,) * w.ndim))
        return y if np.shape(y) == shape else np.broadcast_to(y, shape)

    out = np.empty((len(grid), len(scales)))
    with np.errstate(all="ignore"):
        sweeps = sweep_singular_left(
            family, grid, np.broadcast_to(d.tol(c, scales), scales.shape))
        for ie, (scale, sweep) in enumerate(zip(scales.tolist(), sweeps)):
            at = {} if eps is None else {"eps": scale}
            if isinstance(sweep, IntegrandError):
                return Hypothesis(name, False, math.nan, {
                    "kind": "domain_error", **at, var: sweep.where},
                    notes=f"{d.label} is not finite at {var}")
            if sweep.base.diverged:
                return Hypothesis(name, False, -math.inf, {
                    "kind": "divergent", **at, var: float(grid[0])},
                    notes=f"int_0+ {d.label} diverges")
            bad = np.flatnonzero(~sweep.converged)
            if bad.size:
                j = int(bad[0])
                lo = {var + "0": float(grid[j - 1])} if j else {}
                return Hypothesis(name, False, math.nan, {
                    "kind": "divergent", **at, **lo, var: float(grid[j])},
                    notes=f"quadrature of {d.label} did not converge " +
                          (f"on ({var}0, {var}]" if j else "near 0+"))
            out[:, ie] = sweep.values / scale
    return out


def _margins(d, grid, integrals):
    """The bound at every grid point and the margins bound - integral (grid
    x scale) of H2 and the Osgood gate, as the checkers and reverify read
    them."""
    bound = d.bound(grid)
    return bound, bound[:, None] - integrals


def _osgood_hypothesis(d: _Gate, c: CheckConfig) -> Hypothesis:
    """Check int_0^r omega(s)/s ds <= r on the r grid."""
    rg = d.grid(c)
    integrals = _integral_sweep("osgood_integral", d, rg, c, "r")
    if isinstance(integrals, Hypothesis):
        return integrals
    margins = _margins(d, rg, integrals)[1][:, 0]
    j = int(np.argmin(margins))  # ties: smallest r
    r = float(rg[j])
    witness = {"kind": "quad_ineq", "r": r, "integral": float(integrals[j, 0]),
               "bound": r}
    return Hypothesis("osgood_integral", float(margins[j]) >= -c.tol,
                      float(margins[j]), witness)


def check_comparison_fn(omega: Expression, c: CheckConfig | None = None) -> CriterionReport:
    """Comparison-function gate: omega continuous and increasing, omega(0+) = 0,
    and the Osgood-type integral inequality int_0^r omega(s)/s ds <= r."""
    c = c or CheckConfig()
    d = _gate(omega)
    # omega(0+) -> 0 along a dyadic sequence
    hyp_zero = _uniform_limit_hypothesis(
        "omega_vanishes_at_0", d.ratio, c.limit_ts(1.0),
        np.array([0.0]), c.limit_threshold, c.limit_tail)
    hyp_zero.witness.pop("x", None)  # the ratio does not depend on x
    # strict increase across consecutive grid points
    rg = d.grid(c)
    vals = d.omega(rg)
    if not np.all(np.isfinite(vals)):
        k = int(np.flatnonzero(~np.isfinite(vals))[0])
        hyp_inc = Hypothesis("omega_increasing", False, float("nan"),
                             {"kind": "domain_error", "r": float(rg[k])})
    else:
        diffs = np.diff(vals)
        k = int(np.argmin(diffs))
        worst = float(diffs[k])
        hyp_inc = Hypothesis(
            "omega_increasing", bool(np.all(diffs > 0.0)), worst,
            {"kind": "increase_pair", "r1": float(rg[k]), "r2": float(rg[k + 1]),
             "omega_r1": float(vals[k]), "omega_r2": float(vals[k + 1])})
    hyp_int = _osgood_hypothesis(d, c)
    return CriterionReport("comparison_fn", [hyp_zero, hyp_inc, hyp_int])


def check_constantin(p: ProblemSpec, c: CheckConfig | None = None) -> CriterionReport:
    """|f(t,x)| <= (u'/u)(t) * omega(|x|) with the comparison-function gate
    and the uniform vanishing of f/u'."""
    c = c or CheckConfig()
    if p.u is None or p.omega is None:
        raise ValueError("constantin check requires the gauges u and omega")
    hyp_a = _sweep("bound_f_le_uprime_over_u_omega", p, c)
    sub = check_comparison_fn(p.omega, c)
    # worst sub-margin; nan (an unconverged integral) outranks every number
    worst = next((h for h in sub.hypotheses if math.isnan(h.worst_margin)),
                 None) or min(sub.hypotheses, key=lambda h: h.worst_margin)
    failing = [h for h in sub.hypotheses if not h.passed]
    hyp_b = Hypothesis(
        "comparison_function", sub.overall, worst.worst_margin,
        failing[0].witness if failing else worst.witness,
        notes="aggregates the comparison-function gate: " +
              ", ".join(h.name for h in sub.hypotheses))
    hyp_c = _sweep("uniform_limit_f_over_uprime", p, c)
    return CriterionReport("constantin", [hyp_a, hyp_b, hyp_c],
                           notes=OMEGA_EXTENSION_NOTE)


def reduce_to_constantin(u: Expression) -> tuple[Expression, Expression]:
    """The reduction of the gauge pair: v = u and lambda = u/u'."""
    du = u.diff("t")
    lam = Expression(Bin("/", u.root, du.root))
    return u, lam


def reduce_problem(p: ProblemSpec) -> ProblemSpec:
    """p with the reduced gauge pair (v, lambda) = (u, u/u')."""
    v, lam = reduce_to_constantin(p.u)
    return replace(p, v=v, lam=lam)


def check_theorem_main(p: ProblemSpec, c: CheckConfig | None = None) -> CriterionReport:
    """Main reparametrization-based criterion with gauge pair (v, lambda)
    and comparison function omega; five sampled hypotheses H1-H5."""
    c = c or CheckConfig()
    if p.v is None or p.lam is None or p.omega is None:
        raise ValueError("theorem check requires gauges v, lambda and omega")
    hyps = [
        _h1_hypothesis(p, c),
        _h2_hypothesis(p, c),
        _sweep("H3_bound_f_le_omega_over_lambda", p, c),
        _sweep("H4_uniform_limit_lambda_f_over_v", p, c),
        _sweep("H4_uniform_limit_f_over_vprime", p, c),
        _sweep("H5_domination", p, c,
               notes="checked separately from H2/H3 and reported separately"),
    ]
    return CriterionReport("theorem_main", hyps,
                           notes=EPS_CAVEAT + "; " + OMEGA_EXTENSION_NOTE)


def _h1_hypothesis(p: ProblemSpec, c: CheckConfig) -> Hypothesis:
    """H1: integrability of v/lambda at 0+, over (0, T]."""
    name = "H1_integrability"
    d = HYPOTHESES[name](p)
    integral = _integral_sweep(name, d, d.grid(c), c, "t")
    if isinstance(integral, Hypothesis):
        return integral
    return Hypothesis(name, True, 0.0, {"kind": "quad_value", "t": p.T,
                                        "integral": float(integral[0, 0])})


def _h2_hypothesis(p: ProblemSpec, c: CheckConfig) -> Hypothesis:
    """H2: int_0^t omega(eps*v(w))/lambda(w) dw <= eps*v(t), margins scaled
    by eps."""
    name = "H2_osgood_scaled"
    d = HYPOTHESES[name](p)
    tg, eg = d.grid(c), c.eps_grid()
    scaled = _integral_sweep(name, d, tg, c, "t", eg)
    if isinstance(scaled, Hypothesis):
        return scaled
    vt, margins = _margins(d, tg, scaled)
    flat = int(np.argmin(margins.ravel()))  # ties: smallest t, then smallest eps
    it, ie = np.unravel_index(flat, margins.shape)
    worst = float(margins[it, ie])
    witness = {
        "kind": "quad_ineq_eps",
        "eps": float(eg[ie]),
        "t": float(tg[it]),
        "scaled_integral": float(vt[it]) - worst,
        "v_t": float(vt[it]),
        "max_margin": float(np.max(margins)),  # margin spread over the grid
    }
    return Hypothesis(name, worst >= -c.tol, worst, witness,
                      notes="margins scaled by eps")


# ---------------------------------------------------------------------------
# reduction equivalence

@dataclass
class EquivalenceReport:
    problem: str
    constantin: CriterionReport
    theorem: CriterionReport
    verdicts_match: bool
    margin_discrepancies: dict
    max_discrepancy: float

    @property
    def overall(self) -> bool:
        return self.verdicts_match and self.max_discrepancy <= 1e-6

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "constantin": self.constantin.to_dict(),
            "theorem": self.theorem.to_dict(),
            "verdicts_match": self.verdicts_match,
            "margin_discrepancies": {k: _json_float(v) for k, v in
                                     self.margin_discrepancies.items()},
            "max_discrepancy": _json_float(self.max_discrepancy),
        }


# hypothesis pairs whose margins are directly comparable after the reduction
_SHARED_HYPOTHESES = [
    ("bound_f_le_uprime_over_u_omega", "H3_bound_f_le_omega_over_lambda"),
    ("uniform_limit_f_over_uprime", "H4_uniform_limit_f_over_vprime"),
]


def equivalence_suite(p: ProblemSpec, c: CheckConfig | None = None,
                      constantin: CriterionReport | None = None,
                      reduced: CriterionReport | None = None) -> EquivalenceReport:
    """Cross-validate check_constantin against check_theorem_main applied to
    the reduced gauge pair (v, lambda) = (u, u/u').

    ``constantin`` and ``reduced`` are those two reports when the caller
    has already computed them for (p, c); missing ones are computed here.
    """
    c = c or CheckConfig()
    if p.u is None or p.omega is None:
        raise ValueError("equivalence suite requires the gauges u and omega")
    rep_c = constantin if constantin is not None else check_constantin(p, c)
    rep_t = reduced if reduced is not None else check_theorem_main(
        reduce_problem(p), c)
    discrepancies = {}
    for name_c, name_t in _SHARED_HYPOTHESES:
        m1 = rep_c.hypothesis(name_c).worst_margin
        m2 = rep_t.hypothesis(name_t).worst_margin
        if math.isnan(m1) and math.isnan(m2):
            d = 0.0
        else:
            d = abs(m1 - m2)
        discrepancies[f"{name_c}~{name_t}"] = d
    max_d = max(discrepancies.values()) if discrepancies else 0.0
    return EquivalenceReport(
        problem=p.name,
        constantin=rep_c,
        theorem=rep_t,
        verdicts_match=rep_c.overall == rep_t.overall,
        margin_discrepancies=discrepancies,
        max_discrepancy=max_d,
    )


# ---------------------------------------------------------------------------
# witness re-verification

def reverify(p: ProblemSpec, c: CheckConfig, report: CriterionReport) -> bool:
    """Re-evaluate every failing hypothesis's witness with the hypothesis's
    definition in HYPOTHESES; returns True when each reproduces a violation
    > tol.  A domain_error witness reproduces when any value of the
    definition is non-finite at its point.  An integral witness reproduces
    through the checker's own sweep, for its one member, on the
    hypothesis's grid up to its point.  Raises KeyError on a hypothesis
    without a definition."""
    with np.errstate(all="ignore"):
        return all(_reverify_one(p, c, h) for h in report.hypotheses
                   if not h.passed)


def _reverify_one(p: ProblemSpec, c: CheckConfig, h: Hypothesis) -> bool:
    d = HYPOTHESES[h.name](p)
    w = h.witness
    kind = w["kind"]
    if kind == "domain_error":
        return not np.all(np.isfinite(d.at(w)))
    if kind == "pair_ineq":
        t, x1, x2 = w["t"], w["x1"], w["x2"]
        return abs(d.f(t, x1) - d.f(t, x2)) > d.coeff(t) * abs(x1 - x2) + c.tol
    if kind == "grid_ineq":
        lhs, rhs = d.at(w)
        return lhs > rhs + c.tol
    if kind in ("limit_final", "limit_increase"):
        xs = c.x_grid(p.x_bound)[None, :]

        def sup(t):
            return np.max(np.abs(d.ratio(np.array([[t]]), xs)))

        if kind == "limit_final":
            return not (sup(w["t"]) < w["threshold"])
        return sup(w["t"]) > sup(w["t_prev"])
    if kind == "increase_pair":
        return not (d.omega(w["r2"]) > d.omega(w["r1"]))
    # quad_ineq, quad_ineq_eps and divergent: the checker's sweep of the
    # witness's one member (its eps) up to the witness point, which gives
    # the same failure or the same margin, bit for bit
    var = "r" if isinstance(d, _Gate) else "t"
    grid = d.grid(c)
    grid = grid[grid <= w[var]]
    eps = np.array([w["eps"]]) if "eps" in w else None
    got = _integral_sweep(h.name, d, grid, c, var, eps)
    if isinstance(got, Hypothesis):
        return got.witness == w
    return not _margins(d, grid, got)[1][-1, 0] >= -c.tol
