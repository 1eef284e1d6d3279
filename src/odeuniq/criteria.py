"""Sampled numerical verifiers for the uniqueness criteria.

Each checker evaluates the hypotheses of one criterion (Nagumo-type
Lipschitz bound, Athanassov gauge bound, Constantin comparison-function
bound, and the main reparametrization-based theorem) on configurable
sample grids and produces a structured report with margins and witness
points.  A margin is always (right side - left side) of the checked
inequality; negative means violation.

These checks are sampled necessary-condition filters, not proofs: passing
means no violation was found on the grids, with inequality slack ``tol``
to absorb quadrature noise at equality cases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import EvalDomainError, Expression, parse
from .quadrature import integrate, integrate_singular_left, sweep_singular_left

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
    "equivalence_suite",
    "nagumo_transform",
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

@dataclass(frozen=True)
class CheckConfig:
    n_t: int = 200
    t_min_factor: float = 1e-6      # t grid geometric from t_min_factor*T to T
    n_x: int = 101                  # uniform on [-x_bound, x_bound]
    n_eps: int = 25
    eps_min: float = 1e-6
    eps_max: float = 1e6
    n_limit: int = 40               # limit sequence t_k = T * 2^-k, k = 1..n
    tol: float = 1e-9               # inequality slack (scaled by eps in H2)
    limit_threshold: float = 1e-6   # uniform-limit proxy: final sup below this
    limit_tail: int = 10            # ... and non-increasing over this many tail steps
    quad_tol: float = 1e-11

    def t_grid(self, T: float) -> np.ndarray:
        return np.geomspace(self.t_min_factor * T, T, self.n_t)

    def x_grid(self, x_bound: float) -> np.ndarray:
        return np.linspace(-x_bound, x_bound, self.n_x)

    def eps_grid(self) -> np.ndarray:
        return np.geomspace(self.eps_min, self.eps_max, self.n_eps)

    def r_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_x)[1:]

    def limit_ts(self, T: float) -> np.ndarray:
        return T * 2.0 ** -np.arange(1, self.n_limit + 1, dtype=np.float64)


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
    def from_dict(cls, d: dict, validate: bool = True) -> "ProblemSpec":
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
        if validate:
            problems = spec.validate()
            if problems:
                raise ProblemValidationError(problems)
        return spec

    def validate(self, config: CheckConfig | None = None) -> list[str]:
        """Invariant checks performed at load time; returns all violations."""
        c = config or CheckConfig()
        msgs = []
        if not (0.0 < self.T <= 1.0):
            msgs.append(f"T must lie in (0, 1], got {self.T!r}")
        if not (self.x_bound > 0.0):
            msgs.append(f"x_bound must be positive, got {self.x_bound!r}")
        if msgs:
            return msgs
        # f(t, 0) = 0 at all sampled t
        f0 = self.f.lambdify(("t", "x"))(c.t_grid(self.T), 0.0)
        bad = np.flatnonzero(~(np.abs(f0) <= 1e-12))
        if bad.size:
            t_bad = float(c.t_grid(self.T)[bad[0]])
            msgs.append(f"f(t, 0) != 0 at t={t_bad!r} (got {float(f0[bad[0]])!r})")
        # gauge sign conditions on a sample grid away from the underflow region
        tg = np.geomspace(0.01 * self.T, self.T, 50)
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
    """Check |f(t,x1) - f(t,x2)| <= coeff(t)*|x1 - x2| + tol over x pairs."""
    w = _first_nonfinite_witness(f_vals, tgrid, xgrid)
    if w is not None:
        return Hypothesis(name, False, float("nan"), w,
                          notes="non-finite sample treated as failure")
    dx = np.abs(xgrid[:, None] - xgrid[None, :])
    upper = np.triu(np.ones((len(xgrid), len(xgrid)), dtype=bool), k=1)
    worst = math.inf
    witness: dict = {}
    for it, t in enumerate(tgrid):
        if not np.isfinite(coeff[it]):
            return Hypothesis(name, False, float("nan"),
                              {"kind": "domain_error", "t": float(t), "x": 0.0},
                              notes="non-finite coefficient treated as failure")
        lhs = np.abs(f_vals[it][:, None] - f_vals[it][None, :])
        margins = np.where(upper, coeff[it] * dx - lhs, math.inf)
        flat = int(np.argmin(margins.ravel()))
        i, j = np.unravel_index(flat, margins.shape)
        m = float(margins[i, j])
        if m < worst:
            worst = m
            witness = {
                "kind": "pair_ineq",
                "t": float(t),
                "x1": float(xgrid[i]),
                "x2": float(xgrid[j]),
                "lhs": float(lhs[i, j]),
                "rhs": float(coeff[it] * dx[i, j]),
            }
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


def _ratio_expr(num: Expression, den: Expression) -> Expression:
    from .expr import Bin
    return Expression(Bin("/", num.root, den.root))


def _product_over_expr(a: Expression, b: Expression, den: Expression) -> Expression:
    from .expr import Bin
    return Expression(Bin("/", Bin("*", a.root, b.root), den.root))


# ---------------------------------------------------------------------------
# criteria

def check_nagumo(p: ProblemSpec, c: CheckConfig | None = None) -> CriterionReport:
    """Lipschitz-in-x bound with constant 1/t plus the uniform vanishing of f."""
    c = c or CheckConfig()
    tg = c.t_grid(p.T)
    xg = c.x_grid(p.x_bound)
    f = p.f.lambdify(("t", "x"))
    fvals = f(tg[:, None], xg[None, :])
    hyp_a = _pairwise_bound_hypothesis(
        "lipschitz_1_over_t", fvals, 1.0 / tg, tg, xg, c.tol)
    hyp_b = _uniform_limit_hypothesis(
        "uniform_limit_f", f, c.limit_ts(p.T), xg, c.limit_threshold, c.limit_tail)
    return CriterionReport("nagumo", [hyp_a, hyp_b])


def check_athanassov(p: ProblemSpec, c: CheckConfig | None = None) -> CriterionReport:
    """Lipschitz bound with coefficient u'(t)/u(t) plus f/u' -> 0 uniformly."""
    c = c or CheckConfig()
    if p.u is None:
        raise ValueError("athanassov check requires the gauge u")
    tg = c.t_grid(p.T)
    xg = c.x_grid(p.x_bound)
    du = p.u.diff("t")
    uvals = p.u.lambdify(("t",))(tg)
    if np.any(uvals == 0.0):
        t_bad = float(tg[np.flatnonzero(uvals == 0.0)[0]])
        return CriterionReport("athanassov", [Hypothesis(
            "gauge_validity", False, float("nan"),
            {"kind": "domain_error", "t": t_bad, "x": 0.0},
            notes="u(t) = 0 at a sampled t > 0")])
    coeff = du.lambdify(("t",))(tg) / uvals
    f = p.f.lambdify(("t", "x"))
    fvals = f(tg[:, None], xg[None, :])
    hyp_a = _pairwise_bound_hypothesis(
        "lipschitz_uprime_over_u", fvals, coeff, tg, xg, c.tol)
    ratio = _ratio_expr(p.f, du).lambdify(("t", "x"))
    hyp_b = _uniform_limit_hypothesis(
        "uniform_limit_f_over_uprime", ratio, c.limit_ts(p.T), xg,
        c.limit_threshold, c.limit_tail)
    return CriterionReport("athanassov", [hyp_a, hyp_b])


def _osgood_hypothesis(omega: Expression, c: CheckConfig, name="osgood_integral",
                       notes="") -> Hypothesis:
    """Check int_0^r omega(s)/s ds <= r on the r grid."""
    integrand = _osgood_integrand(omega)
    rg = c.r_grid()
    sweep = next(sweep_singular_left(lambda s, _members: integrand(s)[None],
                                     [integrand], rg, [c.quad_tol]))
    if sweep.base.diverged:
        return Hypothesis(name, False, float("-inf"),
                          {"kind": "divergent", "r": float(rg[0])},
                          notes="int_0+ omega(s)/s ds diverges")
    bad = np.flatnonzero(~sweep.converged)
    if bad.size:
        j = int(bad[0])
        witness = {"kind": "divergent", "r": float(rg[j])}
        if j:
            witness["r0"] = float(rg[j - 1])
        return Hypothesis(name, False, float("nan"), witness,
                          notes="quadrature did not converge near 0+" if j == 0
                          else "quadrature did not converge on (r0, r]")
    margins = rg - sweep.values
    j = int(np.argmin(margins))  # ties: smallest r
    r = float(rg[j])
    witness = {"kind": "quad_ineq", "r": r, "integral": float(sweep.values[j]),
               "bound": r}
    return Hypothesis(name, float(margins[j]) >= -c.tol, float(margins[j]),
                      witness, notes=notes)


def _osgood_integrand(omega: Expression):
    om = omega.lambdify(("r",))

    def integrand(s):
        return om(s) / s

    return integrand


def check_comparison_fn(omega: Expression, c: CheckConfig | None = None) -> CriterionReport:
    """Comparison-function gate: omega continuous and increasing, omega(0+) = 0,
    and the Osgood-type integral inequality int_0^r omega(s)/s ds <= r."""
    c = c or CheckConfig()
    om = omega.lambdify(("r",))
    # omega(0+) -> 0 along a dyadic sequence
    hyp_zero = _uniform_limit_hypothesis(
        "omega_vanishes_at_0", lambda r, _x: om(r), c.limit_ts(1.0),
        np.array([0.0]), c.limit_threshold, c.limit_tail)
    hyp_zero.witness.pop("x", None)  # the ratio does not depend on x
    # strict increase across consecutive grid points
    rg = c.r_grid()
    vals = om(rg)
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
    hyp_int = _osgood_hypothesis(omega, c)
    return CriterionReport("comparison_fn", [hyp_zero, hyp_inc, hyp_int])


def check_constantin(p: ProblemSpec, c: CheckConfig | None = None) -> CriterionReport:
    """|f(t,x)| <= (u'/u)(t) * omega(|x|) with the comparison-function gate
    and the uniform vanishing of f/u'."""
    c = c or CheckConfig()
    if p.u is None or p.omega is None:
        raise ValueError("constantin check requires the gauges u and omega")
    tg = c.t_grid(p.T)
    xg = c.x_grid(p.x_bound)
    du = p.u.diff("t")
    f = p.f.lambdify(("t", "x"))
    lhs = np.abs(f(tg[:, None], xg[None, :]))
    coeff = du.lambdify(("t",))(tg) / p.u.lambdify(("t",))(tg)
    om_abs = _omega_abs(p.omega)(xg)
    rhs = coeff[:, None] * om_abs[None, :]
    hyp_a = _grid_bound_hypothesis(
        "bound_f_le_uprime_over_u_omega", lhs, rhs, tg, xg, c.tol)
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
    ratio = _ratio_expr(p.f, du).lambdify(("t", "x"))
    hyp_c = _uniform_limit_hypothesis(
        "uniform_limit_f_over_uprime", ratio, c.limit_ts(p.T), xg,
        c.limit_threshold, c.limit_tail)
    return CriterionReport("constantin", [hyp_a, hyp_b, hyp_c],
                           notes=OMEGA_EXTENSION_NOTE)


def _omega_abs(omega: Expression):
    om = omega.lambdify(("r",))

    def fn(x):
        return om(np.abs(x))

    return fn


def reduce_to_constantin(u: Expression) -> tuple[Expression, Expression]:
    """The reduction of the gauge pair: v = u and lambda = u/u'."""
    from .expr import Bin
    du = u.diff("t")
    lam = Expression(Bin("/", u.root, du.root))
    return u, lam


def check_theorem_main(p: ProblemSpec, c: CheckConfig | None = None) -> CriterionReport:
    """Main reparametrization-based criterion with gauge pair (v, lambda)
    and comparison function omega; five sampled hypotheses H1-H5."""
    c = c or CheckConfig()
    if p.v is None or p.lam is None or p.omega is None:
        raise ValueError("theorem check requires gauges v, lambda and omega")
    tg = c.t_grid(p.T)
    xg = c.x_grid(p.x_bound)
    v_fn = p.v.lambdify(("t",))
    lam_fn = p.lam.lambdify(("t",))
    om_fn = p.omega.lambdify(("r",))
    f = p.f.lambdify(("t", "x"))
    hyps = []

    # H1: integrability of v/lambda at 0+
    h1_res = integrate_singular_left(lambda w: v_fn(w) / lam_fn(w), 1.0,
                                     tol=c.quad_tol)
    if h1_res.diverged:
        hyps.append(Hypothesis("H1_integrability", False, float("-inf"),
                               {"kind": "divergent", "t": 1.0},
                               notes="int_0+^1 v/lambda diverges"))
    elif not h1_res.converged:
        hyps.append(Hypothesis("H1_integrability", False, float("nan"),
                               {"kind": "divergent", "t": 1.0},
                               notes="quadrature budget exhausted"))
    else:
        hyps.append(Hypothesis("H1_integrability", True, 0.0,
                               {"kind": "quad_value", "t": 1.0,
                                "integral": float(h1_res.value)}))

    # H2: int_0^t omega(eps*v(w))/lambda(w) dw <= eps*v(t), margins scaled by eps
    hyps.append(_h2_hypothesis(p, c, tg, v_fn, lam_fn, om_fn))

    # H3: |f(t,x)| <= omega(|x|)/lambda(t)
    lhs = np.abs(f(tg[:, None], xg[None, :]))
    rhs = om_fn(np.abs(xg))[None, :] / lam_fn(tg)[:, None]
    hyps.append(_grid_bound_hypothesis(
        "H3_bound_f_le_omega_over_lambda", lhs, rhs, tg, xg, c.tol))

    # H4: lambda*f/v -> 0 and f/v' -> 0 uniformly
    lim_ts = c.limit_ts(p.T)
    ratio_a = _product_over_expr(p.lam, p.f, p.v).lambdify(("t", "x"))
    hyps.append(_uniform_limit_hypothesis(
        "H4_uniform_limit_lambda_f_over_v", ratio_a, lim_ts, xg,
        c.limit_threshold, c.limit_tail))
    dv = p.v.diff("t")
    ratio_b = _ratio_expr(p.f, dv).lambdify(("t", "x"))
    hyps.append(_uniform_limit_hypothesis(
        "H4_uniform_limit_f_over_vprime", ratio_b, lim_ts, xg,
        c.limit_threshold, c.limit_tail))

    # H5: |lambda(t) f(t,x)| <= v(t)
    lhs5 = np.abs(lam_fn(tg)[:, None] * f(tg[:, None], xg[None, :]))
    rhs5 = np.broadcast_to(v_fn(tg)[:, None], lhs5.shape)
    hyps.append(_grid_bound_hypothesis(
        "H5_domination", lhs5, rhs5, tg, xg, c.tol,
        notes="checked separately from H2/H3 and reported separately"))

    return CriterionReport("theorem_main", hyps,
                           notes=EPS_CAVEAT + "; " + OMEGA_EXTENSION_NOTE)


def _h2_hypothesis(p: ProblemSpec, c: CheckConfig, tg, v_fn, lam_fn, om_fn) -> Hypothesis:
    eg = c.eps_grid()
    vt = v_fn(tg)

    def family(w, members):
        # one column of scales: v and lambda are sampled once on the shared
        # nodes, omega on the (eps x nodes) block
        scales = eg[members].reshape((-1,) + (1,) * w.ndim)
        return _h2_integrand(v_fn, lam_fn, om_fn, scales)(w)

    integrands = [_h2_integrand(v_fn, lam_fn, om_fn, float(eps)) for eps in eg]
    tols = [_h2_tol(float(eps), vt) for eps in eg]
    margins = np.empty((len(tg), len(eg)))
    for ie, sweep in enumerate(sweep_singular_left(family, integrands, tg, tols)):
        eps = float(eg[ie])
        if sweep.base.diverged:
            return Hypothesis(
                "H2_osgood_scaled", False, float("-inf"),
                {"kind": "divergent", "eps": eps, "t": float(tg[0])},
                notes="int_0+ omega(eps*v)/lambda diverges")
        bad = np.flatnonzero(~sweep.converged)
        if bad.size:
            j = int(bad[0])
            t0 = float(tg[j - 1]) if j else 0.0
            return Hypothesis(
                "H2_osgood_scaled", False, float("nan"),
                {"kind": "divergent", "eps": eps, "t0": t0, "t": float(tg[j])},
                notes="quadrature budget exhausted on (t0, t]")
        margins[:, ie] = vt - sweep.values / eps
    flat = int(np.argmin(margins.ravel()))  # ties: smallest t, then smallest eps
    it, ie = np.unravel_index(flat, margins.shape)
    worst = float(margins[it, ie])
    eps_w, t_w = float(eg[ie]), float(tg[it])
    witness = {
        "kind": "quad_ineq_eps",
        "eps": eps_w,
        "t": t_w,
        "scaled_integral": float(vt[it]) - worst,
        "v_t": float(vt[it]),
        "max_margin": float(np.max(margins)),  # margin spread over the grid
    }
    return Hypothesis("H2_osgood_scaled", worst >= -c.tol, worst, witness,
                      notes="margins scaled by eps")


def _h2_integrand(v_fn, lam_fn, om_fn, eps):
    """w -> omega(eps*v(w))/lambda(w), the H2 integrand at the scale eps (a
    float, or an array of scales that broadcasts against w)."""

    def integrand(w):
        return om_fn(eps * v_fn(w)) / lam_fn(w)

    return integrand


def _h2_tol(eps: float, v_on_grid) -> float:
    """Quadrature tolerance of the H2 integrals at scale eps, relative to
    eps*max(|v|, 1) over the t grid."""
    vmax = float(np.max(np.abs(v_on_grid)))
    return max(1e-12 * eps * max(vmax, 1.0), 1e-300)


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
    rep_t = reduced
    if rep_t is None:
        v, lam = reduce_to_constantin(p.u)
        p_red = ProblemSpec(f=p.f, u=p.u, v=v, lam=lam, omega=p.omega,
                            T=p.T, x_bound=p.x_bound, name=p.name)
        rep_t = check_theorem_main(p_red, c)
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
# Athanassov <-> Nagumo change of variables

def nagumo_transform(f: Expression, u: Expression, T: float = 1.0):
    """Transform f under the change of variables y(u(t)) = x(t).

    Returns (g, u_range) where g(s, x) = f(t(s), x)/u'(t(s)) with
    t(s) the bisection inverse of the increasing gauge u; the bound
    |g(s, x1) - g(s, x2)| <= |x1 - x2|/s is the Nagumo condition for the
    transformed equation.
    """
    from .rootfind import bisect
    du = u.diff("t")

    def u_at(t):
        return u.evaluate({"t": t})

    u_hi = u_at(T)
    t_lo = 1e-12 * T

    def t_of_s(s):
        if not (u_at(t_lo) <= s <= u_hi):
            raise ValueError(f"u-value {s!r} outside the gauge range")
        return bisect(lambda t: u_at(t) - s, t_lo, T)

    def g(s, x):
        t = t_of_s(s)
        return f.evaluate({"t": t, "x": x}) / du.evaluate({"t": t})

    return g, (u_at(t_lo), u_hi)


# ---------------------------------------------------------------------------
# witness re-verification

def reverify(p: ProblemSpec, c: CheckConfig, report: CriterionReport) -> bool:
    """Re-evaluate every failing hypothesis's witness independently of the
    grid sweep; returns True when each reproduces a violation > tol."""
    for h in report.hypotheses:
        if h.passed:
            continue
        if not _reverify_one(p, c, report.criterion, h):
            return False
    return True


def _reverify_one(p: ProblemSpec, c: CheckConfig, criterion: str,
                  h: Hypothesis) -> bool:
    w = h.witness
    kind = w.get("kind")
    f = p.f
    if kind == "pair_ineq":
        lhs = abs(f.evaluate({"t": w["t"], "x": w["x1"]}) -
                  f.evaluate({"t": w["t"], "x": w["x2"]}))
        coeff = _pair_coeff(p, criterion, w["t"])
        rhs = coeff * abs(w["x1"] - w["x2"])
        return lhs > rhs + c.tol
    if kind == "grid_ineq":
        lhs, rhs = _grid_sides(p, h.name, w["t"], w["x"])
        return lhs > rhs + c.tol
    if kind == "limit_final":
        if "x" not in w:
            # omega(0+) vanishing check; the witness t is an r value
            val = abs(float(p.omega.lambdify(("r",))(np.array([w["t"]]))[0]))
            return not (val < w["threshold"])
        xs = c.x_grid(p.x_bound)
        ratio = _limit_ratio(p, criterion, h.name)
        sup = float(np.max(np.abs(ratio(np.array([w["t"]])[:, None],
                                        xs[None, :]))))
        return not (sup < w["threshold"])
    if kind == "limit_increase":
        if "x" not in w:
            om = p.omega.lambdify(("r",))
            return (abs(float(om(np.array([w["t"]]))[0])) >
                    abs(float(om(np.array([w["t_prev"]]))[0])))
        xs = c.x_grid(p.x_bound)
        ratio = _limit_ratio(p, criterion, h.name)
        s_prev = float(np.max(np.abs(ratio(np.array([w["t_prev"]])[:, None],
                                           xs[None, :]))))
        s_now = float(np.max(np.abs(ratio(np.array([w["t"]])[:, None],
                                          xs[None, :]))))
        return s_now > s_prev
    if kind == "quad_ineq":
        res = integrate_singular_left(_osgood_integrand(p.omega), w["r"],
                                      tol=c.quad_tol)
        return res.diverged or res.value > w["bound"] + c.tol
    if kind == "quad_ineq_eps":
        eps = w["eps"]
        integrand, qtol = _h2_integral(p, c, eps)
        res = integrate_singular_left(integrand, w["t"], tol=qtol)
        return res.diverged or res.value / eps > w["v_t"] + c.tol
    if kind == "divergent":
        # re-run the integral named by the witness at the sweep's tolerance
        if h.name.startswith("H1"):
            v_fn = p.v.lambdify(("t",))
            lam_fn = p.lam.lambdify(("t",))
            integrand, qtol = (lambda s: v_fn(s) / lam_fn(s)), c.quad_tol
            lo, hi = 0.0, 1.0
        elif h.name.startswith("H2"):
            integrand, qtol = _h2_integral(p, c, w["eps"])
            lo, hi = w.get("t0", 0.0), w["t"]
        else:
            integrand, qtol = _osgood_integrand(p.omega), c.quad_tol
            lo, hi = w.get("r0", 0.0), w.get("r", 1.0)
        if lo == 0.0:
            res = integrate_singular_left(integrand, hi, tol=qtol)
        else:
            res = integrate(integrand, lo, hi, tol=qtol)
        return res.diverged or not res.converged
    if kind == "domain_error":
        # a non-finite sample was observed during the sweep; accept the
        # witness if the point re-evaluates as bad, or if it names a point
        # we cannot re-evaluate scalar-wise (vectorized eval saw the issue)
        try:
            if h.name == "gauge_validity":
                # a gauge underflowed to 0 at a sampled t > 0; confirm the
                # degenerate value rather than re-evaluating f
                val = p.u.evaluate({"t": w["t"]})
                return val == 0.0 or not math.isfinite(val)
            if "r" in w:
                val = p.omega.evaluate({"r": w["r"]})
            elif h.name in ("uniform_limit_f", "uniform_limit_f_over_uprime",
                            "H4_uniform_limit_lambda_f_over_v",
                            "H4_uniform_limit_f_over_vprime"):
                ratio = _limit_ratio(p, criterion, h.name)
                val = float(ratio(np.array([w["t"]]), np.array([w.get("x", 0.0)]))[0])
            else:
                val = f.evaluate({"t": w["t"], "x": w.get("x", 0.0)})
        except EvalDomainError:
            return True
        return not math.isfinite(val)
    if kind == "increase_pair":
        om = p.omega.lambdify(("r",))
        return not (float(om(np.array([w["r2"]]))[0]) >
                    float(om(np.array([w["r1"]]))[0]))
    return False


def _h2_integral(p: ProblemSpec, c: CheckConfig, eps: float):
    """The H2 integrand at scale eps and its sweep tolerance."""
    v_fn = p.v.lambdify(("t",))
    integrand = _h2_integrand(v_fn, p.lam.lambdify(("t",)),
                              p.omega.lambdify(("r",)), eps)
    return integrand, _h2_tol(eps, v_fn(c.t_grid(p.T)))


def _pair_coeff(p: ProblemSpec, criterion: str, t: float) -> float:
    if criterion == "nagumo":
        return 1.0 / t
    du = p.u.diff("t")
    return du.evaluate({"t": t}) / p.u.evaluate({"t": t})


def _grid_sides(p: ProblemSpec, hyp_name: str, t: float, x: float):
    lhs = abs(p.f.evaluate({"t": t, "x": x}))
    if hyp_name == "bound_f_le_uprime_over_u_omega":
        du = p.u.diff("t")
        rhs = (du.evaluate({"t": t}) / p.u.evaluate({"t": t}) *
               p.omega.evaluate({"r": abs(x)}))
    elif hyp_name == "H3_bound_f_le_omega_over_lambda":
        rhs = p.omega.evaluate({"r": abs(x)}) / p.lam.evaluate({"t": t})
    elif hyp_name == "H5_domination":
        lhs = abs(p.lam.evaluate({"t": t}) * p.f.evaluate({"t": t, "x": x}))
        rhs = p.v.evaluate({"t": t})
    else:
        raise KeyError(hyp_name)
    return lhs, rhs


def _limit_ratio(p: ProblemSpec, criterion: str, hyp_name: str):
    if hyp_name == "uniform_limit_f":
        return p.f.lambdify(("t", "x"))
    if hyp_name == "uniform_limit_f_over_uprime":
        return _ratio_expr(p.f, p.u.diff("t")).lambdify(("t", "x"))
    if hyp_name == "H4_uniform_limit_lambda_f_over_v":
        return _product_over_expr(p.lam, p.f, p.v).lambdify(("t", "x"))
    if hyp_name == "H4_uniform_limit_f_over_vprime":
        return _ratio_expr(p.f, p.v.diff("t")).lambdify(("t", "x"))
    raise KeyError(hyp_name)
