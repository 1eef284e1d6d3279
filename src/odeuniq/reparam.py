"""Time reparametrizations of the singular interval (0, T].

The basic map tau(t) = tau_minus + int_t^T ds/lambda(s) sends the singular
endpoint t = 0 to tau_plus (possibly +inf).  It is tabulated on a geometric
t grid, interpolated with monotone cubic Hermite splines (slopes are known
exactly: dtau/dt = -1/lambda), inverted either through the spline or by
bracketing bisection against the defining integral, and verified against
its fixed-point integral equation t(tau) = int_tau^tau_plus lambda(t(s)) ds.
The splines are an in-package numpy evaluator that matches scipy's
``CubicHermiteSpline``/``PPoly`` bit for bit, so tables and reports do not
depend on scipy.

tau_plus = +inf is represented by an explicit marker plus a finite horizon
(the tau value at the smallest tabulated t); verification integrals are
truncated there.  The fixed-point residual misses exactly t at the
horizon, t_min (T*1e-8 unless a floor is given).  The L1 identity misses
int_0+^t_min v/lambda, which t_min does not bound: it is 1e-2 for the
gauge u = t^0.25*exp(t) and 1e-4 for u = sqrt(t) at t_min = 1e-8.

The table's segment integrals, the fixed-point integrals and the refined
inverse run as lanes: ``build_tau`` integrates all its segments as one
lane batch of the quadrature, ``verify_fixed_point`` all its integrals,
and ``t_of_tau(refine=True)`` on an array is one lane bisection whose
residuals at each round are one lane integral.  Lanes reproduce the
one-at-a-time loops bit for bit, and failures surface in the loops'
order: the top table segment first, the first tau of a grid first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import (CheckConfig, CriterionReport, Hypothesis, ProblemSpec,
                       _grid_bound_hypothesis)
from .expr import Expression
from .quadrature import (IntegrandError, _integrate_lanes, integrate,
                         integrate_singular_left)
from .rootfind import _bisect_lanes, bisect

__all__ = [
    "Reparametrization",
    "TransformedField",
    "GeneralizedReparam",
    "ReparamError",
    "DegenerateReparamError",
    "build_tau",
    "t_of_tau",
    "verify_fixed_point",
    "transform",
    "alpha_l1_check",
    "exp_reparam_check",
    "solve_tau_exp_root",
    "generalized_reparam",
    "check_relaxed_bound",
]


class ReparamError(Exception):
    pass


class DegenerateReparamError(ReparamError):
    pass


class _HermiteSpline:
    """The cubic Hermite interpolant through the points (x[k], y[k]) with
    slopes d[k], x strictly increasing, extrapolated from the end
    intervals.

    It is scipy's ``CubicHermiteSpline`` (1.17) bit for bit: the same
    coefficients, the same interval search (closed on the right at the
    last knot) and ``PPoly``'s evaluation order, a sum that starts from
    +0.0, which fixes the sign of a zero result.  Its input checks raise
    scipy's ValueError messages.
    """

    def __init__(self, x, y, d):
        x, y, d = (np.asarray(a, dtype=np.float64) for a in (x, y, d))
        if x.shape[0] < 2:
            raise ValueError("`x` must contain at least 2 elements.")
        for name, a in (("x", x), ("y", y), ("dydx", d)):
            if not np.isfinite(a).all():
                raise ValueError(f"`{name}` must contain only finite values.")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2 * slope) / dx
        # per interval k: x_k and the coefficients of 1, s, s^2, s^3 with
        # s = q - x_k; the constant carries PPoly's leading +0.0
        self._coef = np.stack([x[:-1], 0.0 + y[:-1], d[:-1],
                               (slope - d[:-1]) / dx - t, t / dx])
        # interval k holds x[k] <= q < x[k+1]; the count of interior knots
        # <= q is k, and 0 or n-2 outside the table
        self._inner = x[1:-1]

    def __call__(self, q):
        q = np.asarray(q, dtype=np.float64)
        x0, c3, c2, c1, c0 = self._coef.take(
            self._inner.searchsorted(q, "right"), axis=1)
        s = q - x0
        ss = s * s
        return ((c3 + c2 * s) + c1 * ss) + c0 * (ss * s)


@dataclass
class Reparametrization:
    """Tabulated strictly monotone map between t in (0, T] and tau."""

    T: float
    tau_minus: float
    tau_plus: float          # math.inf when the map is unbounded
    t_table: np.ndarray      # ascending
    tau_table: np.ndarray    # strictly decreasing along t_table
    lam: Expression | None = None

    def __post_init__(self):
        if not (np.all(np.diff(self.t_table) > 0)
                and np.all(np.diff(self.tau_table) < 0)):
            raise ReparamError("reparametrization table is not strictly monotone")
        dt = np.gradient(self.t_table)  # fallback slopes if lambda unknown
        if self.lam is not None:
            lam_vals = self.lam.lambdify(("t",))(self.t_table)
            tau_slopes = -1.0 / lam_vals
            t_slopes = -lam_vals
        else:
            tau_slopes = np.gradient(self.tau_table) / dt
            t_slopes = 1.0 / tau_slopes
        self._tau_spline = _HermiteSpline(self.t_table, self.tau_table,
                                          tau_slopes)
        self._t_spline = _HermiteSpline(self.tau_table[::-1],
                                        self.t_table[::-1], t_slopes[::-1])

    @property
    def tau_horizon(self) -> float:
        """Largest tabulated tau (at the smallest tabulated t)."""
        return float(self.tau_table[0])

    @property
    def t_min(self) -> float:
        return float(self.t_table[0])

    def tau_of_t(self, t):
        t_arr = np.asarray(t, dtype=np.float64)
        if np.any(t_arr < self.t_min * (1 - 1e-12)) or np.any(t_arr > self.T * (1 + 1e-12)):
            raise ReparamError(f"t out of tabulated range [{self.t_min}, {self.T}]")
        out = self._tau_spline(np.clip(t_arr, self.t_min, self.T))
        return float(out) if np.isscalar(t) or t_arr.shape == () else out

    def t_of_tau(self, tau, refine: bool = False):
        scalar = np.isscalar(tau) or np.asarray(tau).shape == ()
        tau_arr = np.atleast_1d(np.asarray(tau, dtype=np.float64))
        lo, hi = self.tau_minus, self.tau_horizon
        if np.any(tau_arr < lo - 1e-12 * max(1.0, abs(lo))) or \
           np.any(tau_arr > hi * (1 + 1e-12) + 1e-12):
            raise ReparamError(f"tau out of tabulated range [{lo}, {hi}]")
        out = self._t_spline(np.clip(tau_arr, lo, hi))
        out[tau_arr <= lo] = self.T  # t(tau_minus) = T exactly
        if refine and self.lam is not None:
            self._refine(tau_arr, out)
        return float(out[0]) if scalar else out

    def _refine(self, targets: np.ndarray, out: np.ndarray) -> None:
        """Sharpen the interpolated inverse ``out`` in place by bisection
        against the defining integral between the bracketing table nodes.

        All targets run as one lane bisection; each round's residuals are
        one lane integral.  A target whose bracket residuals have the same
        sign keeps its interpolated value.  The first target (in order)
        whose residual fails raises its error.
        """
        todo = np.flatnonzero(~(targets <= self.tau_minus))
        n = todo.size
        target = targets[todo]
        k = np.searchsorted(-self.tau_table, -target, side="right") - 1
        k = np.clip(k, 0, len(self.t_table) - 2)
        t_lo, t_hi = self.t_table[k].tolist(), self.t_table[k + 1].tolist()
        tau_hi_node, target = self.tau_table[k + 1].tolist(), target.tolist()
        inv_lam = _inv_lam_fn(self.lam)

        def residual(ts, lanes):
            """tau(t) - target for the listed targets, or the quadrature's
            IntegrandError."""
            quads = _integrate_lanes(inv_lam, ts, [t_hi[i] for i in lanes],
                                     tol=1e-14)
            return [q if isinstance(q, IntegrandError)
                    else tau_hi_node[i] + q.value - target[i]
                    for q, i in zip(quads, lanes)]

        # both bracket ends in one round; the integral at t_hi is empty
        ends = residual(t_lo + t_hi, list(range(n)) * 2)
        f_lo, f_hi = ends[:n], ends[n:]
        failed = {i: f for i, f in enumerate(f_lo)
                  if isinstance(f, IntegrandError)}
        run = [i for i in range(n)
               if i not in failed and not f_lo[i] * f_hi[i] > 0]
        roots = _bisect_lanes(
            lambda ts, lanes: residual(ts, [run[j] for j in lanes]),
            [t_lo[i] for i in run], [t_hi[i] for i in run], rtol=1e-12,
            flo=[f_lo[i] for i in run], fhi=[f_hi[i] for i in run])
        for i, root in zip(run, roots):
            if isinstance(root, Exception):
                failed[i] = root
            else:
                out[todo[i]] = root
        if failed:
            raise failed[min(failed)]


def _inv_lam_fn(lam: Expression):
    lam_v = lam.lambdify(("t",))

    def fn(t):
        return 1.0 / lam_v(t)

    return fn


def build_tau(lam: Expression, T: float, tau_minus: float = 0.0,
              tol: float = 1e-12, n_nodes: int = 400,
              t_min: float | None = None) -> Reparametrization:
    """Tabulate tau(t) = tau_minus + int_t^T ds/lambda(s) on a geometric grid.

    tau_plus is the limit of tau(t) as t -> 0+: finite when int_0+ 1/lambda
    converges, +inf otherwise.
    """
    if t_min is None:
        t_min = T * 1e-8
    t_nodes = np.geomspace(t_min, T, n_nodes)
    lam_vals = lam.lambdify(("t",))(t_nodes)
    if not np.all(np.isfinite(lam_vals)):
        bad = float(t_nodes[np.flatnonzero(~np.isfinite(lam_vals))[0]])
        raise ReparamError(f"lambda not finite at t={bad!r}")
    if not np.all(lam_vals > 0.0):
        bad = float(t_nodes[np.flatnonzero(~(lam_vals > 0.0))[0]])
        raise ReparamError(f"lambda vanishes or is negative at t={bad!r}")
    inv_lam = _inv_lam_fn(lam)
    seg_tol = max(tol / n_nodes, 1e-15)
    segs = _integrate_lanes(inv_lam, t_nodes[:-1].tolist(),
                            t_nodes[1:].tolist(), tol=seg_tol)
    # the table is filled from T down: the top segment's failure is reported
    for seg in reversed(segs):
        if isinstance(seg, IntegrandError):
            raise ReparamError(f"quadrature failed on panel: {seg}") from seg
        if seg.diverged:
            raise ReparamError("divergent quadrature at an interior panel")
    # taus[k] = taus[k + 1] + seg[k], summed one segment at a time from T
    taus = np.add.accumulate(
        [float(tau_minus)] + [seg.value for seg in reversed(segs)])
    taus = taus[::-1].copy()
    try:
        full = integrate_singular_left(inv_lam, T, tol=1e-10)
    except IntegrandError:
        # lambda not evaluable arbitrarily close to 0+ (e.g. float underflow
        # in a gauge ratio); the table is still valid above t_min
        full = None
    if full is None:
        tau_plus = math.nan
    elif full.converged:
        tau_plus = tau_minus + full.value
    elif full.diverged:
        tau_plus = math.inf
    else:
        raise ReparamError("could not classify int_0+ 1/lambda "
                           "(quadrature budget exhausted)")
    return Reparametrization(T=T, tau_minus=tau_minus, tau_plus=tau_plus,
                             t_table=t_nodes, tau_table=taus, lam=lam)


def t_of_tau(rep: Reparametrization, tau: float, refine: bool = True) -> float:
    """Module-level convenience for the monotone-interpolated inverse."""
    return rep.t_of_tau(tau, refine=refine)


def verify_fixed_point(rep: Reparametrization, lam: Expression,
                       tol: float = 1e-9, n_tau: int = 50) -> float:
    """Max residual of t(tau) = int_tau^tau_plus lambda(t(s)) ds on a tau grid.

    Integrals are truncated at the tabulated horizon; the missing tail is
    exactly t at the horizon, t_min.
    """
    tau_hi = rep.tau_horizon
    taus = np.linspace(rep.tau_minus, tau_hi, n_tau)
    lam_v = lam.lambdify(("t",))

    def integrand(s):
        return lam_v(rep.t_of_tau(s))

    quads = _integrate_lanes(integrand, taus.tolist(), [tau_hi] * n_tau,
                             tol=min(tol * 1e-2, 1e-9))
    worst = 0.0
    for res, t in zip(quads, rep.t_of_tau(taus).tolist()):
        if isinstance(res, IntegrandError):
            raise res
        if res.diverged:
            raise ReparamError("divergent verification integral: "
                               "broken reparametrization")
        worst = max(worst, abs(t - res.value))
    return worst


@dataclass
class TransformedField:
    """The transported vector field F(tau, y) = -lambda(t(tau)) f(t(tau), y)
    and weight alpha(tau) = v(t(tau))."""

    rep: Reparametrization
    f: Expression
    v: Expression
    lam: Expression
    bound_ok: bool = True
    worst_margin: float = math.inf
    witness: dict | None = None

    def F(self, tau, y):
        t = self.rep.t_of_tau(tau)
        lam_v = self.lam.lambdify(("t",))(np.asarray(t))
        f_v = self.f.lambdify(("t", "x"))(np.asarray(t), np.asarray(y))
        out = -lam_v * f_v
        return float(out) if np.isscalar(tau) and np.isscalar(y) else out

    def alpha(self, tau):
        t = self.rep.t_of_tau(tau)
        out = self.v.lambdify(("t",))(np.asarray(t))
        return float(out) if np.isscalar(tau) else out


def transform(f: Expression, v: Expression, lam: Expression,
              rep: Reparametrization, x_bound: float = 1.0,
              n_tau: int = 80, n_y: int = 41, tol: float = 1e-9) -> TransformedField:
    """Build the transformed field and validate |F(tau, y)| <= alpha(tau)
    on a (tau, y) grid; a violation indicates the source problem breaks
    the domination hypothesis."""
    field = TransformedField(rep=rep, f=f, v=v, lam=lam)
    taus = np.linspace(rep.tau_minus, rep.tau_horizon, n_tau)
    ys = np.linspace(-x_bound, x_bound, n_y)
    t_vals = rep.t_of_tau(taus)
    lam_vals = lam.lambdify(("t",))(t_vals)
    alpha_vals = v.lambdify(("t",))(t_vals)
    f_vals = f.lambdify(("t", "x"))(t_vals[:, None], ys[None, :])
    margins = alpha_vals[:, None] - np.abs(lam_vals[:, None] * f_vals)
    flat = int(np.argmin(margins.ravel()))
    i, j = np.unravel_index(flat, margins.shape)
    field.worst_margin = float(margins[i, j])
    field.bound_ok = bool(field.worst_margin >= -tol)
    if not field.bound_ok:
        field.witness = {"tau": float(taus[i]), "y": float(ys[j]),
                         "F": float(-lam_vals[i] * f_vals[i, j]),
                         "alpha": float(alpha_vals[i])}
    return field


def alpha_l1_check(rep: Reparametrization, v: Expression, lam: Expression,
                   tau: float, tol: float = 1e-9) -> float:
    """Residual of int_tau^tau_plus alpha(s) ds = int_0+^t(tau) v(w)/lambda(w) dw."""
    v_fn = v.lambdify(("t",))
    lam_fn = lam.lambdify(("t",))

    def alpha_fn(s):
        return v_fn(rep.t_of_tau(s))

    left = integrate(alpha_fn, float(tau), rep.tau_horizon, tol=min(tol * 1e-2, 1e-9))
    t_at = rep.t_of_tau(float(tau), refine=rep.lam is not None)
    right = integrate_singular_left(lambda w: v_fn(w) / lam_fn(w), t_at,
                                    tol=1e-11)
    if left.diverged or right.diverged:
        raise ReparamError("divergent side in the L1 identity check")
    return abs(left.value - right.value)


def exp_reparam_check(u: Expression, rep: Reparametrization,
                      c: float | None = None, n_tau: int = 50) -> float:
    """Max residual of u(t(tau)) = c * exp(-tau) on a tau grid.

    With lambda = u/u' the reparametrization is exactly exponential in the
    u-values; c defaults to u(T)*exp(tau_minus), which makes the identity
    exact at tau = tau_minus.
    """
    if c is None:
        c = u.evaluate({"t": rep.T}) * math.exp(rep.tau_minus)
    tau_hi = min(rep.tau_horizon, rep.tau_minus + 40.0)
    taus = np.linspace(rep.tau_minus, tau_hi, n_tau)
    ts = rep.t_of_tau(taus, refine=rep.lam is not None)
    exact = [c * math.exp(-tau + rep.tau_minus) * math.exp(-rep.tau_minus)
             for tau in taus.tolist()]
    return float(np.max(np.abs(u.lambdify(("t",))(ts) - exact)))


# ---------------------------------------------------------------------------
# generalized reparametrization u(t(tau)) = c*exp(-tau) - 1/tau

def solve_tau_exp_root(c: float) -> float:
    """The positive root of tau * exp(tau) = 1/c (bracketing bisection)."""
    if not (c > 0.0):
        raise ValueError(f"c must be positive, got {c!r}")
    target = 1.0 / c

    def fn(tau):
        return tau * math.exp(tau) - target

    lo = 1e-300
    hi = 1.0
    while fn(hi) < 0.0:
        hi *= 2.0
        if hi > 1e308:
            raise ReparamError("no root of tau*exp(tau) = 1/c in range")
    return bisect(fn, lo, hi, rtol=1e-14)


@dataclass
class GeneralizedReparam:
    """Reparametrization extracted from u(t(tau)) = c*exp(-tau) - 1/tau."""

    rep: Reparametrization
    u: Expression
    c: float
    tau_plus_root: float     # root of tau*exp(tau) = 1/c
    tau_rhs_zero: float      # right end of the valid branch, where the rhs -> 0

    def rhs(self, tau: float) -> float:
        return self.c * math.exp(-tau) - 1.0 / tau


def generalized_reparam(u: Expression, c: float, T: float = 1.0,
                        tol: float = 1e-12, n_nodes: int = 300) -> GeneralizedReparam:
    """Extract t(tau) = u^{-1}(c*exp(-tau) - 1/tau) on the monotone-decreasing
    sub-domain where the right-hand side is positive and within u's range.

    The right-hand side h(tau) is positive only when c > e; for smaller c
    the construction is degenerate and an error is raised.  The table
    covers the decreasing branch of h ending where h crosses 0, which is
    where t(tau) -> 0.
    """
    root = solve_tau_exp_root(c)

    def h(tau):
        return c * math.exp(-tau) - 1.0 / tau

    scan = np.geomspace(1e-4, 1e4, 4096)
    h_vals = c * np.exp(-scan) - 1.0 / scan
    pos = np.flatnonzero(h_vals > 0.0)
    if pos.size == 0:
        raise DegenerateReparamError(
            f"degenerate generalized reparametrization: "
            f"c*exp(-tau) - 1/tau is never positive for c={c!r} "
            f"(requires c > e)")
    i0, i1 = int(pos[0]), int(pos[-1])
    # decreasing branch: from the max of h down to the right zero crossing
    k_max = i0 + int(np.argmax(h_vals[i0:i1 + 1]))
    tau_end = bisect(h, float(scan[i1]), float(scan[min(i1 + 1, len(scan) - 1)]),
                     rtol=1e-14)
    u_fn = u.evaluate
    u_max = u_fn({"t": T})
    h_at_peak = float(h_vals[k_max])
    if h_at_peak > u_max:
        tau_lo = bisect(lambda s: h(s) - u_max, float(scan[k_max]), tau_end,
                        rtol=1e-14)
    else:
        tau_lo = float(scan[k_max])
    if not (tau_lo < tau_end):
        raise DegenerateReparamError(
            "degenerate generalized reparametrization: empty valid tau-domain")

    t_floor = 1e-12 * T
    u_lo = u_fn({"t": t_floor})

    def u_inverse(target):
        # clamp away the last-bit overshoot from the tau_lo bisection
        target = min(max(target, u_lo), u_max)
        if target >= u_max:
            return T
        if target <= u_lo:
            return t_floor
        return bisect(lambda t: u_fn({"t": t}) - target, t_floor, T,
                      rtol=1e-13)

    t_start = u_inverse(h(tau_lo))
    t_targets = np.geomspace(t_start, t_start * 1e-8, n_nodes)
    taus = np.empty_like(t_targets)
    for i, target_h in enumerate(u.lambdify(("t",))(t_targets).tolist()):
        taus[i] = bisect(lambda s, g=target_h: h(s) - g, tau_lo, tau_end,
                         rtol=1e-14)
    taus[0] = tau_lo
    rep = Reparametrization(T=float(t_start), tau_minus=float(tau_lo),
                            tau_plus=float(tau_end),
                            t_table=t_targets[::-1].copy(),
                            tau_table=taus[::-1].copy(), lam=None)
    return GeneralizedReparam(rep=rep, u=u, c=float(c),
                              tau_plus_root=float(root),
                              tau_rhs_zero=float(tau_end))


def check_relaxed_bound(p: ProblemSpec, grep: GeneralizedReparam,
                        c: CheckConfig | None = None) -> CriterionReport:
    """Sampled check of |f(t,x)| <= u'(t)/(u(t) - 1/tau(t)^2) * omega(|x|)
    on the generalized reparametrization's domain.

    The denominator may change sign; the check is run per sign sub-domain
    (the bound is vacuous where the denominator is non-positive, and those
    samples are reported, not checked).  The report's data carries the
    pointwise ratio between the relaxed bound and the classical u'/u bound.
    """
    c = c or CheckConfig()
    if p.f is None or p.u is None or p.omega is None:
        raise ValueError("relaxed-bound check requires f, u and omega")
    rep = grep.rep
    tg = np.geomspace(rep.t_min, rep.T, c.n_t)
    xg = c.x_grid(p.x_bound)
    tau_vals = np.asarray(rep.tau_of_t(tg))
    u_vals = p.u.lambdify(("t",))(tg)
    du_vals = p.u.diff("t").lambdify(("t",))(tg)
    om_abs = p.omega.lambdify(("r",))(np.abs(xg))
    denom = u_vals - 1.0 / tau_vals**2
    signs = np.sign(denom)
    f = p.f.lambdify(("t", "x"))
    f_abs = np.abs(f(tg[:, None], xg[None, :]))

    hyps = []
    # contiguous runs of constant denominator sign
    boundaries = np.flatnonzero(np.diff(signs) != 0) + 1
    runs = np.split(np.arange(len(tg)), boundaries)
    domain_id = 0
    excluded = 0
    for run in runs:
        if run.size == 0:
            continue
        if signs[run[0]] <= 0:
            excluded += run.size
            continue
        idx = run
        rhs = (du_vals[idx] / denom[idx])[:, None] * om_abs[None, :]
        hyp = _grid_bound_hypothesis(
            f"relaxed_bound_domain{domain_id}", f_abs[idx], rhs,
            tg[idx], xg, c.tol)
        hyps.append(hyp)
        domain_id += 1
    if not hyps:
        hyps.append(Hypothesis(
            "relaxed_bound_domain0", False, float("nan"),
            {"kind": "domain_error", "t": float(tg[0]), "x": 0.0},
            notes="denominator u - 1/tau^2 is non-positive on the whole domain"))
    notes = (f"{excluded} of {len(tg)} t-samples excluded "
             "(denominator u - 1/tau^2 <= 0; bound vacuous there)")
    ratio = np.where(denom > 0, u_vals / denom, np.nan)
    data = {
        "t": [float(x) for x in tg],
        "bound_ratio_relaxed_over_classical": [
            None if not np.isfinite(r) else float(r) for r in ratio],
    }
    return CriterionReport("relaxed_bound", hyps, notes=notes, data=data)
