"""Time reparametrizations of the singular interval (0, T].

The basic map tau(t) = tau_minus + int_t^T ds/lambda(s) sends the singular
endpoint t = 0 to tau_plus (possibly +inf).  It is tabulated on a geometric
t grid, interpolated with monotone cubic Hermite splines (slopes are known
exactly: dtau/dt = -1/lambda), inverted either through the spline or by
safeguarded Newton steps against the defining integral, and verified against
its fixed-point integral equation t(tau) = int_tau^tau_plus lambda(t(s)) ds.
The splines are an in-package numpy evaluator that matches scipy's
``CubicHermiteSpline``/``PPoly`` bit for bit, so tables and reports do not
depend on scipy.

tau_plus = +inf is represented by an explicit marker plus a finite horizon
(the tau value at the smallest tabulated t); verification integrals are
truncated there.  The fixed-point integral misses exactly t at the
horizon, t_min (T*1e-8 unless a floor is given), and adds that tail back,
so its residual measures the table, not the truncation.  The L1 identity
is truncated on both sides, at the horizon in tau and at t_min in t, so
its residual measures the table, not the tail int_0+^t_min v/lambda (1e-2
for the gauge u = t^0.25*exp(t) at t_min = 1e-8).

The refined inverse ``t_of_tau(refine=True)`` solves r(t) = tau(t) -
target = 0 with tau(t) = tau(t_hi) + int_t^t_hi ds/lambda inside the table
segment [t_lo, t_hi] that brackets the target.  It starts from the spline
value and takes the Newton step t <- t + r*lambda(t), exact since
dr/dt = -1/lambda.  It stops at t + r*lambda(t) once |r*lambda(t)| <=
1e-12*t, a test made before the safeguard and at t_lo too, so a target
on a table node ends there.  Otherwise each residual shrinks the bracket,
and a Newton point not strictly inside it is replaced by the midpoint.  A
refine of the corpus tables takes three rounds of residuals (t_lo, the
spline value, one Newton point).

Every integral over the table is a sum over segments, each integrated to a
relative 1e-13 of its own first GK15 value (``_segment_integrals``): the
table's segments, from T down; the fixed-point grid and the L1 identity's
tau side, cut at the tau nodes, where the spline t(tau) is only C1; the L1
identity's t side, cut at the t nodes; the refined inverse's [t, t_hi].  A
non-finite sample raises its IntegrandError, a divergent or unconverged
segment a ReparamError: the first failing segment in the integral's order,
or each refined target's own.  ``tests/scalar_reference.py`` repeats the
rule segment by segment, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import EvalDomainError, Expression
# integrate is unused here but stays bound: the benchmark's tracer wraps it
from .quadrature import (DEFAULT_BUDGET, DIVERGENCE_SUM_THRESHOLD,
                         IntegrandError, _gk15_rule, _sample, _segments,
                         integrate, integrate_singular_left)  # noqa: F401
from .rootfind import BracketError, _bisect_lanes, bisect

__all__ = [
    "Reparametrization",
    "TransformedField",
    "GeneralizedReparam",
    "ReparamError",
    "DegenerateReparamError",
    "build_tau",
    "verify_fixed_point",
    "transform",
    "alpha_l1_check",
    "exp_reparam_check",
    "solve_tau_exp_root",
    "generalized_reparam",
]


_TAU_NODES = 400   # nodes of the tau(t) table
_CHECK_TOL = 1e-9  # slack of transform's bound check
_RTOL = 1e-13      # every segment integral, relative to its first GK15 value


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
        """Sharpen the interpolated inverse ``out`` in place: Newton steps
        on tau(t) - target from ``out``, safeguarded by the bracketing
        table nodes (the module docstring states the rule).

        All targets run as one lane search; a round's residuals are one
        segment integral per target and one call of lambda.  A target whose
        bracket residuals have the same sign keeps its interpolated value.
        The first target (in order) whose residual fails raises its error.
        """
        todo = np.flatnonzero(~(targets <= self.tau_minus))
        target = targets[todo]
        k = np.searchsorted(-self.tau_table, -target, side="right") - 1
        k = np.clip(k, 0, len(self.t_table) - 2)
        t_hi, tau_hi = self.t_table[k + 1], self.tau_table[k + 1]
        lam_fn = self.lam.lambdify(("t",))
        inv_lam = _inv_lam_fn(self.lam)

        def residual(ts, lanes):
            """(r, r*lambda(t)), r = tau(t) - target, for the listed targets,
            or the failure of the segment [t, t_hi]."""
            ts = np.array(ts)
            quads, failed = _segment_integrals(inv_lam, ts, t_hi[lanes])
            r = (tau_hi[lanes] + quads - target[lanes]).tolist()
            return [failed.get(j) or (rj, rj * lam) for j, (rj, lam)
                    in enumerate(zip(r, lam_fn(ts).tolist()))]

        # tau(t_hi) is the table node: its residual needs no integral
        roots = _bisect_lanes(
            residual, self.t_table[k].tolist(), t_hi.tolist(), rtol=1e-12,
            fhi=(tau_hi - target).tolist(), start=out[todo].tolist())
        failed = next((root for root in roots if isinstance(root, Exception)
                       and not isinstance(root, BracketError)), None)
        if failed is not None:
            raise failed
        for i, root in zip(todo.tolist(), roots):
            if not isinstance(root, BracketError):
                out[i] = root


def _inv_lam_fn(lam: Expression):
    lam_v = lam.lambdify(("t",))
    return lambda t: 1.0 / lam_v(t)


def _segment_integrals(g, lo: np.ndarray, hi: np.ndarray):
    """The integrals of g over the segments [lo[j], hi[j]] under the
    module's rule, and by index each failing segment's exception."""
    k, err = _gk15_rule(lambda x: _sample(g, x)[None], lo, hi)
    value, converged, failed = _segments(
        lambda _row: g, lo, hi, k, err, _RTOL * np.abs(k), DEFAULT_BUDGET)
    value, failed = value[0], failed.get(0, {})
    for j in np.flatnonzero(~converged[0]).tolist():
        kind = "divergent" if abs(value[j]) > DIVERGENCE_SUM_THRESHOLD \
            else "unconverged"
        failed.setdefault(j, ReparamError(
            f"{kind} quadrature on {[float(lo[j]), float(hi[j])]}"))
    return value, failed


def _integrals(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``_segment_integrals``'s values; the first failing segment raises."""
    value, failed = _segment_integrals(g, lo, hi)
    if failed:
        raise failed[min(failed)]
    return value


def build_tau(lam: Expression, T: float, tau_minus: float = 0.0,
              t_min: float | None = None) -> Reparametrization:
    """Tabulate tau(t) = tau_minus + int_t^T ds/lambda(s) on a geometric grid.

    tau_plus is the limit of tau(t) as t -> 0+: finite when int_0+ 1/lambda
    converges, +inf otherwise.
    """
    if t_min is None:
        t_min = T * 1e-8
    t_nodes = np.geomspace(t_min, T, _TAU_NODES)
    lam_vals = lam.lambdify(("t",))(t_nodes)
    if not np.all(np.isfinite(lam_vals)):
        bad = float(t_nodes[np.flatnonzero(~np.isfinite(lam_vals))[0]])
        raise ReparamError(f"lambda not finite at t={bad!r}")
    if not np.all(lam_vals > 0.0):
        bad = float(t_nodes[np.flatnonzero(~(lam_vals > 0.0))[0]])
        raise ReparamError(f"lambda vanishes or is negative at t={bad!r}")
    inv_lam = _inv_lam_fn(lam)
    try:
        # the segments from T down, so the top failing one is reported
        segs = _integrals(inv_lam, t_nodes[-2::-1], t_nodes[:0:-1])
    except IntegrandError as exc:
        raise ReparamError(f"quadrature failed on panel: {exc}") from exc
    # taus[k] = taus[k + 1] + seg[k], summed one segment at a time from T
    taus = np.add.accumulate(np.r_[float(tau_minus), segs])[::-1].copy()
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


def verify_fixed_point(rep: Reparametrization, lam: Expression,
                       n_tau: int = 50) -> float:
    """Max residual of t(tau) = int_tau^tau_plus lambda(t(s)) ds on a tau grid.

    The integral stops at the tabulated horizon and adds back the missing
    tail, exactly t_min.  The grid is cut at the table's tau nodes, and
    the segments are summed from the horizon down.
    """
    if n_tau < 2:
        raise ValueError(f"n_tau must be at least 2, got {n_tau!r}")
    taus = np.linspace(rep.tau_minus, rep.tau_horizon, n_tau)
    ends = np.union1d(taus, _split(rep.tau_table[::-1], taus[0], taus[-1])[0])
    lam_v = lam.lambdify(("t",))
    segs = _integrals(lambda s: lam_v(rep.t_of_tau(s)), ends[:-1], ends[1:])
    # tails[k] = tails[k + 1] + seg[k], summed from the horizon down
    tails = np.add.accumulate(np.r_[rep.t_min, segs[::-1]])[::-1]
    return float(np.max(np.abs(
        rep.t_of_tau(taus) - tails[ends.searchsorted(taus)])))


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
              rep: Reparametrization) -> TransformedField:
    """Build the transformed field and validate |F(tau, y)| <= alpha(tau)
    on an 80 x 41 grid of (tau, y), y in [-1, 1]; a violation indicates
    the source problem breaks the domination hypothesis."""
    field = TransformedField(rep=rep, f=f, v=v, lam=lam)
    taus = np.linspace(rep.tau_minus, rep.tau_horizon, 80)
    ys = np.linspace(-1.0, 1.0, 41)
    t_vals = rep.t_of_tau(taus)
    lam_vals = lam.lambdify(("t",))(t_vals)
    alpha_vals = v.lambdify(("t",))(t_vals)
    f_vals = f.lambdify(("t", "x"))(t_vals[:, None], ys[None, :])
    margins = alpha_vals[:, None] - np.abs(lam_vals[:, None] * f_vals)
    flat = int(np.argmin(margins.ravel()))
    i, j = np.unravel_index(flat, margins.shape)
    field.worst_margin = float(margins[i, j])
    field.bound_ok = bool(field.worst_margin >= -_CHECK_TOL)
    if not field.bound_ok:
        field.witness = {"tau": float(taus[i]), "y": float(ys[j]),
                         "F": float(-lam_vals[i] * f_vals[i, j]),
                         "alpha": float(alpha_vals[i])}
    return field


def alpha_l1_check(rep: Reparametrization, v: Expression, lam: Expression,
                   tau: float) -> float:
    """Residual of int_tau^tau_horizon alpha(s) ds = int_t_min^t(tau) v/lambda:
    both sides stop at the table's horizon, which w = t(s) maps to t_min,
    and each side's segments are summed exactly.
    """
    v_fn = v.lambdify(("t",))
    lam_fn = lam.lambdify(("t",))
    left = _integrals(lambda s: v_fn(rep.t_of_tau(s)), *_split(
        rep.tau_table[::-1], float(tau), rep.tau_horizon))
    right = _integrals(lambda w: v_fn(w) / lam_fn(w),
                       *_split(rep.t_table, rep.t_min,
                               rep.t_of_tau(float(tau), refine=True)))
    return abs(math.fsum(left.tolist()) - math.fsum(right.tolist()))


def _split(knots: np.ndarray, a: float, b: float):
    """The left and right ends of [a, b]'s segments between the ascending
    knots inside it."""
    ends = np.r_[a, knots[(knots > a) & (knots < b)], b]
    return ends[:-1], ends[1:]


def exp_reparam_check(u: Expression, rep: Reparametrization) -> float:
    """Max residual of u(t(tau)) = c * exp(-tau) on a 50-point tau grid.

    With lambda = u/u' the reparametrization is exactly exponential in the
    u-values; c = u(T)*exp(tau_minus) makes the identity exact at
    tau = tau_minus.
    """
    c = u.evaluate({"t": rep.T}) * math.exp(rep.tau_minus)
    tau_hi = min(rep.tau_horizon, rep.tau_minus + 40.0)
    taus = np.linspace(rep.tau_minus, tau_hi, 50)
    ts = rep.t_of_tau(taus, refine=True)
    exact = [c * math.exp(-tau + rep.tau_minus) * math.exp(-rep.tau_minus)
             for tau in taus.tolist()]
    return float(np.max(np.abs(u.lambdify(("t",))(ts) - exact)))


# ---------------------------------------------------------------------------
# generalized reparametrization u(t(tau)) = c*exp(-tau) - 1/tau

def solve_tau_exp_root(c: float) -> float:
    """The positive root of tau * exp(tau) = 1/c (bracketing bisection);
    ReparamError when no bracket within [min(1e-300, 1/(4c)), 709] holds
    it.  The root lies above 1/(c*e^(1/c)) >= 1/(4c) once c >= 1, and
    1100 halvings narrow [1/(4c), 1] to 1e-14 of it for every c up to
    1e300; ConvergenceError when they do not."""
    if not (c > 0.0):
        raise ValueError(f"c must be positive, got {c!r}")
    target = 1.0 / c

    def fn(tau):
        return tau * math.exp(tau) - target

    lo, hi = min(1e-300, 0.25 * target), 1.0
    while fn(hi) < 0.0 and hi < 709.0:  # math.exp is finite up to 709
        hi = min(2.0 * hi, 709.0)
    if not fn(lo) < 0.0 <= fn(hi):
        raise ReparamError(f"no root of tau*exp(tau) = 1/c in [{lo!r}, {hi!r}] "
                           f"for c={c!r}")
    return bisect(fn, lo, hi, rtol=1e-14, max_iter=1100)


_GENERALIZED_NODES = 300   # nodes of the generalized table


def _invert_gauge(u_fn, targets, t_lo: float, T: float, rtol: float):
    """t in [t_lo, T] with u(t) = target for each of the array ``targets``
    (same shape): one lane bisection of the compiled increasing gauge u.
    A target outside [u(t_lo), u(T)] raises ValueError, a non-finite u met
    by the bisection EvalDomainError, a lane that runs out of halvings
    ConvergenceError."""
    flat = np.asarray(targets, dtype=np.float64).ravel()
    u_lo, u_hi = u_fn(np.array([t_lo, T])).tolist()
    for target in flat.tolist():
        if not (u_lo <= target <= u_hi):
            raise ValueError(f"u-value {target!r} outside the gauge range")

    def residual(ts, lanes):
        # u(t_lo) - target <= 0 <= u(T) - target: every bracket holds a root
        r = (u_fn(np.array(ts)) - flat[lanes]).tolist()
        bad = [ti for ri, ti in zip(r, ts) if not math.isfinite(ri)]
        if bad:
            raise EvalDomainError(f"u is not finite at t={bad[0]!r}")
        return r

    n = flat.size
    roots = _bisect_lanes(residual, [t_lo] * n, [T] * n, rtol)
    failed = next((r for r in roots if isinstance(r, Exception)), None)
    if failed is not None:
        raise failed
    return np.reshape(roots, np.shape(targets))


@dataclass
class GeneralizedReparam:
    """Reparametrization extracted from u(t(tau)) = c*exp(-tau) - 1/tau."""

    rep: Reparametrization   # tau_plus is the zero of rhs, where t -> 0
    u: Expression
    c: float

    def rhs(self, tau: float) -> float:
        """h(tau) = c*exp(-tau) - 1/tau, the value of u at t(tau)."""
        return self.c * math.exp(-tau) - 1.0 / tau


def generalized_reparam(u: Expression, c: float,
                        T: float = 1.0) -> GeneralizedReparam:
    """Extract t(tau) = u^{-1}(h(tau)), h = ``GeneralizedReparam.rhs``, on the
    branch where h decreases from min(u(T), h(tau_1)) to its zero tau_end,
    where t -> 0.  Since h' = 1/tau^2 - c*exp(-tau), h rises to one peak
    tau_1 < 1, where tau_1^2*exp(-tau_1) = 1/c, then falls through one zero
    tau_end in (tau_1, 2*ln(c) + 2); the peak is positive exactly when
    c > e.  For c <= e, or a branch that is empty or flat within h's
    rounding, it raises DegenerateReparamError.  The nodes are geometric in
    tau_end - tau and stop where h falls to the largest of 2*u(1e-12*T),
    1e3 ulps of 1/tau_end and 2*|h(tau_end)| (rounding, tau_end's error);
    their t's are one lane inversion of u on [1e-12*T, T].  A u that is
    not finite at either end or inside the inversion raises ReparamError.
    """
    if not c > math.e:
        raise DegenerateReparamError(
            f"degenerate generalized reparametrization: "
            f"c*exp(-tau) - 1/tau is never positive for c={c!r} "
            f"(requires c > e)")
    grep = GeneralizedReparam(rep=None, u=u, c=float(c))
    h = grep.rhs
    # halving [0, 1] keeps [0, 2^k] while 2^k > sqrt(e/c) >= tau_1
    tau_1 = bisect(lambda s: s * s * math.exp(-s) - 1.0 / c, 0.0,
                   2.0 ** math.frexp(math.sqrt(math.e / c))[1], rtol=1e-14)
    tau_end = bisect(h, tau_1, 2.0 * math.log(c) + 2.0, rtol=1e-14)
    t_floor = 1e-12 * T
    u_fn = u.lambdify(("t",))
    u_lo, u_max = u_fn(np.array([t_floor, T])).tolist()
    for where, t, value in (("t_floor", t_floor, u_lo), ("T", T, u_max)):
        if not math.isfinite(value):
            raise ReparamError(f"gauge u = {u.serialize()} is not finite at "
                               f"{where} = {t!r}")
    tau_lo = tau_1
    if h(tau_1) > u_max:
        tau_lo = bisect(lambda s: h(s) - u_max, tau_1, tau_end, rtol=1e-14)
    level = max(2.0 * u_lo, 1e3 * math.ulp(1.0 / tau_end),
                2.0 * abs(h(tau_end)))
    if not (h(tau_lo) > level):
        raise DegenerateReparamError(
            "degenerate generalized reparametrization: empty valid tau-domain")
    tau_last = bisect(lambda s: h(s) - level, tau_lo, tau_end, rtol=1e-14)
    d = tau_end - tau_lo
    taus = tau_lo + (d - np.geomspace(d, tau_end - tau_last,
                                      _GENERALIZED_NODES))
    # h(tau_lo) = u(T) may overshoot by the last bit of its bisection
    targets = np.minimum([h(s) for s in taus.tolist()], u_max)
    # a branch a few thousand ulps of h high is flat within rounding
    if not np.all(np.diff(targets) < 0):
        raise DegenerateReparamError(
            "degenerate generalized reparametrization: h does not decrease "
            "beyond rounding on the valid tau-domain")
    try:
        ts = _invert_gauge(u_fn, targets, t_floor, T, rtol=1e-13)
    except EvalDomainError as exc:
        raise ReparamError(f"gauge u = {u.serialize()} is not finite inside "
                           f"the inversion: {exc}") from exc
    grep.rep = Reparametrization(T=float(ts[0]), tau_minus=tau_lo,
                                 tau_plus=tau_end, t_table=ts[::-1].copy(),
                                 tau_table=taus[::-1].copy(), lam=None)
    return grep
