"""Scalar reference loops for the batched drivers.

``integrate`` and ``bisect`` are the one-interval adaptive quadrature and
the one-bracket bisection that the lane integrator and the lane bisection
replaced; ``build_tau``, ``t_of_tau``, ``verify_fixed_point``,
``alpha_l1_check`` and ``exp_reparam_check`` are the reparametrization's
one-integral-at-a-time loops built on them.

``singular_left`` and ``sweep`` are the loops ``quadrature.sweep_singular_left``
replaced: the geometric-panel loop of ``integrate_singular_left`` and the
per-segment adaptive integrals of the H2 and Osgood sweeps.
``to_infinity`` is the doubling-panel loop that ``integrate_to_infinity``
was before it shared the sweep's batched panels.  All three end through
``_tail_driver``, the panel-at-a-time convergence and divergence tests
that the sweep now takes on a (members x panels) array: the tests read a
provisional stream first, and a panel is redone only when a result needs
its accepted value (``_improper`` states the rule).

``json_report`` is the CLI's JSON writer as it was before it wrote the
text itself: a sanitizing walk (``sanitize``) and ``json.dumps`` with
sorted keys and indent 2.

``integrate_ivp``, ``funnel_probe`` and ``forward_spread`` are the one-leg-
at-a-time Dormand-Prince loop and probes that the solver's lockstep lane
integrator replaced.  Tests require the batched code to reproduce them bit
for bit.

``pairwise_bound`` is the all-pairs loop of the Nagumo and Athanassov
sweeps: at each t it builds the n_x x n_x pair margins and takes their
minimum.  Tests compare the running-maximum sweep with it.

``evaluate`` is the strict tree-walker that ``Expression.evaluate`` was
before it became the compiled kernel at one point.  It computes in ``math``,
so tests require agreement to rounding, and the same domain errors.
"""
import heapq
import json
import math

import numpy as np

from odeuniq.criteria import Hypothesis, _first_nonfinite_witness
from odeuniq.expr import (
    Bin, Call, EvalDomainError, Expression, MissingBindingError, Neg, Node,
    Num, Var, _serialize)
from odeuniq.quadrature import (
    _NODES, _W_GAUSS, _W_KRONROD, DEFAULT_BUDGET, DIVERGENCE_PANEL_RUN,
    DIVERGENCE_SUM_THRESHOLD, IntegrandError, QuadResult,
    integrate_singular_left)
from odeuniq.reparam import Reparametrization, ReparamError, _inv_lam_fn
from odeuniq.rootfind import BracketError, ConvergenceError
from odeuniq.solver import (
    _A, _B4, _B5, _C, FunnelReport, SolverDomainError, Trajectory)


# ---------------------------------------------------------------------------
# one interval at a time adaptive quadrature

def _eval_vectorized(g, x: np.ndarray) -> np.ndarray:
    """g on the panel nodes x as a float array; an integrand that does not
    map x to an array of its shape is sampled point by point."""
    try:
        y = np.asarray(g(x), dtype=np.float64)
    except (TypeError, ValueError):
        y = None
    if y is None or y.shape != x.shape:
        y = np.array([float(g(xi)) for xi in x], dtype=np.float64)
    return y


def _gk15(g, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel: (kronrod value, error estimate).  A
    non-finite value or error raises, naming the first non-finite sample,
    or the panel when every sample is finite and a rule sum overflows."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _NODES
    y = _eval_vectorized(g, x)
    bad = ~np.isfinite(y)
    if bad.any():
        where = float(x[bad][0])
        raise IntegrandError(
            f"non-finite integrand sample at x={where!r}", where=where)
    with np.errstate(over="ignore"):
        k = half * float(np.dot(_W_KRONROD, y))
        err = abs(k - half * float(np.dot(_W_GAUSS, y)))
    if not (math.isfinite(k) and math.isfinite(err)):
        raise IntegrandError(f"panel sum overflows on [{a!r}, {b!r}]", where=a)
    return k, err


def integrate(g, a: float, b: float, tol: float = 1e-10,
              budget: int = DEFAULT_BUDGET) -> QuadResult:
    """Adaptive quadrature of g on the finite interval [a, b].

    Subdivision halves the panel with the largest error estimate until the
    summed estimate drops below ``tol`` or the panel budget is exhausted
    (reported as converged=False, not an exception).
    """
    if not (a < b):
        if a == b:
            return QuadResult(0.0, 0.0, True, False, 0)
        res = integrate(g, b, a, tol=tol, budget=budget)
        return QuadResult(-res.value, res.abs_error_estimate, res.converged,
                          res.diverged, res.subdivisions)
    val, err = _gk15(g, a, b)
    # heap of (-err, insertion counter, a, b, val, err); counter keeps the
    # ordering deterministic when error estimates tie
    heap = [(-err, 0, a, b, val, err)]
    count = 1
    n_panels = 1
    while n_panels < budget:
        total_err = sum(item[5] for item in heap)
        if total_err <= tol:
            break
        neg_err, _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pe <= tol / max(len(heap) + 1, 1) * 1e-3 or pm <= pa or pm >= pb:
            # negligible panel, or midpoint not representable; freeze it
            heap.append((0.0, count, pa, pb, pv, pe))
            count += 1
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        v1, e1 = _gk15(g, pa, pm)
        v2, e2 = _gk15(g, pm, pb)
        heapq.heappush(heap, (-e1, count, pa, pm, v1, e1))
        heapq.heappush(heap, (-e2, count + 1, pm, pb, v2, e2))
        count += 2
        n_panels += 1
    # deterministic reduction: sum panels ordered by left endpoint
    panels = sorted(heap, key=lambda item: item[2])
    value = float(sum(p[4] for p in panels))
    err_total = float(sum(p[5] for p in panels))
    diverged = abs(value) > DIVERGENCE_SUM_THRESHOLD
    converged = (err_total <= tol) and not diverged
    return QuadResult(value, err_total, converged, diverged, n_panels)


# ---------------------------------------------------------------------------
# one bracket at a time bisection

def bisect(fn, lo: float, hi: float, rtol: float = 1e-12,
           max_iter: int = 200) -> float:
    """Root of fn on [lo, hi]; fn(lo) and fn(hi) must differ in sign."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    fhi = fn(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if abs(hi - lo) <= rtol * max(abs(lo), abs(hi), 1e-300):
            break
    else:
        raise ConvergenceError(
            f"bisection did not reach rtol={rtol!r} in {max_iter} halvings: "
            f"[{lo!r}, {hi!r}]")
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# reparametrization, one integral at a time

def _segment(g, a: float, b: float) -> float:
    """The reparametrization's rule on one segment: ``integrate`` to a
    relative 1e-13 of the segment's first GK15 value; a divergent or
    unconverged result raises."""
    k, _ = _gk15(g, a, b)
    res = integrate(g, a, b, tol=1e-13 * abs(k))
    if not res.converged:
        kind = "divergent" if res.diverged else "unconverged"
        raise ReparamError(f"{kind} quadrature on [{a!r}, {b!r}]")
    return res.value


def _split(knots, a: float, b: float) -> list:
    """[a, b] cut at the knots strictly inside it, as its ends."""
    return [a] + [k for k in knots if a < k < b] + [b]


def build_tau(lam, T, tau_minus=0.0, n_nodes=400, t_min=None):
    """tau(t) table with one adaptive integral per segment, from T down."""
    if not T >= 2.0**-1020:
        raise ReparamError(f"T={T!r} is below 2^-1020: int_0+^T 1/lambda "
                           f"has fewer than two base panels above 2^-1022")
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
    taus = np.empty_like(t_nodes)
    taus[-1] = tau_minus
    for k in range(len(t_nodes) - 2, -1, -1):
        try:
            seg = _segment(inv_lam, float(t_nodes[k]), float(t_nodes[k + 1]))
        except IntegrandError as exc:
            raise ReparamError(f"quadrature failed on panel: {exc}") from exc
        taus[k] = taus[k + 1] + seg
    try:
        full = integrate_singular_left(inv_lam, T, tol=1e-10)
    except IntegrandError:
        full = None
    if full is None:
        tau_plus = math.nan
    elif full.converged:
        tau_plus = tau_minus + full.value
    elif full.diverged:
        tau_plus = math.inf
    else:
        raise ReparamError("could not classify int_0+ 1/lambda: the base "
                           "panels ran out at the last one above 2^-1022")
    return Reparametrization(T=T, tau_minus=tau_minus, tau_plus=tau_plus,
                             t_table=t_nodes, tau_table=taus, lam=lam)


def _refine_t(rep, target: float, guess: float) -> float:
    """Newton steps t <- t + (tau(t) - target)*lambda(t) from ``guess``,
    kept strictly inside the bracketing table nodes [t_lo, t_hi] (the
    midpoint otherwise); a step within 1e-12*t ends at t + step."""
    if target <= rep.tau_minus:
        return rep.T
    k = int(np.searchsorted(-rep.tau_table, -target, side="right")) - 1
    k = min(max(k, 0), len(rep.t_table) - 2)
    t_lo, t_hi = float(rep.t_table[k]), float(rep.t_table[k + 1])
    tau_hi_node = float(rep.tau_table[k + 1])
    inv_lam = _inv_lam_fn(rep.lam)
    lam_fn = rep.lam.lambdify(("t",))

    def residual(t):
        r = tau_hi_node + _segment(inv_lam, t, t_hi) - target
        return r, r * float(lam_fn(np.array([t]))[0])

    f_lo, step = residual(t_lo)
    if f_lo == 0.0:
        return t_lo
    if abs(step) <= 1e-12 * abs(t_lo):
        return t_lo + step
    f_hi = tau_hi_node - target
    if (f_lo > 0.0) == (f_hi > 0.0):
        return guess
    lo, hi, t = t_lo, t_hi, guess
    for _ in range(200):
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if t == lo or t == hi:
                break
        r, step = residual(t)
        if r == 0.0:
            return t
        if abs(step) <= 1e-12 * abs(t):
            return t + step
        if (r > 0.0) == (f_lo > 0.0):
            lo, f_lo = t, r
        else:
            hi = t
        if abs(hi - lo) <= 1e-12 * max(abs(lo), abs(hi), 1e-300):
            break
        t = t + step
    else:
        raise ConvergenceError(
            f"bisection did not reach rtol=1e-12 in 200 halvings: "
            f"[{lo!r}, {hi!r}]")
    return 0.5 * (lo + hi)


def t_of_tau(rep, tau):
    """rep.t_of_tau(tau, refine=True), refining one target at a time."""
    scalar = np.isscalar(tau) or np.asarray(tau).shape == ()
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=np.float64))
    out = np.atleast_1d(rep.t_of_tau(tau_arr))
    if rep.lam is not None:
        for i, target in enumerate(tau_arr):
            out[i] = _refine_t(rep, float(target), float(out[i]))
    return float(out[0]) if scalar else out


def verify_fixed_point(rep, lam, n_tau=50):
    """One adaptive integral per piece of the tau grid cut at the table's
    tau nodes, summed from the horizon down on top of the truncated tail
    t_min."""
    taus = np.linspace(rep.tau_minus, rep.tau_horizon, n_tau).tolist()
    lam_v = lam.lambdify(("t",))

    def integrand(s):
        return lam_v(rep.t_of_tau(s))

    ends = sorted(set(taus) | set(
        _split(sorted(rep.tau_table.tolist()), taus[0], taus[-1])))
    segs = [_segment(integrand, lo, hi) for lo, hi in zip(ends, ends[1:])]
    tail = {ends[-1]: rep.t_min}
    total = rep.t_min
    for lo, seg in zip(ends[-2::-1], segs[::-1]):
        total += seg
        tail[lo] = total
    worst = 0.0
    for tau in taus:
        residual = abs(rep.t_of_tau(tau) - tail[tau])
        worst = max(worst, residual)
    return worst


def alpha_l1_check(rep, v, lam, tau):
    v_fn = v.lambdify(("t",))
    lam_fn = lam.lambdify(("t",))

    def alpha_fn(s):
        return v_fn(rep.t_of_tau(s))

    # one integral per piece between the nodes, each side summed exactly
    pieces = _split(rep.tau_table[::-1].tolist(), float(tau), rep.tau_horizon)
    left = [_segment(alpha_fn, lo, hi) for lo, hi in zip(pieces, pieces[1:])]
    t_at = t_of_tau(rep, float(tau)) if rep.lam is not None \
        else rep.t_of_tau(float(tau))
    pieces = _split(rep.t_table.tolist(), rep.t_min, t_at)
    right = [_segment(lambda w: v_fn(w) / lam_fn(w), lo, hi)
             for lo, hi in zip(pieces, pieces[1:])]
    return abs(math.fsum(left) - math.fsum(right))


def exp_reparam_check(u, rep, c=None, n_tau=50):
    if c is None:
        c = u.evaluate({"t": rep.T}) * math.exp(rep.tau_minus)
    tau_hi = min(rep.tau_horizon, rep.tau_minus + 40.0)
    taus = np.linspace(rep.tau_minus, tau_hi, n_tau)
    worst = 0.0
    for tau in taus:
        t = t_of_tau(rep, float(tau)) if rep.lam is not None \
            else rep.t_of_tau(float(tau))
        residual = abs(u.evaluate({"t": t}) - c * math.exp(-float(tau) + rep.tau_minus) *
                       math.exp(-rep.tau_minus))
        worst = max(worst, residual)
    return worst


# ---------------------------------------------------------------------------
# geometric panels and sweeps

def _tail_driver(panels, tol: float, eager: bool = False):
    """Convergence and divergence tests of the improper-integral loops, one
    panel at a time, on a provisional stream.

    ``panels`` yields per panel toward the improper endpoint its first-pass
    (value, error estimate) and ``redo``: None when the first pass settles
    the panel, else a function giving the panel's accepted (value, error
    estimate), or raising its IntegrandError.  The tests read the stream
    until it ends or the panels run out.  A stream that ends divergent on
    finite values is the result; otherwise every panel up to its end that
    still waits is redone, in order, and the tests read the stream again.
    A failed redo ends the stream before that panel: a result there, or
    the error.  The result is unconverged where the panels end.

    With ``eager`` each panel is redone as soon as it is read, as the loop
    did before it read a provisional stream.
    """
    stream, redos = [], []
    panels = iter(panels)
    if eager:
        panels = ((*redo(), None) if redo else (value, err, None)
                  for value, err, redo in panels)
    while True:
        res = _tail_tests(stream, redos, panels, tol, math.inf)
        n = res.subdivisions
        waiting = [i for i in range(n) if redos[i] is not None]
        if not waiting or res.diverged and all(
                math.isfinite(v) for v, _ in stream[:n]):
            return res
        for i in waiting:
            try:
                stream[i] = redos[i]()
            except IntegrandError:
                early = _tail_tests(stream, redos, panels, tol, i)
                if early is None:
                    raise
                return early
            redos[i] = None


def _tail_tests(stream, redos, panels, tol: float, limit):
    """The loop's four tests on the first panels of ``stream``, taking more
    from ``panels`` as needed: the result at the first panel that meets
    one, or where the panels run out; None when none of the first
    ``limit`` panels meets one."""
    total = 0.0
    err_total = 0.0
    nondecreasing_run = 0
    prev = None
    n = 0
    while n < limit:
        if n == len(stream):
            try:
                value, err, redo = next(panels)
            except StopIteration:
                return QuadResult(total, err_total, False, False, n)
            stream.append((value, err))
            redos.append(redo)
        contrib, err = stream[n]
        n += 1
        total += contrib
        err_total += err
        if abs(total) > DIVERGENCE_SUM_THRESHOLD:
            return QuadResult(total, err_total, False, True, n)
        if prev is not None:
            if abs(contrib) >= abs(prev) * (1.0 - 1e-12) and abs(contrib) > 0.0:
                nondecreasing_run += 1
                if nondecreasing_run >= DIVERGENCE_PANEL_RUN:
                    return QuadResult(total, err_total, False, True, n)
            else:
                nondecreasing_run = 0
            # geometric tail extrapolation from the last two contributions
            if abs(contrib) < abs(prev):
                r = abs(contrib) / abs(prev)
                r = min(r, 0.95)
                tail = abs(contrib) * r / (1.0 - r)
                if tail + err_total <= tol:
                    signed_tail = math.copysign(tail, contrib)
                    return QuadResult(total + signed_tail,
                                      err_total + tail, True, False, n)
        if abs(contrib) == 0.0 and n >= 2:
            if err_total <= tol:
                return QuadResult(total, err_total, True, False, n)
        prev = contrib
    return None


def _panel(g, a: float, b: float, tol: float, budget: int):
    """One panel of the improper-integral loops as (value, error, redo):
    the first GK15 pass on [a, b] (a non-finite value on a non-finite
    sample) with its error estimate and no redo when it settles the panel
    at ``tol``; else its value, ``tol`` and the adaptive ``integrate``
    that redoes it."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    with np.errstate(all="ignore"):
        y = _eval_vectorized(g, mid + half * _NODES)
        k = half * float(np.dot(_W_KRONROD, y))
        err = abs(k - half * float(np.dot(_W_GAUSS, y)))
    if err <= tol and abs(k) <= DIVERGENCE_SUM_THRESHOLD:
        return k, err, None

    def redo():
        res = integrate(g, a, b, tol=tol, budget=budget)
        return res.value, res.abs_error_estimate

    return k, tol, redo


def singular_left(g, b, tol, budget=10_000, eager=False):
    """int_0+^b g, one adaptive ``integrate`` call per geometric panel
    that one GK15 step does not settle and the tests need (every such
    panel, if ``eager``); the panels stop at the last one whose lower edge
    is a normal float."""

    def panels():
        hi = b
        k = 0
        while hi * 0.5 >= np.finfo(np.float64).tiny:
            lo = hi * 0.5
            ptol = 0.5 * tol / ((k + 1) * (k + 2))
            yield _panel(g, lo, hi, max(ptol, 1e-300), min(budget, 200))
            hi = lo
            k += 1

    return _tail_driver(panels(), tol, eager)


def to_infinity(g, a, tol, max_panels=1200, eager=False):
    """int_a^inf g, one adaptive ``integrate`` call per doubling panel
    that one GK15 step does not settle and the tests need (every such
    panel, if ``eager``)."""

    def panels():
        lo = a
        width = max(1.0, a, -a * 2.0**-52)
        for k in range(max_panels):
            hi = lo + width
            ptol = 0.5 * tol / ((k + 1) * (k + 2))
            yield _panel(g, lo, hi, max(ptol, 1e-300), 200)
            lo = hi
            width *= 2.0

    return _tail_driver(panels(), tol, eager)


def sweep(g, grid, tol):
    """(base, values, converged): int_0+^grid[j] g for every j, with the
    flag of the piece ending at grid[j]; values is None after a divergent
    base, as the loop stopped there."""
    base = singular_left(g, float(grid[0]), tol)
    if base.diverged:
        return base, None, None
    total = base.value
    values, converged = [total], [base.converged]
    for a, b in zip(grid[:-1], grid[1:]):
        seg = integrate(g, float(a), float(b), tol=tol)
        total += seg.value
        values.append(total)
        converged.append(seg.converged)
    return base, np.array(values), np.array(converged)


# ---------------------------------------------------------------------------
# JSON reports

def sanitize(obj):
    """Make an object json-serializable and deterministic; non-finite
    floats become their repr strings."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    return obj


def json_report(obj) -> str:
    """The text of a JSON report of obj, without its final newline."""
    return json.dumps(sanitize(obj), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# one leg at a time Dormand-Prince

def _rhs_from(f):
    """Right-hand side x' = -f(t, x), from an Expression or a callable f."""
    if isinstance(f, Expression):
        fl = f.lambdify(("t", "x"))

        def rhs(t, x):
            val = float(fl(t, x))
            if not math.isfinite(val):
                raise SolverDomainError("non-finite f sample", t, x)
            return -val

        return rhs

    def rhs(t, x):
        val = float(f(t, x))
        if not math.isfinite(val):
            raise SolverDomainError("non-finite f sample", t, x)
        return -val

    return rhs


def integrate_ivp(f, t0: float, x0: float, t1: float,
                  rtol: float = 1e-6, atol: float = 1e-9,
                  max_steps: int = 200_000,
                  fixed_step: float | None = None) -> Trajectory:
    """Integrate x' = -f(t, x) from (t0, x0) to t1 (either direction).

    Every accepted step's local error estimate satisfies the mixed
    criterion err <= atol + rtol*max(|x_n|, |x_n+1|).  Step underflow is
    reported as status='stopped_at_singularity' with the reach point.

    With fixed_step set, adaptivity is disabled and every step is accepted
    (used for convergence-order measurements, where the error controller
    would confound the step-size/error relation).
    """
    if t0 == t1:
        rhs = _rhs_from(f)
        d = rhs(t0, x0)
        return Trajectory(np.array([t0]), np.array([x0]), np.array([d]),
                          np.array([0.0]), "completed")
    rhs = _rhs_from(f)
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    t, x = float(t0), float(x0)
    k_last = rhs(t, x)
    ts, xs, ds, errs = [t], [x], [k_last], [0.0]
    if fixed_step is not None:
        if not (fixed_step > 0.0):
            raise ValueError("fixed_step must be positive")
        h = direction * fixed_step
    else:
        h = direction * min(span * 1e-2, 0.1)
    h_min = max(span * 1e-14, 1e-16)
    n = 0
    status = "completed"
    message = ""
    while n < max_steps:
        n += 1
        remaining = t1 - t
        if direction * remaining <= 0.0:
            break
        if abs(h) > abs(remaining):
            h = remaining
        # stages (FSAL: stage 7 value equals the propagated solution's slope)
        k = [k_last]
        failed = False
        for i in range(1, 7):
            xi = x + h * sum(aij * kj for aij, kj in zip(_A[i], k))
            try:
                k.append(rhs(t + _C[i] * h, xi))
            except SolverDomainError:
                failed = True
                break
        if not failed:
            x5 = x + h * sum(b * kj for b, kj in zip(_B5, k))
            x4 = x + h * sum(b * kj for b, kj in zip(_B4, k))
            err = abs(x5 - x4)
            scale = atol + rtol * max(abs(x), abs(x5))
            ratio = err / scale if scale > 0 else math.inf
        else:
            ratio = math.inf
            err = math.inf
        if fixed_step is not None:
            if failed:
                raise SolverDomainError("stage failure in fixed-step mode",
                                        t, x)
            accept = True
        else:
            accept = ratio <= 1.0
        if accept:
            t = t + h
            x = x5
            k_last = k[6]  # FSAL
            ts.append(t)
            xs.append(x)
            ds.append(k_last)
            errs.append(err)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
        else:
            factor = max(0.1, 0.9 * ratio ** -0.2) if math.isfinite(ratio) else 0.1
        if direction * (t1 - t) <= 0.0:
            break
        if fixed_step is None:
            h *= factor
            if abs(h) < h_min:
                status = "stopped_at_singularity"
                message = f"step size underflow at t={t!r}"
                break
        else:
            h = direction * fixed_step
    else:
        status = "error_budget_exceeded"
        message = f"max_steps={max_steps} exhausted at t={t!r}"
    return Trajectory(np.array(ts), np.array(xs), np.array(ds),
                      np.array(errs), status, message)


def funnel_probe(f, T: float, n: int = 201, t_floor: float = 1e-6,
                 rtol: float = 1e-6, atol: float = 1e-9,
                 x_bound: float = 1.0, atol_reach: float = 1e-6,
                 spread_levels: int = 8) -> FunnelReport:
    """Integrate backward from (T, x_T) over a symmetric terminal grid and
    measure the set that reaches |x| < atol_reach near the singular
    endpoint.

    A sample is marked as reaching zero when |x| dips below atol_reach at
    any accepted step, or when the path changes sign (by continuity it
    crossed zero between samples).  The crossing test matters for
    square-root-type fields: after touching x = 0 the integrator peels
    onto the opposite-sign branch instead of sticking to the trivial
    solution, so the endpoint value alone would miss the visit to zero.
    """
    if n < 3:
        raise ValueError("funnel_probe requires n >= 3")
    if not (0.0 < t_floor < T):
        raise ValueError("t_floor must lie in (0, T)")
    grid = np.linspace(-x_bound, x_bound, n)
    spacing = float(grid[1] - grid[0])
    reaches = np.zeros(n, dtype=bool)
    statuses = []
    failures = []
    for i, x_T in enumerate(grid):
        try:
            traj = integrate_ivp(f, T, float(x_T), t_floor, rtol=rtol, atol=atol)
        except SolverDomainError as exc:
            failures.append((float(x_T), str(exc)))
            statuses.append("error")
            continue
        statuses.append(traj.status)
        if traj.status in ("completed", "stopped_at_singularity"):
            xs = traj.x
            touched = bool(np.min(np.abs(xs)) < atol_reach)
            crossed = bool(np.any(np.signbit(xs[1:]) != np.signbit(xs[:-1])))
            reaches[i] = touched or crossed
    basin = spacing * int(np.count_nonzero(reaches))
    spread_curve = []
    for k in range(1, spread_levels + 1):
        d = 2.0 ** -k
        t0 = min(d, 0.5 * T)
        try:
            spread_curve.append((t0, forward_spread(f, t0, d, T, rtol, atol)))
        except SolverDomainError:
            spread_curve.append((t0, math.nan))
    return FunnelReport(
        terminal_values=grid,
        reaches_zero=reaches,
        basin_width=basin,
        grid_spacing=spacing,
        t_floor=t_floor,
        atol_reach=atol_reach,
        spread_curve=spread_curve,
        statuses=statuses,
        failures=failures,
    )


def forward_spread(f, t0: float, delta: float, T: float,
                   rtol: float = 1e-6, atol: float = 1e-9) -> float:
    """Max pairwise spread at t = T of the three trajectories started at
    x(t0) in {-delta, 0, +delta}; collapse to 0 along t0 = delta -> 0 is
    uniqueness evidence."""
    ends = []
    for x0 in (-delta, 0.0, delta):
        traj = integrate_ivp(f, t0, x0, T, rtol=rtol, atol=atol)
        if traj.status != "completed":
            raise SolverDomainError(
                f"forward leg did not complete ({traj.status})", t0, x0)
        ends.append(traj.x_end)
    return max(abs(a - b) for a in ends for b in ends)


# ---------------------------------------------------------------------------
# all-pairs Lipschitz sweep

def pairwise_bound(name, f_vals, coeff, tgrid, xgrid, tol) -> Hypothesis:
    """Check |f(t,x1) - f(t,x2)| <= coeff(t)*|x1 - x2| + tol over all x
    pairs, one t at a time; ties go to the least t, then x1, then x2."""
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


# ---------------------------------------------------------------------------
# strict scalar expression evaluation

def evaluate(expr: Expression, bindings: dict) -> float:
    """Walk expr's tree in math; raises EvalDomainError at the first
    non-finite intermediate result."""
    return _eval(expr.root, bindings)


def _sign(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def _eval(node: Node, env: dict) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return float(env[node.name])
        except KeyError:
            raise MissingBindingError(f"no binding for variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, Bin):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        try:
            if node.op == "+":
                r = a + b
            elif node.op == "-":
                r = a - b
            elif node.op == "*":
                r = a * b
            elif node.op == "/":
                if b == 0.0:
                    raise EvalDomainError(f"division by zero: {a!r}/{b!r}")
                r = a / b
            else:  # ^
                r = _pow_checked(a, b)
        except OverflowError:
            raise EvalDomainError(f"overflow in {a!r} {node.op} {b!r}") from None
        _check_finite(r, node)
        return r
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        r = _call_checked(node.fn, args)
        _check_finite(r, node)
        return r
    raise TypeError(node)


def _pow_checked(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise EvalDomainError(f"zero base with negative exponent: {a!r}^{b!r}")
    if a < 0.0 and b != math.floor(b):
        raise EvalDomainError(f"negative base with fractional exponent: {a!r}^{b!r}")
    try:
        return math.pow(a, b)
    except ValueError:
        raise EvalDomainError(f"power domain error: {a!r}^{b!r}") from None


def _call_checked(fn: str, args: list) -> float:
    a = args[0]
    try:
        if fn == "sqrt":
            if a < 0.0:
                raise EvalDomainError(f"sqrt of negative value {a!r}")
            return math.sqrt(a)
        if fn == "abs":
            return abs(a)
        if fn == "exp":
            return math.exp(a)
        if fn == "log":
            if a <= 0.0:
                raise EvalDomainError(f"log of non-positive value {a!r}")
            return math.log(a)
        if fn == "sin":
            return math.sin(a)
        if fn == "cos":
            return math.cos(a)
        if fn == "sign":
            return _sign(a)
        if fn == "pow":
            return _pow_checked(a, args[1])
        if fn == "min":
            return min(a, args[1])
        if fn == "max":
            return max(a, args[1])
    except OverflowError:
        raise EvalDomainError(f"overflow in {fn}({args!r})") from None
    raise EvalDomainError(f"unknown function {fn!r}")


def _check_finite(r: float, node: Node):
    if not math.isfinite(r):
        raise EvalDomainError(f"non-finite result in {_serialize(node)}")
