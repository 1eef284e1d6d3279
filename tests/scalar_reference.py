"""Scalar reference loops for the batched drivers.

``singular_left`` and ``sweep`` are the loops ``quadrature.sweep_singular_left``
replaced: the geometric-panel loop of ``integrate_singular_left`` and the
per-segment adaptive integrals of the H2 and Osgood sweeps.

``integrate_ivp``, ``funnel_probe`` and ``forward_spread`` are the one-leg-
at-a-time Dormand-Prince loop and probes that the solver's lockstep lane
integrator replaced.  Tests require the batched code to reproduce them bit
for bit.
"""
import math

import numpy as np

from odeuniq.expr import Expression
from odeuniq.quadrature import _tail_driver, integrate
from odeuniq.solver import (
    _A, _B4, _B5, _C, FunnelReport, SolverDomainError, Trajectory)


def singular_left(g, b, tol, budget=10_000, max_panels=1200):
    """int_0+^b g, one adaptive ``integrate`` call per geometric panel."""

    def panels():
        hi = b
        for k in range(max_panels):
            lo = hi * 0.5
            ptol = 0.5 * tol / ((k + 1) * (k + 2))
            res = integrate(g, lo, hi, tol=max(ptol, 1e-300),
                            budget=min(budget, 200))
            yield res.value, res.abs_error_estimate
            hi = lo

    return _tail_driver(panels(), tol, max_panels)


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
