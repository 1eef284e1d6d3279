"""Adaptive scalar ODE integration for x' + f(t,x) = 0 and the empirical
uniqueness probes built on it.

The stepper is an explicit Dormand-Prince 4(5) embedded pair (the 5th
order solution is propagated); step acceptance uses a mixed absolute and
relative criterion.  The singular endpoint t = 0 is never evaluated; all
probes stop at a configurable positive floor.  Probe outputs are evidence,
never proof: only the criterion checkers speak to uniqueness theorems.

One lane integrator advances a batch of independent legs in lockstep.
Each of the six stages is one call of f, a compiled expression or an
array function, over the running lanes; every lane has its own step size,
direction, end point, minimal step and status, and leaves the batch when
it finishes.  funnel_probe integrates its backward legs and its forward
spread legs as one batch, and integrate_ivp is the one-lane case.

Every lane repeats the scalar loop's accept/reject sequence bit for bit:
the stage and solution sums are accumulated term by term in tableau order,
starting from 0 as Python's sum does, and the step factor ratio**-0.2 is
taken with Python's pow per lane, since numpy's vectorized power can
differ from it in the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Expression

__all__ = [
    "Trajectory",
    "FunnelReport",
    "SolverDomainError",
    "NOMINAL_ORDER",
    "integrate_ivp",
    "convergence_order",
    "funnel_probe",
]

NOMINAL_ORDER = 5  # local extrapolation of the 5th-order solution
ATOL_REACH = 1e-6  # funnel_probe: |x| below this counts as reaching zero

# Dormand-Prince 4(5) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)


class SolverDomainError(Exception):
    def __init__(self, message: str, t: float, x: float):
        self.t = t
        self.x = x
        super().__init__(f"{message} at (t={t!r}, x={x!r})")


@dataclass
class Trajectory:
    """A sampled numerical solution path with per-step error estimates."""

    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray          # right-hand side values at the samples
    step_errors: np.ndarray   # local error estimate of each accepted step
    status: str               # completed | stopped_at_singularity | error_budget_exceeded
    message: str = ""

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    @property
    def x_end(self) -> float:
        return float(self.x[-1])

    def at(self, t_query: float) -> float:
        """Cubic Hermite interpolation between accepted steps."""
        ts = self.t
        ascending = ts[0] <= ts[-1]
        s = ts if ascending else ts[::-1]
        lo, hi = s[0], s[-1]
        if not (lo - 1e-12 <= t_query <= hi + 1e-12):
            raise ValueError(f"t={t_query!r} outside trajectory range")
        k = int(np.clip(np.searchsorted(s, t_query) - 1, 0, len(s) - 2))
        if not ascending:
            k = len(ts) - 2 - k
        t0, t1 = float(ts[k]), float(ts[k + 1])
        h = t1 - t0
        if h == 0.0:
            return float(self.x[k])
        u = (t_query - t0) / h
        x0, x1 = float(self.x[k]), float(self.x[k + 1])
        d0, d1 = float(self.xdot[k]) * h, float(self.xdot[k + 1]) * h
        h00 = (1 + 2 * u) * (1 - u) ** 2
        h10 = u * (1 - u) ** 2
        h01 = u * u * (3 - 2 * u)
        h11 = u * u * (u - 1)
        return h00 * x0 + h10 * d0 + h01 * x1 + h11 * d1


def _sum_rows(*rows):
    """Coefficient columns for a running sum over the rows of the stage
    array: row 0 holds +0 and rows 1..7 hold f at stages 1..7.  A tableau
    row a is stored as (1, -a_1, ..., -a_j): (-a)*f = a*k exactly for the
    slope k = -f, so the cumulative sum along the rows repeats Python's
    sum(a_j*k_j) from 0, term by term and bit for bit."""
    width = max(len(r) for r in rows)
    coeff = np.zeros((len(rows), width + 1, 1))
    for c, r in zip(coeff, rows):
        c[0] = 1.0
        c[1:len(r) + 1, 0] = np.negative(r)
    return coeff


_C_STAGES = np.array(_C[1:])[:, None]
_A_STAGES = [_sum_rows(row)[0] for row in _A[1:]]
_B_PAIR = _sum_rows(_B5, _B4)  # 5th- and 4th-order solutions at once


def _integrate_lanes(f, t0, x0, t1, rtol: float, atol: float,
                     max_steps: int = 200_000,
                     fixed_step: float | None = None) -> list:
    """Integrate x' = -f(t, x) on independent lanes (t0[i], x0[i]) -> t1[i]
    in lockstep.  Returns, per lane, its Trajectory, or the
    SolverDomainError of a non-finite f at its start point.

    f is an Expression in t and x, or an array function: f(t, x) maps the
    lanes' arrays t and x to an array of their shape, or to a value that
    broadcasts to it.  Each iteration takes one Dormand-Prince step on
    every running lane: every stage is one f call over the lanes, and each
    lane keeps its own step size, direction, end point and minimal step.
    A lane leaves the batch when it completes or its step size underflows;
    lanes still running after max_steps iterations (steps, rejected ones
    included) exhaust the budget.

    A non-finite stage value, like an overflowing solution, makes the error
    ratio non-finite, so the lane rejects the step with factor 0.1, as the
    one-lane loop does for a stage failure.
    """
    t0, x0, t1 = (np.array(a, dtype=np.float64).ravel()
                  for a in np.broadcast_arrays(t0, x0, t1))
    if isinstance(f, Expression):
        f = f.lambdify(("t", "x"))
    f0 = np.empty_like(t0)
    with np.errstate(all="ignore"):
        f0[...] = f(t0, x0)
    k0 = -f0
    start_ok = np.isfinite(f0)
    out = [None] * t0.size
    for i in np.flatnonzero(~start_ok).tolist():
        out[i] = SolverDomainError("non-finite f sample",
                                   float(t0[i]), float(x0[i]))
    for i in np.flatnonzero(start_ok & (t0 == t1)).tolist():
        out[i] = Trajectory(t0[i:i + 1], x0[i:i + 1], k0[i:i + 1],
                            np.zeros(1), "completed")
    lane = np.flatnonzero(start_ok & (t0 != t1))
    if lane.size == 0:
        return out
    if fixed_step is not None and not (fixed_step > 0.0):
        raise ValueError("fixed_step must be positive")
    t, x, t1 = t0[lane], x0[lane], t1[lane]
    direction = np.where(t1 > t, 1.0, -1.0)
    span = np.abs(t1 - t)
    # |h| per lane; h always points in the lane's direction, so the
    # clip |h| > |t1 - t| -> h = t1 - t is a minimum of magnitudes
    h_abs = np.full(lane.size, fixed_step) if fixed_step is not None \
        else np.minimum(span * 1e-2, 0.1)
    h_min = np.maximum(span * 1e-14, 1e-16)
    dist = span
    x_abs = np.abs(x)
    Z = np.zeros((8, lane.size))  # +0, then f at stages 1..7 (FSAL: 7 -> 1)
    Z[1] = f0[lane]
    log = [(lane, t, x, k0[lane], np.zeros(lane.size))]  # accepted points
    ends = {}                                            # lane -> status
    n = 0
    with np.errstate(all="ignore"):
        while lane.size:
            if n >= max_steps:
                for i, ti in zip(lane.tolist(), t.tolist()):
                    ends[i] = ("error_budget_exceeded",
                               f"max_steps={max_steps} exhausted at t={ti!r}")
                break
            n += 1
            h_abs = np.minimum(h_abs, dist)
            h = direction * h_abs
            t_stage = t + _C_STAGES * h
            for i, a in enumerate(_A_STAGES, 2):
                s = np.add.accumulate(a * Z[:i], axis=0)[-1]
                Z[i] = f(t_stage[i - 2], x + h * s)
            x5, x4 = x + h * np.add.accumulate(_B_PAIR * Z, axis=1)[:, -1]
            err = np.abs(x5 - x4)
            x5_abs = np.abs(x5)
            scale = atol + rtol * np.maximum(x_abs, x5_abs)
            ratio = np.where(scale > 0.0, err / scale, np.inf)
            if fixed_step is not None:
                bad = ~np.isfinite(Z).all(axis=0)
                if bad.any():
                    i = int(np.argmax(bad))
                    raise SolverDomainError("stage failure in fixed-step mode",
                                            float(t[i]), float(x[i]))
                accept = [True] * lane.size
            else:
                # the one-lane loop's step control, per lane with Python's
                # pow: numpy's vectorized power can differ in the last bit
                rs = ratio.tolist()
                accept = [r <= 1.0 for r in rs]
                factor = np.array([
                    (5.0 if e == 0.0 else min(5.0, max(0.2, 0.9 * r ** -0.2)))
                    if r <= 1.0 else
                    (max(0.1, 0.9 * r ** -0.2) if math.isfinite(r) else 0.1)
                    for r, e in zip(rs, err.tolist())])
            if all(accept):
                t, x, x_abs = t + h, x5, x5_abs
                Z[1] = Z[7]
                log.append((lane, t, x, -Z[7], err))
            elif any(accept):
                m = np.array(accept)
                t = np.where(m, t + h, t)
                x = np.where(m, x5, x)
                x_abs = np.where(m, x5_abs, x_abs)
                Z[1] = np.where(m, Z[7], Z[1])
                log.append((lane[m], t[m], x[m], -Z[1][m], err[m]))
            if any(accept):
                dist = direction * (t1 - t)
            done = dist <= 0.0
            if fixed_step is None:
                h_abs = h_abs * factor
                stop = done | (h_abs < h_min)
            else:
                h_abs = np.full(lane.size, fixed_step)
                stop = done
            if stop.any():
                for i, ti, completed in zip(lane[stop].tolist(),
                                            t[stop].tolist(),
                                            done[stop].tolist()):
                    ends[i] = ("completed", "") if completed else (
                        "stopped_at_singularity",
                        f"step size underflow at t={ti!r}")
                keep = ~stop
                lane, t, x, x_abs, h_abs, h_min, dist, t1, direction = (
                    a[keep] for a in (lane, t, x, x_abs, h_abs, h_min, dist,
                                      t1, direction))
                Z = Z[:, keep]
    owner = np.concatenate([rec[0] for rec in log])
    order = np.argsort(owner, kind="stable")
    ts, xs, ds, errs = (np.concatenate([rec[j] for rec in log])[order]
                        for j in range(1, 5))
    count = np.bincount(owner, minlength=t0.size)
    end = np.cumsum(count)
    for i, (status, message) in ends.items():
        s = slice(end[i] - count[i], end[i])
        out[i] = Trajectory(ts[s], xs[s], ds[s], errs[s], status, message)
    return out


def integrate_ivp(f, t0: float, x0: float, t1: float,
                  rtol: float = 1e-6, atol: float = 1e-9,
                  max_steps: int = 200_000,
                  fixed_step: float | None = None) -> Trajectory:
    """Integrate x' = -f(t, x) from (t0, x0) to t1 (either direction).

    f is an Expression in t and x, or an array function called on
    one-element arrays t and x.  Every accepted step's local error
    estimate satisfies the mixed criterion
    err <= atol + rtol*max(|x_n|, |x_n+1|).  Step underflow is reported as
    status='stopped_at_singularity' with the reach point.

    With fixed_step set, adaptivity is disabled and every step is accepted
    (used for convergence-order measurements, where the error controller
    would confound the step-size/error relation).

    This is the one-lane case of the lockstep lane integrator.
    """
    (res,) = _integrate_lanes(f, t0, x0, t1, rtol, atol, max_steps,
                              fixed_step)
    if isinstance(res, SolverDomainError):
        raise res
    return res


def convergence_order(f, t0: float, x0: float, t1: float, exact: float,
                      rtols=(1e-4, 1e-6, 1e-8)) -> float:
    """Measured global convergence order of the stepper.

    For each rtol an adaptive run picks a representative step size (its
    mean accepted step); a fixed-step run at that size then gives a clean
    endpoint error, decoupled from the error controller.  Returns the
    least-squares slope of log(error) against log(step).
    """
    hs, errors = [], []
    for rtol in rtols:
        ref = integrate_ivp(f, t0, x0, t1, rtol=rtol, atol=1e-300)
        h = float(np.mean(np.abs(np.diff(ref.t))))
        run = integrate_ivp(f, t0, x0, t1, fixed_step=h)
        err = abs(run.x_end - exact)
        if err == 0.0:
            err = 1e-300
        hs.append(h)
        errors.append(err)
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


@dataclass
class FunnelReport:
    """Backward-reachability evidence for non-uniqueness through x(0) = 0.

    basin_width bounded away from 0 as t_floor decreases indicates
    non-uniqueness; basin_width -> 0 is consistent with uniqueness.
    Evidence, never proof.
    """

    terminal_values: np.ndarray
    reaches_zero: np.ndarray        # bool per terminal sample
    basin_width: float
    grid_spacing: float
    t_floor: float
    atol_reach: float
    spread_curve: list = field(default_factory=list)  # (t0=delta, spread)
    statuses: list = field(default_factory=list)
    failures: list = field(default_factory=list)      # (x_T, message)


def funnel_probe(f, T: float, n: int = 201, t_floor: float = 1e-6,
                 rtol: float = 1e-6, atol: float = 1e-9,
                 x_bound: float = 1.0, spread_levels: int = 8) -> FunnelReport:
    """Integrate backward from (T, x_T) over a symmetric terminal grid and
    measure the set that reaches |x| < ATOL_REACH near the singular
    endpoint.

    A sample is marked as reaching zero when |x| dips below ATOL_REACH at
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
    # one batch: the n backward legs, then three forward legs per level
    deltas = [2.0 ** -k for k in range(1, spread_levels + 1)]
    starts = [min(d, 0.5 * T) for d in deltas]
    legs = _integrate_lanes(
        f,
        np.concatenate([np.full(n, T), np.repeat(starts, 3)]),
        np.concatenate([grid, [x0 for d in deltas for x0 in (-d, 0.0, d)]]),
        np.concatenate([np.full(n, t_floor), np.full(3 * spread_levels, T)]),
        rtol, atol)
    reaches = np.zeros(n, dtype=bool)
    statuses = []
    failures = []
    for i, (x_T, traj) in enumerate(zip(grid.tolist(), legs[:n])):
        if isinstance(traj, SolverDomainError):
            failures.append((x_T, str(traj)))
            statuses.append("error")
            continue
        statuses.append(traj.status)
        if traj.status in ("completed", "stopped_at_singularity"):
            xs = traj.x
            touched = bool(np.min(np.abs(xs)) < ATOL_REACH)
            crossed = bool(np.any(np.signbit(xs[1:]) != np.signbit(xs[:-1])))
            reaches[i] = touched or crossed
    basin = spacing * int(np.count_nonzero(reaches))
    spread_curve = []
    for k, (t0, d) in enumerate(zip(starts, deltas)):
        try:
            spread = _spread(legs[n + 3 * k:n + 3 * k + 3], t0, d)
        except SolverDomainError:
            spread = math.nan
        spread_curve.append((t0, spread))
    return FunnelReport(
        terminal_values=grid,
        reaches_zero=reaches,
        basin_width=basin,
        grid_spacing=spacing,
        t_floor=t_floor,
        atol_reach=ATOL_REACH,
        spread_curve=spread_curve,
        statuses=statuses,
        failures=failures,
    )


def _spread(legs, t0, delta) -> float:
    """Max pairwise distance of the forward legs' end points; raises
    SolverDomainError for the first leg that failed or did not complete."""
    ends = []
    for x0, traj in zip((-delta, 0.0, delta), legs):
        if isinstance(traj, SolverDomainError):
            raise traj
        if traj.status != "completed":
            raise SolverDomainError(
                f"forward leg did not complete ({traj.status})", t0, x0)
        ends.append(traj.x_end)
    return max(abs(a - b) for a in ends for b in ends)
