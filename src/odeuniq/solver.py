"""Adaptive scalar ODE integration for x' + f(t,x) = 0 and the empirical
uniqueness probes built on it.

The stepper is an explicit Dormand-Prince 4(5) embedded pair (the 5th
order solution is propagated); step acceptance uses a mixed absolute and
relative criterion.  The singular endpoint t = 0 is never evaluated; all
probes stop at a configurable positive floor.  Probe outputs are evidence,
never proof: only the criterion checkers speak to uniqueness theorems.

One lane integrator advances a batch of independent legs in lockstep.
Each of the six stages is one call of f over the running lanes: of an
expression's compiled kernel, under the loop's one np.errstate, or of an
array function.  Every lane has its own step size, direction, end point,
minimal step and status, and leaves the batch when it finishes.
funnel_probe integrates its backward legs and its forward spread legs as
one batch (with spread_levels=0, as the suite calls it, only the backward
legs), and integrate_ivp is the one-lane case.

Every lane repeats the scalar loop's accept/reject sequence bit for bit.
The stage and solution sums are eight running rows per lane, the
arguments of stages 2..7 and the 5th- and 4th-order solutions: each step
starts every row at +0 + a_1*k_1, as Python's sum starts from 0, and
after stage i adds a_i*k_i to the rows that read k_i, so that each row
sees the scalar loop's additions in the scalar loop's order.  The
tableau's zero entries stay in the rows (see _stage_columns).  The step
factor is fmax(0.1, minimum(5, 0.9*ratio**-0.2)), the scalar loop's clips
for accepted and rejected steps in one rule (see _step_factor);
ratio**-0.2 is taken on the lanes' array with np.float_power, which calls
libm's pow as Python's ** does; numpy's vectorized np.power can differ
from it in the last bit.
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


def _stage_columns():
    """The coefficients of the stage values f_1..f_7 in the eight running
    sums: sums 0..5 are the arguments of stages 2..7, sums 6 and 7 the
    5th- and 4th-order solutions.  Entry i holds f_i+1's coefficients in
    the sums that read it, sums i..7, as an (8 - i, 1) column that
    broadcasts across the lanes.  A tableau entry a is stored as -a, since
    (-a)*f = a*k exactly for the slope k = -f.  The zero entries stay, as
    -0.0: 0*inf = nan carries a non-finite stage value into the solution
    sums, so that the step is rejected."""
    cols = np.zeros((7, 8, 1))
    for j, row in enumerate((*_A[1:], _B5, _B4)):
        cols[:len(row), j, 0] = np.negative(row)
    cols.setflags(write=False)
    return [c[i:] for i, c in enumerate(cols)]


_C_STAGES = np.array(_C[1:])[:, None]
_COLUMNS = _stage_columns()


def _running_sums(m):
    """A buffer for the eight running sums of m lanes, its rows, and its
    rows from i on, which f_i+1 updates."""
    sums = np.empty((8, m))
    return sums, list(sums), [sums[i:] for i in range(7)]


def _step_factor(ratio):
    """The one-lane loop's step size factor for error ratios in [0, inf]
    or nan, in two calls (np.float_power: see the module docstring).

    The loop clips 0.9*ratio**-0.2 to [0.2, 5] for an accepted ratio <= 1
    (5 for err = 0) and to at least 0.1 for a rejected one (0.1 for an
    infinite or nan ratio).  An accepted ratio has grow >= 0.9, so its
    lower clip never acts; a rejected ratio > 1 has grow < 0.9, so the
    upper clip never acts; ratio 0 gives grow inf, clipped to 5, and an
    infinite or nan ratio gives grow 0 or nan, which fmax turns into 0.1.
    """
    grow = 0.9 * np.float_power(ratio, -0.2)
    return np.fmax(0.1, np.minimum(5.0, grow))


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
    if fixed_step is not None and not (fixed_step > 0.0):
        raise ValueError("fixed_step must be positive")
    if not (rtol >= 0.0 and atol >= 0.0):
        raise ValueError("rtol and atol must be non-negative")
    t0, x0, t1 = (np.array(a, dtype=np.float64).ravel()
                  for a in np.broadcast_arrays(t0, x0, t1))
    if isinstance(f, Expression):
        f = f._kernel(("t", "x"))
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
    # a tolerance of -0.0 becomes +0, so the error scale is never -0
    atol += 0.0
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
    k1 = f0[lane]  # f at stage 1 (FSAL: stage 7 of the last step)
    sums, rows, tails = _running_sums(lane.size)
    log = [(lane, t, x, k1, np.zeros(lane.size))]  # accepted (t, x, f, err)
    ends = {}                                      # lane -> status
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
            # every sum starts from +0, as Python's sum does
            np.multiply(_COLUMNS[0], k1, out=sums)
            sums += 0.0
            finite = True  # fixed-step mode: all stages finite so far
            for i in range(1, 7):
                k = f(t_stage[i - 1], x + h * rows[i - 1])
                tails[i] += _COLUMNS[i] * k
                if fixed_step is not None:
                    finite = finite & np.isfinite(k)
            k7 = np.empty(lane.size)  # a copy: f may reuse its output
            k7[...] = k
            x5 = x + h * rows[6]
            x4 = x + h * rows[7]
            err = np.abs(x5 - x4)
            x5_abs = np.abs(x5)
            if fixed_step is None:
                # the scale is positive, +0 or nan: where it is not
                # positive, err/scale is inf or nan, and either rejects
                # with factor 0.1, as the scalar loop's ratio inf does
                ratio = err / (atol + rtol * np.maximum(x_abs, x5_abs))
                accept = ratio <= 1.0
                factor = _step_factor(ratio)
            else:
                bad = ~finite
                if np.count_nonzero(bad):
                    i = int(np.argmax(bad))
                    raise SolverDomainError("stage failure in fixed-step mode",
                                            float(t[i]), float(x[i]))
                accept = np.ones(lane.size, dtype=bool)
            moved = np.count_nonzero(accept)
            if moved == lane.size:
                t, x, x_abs = t + h, x5, x5_abs
                k1 = k7
                log.append((lane, t, x, k1, err))
            elif moved:
                t = np.where(accept, t + h, t)
                x = np.where(accept, x5, x)
                x_abs = np.where(accept, x5_abs, x_abs)
                k1 = np.where(accept, k7, k1)
                log.append((lane[accept], t[accept], x[accept],
                            k1[accept], err[accept]))
            if moved:
                dist = direction * (t1 - t)
            done = dist <= 0.0
            if fixed_step is None:
                h_abs = h_abs * factor
                stop = done | (h_abs < h_min)
            else:
                h_abs = np.full(lane.size, fixed_step)
                stop = done
            if np.count_nonzero(stop):
                for i, ti, completed in zip(lane[stop].tolist(),
                                            t[stop].tolist(),
                                            done[stop].tolist()):
                    ends[i] = ("completed", "") if completed else (
                        "stopped_at_singularity",
                        f"step size underflow at t={ti!r}")
                keep = ~stop
                lane, t, x, x_abs, h_abs, h_min, dist, t1, direction, k1 = (
                    a[keep] for a in (lane, t, x, x_abs, h_abs, h_min, dist,
                                      t1, direction, k1))
                if lane.size:
                    sums, rows, tails = _running_sums(lane.size)
    owner = np.concatenate([rec[0] for rec in log])
    order = np.argsort(owner, kind="stable")
    ts, xs, fs, errs = (np.concatenate([rec[j] for rec in log])[order]
                        for j in range(1, 5))
    ds = -fs  # x' = -f
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

    rtol and atol must be non-negative.  This is the one-lane case of the
    lockstep lane integrator.
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

    spread_curve holds, for delta = 2^-1 .. 2^-spread_levels, the spread
    of three forward legs from t0 = min(delta, T/2), x0 in {-delta, 0,
    delta}, at T; with spread_levels=0 no forward leg runs.
    """
    if n < 3:
        raise ValueError("funnel_probe requires n >= 3")
    if not (0.0 < t_floor < T):
        raise ValueError("t_floor must lie in (0, T)")
    grid = np.linspace(-x_bound, x_bound, n)
    spacing = float(grid[1] - grid[0])
    deltas = [2.0 ** -k for k in range(1, spread_levels + 1)]
    starts = [min(d, 0.5 * T) for d in deltas]
    t_fwd = np.repeat(starts, 3)
    x_fwd = np.array([x0 for d in deltas for x0 in (-d, 0.0, d)])
    # a level with a leg that fails at its start has spread nan: launch
    # none of its legs
    f_fwd = f.lambdify(("t", "x")) if isinstance(f, Expression) else f
    with np.errstate(all="ignore"):
        live = np.isfinite(np.broadcast_to(f_fwd(t_fwd, x_fwd),
                                           t_fwd.shape))
    live = np.repeat(live.reshape(-1, 3).all(axis=1), 3)
    # one batch: the n backward legs, then three forward legs per live level
    legs = _integrate_lanes(
        f,
        np.concatenate([np.full(n, T), t_fwd[live]]),
        np.concatenate([grid, x_fwd[live]]),
        np.concatenate([np.full(n, t_floor), np.full(live.sum(), T)]),
        rtol, atol)
    statuses = []
    failures = []
    ended = []    # backward legs that completed or stopped at a singularity
    for i, (x_T, traj) in enumerate(zip(grid.tolist(), legs[:n])):
        if isinstance(traj, SolverDomainError):
            failures.append((x_T, str(traj)))
            statuses.append("error")
            continue
        statuses.append(traj.status)
        if traj.status in ("completed", "stopped_at_singularity"):
            ended.append(i)
    reaches = np.zeros(n, dtype=bool)
    if ended:
        # the reach test of every ended leg at once, over their
        # concatenated samples: a leg's minimum |x|, and its sign flips
        # between consecutive samples of its own
        xs = [legs[i].x for i in ended]
        first = np.cumsum([0] + [len(x) for x in xs[:-1]])
        xs = np.concatenate(xs)
        sign = np.signbit(xs)
        flip = np.empty_like(sign)
        flip[1:] = sign[1:] != sign[:-1]
        flip[first] = False  # a leg's first sample follows another leg
        touched = np.minimum.reduceat(np.abs(xs), first) < ATOL_REACH
        crossed = np.add.reduceat(flip, first)
        reaches[ended] = touched | (crossed > 0)
    basin = spacing * int(np.count_nonzero(reaches))
    spread_curve = []
    fwd = iter(legs[n:])
    for t0, d, ok in zip(starts, deltas, live[::3].tolist()):
        spread = math.nan
        if ok:
            try:
                spread = _spread([next(fwd) for _ in range(3)], t0, d)
            except SolverDomainError:
                pass
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
