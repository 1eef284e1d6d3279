"""Adaptive quadrature, including improper integrals with a singular left
endpoint at 0+ and infinite right endpoints.

The base rule per panel is the nested Gauss(7)/Kronrod(15) pair; the
per-panel error estimate is the difference between the two rules.
Improper integrals are handled by geometric panel subdivision toward the
singular endpoint (left) or doubling panels toward infinity (right), with
geometric tail extrapolation for the convergence decision and an explicit,
documented divergence heuristic.

Every panel goes through one GK15 step (``_gk15``): samples taken under
``np.errstate(all="ignore")`` and both rule sums reduced per row with
``np.vecdot``, which gives the bits of the one-panel ``np.dot(W, y)``, so
a panel in any batch has the bits ``integrate`` gives it alone.

Cumulative sweeps (``sweep_singular_left``) integrate a family of
integrands from 0+ to every point of a grid, all members in lockstep.
Per chunk of geometric base panels, one family call per block samples
the members still running, and ``_improper`` ends each member's base
integral by one end rule, which its docstring states; the grid segments
of every member whose base did not diverge are one more batched step,
``_segments``.  A panel that one GK15 step does not settle is redone as a
lane of the member alone.  Each result has the values, errors and flags
of the panel-by-panel loop, bit for bit, except the value of a divergent
one, which no caller reads.  ``integrate_singular_left`` is the
one-member case, and ``integrate_to_infinity`` runs its doubling panels
through ``_improper`` too.  ``tests/scalar_reference.py`` keeps the
panel-at-a-time loop (``_tail_driver``) as the oracle.

The adaptive integrator runs independent integrals as lanes in lockstep,
each lane from the first GK15 step that its caller took on the whole
interval: the batched first pass of ``_improper`` and ``_segments``, whose
rejected panels it redoes, or ``integrate``'s own, the one-lane case.
The lanes run as coroutines, one integrand call per round for the next
panels of all running lanes; a lane samples its whole interval again only
when its first value is not finite (``_adapt``).  Every lane
keeps the one-interval loop's heap, freeze rule, budget, termination test
(the ``sum`` over the heap, which a running total with a rounding bound
stands in for wherever the two cannot disagree) and left-ordered
reduction, and reproduces it bit for bit; a non-finite sample ends its
lane with the loop's ``IntegrandError``.

Integrands are array functions: ``g(x)`` maps an array of points to an
array of x's shape, or to a value that broadcasts to it.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .rootfind import _lockstep

__all__ = [
    "QuadResult",
    "IntegrandError",
    "integrate",
    "integrate_singular_left",
    "integrate_to_infinity",
    "Sweep",
    "sweep_singular_left",
    "DIVERGENCE_SUM_THRESHOLD",
    "DIVERGENCE_PANEL_RUN",
]

# declare divergence when the partial sum exceeds this ...
DIVERGENCE_SUM_THRESHOLD = 1e12
# ... or when this many geometric panels toward the improper endpoint each
# contribute a non-decreasing amount.
DIVERGENCE_PANEL_RUN = 60

DEFAULT_BUDGET = 10_000
# the improper-integral drivers stop after this many geometric panels and
# integrate each panel they redo with at most this adaptive budget
MAX_PANELS = 1200
PANEL_BUDGET = 200
# unit roundoff of a float64 sum: one addition errs by at most this times
# the magnitude of its result
_ROUNDOFF = 2.0 ** -53


class IntegrandError(Exception):
    """Non-finite integrand sample at an interior point."""

    def __init__(self, message: str, where: float | None = None):
        self.where = where
        super().__init__(message)


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    converged: bool
    diverged: bool
    subdivisions: int

    def __post_init__(self):
        assert not (self.converged and self.diverged)


# 15-point Kronrod abscissae (positive half) with the embedded 7-point Gauss
# rule on the odd-indexed abscissae; standard double-precision values.
_XGK = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WGK = np.array([
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
])

# full node/weight arrays on [-1, 1]
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_W_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_w_gauss_half = np.zeros(8)
_w_gauss_half[1::2] = _WG  # Gauss nodes sit at the odd Kronrod indices
_W_GAUSS = np.concatenate([_w_gauss_half[:-1], _w_gauss_half[::-1]])
_W_PAIR = np.stack([_W_KRONROD, _W_GAUSS])


def _sample(g, x: np.ndarray) -> np.ndarray:
    """g on the array x, as a float array of x's shape."""
    y = np.asarray(g(x), dtype=np.float64)
    # broadcast_to costs more than the rest: only for a broadcast value
    return y if y.shape == x.shape else np.broadcast_to(y, x.shape)


def integrate(g, a: float, b: float, tol: float = 1e-10,
              budget: int = DEFAULT_BUDGET) -> QuadResult:
    """Adaptive quadrature of g on the finite interval [a, b].

    Subdivision halves the panel with the largest error estimate until the
    summed estimate drops below ``tol`` or the panel budget is exhausted
    (reported as converged=False, not an exception).  A reversed interval
    is integrated forward and its value negated.

    This is the one-lane case of the lockstep lane integrator.
    """
    for name, end in (("a", a), ("b", b)):
        if not math.isfinite(end):
            raise ValueError(
                f"non-finite integration endpoint {name}={float(end)!r}")
    if a == b:
        return QuadResult(0.0, 0.0, True, False, 0)
    lo, hi = (a, b) if a < b else (b, a)
    k, err = _gk15_rule(lambda x: _sample(g, x), np.array([lo]),
                        np.array([hi]))
    (res,) = _integrate_lanes(g, (lo,), (hi,), (tol,), budget,
                              zip(k.tolist(), err.tolist()))
    if isinstance(res, IntegrandError):
        raise res
    return res if a < b else replace(res, value=-res.value)


def _integrate_lanes(g, a, b, tol, budget: int, firsts) -> list:
    """``integrate``'s adaptive loop on independent intervals a[i] < b[i]
    in lockstep, at the tolerances tol[i] (sequences of floats), each lane
    from the (value, error) pair firsts[i] that its caller's GK15 step gave
    the whole interval.  Returns, per lane, its QuadResult, or the
    IntegrandError of its first non-finite sample."""
    lanes = [_adapt(*lane, budget) for lane in zip(a, b, tol, firsts)]
    return _lockstep(lanes, lambda asks, _ids: _gk15_panels(g, asks))


def _gk15(sample, mid: np.ndarray, half: np.ndarray):
    """The GK15 step on the panels mid +- half (1-d arrays): nodes x of
    shape (panels, 15), samples y = sample(x) of shape (...,) + x.shape and
    the rule sums (dot(W_K, y), dot(W_G, y)) per panel, unscaled by half."""
    x = mid[:, None] + half[:, None] * _NODES
    with np.errstate(all="ignore"):
        y = sample(x)
        return x, y, np.vecdot(y[..., None, :], _W_PAIR)


def _gk15_panels(g, asks: list) -> list:
    """The GK15 rule on every panel the lanes ask for (``asks``, one tuple
    of panels per lane), sampled in one call of g.  Returns, per lane, its
    panels' (Kronrod value, error estimate) pairs, as ``_gk15_rule`` gives
    them, or the IntegrandError of its first panel with a non-finite
    sample, naming the first such node."""
    mids, halves = [], []
    for panels in asks:
        for a, b in panels:
            mids.append(0.5 * (a + b))
            halves.append(0.5 * (b - a))
    x, y, dots = _gk15(lambda x: _sample(g, x), np.array(mids),
                       np.array(halves))
    dots = dots.tolist()
    replies = []
    p = 0
    for panels in asks:
        pairs = []
        for q in range(p, p + len(panels)):
            dk, dg = dots[q]
            # Kronrod weights are positive: a finite dk means finite samples
            if not math.isfinite(dk) and not np.isfinite(y[q]).all():
                where = float(x[q][~np.isfinite(y[q])][0])
                pairs = IntegrandError(
                    f"non-finite integrand sample at x={where!r}", where=where)
                break
            k = halves[q] * dk
            pairs.append((k, abs(k - halves[q] * dg)))
        replies.append(pairs)
        p += len(panels)
    return replies


def _adapt(a: float, b: float, tol: float, first, budget: int):
    """``integrate``'s adaptive loop on one lane a < b whose whole-interval
    GK15 step gave the (value, error) pair ``first``, as a coroutine: it
    yields the panels it splits into, receives their (value, error) pairs
    and returns the QuadResult.  A non-finite first value asks for the
    whole interval once more, so that ``_gk15_panels`` names its first
    non-finite node (or gives the pair again, all samples finite)."""
    val, err = first
    if not math.isfinite(val):
        ((val, err),) = yield ((a, b),)
    # heap of (-err, insertion counter, a, b, val, err); counter keeps the
    # ordering deterministic when error estimates tie
    heap = [(-err, 0, a, b, val, err)]
    count = 1
    n_panels = 1
    # the running error total, and a bound on its rounding drift from the
    # heap's exact sum; the loop's own sum, in heap order, is taken only
    # when the total lies within that drift plus the sum's own rounding of
    # tol, so the stop decision is the loop's, and it restarts the total
    running, drift = err, 0.0
    while n_panels < budget:
        near = 2.0 * (drift + len(heap) * _ROUNDOFF * (running + drift))
        if not abs(running - tol) > near:
            running = sum(item[5] for item in heap)
            drift = len(heap) * _ROUNDOFF * running
        if running <= tol:
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
        (v1, e1), (v2, e2) = yield ((pa, pm), (pm, pb))
        heapq.heappush(heap, (-e1, count, pa, pm, v1, e1))
        heapq.heappush(heap, (-e2, count + 1, pm, pb, v2, e2))
        count += 2
        n_panels += 1
        s1 = running - pe
        s2 = s1 + e1
        running = s2 + e2
        drift += _ROUNDOFF * (abs(s1) + abs(s2) + abs(running))
    # deterministic reduction: sum panels ordered by left endpoint, from
    # int 0 (so a lone -0.0 panel gives 0.0)
    panels = sorted(heap, key=lambda item: item[2])
    value = float(sum([p[4] for p in panels]))
    err_total = float(sum([p[5] for p in panels]))
    diverged = abs(value) > DIVERGENCE_SUM_THRESHOLD
    converged = (err_total <= tol) and not diverged
    return QuadResult(value, err_total, converged, diverged, n_panels)


def integrate_singular_left(g, b: float, tol: float = 1e-10) -> QuadResult:
    """Integrate g over (0, b] where g may blow up as w -> 0+.

    Uses geometric panels [b*2^-(k+1), b*2^-k]; converges when the
    geometric tail bound drops below tol, diverges when partial sums
    exceed the divergence threshold or contributions stop decreasing.
    This is the one-member, one-point case of ``sweep_singular_left``.
    """
    if not (b > 0.0):
        raise ValueError(f"integrate_singular_left requires b > 0, got {b!r}")
    (res,) = sweep_singular_left(lambda x, _members: _sample(g, x)[None],
                                 [b], [tol])
    if isinstance(res, IntegrandError):
        raise res
    return res.base


@dataclass(frozen=True)
class Sweep:
    """One member's integrals from 0+ to every point of a grid.

    ``values[j]`` is the integral over (0, grid[j]].  ``converged[j]`` is
    the flag of the piece that ends at grid[j]: the singular base
    (0, grid[0]] for j = 0, the segment (grid[j-1], grid[j]] otherwise.
    After a divergent base no segment is integrated: ``values[1:]`` is nan
    and ``converged[1:]`` is False.
    """

    base: QuadResult
    values: np.ndarray
    converged: np.ndarray


# Geometric panels come in chunks of 64, 128, 256, ...; one family call
# samples at most _BLOCK_SAMPLES points, splitting a wide family.
_FIRST_CHUNK = 64
_BLOCK_SAMPLES = 1 << 16


def sweep_singular_left(family, grid, tols) -> list:
    """Integrate every member of a family from 0+ to every grid point.

    ``family(x, members)`` samples the members listed by the index array
    ``members`` at the points ``x`` (an array) and returns an array of
    shape ``(len(members),) + x.shape``.  Member i has the tolerance
    ``tols[i]`` for the base integral over (0, grid[0]] and for each
    segment of ``grid``, which is strictly increasing with grid[0] > 0.
    A rejected panel of member i is redone on ``family(x, [i])[0]``.

    Returns per member of ``tols``, in order, its ``Sweep`` or its
    ``IntegrandError``, with the values, flags and errors of the
    panel-by-panel loop.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if not (grid.ndim == 1 and grid.size and grid[0] > 0.0
            and np.all(np.diff(grid) > 0.0)):
        raise ValueError("sweep grid must be strictly increasing with grid[0] > 0")
    tols = np.asarray(tols, dtype=np.float64)
    # base panel k is [edges[k+1], edges[k]], halved one step at a time
    edges = np.multiply.accumulate(
        np.concatenate((grid[:1], np.full(MAX_PANELS, 0.5))))
    bases = _improper(family, edges[1:], edges[:-1], tols)
    values = np.full((tols.size, grid.size), math.nan)
    converged = np.zeros(values.shape, dtype=bool)
    for i, base in enumerate(bases):
        if isinstance(base, QuadResult):
            values[i, 0], converged[i, 0] = base.value, base.converged
    ok = np.array([i for i, base in enumerate(bases)
                   if isinstance(base, QuadResult) and not base.diverged],
                  dtype=np.intp)
    failed = {}
    if ok.size and grid.size > 1:
        k, err = _rule(family, ok, grid[:-1], grid[1:])
        values[ok, 1:], converged[ok, 1:], redo = _segments(
            lambda row: _alone(family, ok[row]), grid[:-1], grid[1:], k, err,
            tols[ok, None], DEFAULT_BUDGET)
        values[ok] = np.cumsum(values[ok], axis=1)
        failed = {int(ok[row]): errs[min(errs)] for row, errs in redo.items()}
    return [base if isinstance(base, IntegrandError) else
            failed.get(i) or Sweep(base, values[i], converged[i])
            for i, base in enumerate(bases)]


def _rule(family, members, lo: np.ndarray, hi: np.ndarray):
    """GK15 values and error estimates (members x panels) of the panels
    [lo, hi] for the members of a family listed by the index array
    ``members``, one family call per group of members."""
    group = max(_BLOCK_SAMPLES // (lo.size * _NODES.size), 1)
    k, err = zip(*[_gk15_rule(lambda x: np.asarray(
        family(x, members[s:s + group]), dtype=np.float64), lo, hi)
        for s in range(0, members.size, group)])
    return np.concatenate(k), np.concatenate(err)


def _alone(family, i: int):
    """Member i of a family as an integrand of its own."""
    idx = np.array([i])
    return lambda x: family(x, idx)[0]


def _gk15_rule(sample, lo: np.ndarray, hi: np.ndarray):
    """GK15 values k = half*dot(W_K, y) and error estimates
    |k - half*dot(W_G, y)| of the panels [lo, hi], shaped as ``sample``'s
    output less its node axis; a non-finite sample makes them non-finite."""
    half = 0.5 * (hi - lo)
    _, _, dots = _gk15(sample, 0.5 * (lo + hi), half)
    with np.errstate(all="ignore"):
        k = half * dots[..., 0]
        return k, np.abs(k - half * dots[..., 1])


def _settles(k, err, tol):
    """Where one GK15 step (values k, error estimates err) settles a panel
    as ``integrate`` would: error within tol and no divergence flag.  Both
    fail on non-finite samples."""
    return (err <= tol) & (np.abs(k) <= DIVERGENCE_SUM_THRESHOLD)


def _redo(alone, lo, hi, redo, tol, k, err, budget: int):
    """``integrate`` at tol[row, j] and ``budget`` on the panels
    [lo[j], hi[j]] marked in each row of the mask ``redo``, each row's
    panels as one lane batch of its integrand ``alone(row)`` that starts
    from their first GK15 values k[row, j] and error estimates err[row, j],
    read before the row's results are yielded.  Yields (row, j, result),
    the result a QuadResult or an IntegrandError."""
    for row in np.flatnonzero(redo.any(axis=1)).tolist():
        bad = np.flatnonzero(redo[row])
        for j, res in zip(bad.tolist(), _integrate_lanes(
                alone(row), lo[bad].tolist(), hi[bad].tolist(),
                tol[row, bad].tolist(), budget,
                zip(k[row, bad].tolist(), err[row, bad].tolist()))):
            yield row, j, res


def _segments(alone, lo, hi, k, err, tol, budget: int):
    """``integrate`` at ``tol`` (broadcast to k's shape) and ``budget`` on
    the panels [lo[j], hi[j]] of every row of the GK15 values k and error
    estimates err (rows x panels): a panel that one step settles ends
    there, and each row's others are redone as one lane batch of its
    integrand ``alone(row)``.  Returns values and flags as arrays of k's
    shape and, by row, the IntegrandError of each failed redo by index."""
    value = k.copy()
    converged = _settles(k, err, tol)
    failed = {}
    for row, j, res in _redo(alone, lo, hi, ~converged,
                             np.broadcast_to(tol, k.shape), k, err, budget):
        if isinstance(res, IntegrandError):
            failed.setdefault(row, {})[j] = res
        else:
            value[row, j], converged[row, j] = res.value, res.converged
    return value, converged, failed


def _improper(family, lo: np.ndarray, hi: np.ndarray, tols):
    """The integrals of a family's members (``sweep_singular_left``'s
    ``family``) over the panels [lo[k], hi[k]], taken in order toward the
    improper endpoint, all members in lockstep.  Panel k of member i is
    integrated as ``integrate`` does at the tolerance
    0.5*tols[i]/((k+1)(k+2)) and the budget PANEL_BUDGET: one GK15 step
    settles it, or it is redone as a lane of the member alone that starts
    from that step's value and error.

    A member ends at the first panel that has an end, one ``ends`` mask
    over its row.  The ends, in the order they are read at one panel:
    - a failed redo: the IntegrandError of the panel, as the loop raises
      before it tests the panel;
    - the loop's four tests: the partial sum passes
      DIVERGENCE_SUM_THRESHOLD, or the run of non-decreasing contributions
      reaches DIVERGENCE_PANEL_RUN (diverged); the geometric tail from the
      last two contributions, its ratio capped at 0.95, fits within
      tols[i] with the error sum; the contribution is zero, past the first
      panel, and the error sum fits within tols[i] (converged);
    - the last panel, once the panels run out (unconverged).

    The two divergence tests read the values alone, the two convergence
    tests the values and the error sum.  They read each member's row from
    its first panel, one chunk more at a time, on a provisional stream: a
    panel's value and error where one GK15 step settles it; where it does
    not, its first-pass Kronrod value and, as error, the panel tolerance
    that its redo must meet (the first-pass estimate, which rejected the
    panel, would hold off every convergence test).
    - A member whose provisional stream ends divergent, every value up to
      the end finite, ends there and redoes none of its panels.  Its value
      is the provisional partial sum, which no caller reads.
    - Any other member that has an end redoes its rejected panels up to
      that end, as one lane batch however many chunks they span, and the
      ends are read again.  Should the end move past panels still
      provisional, those are redone in turn; a member with no end yet
      redoes nothing and takes the next chunk.
    So a member that converges, runs out of panels or raises does so on
    accepted values only, with the sums and bits of the panel-by-panel
    loop that redid every rejected panel, and a failed redo's
    IntegrandError counts only if no end comes before it.  The shortcut
    cannot flip a flag: a divergent end is a partial sum past 1e12 or a
    run of 60 non-decreasing contributions, and in a run of contributions
    c far above tols[i] the capped ratio makes the tail 19·c >> tols[i],
    so no convergence test can fire there on the accepted values either,
    which a redo moves by about the first-pass error, small beside c.

    Returns per member its QuadResult or its IntegrandError.
    """
    out = [None] * tols.size
    running = np.arange(tols.size)
    # per running member, over the panels taken so far: the stream (values
    # and errors, accepted or provisional), the first-pass errors (e holds
    # the tolerance of a waiting panel) and the panels awaiting a redo
    c = e = ek = np.empty((tols.size, 0))
    todo = np.empty(c.shape, dtype=bool)
    stop, size = 0, _FIRST_CHUNK
    with np.errstate(all="ignore"):
        while running.size:
            start, stop = stop, min(stop + size, lo.size)
            k, err = _rule(family, running, lo[start:stop], hi[start:stop])
            n = np.arange(1, stop + 1)  # panels taken so far
            j = n - 1
            tol = tols[running, None]
            # 1/(k+1)(k+2) sums to 1: panel tolerances sum below tol/2
            ptol = np.maximum(0.5 * tol / (n * (n + 1)), 1e-300)
            waits = ~_settles(k, err, ptol[:, start:])
            c = np.concatenate((c, k), axis=1)
            e = np.concatenate((e, np.where(waits, ptol[:, start:], err)),
                               axis=1)
            ek = np.concatenate((ek, err), axis=1)
            todo = np.concatenate((todo, waits), axis=1)
            # the panels whose redo failed, and their errors by (row, panel);
            # a member with one ends in this chunk
            bad, failed = np.zeros(c.shape, dtype=bool), {}
            while True:
                # the loop's running sums, added one panel at a time from
                # 0.0 (+ 0.0 turns a sum of -0.0 panels into the loop's 0.0)
                tot = np.add.accumulate(c, axis=1) + 0.0
                etot = np.add.accumulate(e, axis=1)  # errors are >= +0.0
                ac = np.abs(c)
                ap = np.full(c.shape, math.nan)  # no panel before the first
                ap[:, 1:] = ac[:, :-1]
                grows = (ac >= ap * (1.0 - 1e-12)) & (ac > 0.0)
                reset = np.maximum.accumulate(np.where(grows, -1, j), axis=1)
                runs = j - reset  # panel 0 never grows: reset >= 0
                r = np.minimum(ac / ap, 0.95)
                tail = ac * r / (1.0 - r)
                diverged = (np.abs(tot) > DIVERGENCE_SUM_THRESHOLD) | (
                    runs >= DIVERGENCE_PANEL_RUN)
                tailed = (ac < ap) & (tail + etot <= tol)
                conv = tailed | ((ac == 0.0) & (n >= 2) & (etot <= tol))
                ends = diverged | conv | bad
                if stop == lo.size:
                    ends[:, -1] = True  # the panels run out
                first, keep = np.argmax(ends, axis=1), ~ends.any(axis=1)
                # a member needs accepted values up to its end ...
                need = todo & (j <= np.where(keep, -1, first)[:, None])
                if need.any():
                    # ... unless its stream diverges there on finite values
                    rows = np.arange(first.size)
                    finite = np.logical_and.accumulate(np.isfinite(c), axis=1)
                    need[diverged[rows, first] & finite[rows, first]] = False
                if not need.any():
                    break
                # c holds the first-pass values of the panels awaiting a redo
                for row, jj, res in _redo(
                        lambda row: _alone(family, running[row]), lo, hi,
                        need, ptol, c, ek, PANEL_BUDGET):
                    if isinstance(res, IntegrandError):
                        bad[row, jj], failed[row, jj] = True, res
                    else:
                        c[row, jj], e[row, jj] = (res.value,
                                                  res.abs_error_estimate)
                todo &= ~need
            for row in np.flatnonzero(~keep).tolist():
                jj = first[row]
                if bad[row, jj]:  # the loop raises before it tests the panel
                    out[running[row]] = failed[row, jj]
                    continue
                value, error = float(tot[row, jj]), float(etot[row, jj])
                if tailed[row, jj] and not diverged[row, jj]:
                    value += math.copysign(tail[row, jj], c[row, jj])
                    error += float(tail[row, jj])
                div = bool(diverged[row, jj])
                out[running[row]] = QuadResult(
                    value, error, bool(conv[row, jj]) and not div, div,
                    int(jj) + 1)
            running, c, e, ek, todo = (running[keep], c[keep], e[keep],
                                       ek[keep], todo[keep])
            size *= 2
    return out


def integrate_to_infinity(g, a: float, tol: float = 1e-10) -> QuadResult:
    """Integrate g over [a, +inf) with doubling panels [a_k, a_k + 2^k],
    a_0 = a, and tail detection.  The panels stop before the first whose
    right end overflows (panel 1023 for a = 0); a result that has not
    converged or diverged by then is unconverged.  This is the one-member
    case of the sweep's lockstep panels."""
    if not math.isfinite(a):
        raise ValueError(f"non-finite integration endpoint a={float(a)!r}")
    with np.errstate(over="ignore"):
        ends = np.cumsum(np.r_[a, 2.0 ** np.arange(MAX_PANELS)])
    ends = ends[np.isfinite(ends)]  # non-decreasing: a finite prefix
    (res,) = _improper(lambda x, _members: _sample(g, x)[None], ends[:-1],
                       ends[1:], np.array([float(tol)]))
    if isinstance(res, IntegrandError):
        raise res
    return res
