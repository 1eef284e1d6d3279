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
integrands from 0+ to every point of a grid, one family call per block
of GK15 panels.  A panel is accepted when one GK15 step of ``integrate``
converges on it; the others are redone as one lane batch of the adaptive
integrator on that member alone, per chunk of geometric base panels and
for all of a member's rejected segments.  So values, errors and flags
are the panel-by-panel loop's, bit for bit, and a redone base panel's
``IntegrandError`` surfaces only when ``_tail_driver`` asks for it.
``integrate_singular_left`` is the one-member case, and
``integrate_to_infinity`` runs its doubling panels the same way.

The adaptive integrator runs independent integrals as lanes in lockstep;
``integrate`` is the one-lane case.  The whole-interval panels of all
lanes are sampled in one integrand call, and a lane that meets its
tolerance there (most do) ends at once.  The others run as coroutines,
one integrand call per round for the next panels of all running lanes.
Every lane keeps the one-interval loop's heap, freeze rule, budget,
termination test (the ``sum`` over the heap) and left-ordered reduction,
and reproduces it bit for bit; a non-finite sample ends its lane with the
loop's ``IntegrandError``.

Integrands are array functions: ``g(x)`` maps an array of points to an
array of x's shape, or to a value that broadcasts to it.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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
    (reported as converged=False, not an exception).

    This is the one-lane case of the lockstep lane integrator.
    """
    (res,) = _integrate_lanes(g, (a,), (b,), tol, budget)
    if isinstance(res, IntegrandError):
        raise res
    return res


def _integrate_lanes(g, a, b, tol=1e-10,
                     budget: int = DEFAULT_BUDGET) -> list:
    """``integrate``'s adaptive loop on independent intervals [a[i], b[i]]
    (sequences of floats) in lockstep, with the tolerance ``tol``, or
    ``tol[i]`` when it is a sequence.  Returns, per lane, its QuadResult,
    or the IntegrandError of its first non-finite sample.  A lane whose
    whole-interval panel meets its tolerance, or whose budget is one
    panel, ends there; the others continue as ``_adapt`` coroutines.  A
    nan or infinite endpoint raises ValueError before any lane starts.
    """
    if not (all(map(math.isfinite, a)) and all(map(math.isfinite, b))):
        name, end = next((name, end) for ai, bi in zip(a, b)
                         for name, end in (("a", ai), ("b", bi))
                         if not math.isfinite(end))
        raise ValueError(
            f"non-finite integration endpoint {name}={float(end)!r}")
    # test for a float first: np.ndim on one takes about 1 us
    scalar = isinstance(tol, float) or np.ndim(tol) == 0
    tols = [tol] * len(a) if scalar else list(map(float, tol))
    out = [QuadResult(0.0, 0.0, True, False, 0)] * len(a)
    # a reversed interval is integrated forward and its value negated
    lanes = [(i, ai, bi, False) if ai < bi else (i, bi, ai, True)
             for i, (ai, bi) in enumerate(zip(a, b)) if ai != bi]
    firsts = _gk15_panels(g, [((lo, hi),) for _, lo, hi, _ in lanes]) \
        if lanes else []
    adapting, coroutines = [], []
    for (i, lo, hi, flip), first in zip(lanes, firsts):
        if isinstance(first, IntegrandError):
            out[i] = first
            continue
        ((val, err),) = first
        if budget <= 1 or err <= tols[i]:
            out[i] = _reduce((val,), (err,), tols[i], 1, flip)
        else:
            adapting.append(i)
            coroutines.append(_adapt(lo, hi, tols[i], budget, val, err, flip))
    for i, res in zip(adapting, _lockstep(
            coroutines, lambda asks, _ids: _gk15_panels(g, asks))):
        out[i] = res
    return out


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


def _adapt(a: float, b: float, tol: float, budget: int, val: float,
           err: float, flip: bool):
    """``integrate``'s adaptive loop on one lane a < b whose whole-interval
    panel gave (val, err), as a coroutine: it yields the panels it splits
    into, receives their (value, error) pairs and returns the QuadResult,
    its value negated if ``flip``."""
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
        (v1, e1), (v2, e2) = yield ((pa, pm), (pm, pb))
        heapq.heappush(heap, (-e1, count, pa, pm, v1, e1))
        heapq.heappush(heap, (-e2, count + 1, pm, pb, v2, e2))
        count += 2
        n_panels += 1
    # deterministic reduction: sum panels ordered by left endpoint
    panels = sorted(heap, key=lambda item: item[2])
    return _reduce([p[4] for p in panels], [p[5] for p in panels], tol,
                   n_panels, flip)


def _reduce(values, errors, tol: float, n_panels: int,
            flip: bool) -> QuadResult:
    """The loop's QuadResult from its panels' values and errors, summed in
    order from int 0 (so a lone -0.0 panel gives 0.0); ``flip`` negates
    the value of a reversed interval."""
    value = float(sum(values))
    err_total = float(sum(errors))
    diverged = abs(value) > DIVERGENCE_SUM_THRESHOLD
    converged = (err_total <= tol) and not diverged
    return QuadResult(-value if flip else value, err_total, converged,
                      diverged, n_panels)


def _tail_driver(contribs_iter, tol: float):
    """Shared convergence/divergence logic for improper-integral drivers.

    ``contribs_iter`` yields (contribution, error_estimate) per panel toward
    the improper endpoint; the result is unconverged where it ends.
    """
    total = 0.0
    err_total = 0.0
    nondecreasing_run = 0
    prev = None
    n = 0
    for contrib, err in contribs_iter:
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
    return QuadResult(total, err_total, False, False, n)


def integrate_singular_left(g, b: float, tol: float = 1e-10) -> QuadResult:
    """Integrate g over (0, b] where g may blow up as w -> 0+.

    Uses geometric panels [b*2^-(k+1), b*2^-k]; converges when the
    geometric tail bound drops below tol, diverges when partial sums
    exceed the divergence threshold or contributions stop decreasing.
    This is the one-member, one-point case of ``sweep_singular_left``.
    """
    if not (b > 0.0):
        raise ValueError(f"integrate_singular_left requires b > 0, got {b!r}")
    sweeps = sweep_singular_left(lambda x, _members: _sample(g, x)[None],
                                 [b], [tol])
    return next(sweeps).base


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


def sweep_singular_left(family, grid, tols):
    """Integrate every member of a family from 0+ to every grid point.

    ``family(x, members)`` samples the members listed by the index array
    ``members`` at the points ``x`` (an array) and returns an array of
    shape ``(len(members),) + x.shape``.  Member i has the tolerance
    ``tols[i]`` for the base integral over (0, grid[0]] and for each
    segment of ``grid``, which is strictly increasing with grid[0] > 0.
    The panels the batch does not accept are redone by the adaptive
    integrator on ``family(x, [i])[0]``, as one lane batch: per chunk of
    base panels, and for all rejected segments of a member.

    Yields one ``Sweep`` per member of ``tols``, in order, with the
    values, flags and ``IntegrandError`` of the panel-by-panel loop.  The
    work is lazy: a caller that stops iterating, e.g. at a divergent base,
    never sees an error that the loop would have met at a later member.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if not (grid.ndim == 1 and grid.size and grid[0] > 0.0
            and np.all(np.diff(grid) > 0.0)):
        raise ValueError("sweep grid must be strictly increasing with grid[0] > 0")
    tols = np.asarray(tols, dtype=np.float64)
    n_members = len(tols)
    # base panel k is [edges[k+1], edges[k]], halved one step at a time
    edges = np.multiply.accumulate(np.r_[grid[0], np.full(MAX_PANELS, 0.5)])
    blocks: dict = {}

    def block(key, lo, hi, i):
        """GK15 values and error estimates of panels [lo, hi] for member
        i, sampled in one family call with the members after it."""
        hit = blocks.get(key)
        if hit is None or not hit[0] <= i < hit[1]:
            group = max(_BLOCK_SAMPLES // (lo.size * _NODES.size), 1)
            stop = min(i + group, n_members)
            members = np.arange(i, stop)
            hit = blocks[key] = (i, stop) + _gk15_rule(
                lambda x: np.asarray(family(x, members), dtype=np.float64),
                lo, hi)
        first, _, k, err = hit
        return k[i - first], err[i - first]

    def member(i):
        idx = np.array([i])
        return lambda x: family(x, idx)[0]

    for i in range(n_members):
        tol, alone = float(tols[i]), member(i)
        base = _tail_driver(_geometric_panels(
            lambda start, lo, hi: block(("base", start), lo, hi, i), alone,
            edges[1:], edges[:-1], tol), tol)
        values = np.full(grid.size, math.nan)
        converged = np.zeros(grid.size, dtype=bool)
        values[0], converged[0] = base.value, base.converged
        if not base.diverged and grid.size > 1:
            k, err = block("segments", grid[:-1], grid[1:], i)
            values[1:], converged[1:] = k, _accepted(k, err, tol)
            bad = np.flatnonzero(~converged[1:])
            for j, res in zip(bad.tolist(), _integrate_lanes(
                    alone, grid[bad].tolist(), grid[bad + 1].tolist(), tol,
                    DEFAULT_BUDGET)):
                if isinstance(res, IntegrandError):
                    raise res
                values[j + 1], converged[j + 1] = res.value, res.converged
            values = np.cumsum(values)
        yield Sweep(base, values, converged)


def _gk15_rule(sample, lo: np.ndarray, hi: np.ndarray):
    """GK15 values k = half*dot(W_K, y) and error estimates
    |k - half*dot(W_G, y)| of the panels [lo, hi], shaped as ``sample``'s
    output less its node axis; a non-finite sample makes them non-finite."""
    half = 0.5 * (hi - lo)
    _, _, dots = _gk15(sample, 0.5 * (lo + hi), half)
    with np.errstate(all="ignore"):
        k = half * dots[..., 0]
        return k, np.abs(k - half * dots[..., 1])


def _accepted(k, err, tol):
    """Panels on which one GK15 step of ``integrate`` converges: error
    within tol and no divergence flag (both fail on non-finite samples)."""
    return (err <= tol) & (np.abs(k) <= DIVERGENCE_SUM_THRESHOLD)


def _geometric_panels(rule, alone, lo: np.ndarray, hi: np.ndarray,
                      tol: float):
    """(value, error) of the panels [lo[k], hi[k]], in order, as
    ``integrate`` gives them at the tolerance 0.5*tol/((k+1)(k+2)) and the
    budget PANEL_BUDGET: per chunk, one ``rule(start, lo, hi)`` call and
    one lane batch of ``alone`` for the panels ``_accepted`` rejects.  An
    IntegrandError surfaces only when ``_tail_driver`` asks for its panel."""
    start, size = 0, _FIRST_CHUNK
    while start < lo.size:
        stop = min(start + size, lo.size)
        clo, chi = lo[start:stop], hi[start:stop]
        k, err = rule(start, clo, chi)
        # 1/(k+1)(k+2) sums to 1: panel tolerances sum below tol/2
        ks = np.arange(start, stop)
        ptol = np.maximum(0.5 * tol / ((ks + 1) * (ks + 2)), 1e-300)
        bad = np.flatnonzero(~_accepted(k, err, ptol))
        pieces = list(zip(k.tolist(), err.tolist()))
        for j, res in zip(bad.tolist(), _integrate_lanes(
                alone, clo[bad].tolist(), chi[bad].tolist(), ptol[bad],
                PANEL_BUDGET)):
            pieces[j] = res if isinstance(res, IntegrandError) else (
                res.value, res.abs_error_estimate)
        for piece in pieces:
            if isinstance(piece, IntegrandError):
                raise piece
            yield piece
        start, size = stop, 2 * size


def integrate_to_infinity(g, a: float, tol: float = 1e-10) -> QuadResult:
    """Integrate g over [a, +inf) with doubling panels [a_k, a_k + 2^k],
    a_0 = a, and tail detection.  The panels stop before the first whose
    right end overflows (panel 1023 for a = 0); a result that has not
    converged or diverged by then is unconverged."""
    if not math.isfinite(a):
        raise ValueError(f"non-finite integration endpoint a={float(a)!r}")
    with np.errstate(over="ignore"):
        ends = np.cumsum(np.r_[a, 2.0 ** np.arange(MAX_PANELS)])
    ends = ends[np.isfinite(ends)]  # non-decreasing: a finite prefix
    return _tail_driver(_geometric_panels(
        lambda _start, lo, hi: _gk15_rule(lambda x: _sample(g, x), lo, hi),
        g, ends[:-1], ends[1:], tol), tol)
