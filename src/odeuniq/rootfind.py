"""Bracketing bisection for monotone root finding.

All inverted maps in this package are monotone by construction, so plain
bisection to a relative tolerance is the root-finding contract everywhere.

The lane bisection runs many independent brackets in lockstep: each round
sends every running lane's next point through one residual call.  Every
lane repeats the one-bracket loop exactly (same points, same comparisons,
same stopping rules and messages), and ``bisect`` is its one-lane case.
The lockstep loop, ``_lockstep``, also runs the quadrature's lanes.
"""
from __future__ import annotations

__all__ = ["bisect", "BracketError", "ConvergenceError"]


class BracketError(ValueError):
    pass


class ConvergenceError(ArithmeticError):
    """``max_iter`` halvings ended before the bracket met ``rtol``."""


def bisect(fn, lo: float, hi: float, rtol: float = 1e-12,
           max_iter: int = 200) -> float:
    """Root of fn on [lo, hi]; fn(lo) and fn(hi) must differ in sign."""
    (res,) = _bisect_lanes(lambda xs, _lanes: [fn(xs[0])], (lo,), (hi,),
                           rtol, max_iter)
    if isinstance(res, Exception):
        raise res
    return res


def _bisect_lanes(fn, lo, hi, rtol: float = 1e-12, max_iter: int = 200,
                  flo=None, fhi=None) -> list:
    """Roots on independent brackets [lo[i], hi[i]] in lockstep.

    ``fn(points, lanes)`` returns one residual per listed lane at its
    point; an exception instance in place of a residual ends that lane
    with it.  ``flo`` and ``fhi``, when given, are residuals already known
    at the bracket ends.  Returns, per lane, its root or its exception
    (a BracketError, or the one from fn).
    """
    unknown = [None] * len(lo)
    lanes = [_bisect_lane(*args, rtol, max_iter) for args in
             zip(lo, hi, unknown if flo is None else flo,
                 unknown if fhi is None else fhi)]
    return _lockstep(lanes, fn)


def _lockstep(lanes, evaluate) -> list:
    """Run coroutine lanes in lockstep; returns, per lane, its return value
    or the exception instance sent to it in place of a reply.  Each round
    ``evaluate(asks, ids)`` answers what the listed running lanes ask for
    next, one reply per lane; a None reply starts a lane."""
    out = [None] * len(lanes)
    running, replies = range(len(lanes)), [None] * len(lanes)
    while running:
        ids, asks = [], []
        for i, reply in zip(running, replies):
            if isinstance(reply, Exception):
                out[i] = reply
                continue
            try:
                asks.append(lanes[i].send(reply))
                ids.append(i)
            except StopIteration as stop:
                out[i] = stop.value
        running = ids
        if running:
            replies = evaluate(asks, ids)
    return out


def _bisect_lane(lo, hi, flo, fhi, rtol: float, max_iter: int):
    """``bisect``'s loop on one bracket, as a coroutine: it yields the
    points it needs, receives their residuals and returns the root, or a
    BracketError or ConvergenceError (returned, not raised, so that the
    caller raises it).  A bracket narrowed to adjacent floats counts as
    converged."""
    if flo is None:
        flo = yield lo
    if flo == 0.0:
        return lo
    if fhi is None:
        fhi = yield hi
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        return BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = yield mid
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if abs(hi - lo) <= rtol * max(abs(lo), abs(hi), 1e-300):
            break
    else:
        return ConvergenceError(
            f"bisection did not reach rtol={rtol!r} in {max_iter} halvings: "
            f"[{lo!r}, {hi!r}]")
    return 0.5 * (lo + hi)
