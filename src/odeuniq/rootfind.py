"""Bracketing root finding for monotone maps: bisection, or Newton
steps safeguarded by the bracket.

All inverted maps in this package are monotone by construction, so a
bracket narrowed to a relative tolerance is the root-finding contract
everywhere.

The lane bisection runs many independent brackets in lockstep: each round
sends every running lane's next point through one residual call.  Every
lane repeats the one-bracket loop exactly (same points, same comparisons,
same stopping rules and messages), and ``bisect`` is its one-lane case.
A residual reply may carry a Newton step; a lane then takes the Newton
point while it stays strictly inside the bracket, and halves otherwise
(``_bisect_lane`` states the rule).  Replies without a step are plain
bisection.  The lockstep loop, ``_lockstep``, also runs the quadrature's
lanes.
"""
from __future__ import annotations

__all__ = ["bisect", "BracketError", "ConvergenceError"]


class BracketError(ValueError):
    pass


class ConvergenceError(ArithmeticError):
    """``max_iter`` interior points (halvings or Newton points) ended
    before the bracket met ``rtol``."""


def bisect(fn, lo: float, hi: float, rtol: float = 1e-12,
           max_iter: int = 200) -> float:
    """Root of fn on [lo, hi]; fn(lo) and fn(hi) must differ in sign."""
    (res,) = _bisect_lanes(lambda xs, _lanes: [fn(xs[0])], (lo,), (hi,),
                           rtol, max_iter)
    if isinstance(res, Exception):
        raise res
    return res


def _bisect_lanes(fn, lo, hi, rtol: float = 1e-12, max_iter: int = 200,
                  flo=None, fhi=None, start=None) -> list:
    """Roots on independent brackets [lo[i], hi[i]] in lockstep.

    ``fn(points, lanes)`` returns one reply per listed lane at its point:
    the residual, or the pair (residual, Newton step); an exception
    instance in place of a reply ends that lane with it.  ``flo`` and
    ``fhi``, when given, are replies already known at the bracket ends,
    and ``start`` the lanes' first interior points.  Returns, per lane,
    its root or its exception (a BracketError, or the one from fn).
    """
    unknown = [None] * len(lo)
    lanes = [_bisect_lane(*args, rtol, max_iter) for args in
             zip(lo, hi, unknown if flo is None else flo,
                 unknown if fhi is None else fhi,
                 unknown if start is None else start)]
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


def _bisect_lane(lo, hi, flo, fhi, x, rtol: float, max_iter: int):
    """``bisect``'s loop on one bracket, as a coroutine: it yields the
    points it needs, receives their replies and returns the root, or a
    BracketError or ConvergenceError (returned, not raised, so that the
    caller raises it).  A bracket narrowed to adjacent floats counts as
    converged.

    A reply (f, step) carries the Newton step -f/f' at its point x.  A
    step within ``rtol`` of x ends the lane at x + step; this stop is
    tested first, at the bracket ends too, so a root on an end costs no
    halving.  Otherwise the bracket shrinks as in bisection and the next
    point is x + step when it lies strictly inside the bracket, else the
    midpoint.  ``x``, when given, is the first interior point, under the
    same rule.  Replies without a step give plain bisection.
    """
    residuals = []
    for end, reply in ((lo, flo), (hi, fhi)):
        f, step = _newton_reply((yield end) if reply is None else reply)
        if f == 0.0:
            return end
        if step is not None and abs(step) <= rtol * abs(end):
            return end + step
        residuals.append(f)
    flo, fhi = residuals
    if (flo > 0.0) == (fhi > 0.0):
        return BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}")
    for _ in range(max_iter):
        if x is None or not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x == lo or x == hi:
                break
        fx, step = _newton_reply((yield x))
        if fx == 0.0:
            return x
        if step is not None and abs(step) <= rtol * abs(x):
            return x + step
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi = x
        if abs(hi - lo) <= rtol * max(abs(lo), abs(hi), 1e-300):
            break
        x = None if step is None else x + step
    else:
        return ConvergenceError(
            f"bisection did not reach rtol={rtol!r} in {max_iter} halvings: "
            f"[{lo!r}, {hi!r}]")
    return 0.5 * (lo + hi)


def _newton_reply(reply):
    """A lane's reply as (residual, Newton step or None)."""
    return reply if isinstance(reply, tuple) else (reply, None)
