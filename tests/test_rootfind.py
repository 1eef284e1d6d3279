"""Lane bisection against the one-bracket loop."""
import math

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference
from odeuniq.rootfind import (BracketError, ConvergenceError, _bisect_lanes,
                              bisect)

LO = 0.25
# (fn, lo, hi, max_iter): a root inside, a root at lo, a root at hi, no
# sign change, max_iter exhaustion, a sign change between adjacent floats
# (mid == lo at once), a root at lo of adjacent floats, tiny magnitudes,
# a nan end
CASES = [
    (lambda t: t * t - 2.0, 0.0, 2.0, 200),
    (lambda t: t - LO, LO, 1.0, 200),
    (lambda t: t - 1.0, LO, 1.0, 200),
    (lambda t: t * t + 1.0, -1.0, 1.0, 200),
    (lambda t: math.exp(t) - 3.0, 0.0, 5.0, 3),
    (lambda t: -1.0 if t <= 0.5 else 1.0, 0.5, math.nextafter(0.5, 1.0),
     200),
    (lambda t: t - 0.5, 0.5, math.nextafter(0.5, 1.0), 200),
    (lambda t: t - 1e-300, 0.0, 1e-290, 200),
    (lambda t: math.nan if t < 0.1 else t - 0.5, 0.0, 1.0, 200),
]


def _outcome(fn, *args, **kwargs):
    try:
        return ("root", fn(*args, **kwargs).hex())
    except (BracketError, ConvergenceError) as exc:
        return (type(exc).__name__, str(exc))


def _recording(fn, calls):
    def rec(t):
        calls.append(t)
        return fn(t)
    return rec


@pytest.mark.parametrize("fn,lo,hi,max_iter", CASES)
def test_bisect_matches_scalar_loop(fn, lo, hi, max_iter):
    ref_calls, calls = [], []
    ref = _outcome(scalar_reference.bisect, _recording(fn, ref_calls), lo, hi,
                   max_iter=max_iter)
    assert _outcome(bisect, _recording(fn, calls), lo, hi,
                    max_iter=max_iter) == ref
    assert [t.hex() for t in calls] == [t.hex() for t in ref_calls]


def test_lanes_match_scalar_loop():
    # all cases as one batch (max_iter 3 applies to every lane); each lane
    # sees the points the one-bracket loop sees, in the same order
    calls = {i: [] for i in range(len(CASES))}

    def fn(points, lanes):
        out = []
        for t, i in zip(points, lanes):
            calls[i].append(t)
            out.append(CASES[i][0](t))
        return out

    lo = [c[1] for c in CASES]
    hi = [c[2] for c in CASES]
    got = _bisect_lanes(fn, lo, hi, max_iter=3)
    for i, (f, a, b, _) in enumerate(CASES):
        ref_calls = []
        ref = _outcome(scalar_reference.bisect, _recording(f, ref_calls), a, b,
                       max_iter=3)
        res = got[i]
        assert ((type(res).__name__, str(res)) if isinstance(res, Exception)
                else ("root", res.hex())) == ref
        assert [t.hex() for t in calls[i]] == [t.hex() for t in ref_calls]


def test_lanes_reuse_known_end_residuals():
    seen = []

    def fn(points, lanes):
        seen.extend(points)
        return [t - 0.3 for t in points]

    (root,) = _bisect_lanes(fn, [0.0], [1.0], flo=[-0.3], fhi=[0.7])
    assert 0.0 not in seen and 1.0 not in seen
    assert root == scalar_reference.bisect(lambda t: t - 0.3, 0.0, 1.0)


def test_lane_residual_exception_ends_only_its_lane():
    err = ZeroDivisionError("lane 0")

    def fn(points, lanes):
        return [err if i == 0 else t - 0.5 for t, i in zip(points, lanes)]

    res = _bisect_lanes(fn, [0.0, 0.0], [1.0, 1.0])
    assert res[0] is err
    assert res[1] == 0.5


def test_scalar_exception_propagates():
    def fn(t):
        raise ZeroDivisionError("boom")
    with pytest.raises(ZeroDivisionError, match="boom"):
        bisect(fn, 0.0, 1.0)


@given(st.floats(-10.0, 10.0), st.floats(1e-12, 10.0), st.floats(-12.0, 12.0),
       st.sampled_from([1e-14, 1e-12, 1e-6]), st.integers(1, 80))
@settings(max_examples=100, deadline=None)
def test_bisect_property(lo, width, root, rtol, max_iter):
    hi = lo + width

    def fn(t):
        return math.atan(t - root)

    assert _outcome(bisect, fn, lo, hi, rtol=rtol, max_iter=max_iter) == \
        _outcome(scalar_reference.bisect, fn, lo, hi, rtol=rtol,
                 max_iter=max_iter)


def test_exhausted_halvings_raise():
    # 3 halvings of [0, 5] leave a bracket 0.625 wide around ln 3
    with pytest.raises(ConvergenceError, match="in 3 halvings"):
        bisect(lambda t: math.exp(t) - 3.0, 0.0, 5.0, max_iter=3)
    (res,) = _bisect_lanes(lambda ts, _: [math.exp(t) - 3.0 for t in ts],
                           [0.0], [5.0], max_iter=3)
    assert isinstance(res, ConvergenceError)
    # a bracket of adjacent floats is converged, whatever max_iter is left
    assert bisect(lambda t: -1.0 if t <= 0.5 else 1.0, 0.5,
                  math.nextafter(0.5, 1.0), max_iter=1) == 0.5
