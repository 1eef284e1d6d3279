"""Lanes whose residual replies carry a Newton step."""
import math

import pytest

from odeuniq.rootfind import ConvergenceError, _bisect_lanes


def _newton_lanes(f, df, lo, hi, start=None, **kwargs):
    """One lane on [lo, hi] replying (f, -f/f'); returns its outcome and
    the points it asked for."""
    seen = []

    def fn(points, _lanes):
        seen.extend(points)
        return [(f(t), -f(t) / df(t)) for t in points]

    starts = None if start is None else [start]
    (res,) = _bisect_lanes(fn, [lo], [hi], start=starts, **kwargs)
    return res, seen


def test_newton_converges_from_a_good_start():
    # bisection of [1, 2] to rtol 1e-12 takes 40 points
    root, seen = _newton_lanes(lambda t: t * t - 2.0, lambda t: 2.0 * t,
                               1.0, 2.0, start=1.4)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert len(seen) <= 6
    assert seen[:3] == [1.0, 2.0, 1.4]


@pytest.mark.parametrize("r,asked", [(0.5 + 1e-14, [0.5]),
                                     (1.0 - 1e-14, [0.5, 1.0])])
def test_root_at_a_bracket_end_stops_there(r, asked):
    # a root within rtol of an end ends the lane at that end's Newton
    # point, before any interior point is asked for
    root, seen = _newton_lanes(lambda t: t - r, lambda t: 1.0, 0.5, 1.0,
                               start=0.75)
    assert seen == asked
    assert root == r


def test_newton_points_leave_the_bracket_for_the_midpoint():
    # atan's Newton steps from far out overshoot; every point asked for
    # stays inside the bracket, and the lane still converges
    def f(t):
        return math.atan(t - 0.3)

    def df(t):
        return 1.0 / (1.0 + (t - 0.3) ** 2)

    for start in (9.9, math.nan, None, 10.0):
        root, seen = _newton_lanes(f, df, -10.0, 10.0, start=start)
        assert root == pytest.approx(0.3, rel=1e-12)
        assert all(-10.0 <= t <= 10.0 for t in seen)
        if start is None or not -10.0 < start < 10.0:
            assert seen[2] == 0.0   # the midpoint


def test_newton_lanes_run_out_of_rounds():
    # nan steps leave only halvings; 3 do not reach rtol on [0, 5]
    root, _ = _newton_lanes(lambda t: math.exp(t) - 3.0, lambda t: math.nan,
                            0.0, 5.0, start=1.0, max_iter=3)
    assert isinstance(root, ConvergenceError)
