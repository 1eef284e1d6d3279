"""Every quadrature call ends.

A fuzz of ``integrate``, ``integrate_singular_left``,
``integrate_to_infinity`` and ``build_tau`` on integrands that overflow,
underflow or turn nan near an end, at endpoints down to the subnormal
range, and one regression test per input that once hung, leaked a
warning or named no panel.  Each call runs under ``_bounded``: the one
GK15 step counts the panels it samples and fails past the call's stated
bound, so a loop that would not end fails instead of hanging.
"""
import contextlib
import json
import math
import struct
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference
from odeuniq import cli, quadrature, reparam
from odeuniq.expr import parse
from odeuniq.quadrature import (
    DEFAULT_BUDGET, PANEL_BUDGET, IntegrandError, QuadResult, integrate,
    integrate_singular_left, integrate_to_infinity)
from odeuniq.reparam import ReparamError, build_tau


# ---------------------------------------------------------------------------
# panel bounds

def _integrate_bound(budget: int) -> int:
    """``integrate``: its first step, one more ask of a non-finite first
    pair, and two panels per split, of which there are below ``budget``."""
    return 2 * budget


def _improper_bound(n_panels: int) -> int:
    """An improper driver on ``n_panels`` base panels: each is sampled once
    and redone at most once, as a lane of at most 2*PANEL_BUDGET panels."""
    return n_panels * (1 + 2 * PANEL_BUDGET)


def _singular_bound(b: float) -> int:
    # the base panels above 2^-1022 from b = m*2^e: at most 2045
    return _improper_bound(math.frexp(b)[1] + 1021)


_TO_INFINITY_BOUND = _improper_bound(1024)  # the widths w*2^k, k < 1024


def _build_tau_bound(T: float) -> int:
    """399 table segments, each an ``integrate``, and tau_plus at T."""
    return (reparam._TAU_NODES - 1) * _integrate_bound(DEFAULT_BUDGET) \
        + _singular_bound(T)


@contextlib.contextmanager
def _bounded(limit: int, source: str | None = None):
    """Count the panels every GK15 step samples, failing once there are more
    than ``limit``; require that no warning leaks (from the file ``source``
    alone, if given)."""
    count = [0]
    rule = quadrature._gk15_rule

    def counted(sample, lo, hi):
        count[0] += lo.size
        if count[0] > limit:
            raise AssertionError(f"more than {limit} panels")
        return rule(sample, lo, hi)

    with mock.patch.object(quadrature, "_gk15_rule", counted), \
            mock.patch.object(reparam, "_gk15_rule", counted), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert [str(w.message) for w in caught
            if source in (None, w.filename)] == []


def _outcome(fn, *args, **kwargs):
    """A QuadResult as exact bits, or an IntegrandError's message and where.
    No result converges on a non-finite value or error."""
    try:
        res = fn(*args, **kwargs)
    except IntegrandError as exc:
        return ("IntegrandError", str(exc), struct.pack("<d", exc.where))
    assert isinstance(res, QuadResult)
    assert not res.converged or (math.isfinite(res.value)
                                 and math.isfinite(res.abs_error_estimate))
    return (struct.pack("<dd", res.value, res.abs_error_estimate),
            res.converged, res.diverged, res.subdivisions)


def _oracle(fn, *args, **kwargs):
    """``_outcome`` of a scalar loop, which samples outside errstate."""
    with np.errstate(all="ignore"):
        return _outcome(fn, *args, **kwargs)


# ---------------------------------------------------------------------------
# fuzz

# |x| = m*2^e from the subnormal range to the largest float, and the edges
_magnitude = st.one_of(
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
              st.integers(-1074, 1024)),
    st.sampled_from([5e-324, 2.0**-1022, 2.0**-1021, 2.0**-1020,
                     math.nextafter(2.0**-1020, 0.0), 1.0, 1.5e308,
                     1.7e308]))
_end = st.one_of(_magnitude, _magnitude.map(lambda x: -x),
                 st.sampled_from([0.0, -0.0]))


@st.composite
def _integrand(draw):
    """(label, g, lambda): an array integrand g and the gauge lambda = 1/g
    that ``build_tau`` integrates in its place."""
    kind = draw(st.sampled_from(["power", "exp", "pole", "log", "const"]))
    if kind == "power":
        p = draw(st.floats(0.0, 1.2, exclude_min=True, exclude_max=True))
        return f"w^-{p!r}", lambda w: w**-p, f"t^{p!r}"
    if kind == "exp":
        return "exp(1/w)", lambda w: np.exp(1.0 / w), "exp(-1/t)"
    if kind == "pole":
        c = draw(st.one_of(st.floats(-1.0, 2.0), _magnitude))
        return f"1/(w - {c!r})", lambda w: 1.0 / (w - c), f"t - {c!r}"
    if kind == "log":
        return "log(w)^-2", lambda w: np.log(w) ** -2.0, "log(t)^2"
    c = draw(_magnitude) * draw(st.sampled_from([1.0, -1.0]))
    return f"{c!r}", lambda w: c + 0.0 * w, f"1/({c!r})"


def _scalar(x, numpy_scalar: bool):
    return np.float64(x) if numpy_scalar else x


# max_examples per target: 40, 30, 40 and 20; the file adds 3-7 s to Tier-1
# on a 2-core x86-64 host, most of it the scalar oracle
@given(_integrand(), _end, _end, st.sampled_from([1e-10, 1e-14]),
       st.sampled_from([50, 1000]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_fuzz_integrate(integrand, a, b, tol, budget, numpy_scalar):
    _, g, _ = integrand
    with _bounded(_integrate_bound(budget)):
        got = _outcome(integrate, g, _scalar(a, numpy_scalar),
                       _scalar(b, numpy_scalar), tol, budget)
    assert got == _oracle(scalar_reference.integrate, g, a, b, tol, budget)


@given(_integrand(), _magnitude, st.sampled_from([1e-10, 1e-12]),
       st.booleans())
@settings(max_examples=30, deadline=None)
def test_fuzz_singular_left(integrand, b, tol, numpy_scalar):
    _, g, _ = integrand
    if b < 2.0**-1020:  # fewer than two base panels above 2^-1022
        with pytest.raises(ValueError):
            integrate_singular_left(g, _scalar(b, numpy_scalar), tol)
        return
    with _bounded(_singular_bound(b)):
        got = _outcome(integrate_singular_left, g, _scalar(b, numpy_scalar),
                       tol)
    assert got == _oracle(scalar_reference.singular_left, g, b, tol)


def _finite_panels(a: float) -> int:
    """The doubling panels from a whose right ends are finite, up to 1024."""
    lo, width, n = a, max(1.0, a, -a * 2.0**-52), 0
    while n < 1024 and math.isfinite(lo + width):
        lo, width, n = lo + width, width * 2.0, n + 1
    return n


@given(_integrand(), _end, st.sampled_from([1e-8, 1e-12]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_fuzz_to_infinity(integrand, a, tol, numpy_scalar):
    _, g, _ = integrand
    if _finite_panels(a) == 0:
        with pytest.raises(ValueError, match="no finite first panel"):
            integrate_to_infinity(g, _scalar(a, numpy_scalar), tol)
        return
    with _bounded(_TO_INFINITY_BOUND):
        got = _outcome(integrate_to_infinity, g, _scalar(a, numpy_scalar),
                       tol)
    assert got == _oracle(scalar_reference.to_infinity, g, a, tol,
                          max_panels=_finite_panels(a))


def _tau_outcome(fn, lam, T):
    """tau_plus and the tables as exact bits, or the error's message."""
    try:
        rep = fn(lam, T)
    except (ReparamError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (struct.pack("<d", rep.tau_plus), rep.t_table.tobytes(),
            rep.tau_table.tobytes())


@given(_integrand(), _magnitude)
@settings(max_examples=20, deadline=None)
def test_fuzz_build_tau(integrand, T):
    lam = parse(integrand[2], {"t"})
    # the tau table's spline warns on its own for a T near the subnormal
    # range; the quadrature under it leaks nothing
    with _bounded(_build_tau_bound(T), source=quadrature.__file__):
        got = _tau_outcome(build_tau, lam, T)
    with np.errstate(all="ignore"):
        assert got == _tau_outcome(scalar_reference.build_tau, lam, T)


# ---------------------------------------------------------------------------
# regression inputs, each within a second

@contextlib.contextmanager
def _within(seconds: float, limit: int):
    start = time.perf_counter()
    with _bounded(limit):
        yield
    assert time.perf_counter() - start < seconds


@pytest.mark.parametrize("p,value", [
    (0.97, 33.33), (0.975, 40.00), (0.98, 50.00), (0.985, 66.67),
    (0.99, 99.92), (0.995, 194.2), (0.999, 507.6)])
def test_near_critical_power_ends_unconverged_at_the_floor(p, value):
    # int_0^1 w^-p = 1/(1 - p): the tail is too slow to classify before
    # the last base panel above 2^-1022, so each ends there unconverged
    # (these once hung or raised near the subnormal range)
    with _within(1.0, _singular_bound(1.0)):
        res = integrate_singular_left(lambda w: w**-p, 1.0)
    assert (res.converged, res.diverged, res.subdivisions) == \
        (False, False, 1022)
    assert round(res.value, 2 if value < 100 else 1) == value
    assert res.value < 1.0 / (1.0 - p)


def test_overflowing_panel_sum_names_the_panel():
    # every sample is finite; the rule sum of 1.5e308 overflows
    with _within(1.0, _integrate_bound(DEFAULT_BUDGET)):
        with pytest.raises(IntegrandError) as exc:
            integrate(lambda x: 1.5e308 + 0 * x, 0, 1)
    assert str(exc.value) == "panel sum overflows on [0.0, 1.0]"
    assert exc.value.where == 0.0


def test_near_critical_gauge_has_no_tau_plus():
    with _within(1.0, _build_tau_bound(1.0)):
        with pytest.raises(ReparamError, match="could not classify"):
            build_tau(parse("t^0.99", {"t"}), 1.0)


def test_reparam_on_near_critical_gauge_exits_one(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"f": "0", "u": "t", "v": "t",
                                   "lambda": "t^0.99", "omega": "r"}))
    # the command fails on build_tau's tau_plus, its first integral
    with _within(1.0, _build_tau_bound(1.0)):
        code = cli.main(["reparam", "--problem", str(problem),
                         "--out", str(tmp_path / "rep.json")])
    assert code == 1
    assert "could not classify" in capsys.readouterr().err


def test_numpy_scalar_endpoints_leak_no_warning():
    # half the nodes sample 1e308: the right half's rule sum overflows
    with _within(1.0, _integrate_bound(DEFAULT_BUDGET)):
        with pytest.raises(IntegrandError,
                           match=r"panel sum overflows on \[0.5, 1.0\]"):
            integrate(lambda x: np.where(x > 0.5, 1e308, 0.0),
                      np.float64(0), np.float64(1))


def test_overflowing_midpoint_leaks_no_warning():
    # 1e308 + 1.7e308 overflows: the midpoint is inf, and so every node
    with _within(1.0, _integrate_bound(DEFAULT_BUDGET)):
        with pytest.raises(IntegrandError, match="x=inf"):
            integrate(lambda x: 1 + 0 * x, 1e308, 1.7e308)


@pytest.mark.parametrize("b", [math.nextafter(2.0**-1020, 0.0), 2.0**-1021,
                               2.0**-1022, 5e-324, 0.0, -1.0, math.nan])
def test_base_below_two_panels_is_a_value_error(b):
    with _within(1.0, 0):
        with pytest.raises(ValueError):
            integrate_singular_left(lambda w: w**-0.5, b)
        with pytest.raises(ValueError):
            quadrature.sweep_singular_left(
                lambda x, idx: np.ones((idx.size,) + x.shape), [b, 1.0],
                [1e-10])


def test_lowest_base_takes_two_panels():
    # panels [2^-1021, 2^-1020] and [2^-1022, 2^-1021]: the tail test on
    # their ratio 1/2 extrapolates the rest of the integral of 1
    with _within(1.0, _singular_bound(2.0**-1020)):
        res = integrate_singular_left(lambda w: np.ones_like(w), 2.0**-1020)
    assert (res.converged, res.subdivisions) == (True, 2)
    assert res.value == pytest.approx(2.0**-1020, rel=1e-15)
