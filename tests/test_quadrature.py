"""Adaptive quadrature against closed-form oracles."""
import builtins
import json
import math
import struct
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import scalar_reference
from odeuniq import criteria, quadrature, reparam
from odeuniq.expr import parse
from odeuniq.quadrature import (
    _W_GAUSS,
    _W_KRONROD,
    _W_PAIR,
    DEFAULT_BUDGET,
    DIVERGENCE_SUM_THRESHOLD,
    IntegrandError,
    _integrate_lanes,
    integrate,
    integrate_singular_left,
    integrate_to_infinity,
    sweep_singular_left,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# (integrand, a, b, exact) closed-form proper integrals
PROPER_CASES = [
    (lambda w: w**2, 0.0, 1.0, 1.0 / 3.0),
    (lambda w: np.sin(w), 0.0, math.pi, 2.0),
    (lambda w: 1.0 / (1.0 + w**2), 0.0, 1.0, math.pi / 4.0),
    (lambda w: np.exp(w), 0.0, 1.0, math.e - 1.0),
    (lambda w: np.cos(10 * w), 0.0, 1.0, math.sin(10.0) / 10.0),
]


@pytest.mark.parametrize("g,a,b,exact", PROPER_CASES)
def test_proper_integrals(g, a, b, exact):
    res = integrate(g, a, b, tol=1e-12)
    assert res.converged and not res.diverged
    assert res.value == pytest.approx(exact, rel=1e-10)


SINGULAR_CASES = [
    (lambda w: w**-0.5, 1.0, 2.0),
    (lambda w: w**-0.9, 1.0, 10.0),
    (lambda w: np.log(1.0 / w), 1.0, 1.0),
    (lambda w: 1.0 / np.sqrt(w) + w, 1.0, 2.5),
]


@pytest.mark.parametrize("g,b,exact", SINGULAR_CASES)
def test_singular_left_endpoint(g, b, exact):
    res = integrate_singular_left(g, b, tol=1e-12)
    assert res.converged and not res.diverged
    assert res.value == pytest.approx(exact, rel=1e-8)


DIVERGENT_CASES = [
    lambda w: 1.0 / w,
    lambda w: w**-1.5,
    lambda w: 1.0 / (w * np.maximum(np.log(1.0 / w), 1e-300)),
]


@pytest.mark.parametrize("g", DIVERGENT_CASES)
def test_divergent_singular_integrals_flagged(g):
    res = integrate_singular_left(g, 1.0, tol=1e-10)
    assert res.diverged and not res.converged


def test_tail_integrals():
    res = integrate_to_infinity(lambda s: np.exp(-s), 0.0, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-10)
    res = integrate_to_infinity(lambda s: s * np.exp(-s), 0.0, tol=1e-12)
    assert res.value == pytest.approx(1.0, rel=1e-8)
    res = integrate_to_infinity(lambda s: 1.0 / s**2, 1.0, tol=1e-12)
    assert res.value == pytest.approx(1.0, rel=1e-8)


def test_tail_divergence_flagged():
    res = integrate_to_infinity(lambda s: 1.0 / s, 1.0, tol=1e-10)
    assert res.diverged and not res.converged


def test_orientation():
    a = integrate(lambda w: w, 0.0, 1.0, tol=1e-12).value
    b = integrate(lambda w: w, 1.0, 0.0, tol=1e-12).value
    assert b == pytest.approx(-a)


def test_nonfinite_integrand_raises():
    with pytest.raises(IntegrandError):
        integrate(lambda w: np.full_like(np.asarray(w, dtype=float), np.nan),
                  0.0, 1.0)


@pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at_a", [True, False], ids=["a", "b"])
def test_nonfinite_endpoint_raises(end, at_a):
    a, b = (end, 1.0) if at_a else (1.0, end)
    name = f"{'a' if at_a else 'b'}={end!r}"
    calls = []

    def g(w):
        calls.append(w)
        return np.cos(w)

    # the endpoints are checked before g is sampled
    with pytest.raises(ValueError, match=f"endpoint {name}"):
        integrate(g, a, b)
    assert calls == []


def test_error_estimate_bounds_true_error():
    res = integrate(lambda w: np.sin(w), 0.0, math.pi, tol=1e-10)
    assert abs(res.value - 2.0) <= max(res.abs_error_estimate * 10, 1e-12)


@given(st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=2.1, max_value=5.0),
       st.floats(min_value=2.1, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_interval_additivity(a, mid, c):
    b = max(mid, c)
    m = min(mid, c)
    g = lambda w: np.exp(-w) * w  # noqa: E731
    whole = integrate(g, a, b, tol=1e-12).value
    parts = integrate(g, a, m, tol=1e-12).value + integrate(g, m, b, tol=1e-12).value
    assert whole == pytest.approx(parts, abs=1e-10)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=30, deadline=None)
def test_power_singularity_family(p):
    # int_0^1 w^-p dw = 1/(1-p) for p < 1
    res = integrate_singular_left(lambda w: w**-p, 1.0, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(1.0 / (1.0 - p), rel=1e-8)


# ---------------------------------------------------------------------------
# batched sweep against the panel-by-panel loops

def _octave_staircase(w):
    """3 or 6 (by the parity of e) times 2^-e on each octave [2^e, 2^(e+1)]:
    each geometric panel contributes exactly 3 or 6 in turn, with GK15 error
    0, so no tail test ever ends the loop."""
    e = np.floor(np.log2(w))
    return np.where(e % 2 == 0, 3.0, 6.0) * np.exp2(-e)


# (integrand, b) at tol 1e-12 that end the loop other than by a tail test
# on accepted values
END_CASES = [
    # a failed redo before the first test end: the provisional tail of w^-0.5
    # ends at panel 23, and the redo of the nan octave 5 raises
    (lambda w: np.where((w > 2.0**-6) & (w < 2.0**-5), np.nan, w**-0.5), 1.0),
    # a provisional divergent end on the infinite first pass of panel 10: it
    # is redone, and raises
    (lambda w: np.where(w < 2.0**-10.5, np.inf, w**-0.5), 1.0),
    # the same at panel 67 of 1/(w + 1e-8), whose accepted values converge
    # at panel 66: the failed redo is never reached
    (lambda w: np.where(w < 2.0**-67.5, np.inf, 1.0 / (w + 1e-8)), 1.0),
    # the panels run out, unconverged, at MAX_PANELS (from b = 2^996 they
    # stay normal floats)
    (_octave_staircase, 2.0**996),
]


@pytest.mark.parametrize("g,b", [(g, b) for g, b, _ in SINGULAR_CASES]
                         + [(g, 1.0) for g in DIVERGENT_CASES] + END_CASES)
def test_singular_left_matches_panel_loop(g, b):
    # integrate_singular_left is the one-member sweep; the loop it replaced
    # takes the same panels, and a panel the batch accepts has the bits of
    # integrate on it, so the result, or the error the loop met, agrees bit
    # for bit
    assert _outcome(integrate_singular_left, g, b, tol=1e-12) == \
        _outcome(scalar_reference.singular_left, g, b, tol=1e-12)


def test_negative_zero_panels_sum_to_zero():
    # the loop adds each panel to a total that starts at 0.0, so panels of
    # -0.0 end in the zero-contribution test with the value 0.0, not -0.0
    def g(w):
        return np.full_like(w, -0.0)

    res = integrate_singular_left(g, 1.0, tol=1e-12)
    assert _bits(res) == _bits(scalar_reference.singular_left(g, 1.0, 1e-12))
    assert res.converged and math.copysign(1.0, res.value) == 1.0


def _power_family(powers):
    powers = np.asarray(powers, dtype=float)

    def family(x, members):
        return x[None] ** -powers[members].reshape((-1,) + (1,) * x.ndim)

    return family, [lambda w, p=p: w ** -p for p in powers]


def test_sweep_matches_panel_loop():
    powers = [0.0, 0.3, 0.7, 0.95]
    family, members = _power_family(powers)
    grid = np.geomspace(1e-6, 1.0, 40)
    tols = [1e-12, 1e-10, 1e-12, 1e-11]
    sweeps = sweep_singular_left(family, grid, tols)
    assert len(sweeps) == len(powers)
    for s, g, tol, p in zip(sweeps, members, tols, powers):
        base, values, converged = scalar_reference.sweep(g, grid, tol)
        assert _bits(s.base) == _bits(base)
        np.testing.assert_array_equal(s.converged, converged)
        assert s.values.tobytes() == values.tobytes()
        np.testing.assert_allclose(s.values, grid ** (1 - p) / (1 - p),
                                   rtol=1e-9)
    # members that end in every way, in one lockstep: the capped tail, a
    # failed redo that raises, the non-decreasing run, the sum threshold and
    # a failed redo never reached
    members = [lambda w: w**-0.5, END_CASES[0][0], *DIVERGENT_CASES[:2],
               END_CASES[2][0]]
    grid = np.array([1.0, 1.5, 2.0])
    sweeps = sweep_singular_left(
        lambda x, idx: np.stack([members[i](x) for i in idx]), grid,
        [1e-12] * len(members))
    for g, s in zip(members, sweeps):
        try:
            base, values, converged = scalar_reference.sweep(g, grid, 1e-12)
        except IntegrandError as exc:
            assert g is members[1]
            assert _lane_outcome(s) == _lane_outcome(exc)
            continue
        assert _bits(s.base) == _bits(base)
        if base.diverged:  # the loop integrated no segment
            assert not s.converged.any() and np.isnan(s.values[1:]).all()
        else:
            np.testing.assert_array_equal(s.converged, converged)
            assert s.values.tobytes() == values.tobytes()


def _divergent_and_nonfinite():
    """Member 'div' diverges at 0+; member 'nan' has non-finite samples on
    the last grid segment only."""
    fns = {"div": lambda w: 1.0 / w,
           "nan": lambda w: np.where(w > 0.6, np.nan, 1.0)}
    return fns


@pytest.mark.parametrize("order", [("div", "nan"), ("nan", "div")])
def test_sweep_reports_in_member_order(order):
    fns = _divergent_and_nonfinite()
    members = [fns[name] for name in order]

    def family(x, idx):
        return np.stack([members[i](x) for i in idx])

    grid = np.array([0.25, 0.5, 1.0])
    # each member's result sits at its own index, whatever the other's is
    got = dict(zip(order, sweep_singular_left(family, grid, [1e-10, 1e-10])))
    ref = scalar_reference.singular_left(fns["div"], 0.25, 1e-10)
    assert got["div"].base.diverged and ref.diverged
    assert got["div"].base.subdivisions == ref.subdivisions
    assert not got["div"].converged.any()
    assert np.isnan(got["div"].values[1:]).all()
    with pytest.raises(IntegrandError) as exc:
        scalar_reference.sweep(fns["nan"], grid, 1e-10)
    assert _lane_outcome(got["nan"]) == _lane_outcome(exc.value)


def test_rejected_panel_past_the_stop_does_not_raise():
    # int_0+^1 of 1 converges after about 34 geometric panels; panels below
    # w = 1e-14 (k >= 46, inside the first chunk of 64) have nan samples,
    # so the batch rejects them and redoes them, but _tail_driver never
    # asks for them, and neither did the panel-by-panel loop
    def g(w):
        return np.where(w < 1e-14, np.nan, 1.0)

    res = integrate_singular_left(g, 1.0, tol=1e-10)
    ref = scalar_reference.singular_left(g, 1.0, tol=1e-10)
    assert res.converged and res.subdivisions < 46
    assert res.subdivisions == ref.subdivisions
    assert res.value == pytest.approx(1.0, rel=1e-12)


def _count_lanes(monkeypatch):
    """The number of panels of each call of the lane integrator, which
    redoes the panels that one GK15 step does not settle."""
    calls = []
    lanes = quadrature._integrate_lanes

    def counted(g, a, b, tol, budget, firsts):
        calls.append(len(a))
        return lanes(g, a, b, tol, budget, firsts)

    monkeypatch.setattr(quadrature, "_integrate_lanes", counted)
    monkeypatch.setattr(quadrature, "integrate", None)  # no one-lane redo
    return calls


def test_rejected_base_panels_redone_once_per_chunk(monkeypatch):
    # GK15 never meets the panel tolerance on 1/w: every base panel is
    # rejected; the provisional stream of first-pass values ends in the
    # divergence run inside the first chunk, so no panel is redone (63 of
    # 64 were, in one lane call, before the stream was provisional)
    calls = _count_lanes(monkeypatch)
    g = DIVERGENT_CASES[0]
    res = integrate_singular_left(g, 1.0, tol=1e-10)
    ref = scalar_reference.singular_left(g, 1.0, tol=1e-10)
    assert res.diverged and res.subdivisions == ref.subdivisions
    assert calls == []


def _inv_lambda_of_u(u):
    """1/lambda for the gauge lambda = u/u' of Constantin's reduction, the
    integrand of build_tau's tau_plus."""
    _, lam = criteria.reduce_to_constantin(parse(u, {"t"}))
    return reparam._inv_lam_fn(lam)


@pytest.mark.parametrize("g", [
    lambda w: w**-1.5,
    _inv_lambda_of_u("t^1.652*exp(t)"),
], ids=["w^-1.5", "u=t^1.652*exp(t)"])
def test_divergent_tail_redoes_no_panel(g, monkeypatch):
    # as 1/w above: w^-1.5 ends past the sum threshold, and 1/lambda =
    # 1.652/t + 1 shrinks toward 1.652*log 2 per panel and ends in the
    # non-decreasing run inside the second chunk.  Each stays divergent on
    # first-pass values alone, and no panel is redone
    calls = _count_lanes(monkeypatch)
    res = integrate_singular_left(g, 1.0, tol=1e-10)
    assert res.diverged and not res.converged
    assert calls == []


@pytest.mark.parametrize("tol,lanes", [(1e-10, [24]), (1e-12, [27])])
def test_plateau_converges_with_the_eager_bits(tol, lanes, monkeypatch):
    # 1/(w + 1e-8) gives nearly log 2 on each panel for 27 octaves, every
    # one a little less than the last (so no divergence run), then halves
    # and converges to log1p(1e8).  The panels that one GK15 step rejects
    # are redone once, up to the end, as one lane batch (at 1e-12 the end
    # lies in the second chunk, past the first's rejected panels), and the
    # result has the bits of the loop that redid each panel as it read it
    calls = _count_lanes(monkeypatch)

    def g(w):
        return 1.0 / (w + 1e-8)

    res = integrate_singular_left(g, 1.0, tol=tol)
    assert res.converged
    assert res.value == pytest.approx(math.log1p(1e8), rel=1e-14)
    assert _bits(res) == _bits(
        scalar_reference.singular_left(g, 1.0, tol, eager=True))
    assert calls == lanes


@pytest.mark.parametrize("name", ["tx", "linear"])
def test_sweep_redoes_only_rejected_panels(name, monkeypatch):
    # H2's eps members run in lockstep: a member's panels go to the lane
    # integrator only when one GK15 step rejects them, and a member with no
    # rejected panel costs no lane call (tx has none, linear some).  Each
    # lane starts from the batch's first GK15 step on its panel, which has
    # the bits of that step on the member alone
    calls = []
    lanes = quadrature._integrate_lanes

    def counted(g, a, b, tol, budget, firsts):
        firsts = list(firsts)
        calls.append((g, a, b, tol, firsts))
        return lanes(g, a, b, tol, budget, firsts)

    monkeypatch.setattr(quadrature, "_integrate_lanes", counted)
    raw = json.loads((CORPUS / f"{name}.json").read_text())
    p = criteria.reduce_problem(criteria.ProblemSpec.from_dict(raw))
    assert criteria._h2_hypothesis(p, criteria.CheckConfig()).passed
    assert (len(calls) == 0) == (name == "tx")
    for g, a, b, tol, firsts in calls:
        assert len(a) > 0
        for ai, bi, ti, first in zip(a, b, tol, firsts):
            k, err = scalar_reference._gk15(g, ai, bi)
            assert not (err <= ti and abs(k) <= DIVERGENCE_SUM_THRESHOLD)
            assert struct.pack("<dd", k, err) == struct.pack("<dd", *first)


def test_no_rejected_panel_is_sampled_twice(monkeypatch):
    # a lane starts from the first GK15 step that rejected its panel: during
    # H2 on linear, no lane whose first value is finite asks _gk15_panels
    # for its whole interval again
    wholes, asks = set(), set()
    lanes, panels = quadrature._integrate_lanes, quadrature._gk15_panels

    def counted_lanes(g, a, b, tol, budget, firsts):
        firsts = list(firsts)
        wholes.update((ai, bi) for ai, bi, (k, _) in zip(a, b, firsts)
                      if math.isfinite(k))
        return lanes(g, a, b, tol, budget, firsts)

    def counted_panels(g, lane_asks):
        asks.update(panel for lane in lane_asks for panel in lane)
        return panels(g, lane_asks)

    monkeypatch.setattr(quadrature, "_integrate_lanes", counted_lanes)
    monkeypatch.setattr(quadrature, "_gk15_panels", counted_panels)
    raw = json.loads((CORPUS / "linear.json").read_text())
    p = criteria.reduce_problem(criteria.ProblemSpec.from_dict(raw))
    assert criteria._h2_hypothesis(p, criteria.CheckConfig()).passed
    assert wholes and asks  # some panels were redone, by their halves
    assert not wholes & asks


# (integrand, a): converged on the first chunk, divergent, redone panels,
# a non-finite sample past the driver's stop and one that it reaches
TAIL_CASES = [
    (lambda s: np.exp(-s), 0.0),
    (lambda s: s * np.exp(-s), 0.0),
    (lambda s: 1.0 / s**2, 1.0),
    (lambda s: s**-1.1, 1.0),
    (lambda s: 1.0 / s, 1.0),
    (lambda s: np.sin(s) * np.exp(-0.1 * s), -3.0),
    (lambda s: np.where(s > 1e9, np.nan, np.exp(-s)), 0.0),
    (lambda s: np.where(s > 100.0, np.nan, 1.0 / s), 1.0),
]


def _doubling_staircase(x):
    """3 or -6 (by the parity of k) times 2^-k on [2^k - 1, 2^(k+1) - 1]:
    each doubling panel from 0 contributes exactly 3 or -6 in turn, with
    GK15 error 0, so no tail test ever ends the loop."""
    k = np.floor(np.log2(x + 1.0))
    return np.where(k % 2 == 0, 3.0, -6.0) * np.exp2(-k)


@pytest.mark.parametrize("g,a", TAIL_CASES + [(_doubling_staircase, 0.0)])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_to_infinity_matches_panel_loop(g, a, tol):
    # the doubling panels run through the sweep's batch and lane redo; the
    # result, or the error the loop met, has the loop's bits.  From a near
    # 0, panel 1023 would end at 2^1024, which overflows, so the driver
    # stops before it, and the staircase runs out there unconverged
    assert _outcome(integrate_to_infinity, g, a, tol) == \
        _outcome(scalar_reference.to_infinity, g, a, tol, max_panels=1023)


@pytest.mark.parametrize("loop,g,end", [
    *[(scalar_reference.singular_left, g, b) for g, b, _ in SINGULAR_CASES],
    *[(scalar_reference.singular_left, g, 1.0) for g in DIVERGENT_CASES[::2]],
    (scalar_reference.singular_left, lambda w: 1.0 / (w + 1e-8), 1.0),
    *[(scalar_reference.to_infinity, g, a) for g, a in TAIL_CASES]])
def test_provisional_stream_keeps_the_eager_result(loop, g, end):
    # reading first-pass values first moves no convergent or unconverged
    # result by a bit, raises the same errors and flips no flag, against
    # the loop that redid every rejected panel as it read it
    lazy = _outcome(loop, g, end, 1e-12)
    eager = _outcome(loop, g, end, 1e-12, eager=True)
    if eager[0] != "IntegrandError" and eager[2]:  # diverged
        assert lazy[0] != "IntegrandError" and lazy[2]
    else:
        assert lazy == eager


def test_to_infinity_stops_where_the_panels_overflow():
    # contributions 1, -2, 1, -2, ... neither converge nor diverge; panel
    # 1023 would end at 2^1024, which overflows, so the driver stops before
    # it, unconverged (the panel loop raised on the infinite endpoint)
    def g(x):
        k = np.floor(np.log2(x + 1.0))
        return np.where(k % 2 == 0, 1.0, -2.0) * np.exp2(-k)

    res = integrate_to_infinity(g, 0.0, tol=1e-3)
    assert (res.converged, res.diverged, res.subdivisions) == \
        (False, False, 1023)
    assert res.value == pytest.approx(512 - 2 * 511, rel=1e-12)


def test_slow_tail_raises_without_warning():
    # x^-0.97 overflows near x = 1.3e-318, where the geometric panels reach;
    # the sweep reports the non-finite sample, and no RuntimeWarning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrandError) as exc:
            integrate_singular_left(lambda x: x**-0.97, 1.0)
    assert 0.0 < exc.value.where < 1e-317


def test_sweep_rejects_bad_grid():
    family, _ = _power_family([0.5])
    for grid in ([0.0, 1.0], [0.5, 0.5, 1.0], [1.0, 0.5]):
        with pytest.raises(ValueError):
            sweep_singular_left(family, grid, [1e-10])


# ---------------------------------------------------------------------------
# lane integrator against the one-interval loop

def _bits(res):
    """A QuadResult as exact bits: -0.0, nan and every ulp count."""
    return (struct.pack("<dd", res.value, res.abs_error_estimate),
            res.converged, res.diverged, res.subdivisions)


def _lane_outcome(res):
    """A QuadResult's bits, or an IntegrandError's message and where."""
    if isinstance(res, IntegrandError):
        return ("IntegrandError", str(res), struct.pack("<d", res.where))
    return _bits(res)


def _lanes(g, a, b, tol, budget=DEFAULT_BUDGET):
    """The lane integrator on the intervals a[i] < b[i], each lane from its
    panel's GK15 step in one batched first pass, as its callers start it."""
    k, err = quadrature._gk15_rule(lambda x: quadrature._sample(g, x),
                                   np.array(a, dtype=float),
                                   np.array(b, dtype=float))
    return _integrate_lanes(g, a, b, tol, budget,
                            zip(k.tolist(), err.tolist()))


def _outcome(fn, *args, **kwargs):
    try:
        res = fn(*args, **kwargs)
    except IntegrandError as exc:
        res = exc
    return _lane_outcome(res)


_HOLE = 0.3  # the non-finite integrands are nan within 0.02 of this point

LANE_INTEGRANDS = {
    "smooth": lambda w: np.exp(-w) * np.cos(3.0 * w),
    "oscillating": lambda w: np.exp(w) * np.sin(30.0 * w),
    "inv_sqrt": lambda w: 1.0 / np.sqrt(np.abs(w)),
    "inv": lambda w: 1.0 / w,
    "log": lambda w: np.log(np.abs(w)),
    "hole": lambda w: np.where(np.abs(w - _HOLE) < 0.02, np.nan, np.cos(w)),
}

_ends = st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, -0.0, _HOLE]))


@st.composite
def _lane_interval(draw):
    kind = draw(st.sampled_from(["any", "zero", "sub_ulp", "reversed"]))
    a = draw(_ends)
    if kind == "zero":
        return a, a
    if kind == "sub_ulp":
        b = a
        for _ in range(draw(st.integers(1, 3))):
            b = math.nextafter(b, math.inf)
        return (a, b) if draw(st.booleans()) else (b, a)
    b = draw(_ends)
    return (max(a, b), min(a, b)) if kind == "reversed" else (a, b)


@given(st.sampled_from(sorted(LANE_INTEGRANDS)),
       st.lists(st.tuples(_lane_interval(),
                          st.sampled_from([1e-1, 1e-3, 1e-6, 1e-10, 1e-14])),
                min_size=1, max_size=6),
       st.one_of(st.sampled_from([1, 2]), st.integers(3, 40),
                 st.just(DEFAULT_BUDGET)),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_lanes_match_scalar_integrate(name, lanes, budget, own_tol):
    # loose tolerances end lanes on their first panel and tight ones split
    # them, in one batch; every lane has the bits of the one-interval loop
    # at its tolerance (its own, or the first lane's for all).  The lanes
    # take the forward intervals of positive length; integrate takes each
    # interval as drawn
    g = LANE_INTEGRANDS[name]
    intervals, tols = zip(*lanes)
    if not own_tol:
        tols = (tols[0],) * len(tols)
    # 1/w does not converge on a panel that touches 0: keep the full
    # budget off those intervals, as each such lane takes 10^4 splits
    assume(not (name == "inv" and budget == DEFAULT_BUDGET
                and any(min(a, b) <= 0.0 <= max(a, b) for a, b in intervals)))
    forward = [(min(a, b), max(a, b), tol)
               for (a, b), tol in zip(intervals, tols) if a != b]
    with np.errstate(all="ignore"):
        for (ai, bi), tol in zip(intervals, tols):
            ref = _outcome(scalar_reference.integrate, g, ai, bi, tol, budget)
            assert _outcome(integrate, g, ai, bi, tol, budget) == ref
        if not forward:
            return
        a, b, tols = zip(*forward)
        for ai, bi, tol, res in zip(a, b, tols, _lanes(g, a, b, tols,
                                                       budget)):
            ref = _outcome(scalar_reference.integrate, g, ai, bi, tol, budget)
            assert _lane_outcome(res) == ref


def test_exhausted_budget_sums_the_heap_only_near_tol(monkeypatch):
    # 1/(|x - 4/3| + 1e-300) never meets tol = 1e-9 and takes the whole
    # budget of 10^4 splits.  The loop summed its heap at every split (about
    # 2 s here); the running error total takes that sum only when it lies
    # near tol, and the result keeps the loop's bits (scalar_reference's
    # integrate gives them too, in about 2 s, so they are pinned here)
    sums = []

    def counted(items, start=0):
        sums.append(1)
        return builtins.sum(items, start)

    monkeypatch.setattr(quadrature, "sum", counted, raising=False)
    t0 = time.perf_counter()
    res = integrate(lambda x: 1.0 / (np.abs(x - 4.0 / 3.0) + 1e-300),
                    1.0, 2.0, tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert (res.value.hex(), res.abs_error_estimate.hex(), res.converged,
            res.diverged, res.subdivisions) == (
        "0x1.247eee0830d77p+6", "0x1.c163d36258000p-26", False, False, 10_000)
    # the final reduction's two sums and a few of the heap's
    assert len(sums) <= 5
    assert elapsed < 1.0  # about 0.2 s on a 2-core x86-64 host


def test_lanes_report_errors_per_lane():
    g = LANE_INTEGRANDS["hole"]
    res = _lanes(g, [0.0, 0.0, 0.5], [1.0, 0.2, 1.0], [1e-10] * 3)
    assert isinstance(res[0], IntegrandError)
    assert res[0].where == pytest.approx(_HOLE, abs=0.02)
    assert res[1].converged and res[2].converged
    assert res[1].value == pytest.approx(math.sin(0.2), rel=1e-12)
    # an infinite sample: 1/w at the midpoint node of [-1, 1]
    with np.errstate(divide="ignore"):
        (inf_lane,) = _lanes(LANE_INTEGRANDS["inv"], [-1.0], [1.0], [1e-10])
        ref = _outcome(scalar_reference.integrate, LANE_INTEGRANDS["inv"],
                       -1.0, 1.0)
    assert _lane_outcome(inf_lane) == ref
    assert ref[0] == "IntegrandError" and inf_lane.where == 0.0


@pytest.mark.parametrize("w", [_W_KRONROD, _W_GAUSS])
def test_vecdot_rows_equal_dot(w):
    # the lane integrator reduces each panel with np.vecdot and must give
    # the bits of the one-panel rule's np.dot(W, y); a numpy or BLAS build
    # that breaks this would move reports, so it fails here instead
    rng = np.random.default_rng(5)
    row = 0 if w is _W_KRONROD else 1
    for shape in [(1, 15), (2, 15), (997, 15), (7, 3, 15)]:
        rows = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -30, 30, size=shape)
        want = np.array([np.dot(w, r) for r in rows.reshape(-1, 15)])
        assert np.vecdot(rows, w).ravel().tobytes() == want.tobytes()
        # the form the lane integrator uses: both weight vectors at once
        pair = np.vecdot(rows[..., None, :], _W_PAIR)[..., row]
        assert pair.ravel().tobytes() == want.tobytes()
