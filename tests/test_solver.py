"""Adaptive integrator, funnel probes and trajectory diagnostics."""
import math

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference
from odeuniq.cli import load_problem
from odeuniq.expr import parse
from odeuniq.solver import (
    SolverDomainError,
    _integrate_lanes,
    convergence_order,
    funnel_probe,
    integrate_ivp,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def f_expr(src):
    return parse(src, {"t", "x"})


# ---------------------------------------------------------------------------
# accuracy against closed-form solutions (x' = -f)

def test_exponential_decay():
    # f = x: x' = -x, x(t) = x0 * e^{-(t-t0)}
    traj = integrate_ivp(f_expr("x"), 0.0, 1.0, 2.0, rtol=1e-10, atol=1e-12)
    assert traj.status == "completed"
    assert traj.x_end == pytest.approx(math.exp(-2.0), rel=1e-8)


def test_driven_linear():
    # f = -t: x' = t, x(t) = x0 + (t^2 - t0^2)/2
    traj = integrate_ivp(f_expr("-t"), 1.0, 0.5, 3.0, rtol=1e-10, atol=1e-12)
    assert traj.x_end == pytest.approx(0.5 + (9.0 - 1.0) / 2.0, rel=1e-10)


def test_backward_integration():
    # start at t=2 with the exact forward value, integrate back to t=1
    x2 = math.exp(-1.0)
    traj = integrate_ivp(f_expr("x"), 2.0, x2, 1.0, rtol=1e-10, atol=1e-12)
    assert traj.status == "completed"
    assert traj.t_end == pytest.approx(1.0)
    assert traj.x_end == pytest.approx(1.0, rel=1e-8)


def test_time_reversal_consistency():
    traj_f = integrate_ivp(f_expr("t*x"), 0.5, 1.0, 1.5, rtol=1e-11, atol=1e-13)
    traj_b = integrate_ivp(f_expr("t*x"), 1.5, traj_f.x_end, 0.5,
                           rtol=1e-11, atol=1e-13)
    assert traj_b.x_end == pytest.approx(1.0, rel=1e-8)


def test_callable_rhs_accepted():
    traj = integrate_ivp(lambda t, x: x, 0.0, 1.0, 1.0, rtol=1e-10, atol=1e-12)
    assert traj.x_end == pytest.approx(math.exp(-1.0), rel=1e-8)


def test_dense_output_interpolation():
    traj = integrate_ivp(f_expr("x"), 0.0, 1.0, 2.0, rtol=1e-9, atol=1e-12)
    for tq in (0.3, 0.77, 1.5):
        assert traj.at(tq) == pytest.approx(math.exp(-tq), rel=1e-7)


def test_domain_error_surfaces():
    with pytest.raises(SolverDomainError):
        integrate_ivp(f_expr("sqrt(x - 2)"), 0.0, 1.0, 1.0)


def test_fixed_step_matches_adaptive():
    a = integrate_ivp(f_expr("x"), 0.0, 1.0, 1.0, fixed_step=1e-3)
    assert a.status == "completed"
    assert a.x_end == pytest.approx(math.exp(-1.0), rel=1e-10)


def test_convergence_order_is_fifth():
    order = convergence_order(f_expr("x"), 0.0, 1.0, 1.0,
                              exact=math.exp(-1.0))
    assert abs(order - 5.0) <= 0.5


# ---------------------------------------------------------------------------
# funnel probes

def test_funnel_peano_wide_basin():
    # f = -sqrt(|x|): x' = sqrt(|x|), solutions x = (t-c)^2/4 branch off 0,
    # so backward integration from a band of endpoints reaches zero
    rep = funnel_probe(f_expr("-sqrt(abs(x))"), T=1.0, n=201)
    assert np.count_nonzero(rep.reaches_zero) > 1
    assert rep.basin_width == pytest.approx(0.25, abs=0.03)


def test_funnel_lipschitz_narrow_basin():
    # f = x is Lipschitz: only the zero solution reaches the origin
    rep = funnel_probe(f_expr("x"), T=1.0, n=201)
    assert rep.basin_width <= 2.0 * rep.grid_spacing


def test_funnel_zero_field():
    rep = funnel_probe(f_expr("0"), T=1.0, n=201)
    assert rep.basin_width <= 2.0 * rep.grid_spacing
    assert rep.reaches_zero[100]  # the x(T) = 0 sample is the zero solution


def test_funnel_spread_curve_shape():
    rep = funnel_probe(f_expr("-sqrt(abs(x))"), T=1.0, n=101)
    assert len(rep.spread_curve) >= 4
    assert all(s >= 0.0 for _, s in rep.spread_curve)


# ---------------------------------------------------------------------------
# properties

@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=20, deadline=None)
def test_linear_field_closed_form(x0, span):
    traj = integrate_ivp(f_expr("x"), 0.0, x0, span, rtol=1e-9, atol=1e-12)
    assert traj.x_end == pytest.approx(x0 * math.exp(-span), rel=1e-6,
                                       abs=1e-10)


@given(st.floats(min_value=0.2, max_value=1.5))
@settings(max_examples=15, deadline=None)
def test_step_errors_within_budget(span):
    traj = integrate_ivp(f_expr("t*x"), 0.0, 1.0, span, rtol=1e-8, atol=1e-11)
    assert traj.status == "completed"
    # every accepted step's local error estimate fits the mixed tolerance
    budget = 1e-11 + 1e-8 * np.max(np.abs(traj.x))
    assert np.all(np.asarray(traj.step_errors) <= budget * (1 + 1e-12))


# ---------------------------------------------------------------------------
# lockstep lanes against the one-leg-at-a-time loop, bit for bit

def run(integrate, f, *args, **kwargs):
    """The trajectory, or the SolverDomainError raised."""
    try:
        return integrate(f, *args, **kwargs)
    except SolverDomainError as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, SolverDomainError):
        assert isinstance(got, SolverDomainError)
        assert str(got) == str(want)
        assert (got.t, got.x) == (want.t, want.x)
        return
    assert not isinstance(got, SolverDomainError), str(got)
    for name in ("t", "x", "xdot", "step_errors"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert (got.status, got.message) == (want.status, want.message)


def assert_lanes_match(f, legs, **kwargs):
    """Integrate legs (t0, x0, t1) as one batch; each must equal the
    reference loop's result for that leg alone."""
    t0, x0, t1 = zip(*legs)
    rtol, atol = kwargs.pop("rtol", 1e-6), kwargs.pop("atol", 1e-9)
    got = _integrate_lanes(f, t0, x0, t1, rtol, atol, **kwargs)
    assert len(got) == len(legs)
    for res, leg in zip(got, legs):
        assert_same(res, run(scalar_reference.integrate_ivp, f, *leg,
                             rtol=rtol, atol=atol, **kwargs))
    return got


LANE_FIELDS = ["t*x", "x", "-sqrt(abs(x))", "x*t^2", "0", "x/t",
               "x^2/t", "log(x)", "sqrt(x)"]

leg = st.tuples(st.floats(1e-3, 1.0), st.floats(-1.0, 1.0),
                st.floats(1e-4, 1.0))


@given(st.sampled_from(LANE_FIELDS), st.sampled_from([0.5, 1.0, -2.0]),
       st.lists(leg, min_size=1, max_size=4),
       st.sampled_from([1e-4, 1e-6, 1e-8]), st.sampled_from([1e-9, 1e-12]))
@settings(max_examples=60, deadline=None)
def test_lanes_match_scalar_loop(src, scale, legs, rtol, atol):
    f = f_expr(f"{scale!r}*({src})")
    assert_lanes_match(f, legs, rtol=rtol, atol=atol)
    assert_same(run(integrate_ivp, f, *legs[0], rtol=rtol, atol=atol),
                run(scalar_reference.integrate_ivp, f, *legs[0],
                    rtol=rtol, atol=atol))


def test_lanes_keep_signed_zeros():
    # From x = -0 with slope -0, stage 2 starts at -0 + h*(0 + a*(-0)) = +0
    # (h > 0): the tableau sums start from +0, as Python's sum.  A field
    # that reads the sign of zero shows it.
    def f(t, x):
        return np.where(t == 0.5, 0.0, np.copysign(1.0, x))

    got = assert_lanes_match(f, [(0.5, -0.0, 1.0), (0.5, 0.0, 1.0)],
                             max_steps=20)
    assert got[0].x[1:].tobytes() == got[1].x[1:].tobytes()


def test_lanes_initial_rhs_failure():
    got = assert_lanes_match(f_expr("log(x)"),
                             [(1.0, -0.5, 0.1), (1.0, 0.5, 0.1)])
    assert str(got[0]) == "non-finite f sample at (t=1.0, x=-0.5)"
    assert not isinstance(got[1], SolverDomainError)
    with pytest.raises(SolverDomainError, match=r"\(t=1.0, x=-0.5\)"):
        integrate_ivp(f_expr("log(x)"), 1.0, -0.5, 0.1)


def test_lanes_stage_failure_rejects():
    # x' = -sqrt(x) reaches x = 0 and the stages step into x < 0
    (traj,) = assert_lanes_match(f_expr("sqrt(x)"), [(0.1, 0.01, 1.0)])
    assert traj.status == "stopped_at_singularity"


def test_lanes_step_underflow():
    (traj,) = assert_lanes_match(f_expr("exp(x)/t"), [(1.0, 0.5, 1e-4)])
    assert traj.status == "stopped_at_singularity"
    assert traj.message.startswith("step size underflow at t=")


def test_lanes_max_steps_exhausted():
    got = assert_lanes_match(f_expr("x/t"),
                             [(1.0, 0.7, 1e-4), (1.0, 0.0, 0.999)],
                             max_steps=5)
    assert got[0].status == "error_budget_exceeded"
    assert got[0].message.startswith("max_steps=5 exhausted at t=")
    assert got[1].status == "completed"


def test_lanes_callable_f():
    assert_lanes_match(lambda t, x: x / t, [(1.0, 0.7, 1e-4), (0.1, 0.2, 1.0)])


def test_lanes_fixed_step():
    assert_lanes_match(f_expr("t*x"), [(0.2, 0.3, 0.9)], fixed_step=0.01)
    assert_lanes_match(f_expr("x"), [(0.0, 1.0, 1.0)], fixed_step=3e-3)
    # a stage failure in fixed-step mode raises at the step's start
    want = run(scalar_reference.integrate_ivp, f_expr("sqrt(x)"),
               0.1, 0.01, 1.0, fixed_step=0.05)
    assert isinstance(want, SolverDomainError)
    assert_same(run(integrate_ivp, f_expr("sqrt(x)"), 0.1, 0.01, 1.0,
                    fixed_step=0.05), want)
    with pytest.raises(ValueError):
        integrate_ivp(f_expr("x"), 0.0, 1.0, 1.0, fixed_step=0.0)


def test_lanes_mixed_batch():
    # backward and forward legs of different lengths, one of zero length
    got = assert_lanes_match(f_expr("-sqrt(abs(x))"), [
        (1.0, 0.2, 1e-4), (0.01, -0.3, 1.0), (0.5, 0.1, 0.5),
        (1.0, -0.9, 0.25), (1e-3, 0.0, 0.002)])
    assert len(got[2].t) == 1
    lengths = {len(traj.t) for traj in got}
    assert len(lengths) > 2


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_funnel_matches_scalar_loop_on_corpus(path):
    # the settings of ``odeuniq suite``
    p = load_problem(str(path), None)
    kwargs = dict(n=101, t_floor=1e-4 * p.T, x_bound=p.x_bound)
    assert_same_funnel(funnel_probe(p.f, p.T, **kwargs),
                       scalar_reference.funnel_probe(p.f, p.T, **kwargs))


@pytest.mark.parametrize("src", ["log(x)", "x^2/t", "sqrt(x)"])
def test_funnel_matches_scalar_loop_with_failures(src):
    kwargs = dict(n=21, t_floor=1e-4, spread_levels=4)
    assert_same_funnel(funnel_probe(f_expr(src), 1.0, **kwargs),
                       scalar_reference.funnel_probe(f_expr(src), 1.0, **kwargs))


def assert_same_funnel(got, want):
    assert got.terminal_values.tobytes() == want.terminal_values.tobytes()
    assert got.reaches_zero.tolist() == want.reaches_zero.tolist()
    assert (got.basin_width, got.grid_spacing, got.t_floor, got.atol_reach) \
        == (want.basin_width, want.grid_spacing, want.t_floor, want.atol_reach)
    assert repr(got.spread_curve) == repr(want.spread_curve)
    assert got.statuses == want.statuses
    assert got.failures == want.failures
