"""Adaptive integrator, funnel probes and trajectory diagnostics."""
import math

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference
from odeuniq import solver
from odeuniq.cli import load_problem, run_suite
from odeuniq.criteria import CheckConfig
from odeuniq.expr import Expression, parse
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


def test_float_power_equals_python_pow():
    # the lanes take the step factor 0.9*ratio**-0.2 with np.float_power,
    # which must give the bits of Python's ** in the one-leg loop; a numpy
    # or libm build that breaks this would move trajectories, so it fails
    # here by name instead
    rng = np.random.default_rng(11)
    # where 0.9*r**-0.2 meets the clips 5.0, 0.2 and 0.1
    clips = [0.18 ** 5, 4.5 ** 5, 9.0 ** 5]
    ratios = np.concatenate([
        np.geomspace(5e-324, 2.2e-308, 2000),   # subnormal
        rng.uniform(0.0, 1.0, 20000),
        rng.uniform(1.0, 2.0, 20000),
        np.geomspace(1e-300, 1e308, 20000),
        [np.nextafter(c, d) for c in clips for d in (0.0, c, np.inf)],
    ])
    ratios = ratios[ratios > 0.0]
    got = np.float_power(ratios, -0.2)
    want = np.array([r ** -0.2 for r in ratios.tolist()])
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, (
        f"np.float_power(r, -0.2) differs from r ** -0.2 at {differ.size} "
        f"ratios, first r = {ratios[differ[0]]!r}")


def _three_way_factor(ratio):
    # the step factor as three clips picked by acceptance
    grow = 0.9 * np.float_power(ratio, -0.2)
    return np.where(ratio <= 1.0, np.minimum(5.0, np.maximum(0.2, grow)),
                    np.fmax(0.1, grow))


def test_step_factor_equals_three_way_clip():
    ratios = np.array([0.0, 5e-324, 1e-300, 0.5, np.nextafter(1.0, 0.0),
                       1.0, np.nextafter(1.0, 2.0), 2.0, 1e300, np.inf,
                       np.nan])
    with np.errstate(divide="ignore"):
        got = solver._step_factor(ratios)
        want = _three_way_factor(ratios)
    assert got.tobytes() == want.tobytes()
    # and the one-leg loop's rule, value by value
    loop = [5.0 if r == 0.0 else min(5.0, max(0.2, 0.9 * r ** -0.2))
            if r <= 1.0 else max(0.1, 0.9 * r ** -0.2)
            if math.isfinite(r) else 0.1 for r in ratios.tolist()]
    assert got.tolist() == loop


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


def test_lanes_zero_coefficients_carry_a_stage_failure():
    # f is inf only near t = 0.998, the first step's stage-2 time; b5 and
    # b4 weigh stage 2 by 0, and 0*inf = nan in the solution sums rejects
    # the step, as the scalar loop rejects a stage failure.  Without the
    # zero terms the step would be accepted.
    def f(t, x):
        return np.where(abs(t - 0.998) < 1e-4, np.inf, 1.0) * np.ones_like(x)

    (traj,) = assert_lanes_match(f, [(1.0, 0.5, 1e-4)])
    assert traj.status == "stopped_at_singularity"


def test_lanes_zero_tolerances_reject_every_step():
    # the scalar loop rejects a step whose error scale is not positive;
    # with rtol = atol = -0.0 the lanes' scale must not be -0, where
    # err/scale = -inf would accept
    (traj,) = assert_lanes_match(f_expr("x"), [(0.0, 1.0, 1.0)],
                                 rtol=-0.0, atol=-0.0)
    assert traj.status == "stopped_at_singularity"
    assert len(traj.t) == 1
    for tol in (dict(rtol=-1e-6), dict(atol=-1e-9), dict(rtol=math.nan)):
        with pytest.raises(ValueError, match="non-negative"):
            integrate_ivp(f_expr("x"), 0.0, 1.0, 1.0, **tol)


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


def test_lanes_f_may_reuse_its_output():
    # an array function that rewrites and returns one buffer per shape
    buffers = {}

    def f(t, x):
        buf = buffers.setdefault(np.shape(t), np.empty(np.shape(t)))
        np.multiply(t, x, out=buf)
        return buf

    assert_lanes_match(f, [(1.0, 0.7, 0.1), (0.2, 0.3, 0.9)])


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


@given(st.floats(1.0, 2.0), st.floats(0.3, 0.5), st.floats(1.0, 1.5),
       st.sampled_from([20, 21]))
@settings(max_examples=8, deadline=None)
def test_funnel_matches_scalar_loop_on_drawn_fields(c, alpha, b, n):
    # the benchmark's seeded families: -c*|x|^alpha, whose backward legs
    # cross onto the other branch, and b*x/t; an even n has no x_T = 0
    # lane, so a negative leg ends right before a positive one starts
    kwargs = dict(n=n, t_floor=1e-4, spread_levels=4)
    for src in (f"-{c!r}*abs(x)^{alpha!r}", f"{b!r}*x/t"):
        assert_same_funnel(
            funnel_probe(f_expr(src), 1.0, **kwargs),
            scalar_reference.funnel_probe(f_expr(src), 1.0, **kwargs))


def test_funnel_zero_lane_keeps_its_signed_zero():
    # the x_T = +0 leg of f = x is the zero solution and keeps the sign of
    # its zero (x + h*s with x = +0 is +0 for s = +-0), so it reaches by
    # |x| < ATOL_REACH; the leg before it ends with its sign bit set, and
    # the flip between the two legs' samples is a crossing of neither
    f = f_expr("x")
    kwargs = dict(n=21, t_floor=1e-4, spread_levels=4)
    legs = _integrate_lanes(f, 1.0, [-0.1, 0.0], 1e-4, 1e-6, 1e-9)
    assert np.signbit(legs[0].x).all()
    assert legs[1].x.tobytes() == np.zeros(len(legs[1].x)).tobytes()
    got = funnel_probe(f, 1.0, **kwargs)
    assert np.flatnonzero(got.reaches_zero).tolist() == [10]
    assert_same_funnel(got, scalar_reference.funnel_probe(f, 1.0, **kwargs))


def test_funnel_stages_call_the_kernel(monkeypatch):
    # the lanes call the compiled kernel under their own errstate; the
    # wrapper lambdify returns is called once, for the spread levels'
    # start check
    calls = []
    lambdify = Expression.lambdify

    def counted(expr, varnames):
        fn = lambdify(expr, varnames)

        def wrapper(*args):
            calls.append(len(args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Expression, "lambdify", counted)
    rep = funnel_probe(f_expr("x/t"), 1.0, n=21)
    assert rep.statuses == ["completed"] * 21
    assert len(calls) <= 1


@pytest.mark.parametrize("src,live_levels",
                         [("sqrt(x)", 0), ("log(x + 0.1)", 5), ("x", 8)])
def test_funnel_skips_levels_failing_at_start(src, live_levels, monkeypatch):
    # a spread level with a leg whose f is not finite at (delta, x0) has
    # spread nan whatever its other legs do: none of its legs is launched
    launched = []
    lanes = solver._integrate_lanes

    def counted(f, t0, *args):
        launched.append(len(t0))
        return lanes(f, t0, *args)

    monkeypatch.setattr(solver, "_integrate_lanes", counted)
    kwargs = dict(n=41, t_floor=1e-4)
    got = funnel_probe(f_expr(src), 1.0, **kwargs)
    assert launched == [41 + 3 * live_levels]
    assert sum(math.isnan(s) for _, s in got.spread_curve) >= 8 - live_levels
    assert_same_funnel(got, scalar_reference.funnel_probe(f_expr(src), 1.0,
                                                          **kwargs))


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_funnel_without_spread_levels(path):
    # what ``odeuniq suite`` reads of the probe does not depend on the
    # forward spread legs
    p = load_problem(str(path), None)
    kwargs = dict(n=101, t_floor=1e-4 * p.T, x_bound=p.x_bound)
    got = funnel_probe(p.f, p.T, spread_levels=0, **kwargs)
    want = funnel_probe(p.f, p.T, **kwargs)
    assert got.spread_curve == []
    assert got.terminal_values.tobytes() == want.terminal_values.tobytes()
    assert got.reaches_zero.tolist() == want.reaches_zero.tolist()
    assert (got.basin_width, got.grid_spacing) == (want.basin_width,
                                                   want.grid_spacing)
    assert (got.statuses, got.failures) == (want.statuses, want.failures)


def test_suite_launches_only_the_backward_legs(tmp_path, monkeypatch):
    launched = []
    lanes = solver._integrate_lanes

    def counted(f, t0, *args):
        launched.append(len(t0))
        return lanes(f, t0, *args)

    monkeypatch.setattr(solver, "_integrate_lanes", counted)
    (tmp_path / "x_over_t.json").write_text((CORPUS / "x_over_t.json")
                                            .read_text())
    rows, _ = run_suite(tmp_path, CheckConfig())
    assert launched == [101]
    assert "funnel_basin_width" in rows[0]


def assert_same_funnel(got, want):
    assert got.terminal_values.tobytes() == want.terminal_values.tobytes()
    assert got.reaches_zero.tolist() == want.reaches_zero.tolist()
    assert (got.basin_width, got.grid_spacing, got.t_floor, got.atol_reach) \
        == (want.basin_width, want.grid_spacing, want.t_floor, want.atol_reach)
    assert repr(got.spread_curve) == repr(want.spread_curve)
    assert got.statuses == want.statuses
    assert got.failures == want.failures
