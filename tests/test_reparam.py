"""Reparametrization construction against closed-form maps."""
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_reference
from odeuniq.criteria import ProblemSpec, reduce_to_constantin
from odeuniq.expr import parse
from odeuniq.rootfind import bisect
from odeuniq import reparam
from odeuniq.quadrature import IntegrandError, integrate
from odeuniq.reparam import (
    DegenerateReparamError,
    Reparametrization,
    ReparamError,
    _HermiteSpline,
    _inv_lam_fn,
    alpha_l1_check,
    build_tau,
    exp_reparam_check,
    generalized_reparam,
    solve_tau_exp_root,
    transform,
    verify_fixed_point,
)


def lam_expr(src):
    return parse(src, {"t"})


# ---------------------------------------------------------------------------
# tau(t) against closed forms: tau(t) = int_t^T ds/lambda(s)

CLOSED_FORMS = [
    # (lambda, T, tau(t), tau_plus)
    ("1", 1.0, lambda t: 1.0 - t, 1.0),
    ("t", 1.0, lambda t: -math.log(t), math.inf),
    ("sqrt(t)", 1.0, lambda t: 2.0 * (1.0 - math.sqrt(t)), 2.0),
    ("t/2", 1.0, lambda t: -2.0 * math.log(t), math.inf),
    ("t", 0.5, lambda t: math.log(0.5 / t), math.inf),
]


@pytest.mark.parametrize("lam_src,T,tau_exact,tau_plus", CLOSED_FORMS)
def test_tau_matches_closed_form(lam_src, T, tau_exact, tau_plus):
    rep = build_tau(lam_expr(lam_src), T)
    for t in np.geomspace(1e-6 * T, T, 20):
        # table nodes are exact to quadrature tol; off-node queries go
        # through the Hermite spline, accurate to ~1e-7 on this grid
        assert rep.tau_of_t(float(t)) == pytest.approx(tau_exact(float(t)),
                                                       rel=1e-6, abs=1e-6)
    if math.isinf(tau_plus):
        assert math.isinf(rep.tau_plus)
    else:
        assert rep.tau_plus == pytest.approx(tau_plus, abs=1e-8)


@pytest.mark.parametrize("lam_src,T,tau_exact,tau_plus", CLOSED_FORMS)
def test_inverse_round_trip(lam_src, T, tau_exact, tau_plus):
    rep = build_tau(lam_expr(lam_src), T)
    for t in np.geomspace(1e-4 * T, T, 15):
        tau = rep.tau_of_t(float(t))
        # forward spline error (~1e-7) dominates; the refined inverse
        # itself is exact to 1e-12 against the defining integral
        assert rep.t_of_tau(tau, refine=True) == pytest.approx(float(t),
                                                               rel=1e-6)


def test_inverse_closed_form_lambda_t():
    # lambda = t, T = 1: t(tau) = exp(-tau)
    rep = build_tau(lam_expr("t"), 1.0)
    for tau in np.linspace(0.0, 17.0, 30):
        assert rep.t_of_tau(float(tau), refine=True) == pytest.approx(
            math.exp(-float(tau)), rel=1e-10)


def test_tau_minus_shift_invariance():
    rep0 = build_tau(lam_expr("t"), 1.0, tau_minus=0.0)
    rep3 = build_tau(lam_expr("t"), 1.0, tau_minus=3.0)
    for t in (1e-5, 1e-2, 0.3, 1.0):
        assert rep3.tau_of_t(t) - rep0.tau_of_t(t) == pytest.approx(3.0,
                                                                    abs=1e-10)


def test_out_of_range_queries_raise():
    rep = build_tau(lam_expr("t"), 1.0)
    with pytest.raises(ReparamError):
        rep.tau_of_t(2.0)
    with pytest.raises(ReparamError):
        rep.t_of_tau(rep.tau_horizon + 1.0)


def test_negative_lambda_rejected():
    with pytest.raises(ReparamError):
        build_tau(lam_expr("t - 1/2"), 1.0)


def test_underflowing_lambda_gets_nan_tau_plus():
    # u = exp(-1/t): lambda = u/u' underflows to 0/0 below t ~ 1.4e-3,
    # so the 0+ tail cannot be classified; the table above t_min is valid
    _, lam = reduce_to_constantin(parse("exp(-1/t)", {"t"}))
    rep = build_tau(lam, 1.0, t_min=2e-3)
    assert math.isnan(rep.tau_plus)
    # lambda = t^2 analytically: tau(t) = 1/t - 1
    assert rep.tau_of_t(0.01) == pytest.approx(99.0, rel=1e-8)


# ---------------------------------------------------------------------------
# verification identities

@pytest.mark.parametrize("lam_src", ["1", "t", "sqrt(t)", "t/2"])
def test_fixed_point_residual(lam_src):
    lam = lam_expr(lam_src)
    rep = build_tau(lam, 1.0)
    assert verify_fixed_point(rep, lam) <= 1e-7


@pytest.mark.parametrize("lam_src,v_src", [("t", "t"), ("t/2", "t^2"),
                                           ("sqrt(t)", "sqrt(t)")])
def test_alpha_l1_identity(lam_src, v_src):
    lam, v = lam_expr(lam_src), parse(v_src, {"t"})
    rep = build_tau(lam, 1.0)
    tau_mid = 0.5 * (rep.tau_minus + rep.tau_horizon)
    assert alpha_l1_check(rep, v, lam, tau_mid) <= 1e-7


@pytest.mark.parametrize("u_src,kwargs", [
    ("t", {}),
    ("t^2", {}),
    ("exp(-1/t)", {"t_min": 2e-3}),
])
def test_exp_reparam_identity(u_src, kwargs):
    u = parse(u_src, {"t"})
    _, lam = reduce_to_constantin(u)
    rep = build_tau(lam, 1.0, **kwargs)
    assert exp_reparam_check(u, rep) <= 1e-9


def test_exp_reparam_closed_form_values():
    # u = t, lambda = t: u(t(tau)) = exp(-tau), i.e. c = u(T) = 1
    u = parse("t", {"t"})
    rep = build_tau(lam_expr("t"), 1.0)
    t_at = rep.t_of_tau(5.0, refine=True)
    assert u.evaluate({"t": t_at}) == pytest.approx(math.exp(-5.0), rel=1e-9)


# ---------------------------------------------------------------------------
# transported field

def test_transform_bound_holds():
    # f = t*x, v = t, lambda = t: |lambda*f| = t^2|x| <= t on |x| <= 1
    f = parse("t*x", {"t", "x"})
    v = lam = lam_expr("t")
    rep = build_tau(lam, 1.0)
    field = transform(f, v, lam, rep)
    assert field.bound_ok
    assert field.worst_margin >= 0.0


def test_transform_bound_violation_witnessed():
    # f = x/t: |lambda*f| = |x| > t = v for small t, |x| near 1
    f = parse("x/t", {"t", "x"})
    v = lam = lam_expr("t")
    rep = build_tau(lam, 1.0)
    field = transform(f, v, lam, rep)
    assert not field.bound_ok
    w = field.witness
    assert abs(w["F"]) > w["alpha"]


def test_transform_field_values():
    # F(tau, y) = -lambda(t) f(t, y) with t = exp(-tau), f = t*x
    f = parse("t*x", {"t", "x"})
    lam = lam_expr("t")
    rep = build_tau(lam, 1.0)
    tau = 2.0
    t = math.exp(-tau)
    field = transform(f, lam, lam, rep)
    assert field.F(tau, 0.5) == pytest.approx(-t * t * 0.5, rel=1e-6)
    assert field.alpha(tau) == pytest.approx(t, rel=1e-6)


# ---------------------------------------------------------------------------
# generalized reparametrization

def test_tau_exp_root_omega_constant():
    root = solve_tau_exp_root(1.0)
    assert root == pytest.approx(0.5671432904097838, abs=1e-12)
    assert abs(root * math.exp(root) - 1.0) <= 1e-13


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=25, deadline=None)
def test_tau_exp_root_residual(c):
    root = solve_tau_exp_root(c)
    assert abs(root * math.exp(root) - 1.0 / c) <= 1e-10 / c + 1e-12


@pytest.mark.parametrize("c", [1e46, 1e60, 1e200, 1e299, 1e300])
def test_tau_exp_root_converges_for_large_c(c):
    # the root is near 1/c: 200 halvings of [1e-300, 1] reached 6.7 % of it
    # at c = 1e60 and answered 3.1e-61 at c = 1e299
    root = solve_tau_exp_root(c)
    assert abs(root * math.exp(root) * c - 1.0) <= 1e-13


def test_generalized_reparam_monotone_for_large_c():
    grep = generalized_reparam(parse("t", {"t"}), c=10.0)
    rep = grep.rep
    assert np.all(np.diff(rep.t_table) > 0)
    assert np.all(np.diff(rep.tau_table) < 0)
    # table satisfies u(t(tau)) = c*exp(-tau) - 1/tau at every node
    for t, tau in zip(rep.t_table[::25], rep.tau_table[::25]):
        assert grep.rhs(float(tau)) == pytest.approx(float(t), rel=1e-10)
    # tau_plus of the table is the rhs zero
    assert grep.rhs(rep.tau_plus) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("u_src", ["t", "t^2", "t^0.25*exp(t)"])
@pytest.mark.parametrize("c", [1e100, 1e200, 1e300])
def test_generalized_reparam_large_c(u_src, c):
    # h's peak tau_1, near c^-1/2, lay beyond 200 halvings of [0, 1] from
    # c = 3e92; and for u = t^2 the table end, 1e3 ulps of 1/tau_end, lay
    # below h(tau_end), which is not 0 but tau_end's rtol of 1e-14 times
    # |h'|, from c = 1e91, so the last node had no bracket
    u = parse(u_src, {"t"})
    u_fn = u.lambdify(("t",))
    grep = generalized_reparam(u, c)
    rep = grep.rep
    assert np.all(np.diff(rep.t_table) > 0)
    assert np.all(np.diff(rep.tau_table) < 0)
    # h(tau_lo) = u(T) holds to tau_lo's bisection rtol of 1e-14 times
    # |h'(tau_lo)|, about u(T) * tau_lo * 1e-14 here (tau_lo is 230 to 690)
    rhs = np.array([grep.rhs(tau) for tau in rep.tau_table.tolist()])
    assert np.max(np.abs(rhs - u_fn(rep.t_table))) <= \
        (1e-12 + 1e-14 * rep.tau_minus) * float(u_fn(np.array(1.0)))


def test_generalized_reparam_degenerate_small_c():
    # c*exp(-tau) - 1/tau is never positive for c <= e
    with pytest.raises(DegenerateReparamError):
        generalized_reparam(parse("t", {"t"}), c=1.0)
    with pytest.raises(DegenerateReparamError):
        generalized_reparam(parse("t", {"t"}), c=math.e * 0.99)


@pytest.mark.parametrize("c", [1.0, math.e, math.nan])
def test_generalized_reparam_degenerate_text(c):
    with pytest.raises(DegenerateReparamError) as got:
        generalized_reparam(parse("t", {"t"}), c=c)
    assert str(got.value) == (
        f"degenerate generalized reparametrization: c*exp(-tau) - 1/tau is "
        f"never positive for c={c!r} (requires c > e)")


@pytest.mark.parametrize("rel", [1e-6, 1e-9])
def test_generalized_reparam_just_above_e(rel):
    # h's peak is about rel, on a branch about sqrt(rel) wide around tau = 1
    grep = generalized_reparam(parse("t", {"t"}), c=math.e * (1 + rel))
    rep = grep.rep
    assert np.all(np.diff(rep.t_table) > 0)
    assert np.all(np.diff(rep.tau_table) < 0)
    assert rep.tau_minus < 1.0 < rep.tau_plus
    assert rep.T == pytest.approx(rel, rel=1e-6)  # u(T) = h(tau_1), the peak
    rhs = np.array([grep.rhs(tau) for tau in rep.tau_table.tolist()])
    assert np.max(np.abs(rhs - rep.t_table)) <= 1e-12 * rel


@pytest.mark.parametrize("u_src,rel,msg", [
    # the peak, about 1e-12, lies below the table end 2*u(1e-12) = 2e-12
    ("t", 1e-12, "empty valid tau-domain"),
    # the peak, about 1.2e-13, is 1.08 times the table end, 1e3 ulps of h
    ("t^2", 1.2e-13, "h does not decrease beyond rounding"),
])
def test_generalized_reparam_branch_below_rounding(u_src, rel, msg):
    with pytest.raises(DegenerateReparamError, match=msg):
        generalized_reparam(parse(u_src, {"t"}), c=math.e * (1 + rel))


@pytest.mark.parametrize("u_src,where", [
    ("t + 0*exp(1/t)", "at t_floor = 1e-12"),
    ("t + 0*sqrt(0.9 - t)", "at T = 1.0"),
    # nan on (0.4, 0.6), where the inversion's first midpoint lies
    ("t + 0*sqrt(abs(t - 0.5) - 0.1)",
     "inside the inversion: u is not finite at t=0.5000000000005"),
])
def test_generalized_reparam_nonfinite_gauge(u_src, where):
    u = parse(u_src, {"t"})
    with pytest.raises(ReparamError) as got:
        generalized_reparam(u, c=10.0)
    assert str(got.value) == f"gauge u = {u.serialize()} is not finite {where}"


def _h_peak(c):
    # the maximum of h = c*exp(-tau) - 1/tau lies in (0.1, 1] for c in (e, 100]
    # and is at most the true peak
    tau = np.linspace(0.05, 1.05, 100_001)
    return float(np.max(c * np.exp(-tau) - 1.0 / tau))


@given(st.floats(min_value=0.25, max_value=2.0), st.booleans(),
       st.floats(min_value=math.e, max_value=100.0, exclude_min=True))
@example(2.0, False, 10.0).via("power_gauge")
@example(2.0, False, 7.0).via("power_gauge")
@example(1.0, False, 4.841).via("direct_gauges")
@settings(max_examples=40, deadline=None)
def test_generalized_reparam_tau_nodes(q, exp_factor, c):
    u = parse(f"t^{q!r}" + ("*exp(t)" if exp_factor else ""), {"t"})
    u_fn = u.lambdify(("t",))
    try:
        grep = generalized_reparam(u, c)
    except DegenerateReparamError:
        # h peaks at most 1e-11 above the table end 2*u(1e-12): the branch
        # is empty or flat within rounding (a few thousand ulps of h high)
        assert _h_peak(c) <= 2.0 * float(u_fn(np.array(1e-12))) + 1e-11
        return
    rep = grep.rep
    assert np.all(np.diff(rep.t_table) > 0)
    assert np.all(np.diff(rep.tau_table) < 0)
    assert 1e-12 <= rep.t_table[0] and rep.t_table[-1] <= 1.0
    rhs = np.array([grep.rhs(tau) for tau in rep.tau_table.tolist()])
    assert np.max(np.abs(rhs - u_fn(rep.t_table))) <= \
        1e-12 * float(u_fn(np.array(1.0)))


# ---------------------------------------------------------------------------
# properties

@given(st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=0.1, max_value=0.95))
@settings(max_examples=15, deadline=None)
def test_power_lambda_tau_closed_form(T, p):
    # lambda = t^p with p < 1: tau(t) = (T^{1-p} - t^{1-p})/(1-p), finite at 0+
    rep = build_tau(parse(f"t^{p!r}", {"t"}), T)
    t = 0.3 * T
    exact = (T ** (1 - p) - t ** (1 - p)) / (1 - p)
    assert rep.tau_of_t(t) == pytest.approx(exact, rel=1e-7)
    assert rep.tau_plus == pytest.approx(T ** (1 - p) / (1 - p), rel=1e-7)


def test_super_singular_lambda_needs_t_floor():
    # lambda = t^2 blows 1/lambda up so fast near 0 that the default table
    # floor is numerically out of reach; with an explicit floor the map is
    # the closed form tau(t) = 1/t - 1/T
    rep = build_tau(parse("t^2", {"t"}), 1.0, t_min=1e-3)
    assert rep.tau_of_t(0.01) == pytest.approx(99.0, rel=1e-8)


# ---------------------------------------------------------------------------
# lanes against the one-integral-at-a-time loops

CORPUS = sorted(
    (Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))


def _same(x, y):
    return np.asarray(x, dtype=float).tobytes() == \
        np.asarray(y, dtype=float).tobytes()


def _gauges(path):
    return _gauges_of(ProblemSpec.from_dict(json.loads(path.read_text())))


def _gauges_of(p):
    if p.lam is not None:
        return p, p.v, p.lam
    if p.u is not None:
        return (p,) + reduce_to_constantin(p.u)
    return p, None, None


@pytest.mark.parametrize("t_min", [None, 1e-6])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_reparam_matches_scalar_loops(path, t_min):
    p, v, lam = _gauges(path)
    if lam is None:
        pytest.skip("no gauge")
    try:
        ref = scalar_reference.build_tau(lam, p.T, t_min=t_min)
    except ReparamError as exc:
        with pytest.raises(ReparamError) as got:
            build_tau(lam, p.T, t_min=t_min)
        assert str(got.value) == str(exc)
        return
    rep = build_tau(lam, p.T, t_min=t_min)
    assert _same(rep.tau_table, ref.tau_table)
    assert _same(rep.tau_plus, ref.tau_plus)
    assert _same(verify_fixed_point(rep, lam),
                 scalar_reference.verify_fixed_point(ref, lam))
    taus = np.concatenate([np.linspace(rep.tau_minus, rep.tau_horizon, 37),
                           rep.tau_table[::40]])
    assert _same(rep.t_of_tau(taus, refine=True),
                 scalar_reference.t_of_tau(ref, taus))
    assert _same(rep.t_of_tau(float(taus[5]), refine=True),
                 scalar_reference.t_of_tau(ref, float(taus[5])))
    if v is not None:
        mid = 0.5 * (rep.tau_minus + rep.tau_horizon)
        assert _same(alpha_l1_check(rep, v, lam, mid),
                     scalar_reference.alpha_l1_check(ref, v, lam, mid))
    if p.u is not None:
        assert _same(exp_reparam_check(p.u, rep),
                     scalar_reference.exp_reparam_check(p.u, ref))


def _hole(a, b):
    """A term that is nan on a short interval around the midpoint of
    (a, b) and 0 elsewhere; the segment's first GK15 panel samples it."""
    c = 0.5 * (a + b)
    return f"0*sqrt((t - {c!r})^2 - {0.01 * (b - a)!r}^2)"


def _dip(a, b):
    """A term that lowers lambda = 1 to 1e-15 on [a, b)."""
    def step(x):
        return f"min(max((t - {x!r})*1e300, 0), 1)"
    return f"-(1 - 1e-15)*({step(a)} - {step(b)})"


@pytest.mark.parametrize("low,high", [("hole", "dip"), ("dip", "hole"),
                                      ("hole", None), ("dip", None)])
def test_build_tau_reports_top_failing_segment(low, high):
    # a non-finite sample or a divergent integral in a segment below
    # another failing one: the loop filled the table from T down, so the
    # upper failure is the one reported
    nodes = np.geomspace(1e-8, 1.0, 400)
    terms = {"hole": _hole, "dip": _dip}
    src = "1"
    for kind, k in ((low, 340), (high, 380)):
        if kind is not None:
            src += " + " + terms[kind](float(nodes[k]), float(nodes[k + 1]))
    lam = parse(src, {"t"})
    # a loose tolerance takes each segment in one panel, so the dip's
    # 1e15 * width > 1e12 shows as divergence at once
    with pytest.raises(ReparamError) as ref:
        scalar_reference.build_tau(lam, 1.0, tol=1e30)
    with pytest.raises(ReparamError) as got:
        build_tau(lam, 1.0, tol=1e30)
    assert str(got.value) == str(ref.value)
    expected = {"hole": "quadrature failed on panel",
                "dip": "divergent quadrature"}[high or low]
    assert str(got.value).startswith(expected)


def test_refined_inverse_raises_first_failing_target():
    # lambda = 1 with non-finite holes inside two table segments: refining
    # a target in either segment samples a hole; the loop over targets
    # raised for the first one in order, and so must the lane bisection
    table = build_tau(lam_expr("1"), 1.0)
    nodes = table.t_table
    src = "1 + " + _hole(float(nodes[390]), float(nodes[391])) + " + " + \
        _hole(float(nodes[395]), float(nodes[396]))
    rep = Reparametrization(T=1.0, tau_minus=0.0, tau_plus=1.0,
                            t_table=nodes, tau_table=table.tau_table,
                            lam=lam_expr(src))
    taus = [rep.tau_of_t(0.5 * float(nodes[k] + nodes[k + 1]))
            for k in (395, 390)]
    for order in (taus, taus[::-1]):
        with pytest.raises(IntegrandError) as ref:
            scalar_reference.t_of_tau(rep, np.array(order))
        with pytest.raises(IntegrandError) as got:
            rep.t_of_tau(np.array(order), refine=True)
        assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# the refined inverse: Newton steps from the spline guess

def _seeded_specs():
    """The seeded problems of the benchmark's inputs, seeds 1-3."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [prob.spec for seed in (1, 2, 3)
            for prob in inputs.seeded_problems(seed)]


REFINE_SPECS = [json.loads(path.read_text()) for path in CORPUS] + \
    _seeded_specs()


def _refine_table(spec):
    """(problem, table) for a problem with u or lambda; the table stops at
    1e-2 T where lambda is not finite lower (exp_gauge's u = exp(-1/t)
    underflows)."""
    p, _, lam = _gauges_of(ProblemSpec.from_dict(spec))
    if lam is None:
        pytest.skip("no gauge")
    try:
        return p, build_tau(lam, p.T)
    except ReparamError:
        return p, build_tau(lam, p.T, t_min=1e-2 * p.T)


def _residual_rounds(monkeypatch, rep, tau):
    """The value of rep.t_of_tau(tau, refine=True) and the number of lane
    integrals, each one round of residuals, that it took."""
    rounds = []
    lanes = reparam._integrate_lanes

    def counted(*args, **kwargs):
        rounds.append(len(args[1]))
        return lanes(*args, **kwargs)

    monkeypatch.setattr(reparam, "_integrate_lanes", counted)
    try:
        return rep.t_of_tau(tau, refine=True), len(rounds)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("spec", REFINE_SPECS, ids=lambda s: s["name"])
def test_refine_takes_few_rounds(spec, monkeypatch):
    # exp_reparam_check's 50 taus, the horizon and an interior table node:
    # bisection took 37 rounds, Newton from the spline guess at most 4
    p, rep = _refine_table(spec)
    taus = np.linspace(rep.tau_minus,
                       min(rep.tau_horizon, rep.tau_minus + 40.0), 50)
    _, rounds = _residual_rounds(monkeypatch, rep, taus)
    assert rounds <= 4
    for k in (0, 200):
        t, rounds = _residual_rounds(monkeypatch, rep,
                                     float(rep.tau_table[k]))
        # a target on a node ends at the bracket end: one round, no halving
        assert rounds == 1
        assert t == pytest.approx(float(rep.t_table[k]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", [s for s in REFINE_SPECS if "u" in s],
                         ids=lambda s: s["name"])
def test_exp_reparam_residual_at_rounding(spec):
    p, rep = _refine_table(spec)
    assert exp_reparam_check(p.u, rep) <= 1e-14


@pytest.mark.parametrize("u_src", ["t", "t^0.25*exp(t)"])
def test_refine_from_bad_starts(u_src):
    # starts at either bracket end or outside the open bracket (and nan)
    # still land within rtol of the root of the same residual, found by a
    # 1e-16 quadrature and a 1e-15 bisection; the scalar loop agrees bit
    # for bit
    _, lam = reduce_to_constantin(parse(u_src, {"t"}))
    rep = build_tau(lam, 1.0)
    inv_lam = _inv_lam_fn(lam)
    for k in (3, 150, 397):
        t_lo, t_hi = float(rep.t_table[k]), float(rep.t_table[k + 1])
        tau_hi_node = float(rep.tau_table[k + 1])
        target = rep.tau_of_t(t_lo + 0.3 * (t_hi - t_lo))
        exact = bisect(lambda t: tau_hi_node - target + integrate(
            inv_lam, t, t_hi, tol=1e-16).value, t_lo, t_hi, rtol=1e-15)
        starts = [t_lo, t_hi, 0.5 * t_lo, 2.0 * t_hi, math.nan]
        got = np.array(starts)
        rep._refine(np.full(len(starts), target), got)
        assert np.all(np.abs(got - exact) <= 1e-12 * exact)
        assert _same(got, [scalar_reference._refine_t(rep, target, start)
                           for start in starts])


# ---------------------------------------------------------------------------
# the in-package cubic Hermite evaluator

@st.composite
def _hermite_tables(draw):
    """A strictly increasing table of 2-400 knots with values and slopes,
    and query points: the knots, points beyond both ends and -0.0."""
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = 10.0 ** draw(st.integers(-8, 3))
    x = draw(st.floats(-10.0, 10.0)) + \
        width * np.cumsum(rng.uniform(0.1, 1.0, n))
    y = rng.normal(size=n) * 10.0 ** draw(st.integers(-5, 5))
    d = rng.normal(size=n) * 10.0 ** draw(st.integers(-5, 5))
    if draw(st.booleans()):
        y[rng.random(n) < 0.3] = -0.0
        d[rng.random(n) < 0.3] = 0.0
    span = x[-1] - x[0]
    q = np.concatenate([x, rng.uniform(x[0] - span, x[-1] + span, 15 * n),
                        [-0.0]])
    return x, y, d, q


@pytest.fixture(scope="module")
def scipy_spline():
    return pytest.importorskip("scipy.interpolate").CubicHermiteSpline


@given(_hermite_tables())
@example(([0.0, 1.0], [-0.0, 0.0], [1.0, 1.0], np.array([-0.0])))
@settings(max_examples=60, deadline=None)
def test_hermite_spline_matches_scipy_bits(scipy_spline, case):
    # at q = -0.0 the first table's PPoly sum is -0.0 without its +0.0
    x, y, d, q = case
    ours = _HermiteSpline(x, y, d)
    ref = scipy_spline(x, y, d)
    k = q.size // 15
    for query in (q, q[:15 * k].reshape(k, 15), np.asarray(q[-1]), q[0]):
        got, want = np.asarray(ours(query)), np.asarray(ref(query))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_hermite_spline_rejects_what_scipy_rejects():
    with pytest.raises(ValueError, match="at least 2 elements"):
        _HermiteSpline([0.0], [1.0], [1.0])
    for i, name in enumerate(("x", "y", "dydx")):
        args = [[0.0, 1.0], [0.0, 1.0], [1.0, 1.0]]
        args[i] = [0.0, math.inf]
        with pytest.raises(ValueError, match=f"`{name}` must contain only"):
            _HermiteSpline(*args)


# tau_of_t at three off-node t and the unrefined t_of_tau at three tau, as
# float.hex, from scipy's CubicHermiteSpline; these hold without scipy
PINNED_SPLINE_BITS = [
    ("linear", None,
     ["0x1.1d0be7b5b4610p+2", "0x1.a6b702eefa214p+1", "0x1.1215059be8c24p+1"],
     ["0x1.f744a6eff6c0ap-4", "0x1.82426799d0602p-11", "0x1.6cd6704cd7bbdp-19"]),
    ("power_gauge", None,
     ["0x1.ba17d7cf1b8e4p+4", "0x1.26ba49e0d1143p+4", "0x1.26b97827bee7ep+3"],
     ["0x1.47ae1455f4807p-7", "0x1.a36e2e5e83a03p-14", "0x1.0c6f79edacdaap-20"]),
    ("exp_gauge", 2e-3,
     ["0x1.a2e7fda264bdfp+6", "0x1.55bc2f9de3858p+4", "0x1.dd36cfb87eab1p+1"],
     ["0x1.04949cb333292p-7", "0x1.059ee9f8ee5bdp-8", "0x1.5d4adf57f04f7p-9"]),
    ("sqrt_gauge", 1e-6,
     ["0x1.4b91ad77983e0p+2", "0x1.ba17061811dfep+1", "0x1.ba1562ac1b595p+0"],
     ["0x1.030dc4e0cca21p-5", "0x1.0624dd1ea417ap-10", "0x1.094565406fbb8p-15"]),
]


@pytest.mark.parametrize("stem,t_min,tau_bits,t_bits", PINNED_SPLINE_BITS,
                         ids=[row[0] for row in PINNED_SPLINE_BITS])
def test_spline_values_pinned(stem, t_min, tau_bits, t_bits):
    path = next(p for p in CORPUS if p.stem == stem)
    p, _, lam = _gauges(path)
    rep = build_tau(lam, p.T, t_min=t_min)
    ts = np.geomspace(rep.t_min, rep.T, 5)[1:-1] * 1.0001
    taus = np.linspace(rep.tau_minus, rep.tau_horizon, 5)[1:-1]
    assert [float(v).hex() for v in rep.tau_of_t(ts)] == tau_bits
    assert [float(v).hex() for v in rep.t_of_tau(taus)] == t_bits
