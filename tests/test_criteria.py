"""Criterion checkers against closed-form verdicts and margins."""
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_reference
from odeuniq import cli, criteria, quadrature
from odeuniq.criteria import (
    CheckConfig,
    CriterionReport,
    Hypothesis,
    ProblemSpec,
    ProblemValidationError,
    check_athanassov,
    check_comparison_fn,
    check_constantin,
    check_nagumo,
    check_theorem_main,
    equivalence_suite,
    reduce_problem,
    reduce_to_constantin,
    reverify,
)
from odeuniq.expr import parse, substitute

CFG = CheckConfig()


def problem(f, u=None, v=None, lam=None, omega=None, name=""):
    d = {"f": f, "name": name}
    if u is not None:
        d["u"] = u
    if v is not None:
        d["v"] = v
    if lam is not None:
        d["lambda"] = lam
    if omega is not None:
        d["omega"] = omega
    return ProblemSpec.from_dict(d)


# ---------------------------------------------------------------------------
# sample grids

def _fresh_grids(c: CheckConfig, T: float, x_bound: float) -> dict:
    """Each grid of ``c`` as the numpy call that made it before grids were
    shared."""
    return {
        "t_grid": (c.t_grid(T), np.geomspace(c.t_min_factor * T, T, c.n_t)),
        "x_grid": (c.x_grid(x_bound), np.linspace(-x_bound, x_bound, c.n_x)),
        "eps_grid": (c.eps_grid(),
                     np.geomspace(c.eps_min, c.eps_max, c.n_eps)),
        "r_grid": (c.r_grid(), np.linspace(0.0, 1.0, c.n_x)[1:]),
        "limit_ts": (c.limit_ts(T), T * 2.0 ** -np.arange(
            1, c.n_limit + 1, dtype=np.float64)),
        "gauge_grid": (c._gauge_grid(T), np.geomspace(0.01 * T, T, 50)),
    }


@pytest.mark.parametrize("c,T,x_bound", [
    (CFG, 1.0, 1.0), (CheckConfig(n_t=50, eps_min=1e-3), 0.37, 2.5),
    (CFG, 1.0, -0.0)])
def test_grids_keep_the_numpy_bits_and_are_read_only(c, T, x_bound):
    for name, (got, want) in _fresh_grids(c, T, x_bound).items():
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.5


def test_grids_are_shared_per_config_and_argument():
    assert CFG.t_grid(1.0) is CheckConfig().t_grid(1.0)
    assert CFG.eps_grid() is CFG.eps_grid()
    assert CheckConfig(n_t=50).t_grid(1.0).size == 50
    assert CFG.t_grid(0.5) is not CFG.t_grid(1.0)
    assert CFG.limit_ts(0.5)[0] == 0.25
    # -0.0 == 0.0, but the two linspaces differ in their last zero's sign
    assert CFG.x_grid(0.0).tobytes() != CFG.x_grid(-0.0).tobytes()


# ---------------------------------------------------------------------------
# problem validation

def test_validation_f_not_zero_at_origin():
    with pytest.raises(ProblemValidationError):
        ProblemSpec.from_dict({"f": "t + x"})


def test_validation_gauge_not_increasing():
    with pytest.raises(ProblemValidationError):
        ProblemSpec.from_dict({"f": "0", "u": "1 - t"})


def test_validation_omega_nonzero_at_origin():
    with pytest.raises(ProblemValidationError):
        ProblemSpec.from_dict({"f": "0", "omega": "r + 1"})


# ---------------------------------------------------------------------------
# Nagumo

def test_nagumo_tx_passes():
    # |t(x1-x2)| <= |x1-x2|/t on (0,1]; sup_x |f| = t -> 0
    rep = check_nagumo(problem("t*x"), CFG)
    assert rep.overall
    assert rep.hypothesis("lipschitz_1_over_t").worst_margin >= 0.0


def test_nagumo_equality_margin():
    # at t=1 the bound is tight: |1*(1-(-1))| = 2 = |1-(-1)|/1
    h = check_nagumo(problem("t*x"), CFG).hypothesis("lipschitz_1_over_t")
    assert h.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_nagumo_x_over_t_fails_limit_only():
    rep = check_nagumo(problem("x/t"), CFG)
    assert rep.hypothesis("lipschitz_1_over_t").passed
    hb = rep.hypothesis("uniform_limit_f")
    assert not hb.passed
    assert not rep.overall


def test_nagumo_peano_fails_pairwise_near_zero():
    rep = check_nagumo(problem("-sqrt(abs(x))"), CFG)
    h = rep.hypothesis("lipschitz_1_over_t")
    assert not h.passed
    w = h.witness
    assert min(abs(w["x1"]), abs(w["x2"])) <= 0.05


# ---------------------------------------------------------------------------
# Athanassov

# Nagumo's report names and the Athanassov names they stand for at u = t
_AS_ATHANASSOV = {"nagumo": "athanassov",
                  "lipschitz_1_over_t": "lipschitz_uprime_over_u",
                  "uniform_limit_f": "uniform_limit_f_over_uprime"}


def _assert_nagumo_is_athanassov_with_u_t(p):
    # u = t gives u'/u = 1.0/t and f/u' = f/1.0: the same sweeps, so the
    # same verdicts, margins and witnesses bit for bit; only names differ
    nagumo = check_nagumo(p, CFG).to_dict()
    nagumo["criterion"] = _AS_ATHANASSOV[nagumo["criterion"]]
    for h in nagumo["hypotheses"]:
        h["name"] = _AS_ATHANASSOV[h["name"]]
    athanassov = check_athanassov(replace(p, u=parse("t", {"t"})), CFG)
    assert json.dumps(nagumo, sort_keys=True) == json.dumps(
        athanassov.to_dict(), sort_keys=True)


def test_athanassov_u_t_matches_nagumo_coefficient():
    for path in sorted(CORPUS.glob("*.json")):
        _assert_nagumo_is_athanassov_with_u_t(
            ProblemSpec.from_dict(json.loads(path.read_text())))


# the field families of the benchmark's seeded problems
_FIELDS = st.one_of(
    st.builds("{!r}*t^{!r}*x".format, st.floats(0.5, 1.5), st.floats(0.0, 2.0)),
    st.builds("-{!r}*abs(x)^{!r}".format, st.floats(1.0, 2.0),
              st.floats(0.3, 0.5)),
    st.builds("{!r}*x/t".format, st.floats(1.0, 1.5)),
    st.just("0"))


@given(_FIELDS)
@settings(max_examples=60, deadline=None)
def test_athanassov_u_t_matches_nagumo_on_the_field_families(f):
    _assert_nagumo_is_athanassov_with_u_t(problem(f))


def test_athanassov_power_gauge():
    # |t(x1-x2)| <= (2/t)|x1-x2| holds for t <= 2^(1/3); margin at t=1 is 2-... > 0
    rep = check_athanassov(problem("x*t^2", u="t^2"), CFG)
    assert rep.overall


def test_athanassov_underflowing_gauge_reports_invalidity():
    rep = check_athanassov(problem("0", u="exp(-1/t)"), CFG)
    assert not rep.overall
    assert rep.hypotheses[0].name == "gauge_validity"


# ---------------------------------------------------------------------------
# pairwise sweep against the all-pairs loop

@st.composite
def _pair_samples(draw):
    """(f_vals, coeff, tgrid, xgrid) on small grids: linear fields, where
    every pair with the same |dx| ties, values rounded to one decimal, and
    a non-finite f or coeff."""
    n_t, n_x = draw(st.integers(1, 5)), draw(st.integers(2, 12))
    tgrid = np.geomspace(1e-3, 1.0, n_t)
    xgrid = draw(st.sampled_from([0.5, 1.0, 3.0])) * np.linspace(-1.0, 1.0, n_x)
    floats = st.floats(-4.0, 4.0, allow_nan=False)
    coeff = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=n_t,
                                   max_size=n_t)))
    kind = draw(st.sampled_from(["linear", "rounded", "non-finite"]))
    if kind == "linear":
        # slope = +-coeff ties every pair at margin 0 on one sign
        slope = coeff * draw(st.sampled_from([1.0, -1.0, 0.5]))
        if draw(st.booleans()):
            slope = np.array(draw(st.lists(floats, min_size=n_t, max_size=n_t)))
        return slope[:, None] * xgrid, coeff, tgrid, xgrid
    f_vals = np.array(draw(st.lists(floats, min_size=n_t * n_x,
                                    max_size=n_t * n_x))).reshape(n_t, n_x)
    if kind == "rounded":
        return np.round(f_vals, 1), np.round(coeff, 1), tgrid, xgrid
    for target in draw(st.sampled_from([["f"], ["coeff"], ["f", "coeff"]])):
        vals = f_vals if target == "f" else coeff
        vals.flat[draw(st.integers(0, vals.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return f_vals, coeff, tgrid, xgrid


@given(_pair_samples())
# subnormal draws, where the rounding band below is under one ulp of 0.0
@example((np.array([[-3.0, -2.0, 0.0, 2.0, 3.0]]) * 5e-324,
          np.array([5e-324]), np.array([1e-3]), 3 * np.linspace(-1, 1, 5)))
@example((np.array([[-0.0, -0.0, 0.0, 0.0, 0.0], [-1.0, -0.0, 0.0, 0.0, 1.0]])
          * 5e-324, np.array([0.0, 5e-324]), np.array([1e-3, 1.0]),
          np.linspace(-1, 1, 5)))
@settings(max_examples=300, deadline=None)
def test_pairwise_sweep_matches_all_pairs(sample):
    f_vals, coeff, tgrid, xgrid = sample
    h = criteria._pairwise_bound_hypothesis("pair", *sample, CFG.tol)
    ref = scalar_reference.pairwise_bound("pair", *sample, CFG.tol)
    if ref.witness["kind"] == "domain_error":
        assert h.to_dict() == ref.to_dict()
        return
    # g = coeff*x -+ f is rounded at this scale before the running maximum,
    # and by a few ulps of 0.0 where the scale is subnormal
    band = 2e-15 * (np.max(np.abs(coeff)) * np.max(np.abs(xgrid))
                    + np.max(np.abs(f_vals))) + 4 * math.ulp(0.0)
    assert h.worst_margin == pytest.approx(ref.worst_margin, abs=band)
    if abs(ref.worst_margin + CFG.tol) > band:
        assert h.passed == ref.passed
    w = h.witness
    it = list(tgrid).index(w["t"])
    i, j = list(xgrid).index(w["x1"]), list(xgrid).index(w["x2"])
    assert i < j
    assert w["lhs"] == abs(f_vals[it, i] - f_vals[it, j])
    assert w["rhs"] == coeff[it] * abs(xgrid[i] - xgrid[j])
    assert h.worst_margin == w["rhs"] - w["lhs"]


def test_pairwise_sweep_tie_rule():
    # f = coeff*x ties every pair at margin 0 at t[1] and t[2]; t[0] has
    # slack 0.5*|dx|: the least tied t wins, then the least x2, then x1
    tgrid, xgrid = np.array([0.25, 0.5, 1.0]), np.arange(-2.0, 3.0)
    coeff = np.array([1.5, 2.0, 2.0])
    f_vals = np.array([1.0, 2.0, 2.0])[:, None] * xgrid
    h = criteria._pairwise_bound_hypothesis("pair", f_vals, coeff, tgrid,
                                            xgrid, CFG.tol)
    assert h.passed and h.worst_margin == 0.0
    assert h.witness == {"kind": "pair_ineq", "t": 0.5, "x1": -2.0, "x2": -1.0,
                         "lhs": 2.0, "rhs": 2.0}


# ---------------------------------------------------------------------------
# comparison function gate

def test_comparison_fn_identity_margin_zero():
    # int_0^r s/s ds = r exactly: worst margin 0 within quadrature noise
    rep = check_comparison_fn(parse("r", {"r"}), CFG)
    assert rep.overall
    assert abs(rep.hypothesis("osgood_integral").worst_margin) <= 1e-9


def test_comparison_fn_square_passes():
    # int_0^r s ds = r^2/2 <= r on (0,1]
    rep = check_comparison_fn(parse("r^2", {"r"}), CFG)
    assert rep.overall
    assert rep.hypothesis("osgood_integral").worst_margin > 0.0


def test_comparison_fn_sqrt_fails_with_margin_minus_one():
    # int_0^1 s^{-1/2} ds = 2 > 1: margin at r=1 is -1
    rep = check_comparison_fn(parse("sqrt(r)", {"r"}), CFG)
    h = rep.hypothesis("osgood_integral")
    assert not h.passed
    assert h.worst_margin == pytest.approx(-1.0, abs=1e-6)
    assert h.witness["r"] == pytest.approx(1.0)


def test_comparison_fn_non_increasing_rejected():
    # r*(2-r) is still increasing on [0,1]; min(r, 1/2) plateaus and fails
    rep = check_comparison_fn(parse("r*(2-r)", {"r"}), CFG)
    assert rep.hypothesis("omega_increasing").passed
    rep2 = check_comparison_fn(parse("min(r, 1/2)", {"r"}), CFG)
    assert not rep2.hypothesis("omega_increasing").passed


# ---------------------------------------------------------------------------
# Constantin

def test_constantin_equality_case_margin_zero():
    # |x/t| = (1/t)*|x| exactly: A margin 0; C fails since f(t,1)/1 = 1/t
    rep = check_constantin(problem("x/t", u="t", omega="r"), CFG)
    ha = rep.hypothesis("bound_f_le_uprime_over_u_omega")
    assert ha.passed
    assert ha.worst_margin == pytest.approx(0.0, abs=1e-9)
    assert not rep.hypothesis("uniform_limit_f_over_uprime").passed
    assert not rep.overall


def test_constantin_zero_field_passes():
    assert check_constantin(problem("0", u="t", omega="r"), CFG).overall


# ---------------------------------------------------------------------------
# main theorem

def test_theorem_equality_case_h2_margin_zero_everywhere():
    # v = lambda = t, omega = r: int_0^t eps*w/w dw = eps*t exactly
    p = problem("0", v="t", lam="t", omega="r")
    rep = check_theorem_main(p, CFG)
    assert rep.overall
    h2 = rep.hypothesis("H2_osgood_scaled")
    assert abs(h2.worst_margin) <= 1e-7
    assert abs(h2.witness["max_margin"]) <= 1e-7


def test_theorem_h5_violation_witnessed():
    # lambda*f = t * x/t = x, v = t: |x| <= t fails for small t
    p = problem("x/t", v="t", lam="t", omega="r")
    rep = check_theorem_main(p, CFG)
    h5 = rep.hypothesis("H5_domination")
    assert not h5.passed
    assert h5.witness["kind"] == "grid_ineq"


def test_reduce_to_constantin_closed_form():
    u = parse("t^2", {"t"})
    v, lam = reduce_to_constantin(u)
    assert v is u
    # lambda = u/u' = t/2
    for t in (0.25, 0.5, 1.0):
        assert lam.evaluate({"t": t}) == pytest.approx(t / 2)


# ---------------------------------------------------------------------------
# equivalence of the reduction

EQ_CORPUS = [
    ("0", "t", "r", True),
    ("t*x", "t", "r", True),
    ("x/t", "t", "r", False),
    ("0", "t^2", "r", True),
    ("x*t^2", "t^2", "r", True),
    ("t*x", "sqrt(t)", "r", False),
    ("t*x", "t^2", "r/2", False),
    ("-sqrt(abs(x))", "t", "sqrt(r)", False),
]


@pytest.mark.parametrize("f,u,om,verdict", EQ_CORPUS)
def test_equivalence_corpus(f, u, om, verdict):
    p = problem(f, u=u, omega=om, name=f)
    eq = equivalence_suite(p, CFG)
    assert eq.verdicts_match
    assert eq.constantin.overall == verdict
    assert eq.max_discrepancy <= 1e-6


def test_equivalence_takes_computed_reports():
    p = problem("t*x", u="t", omega="r")
    given = equivalence_suite(p, CFG, constantin=check_constantin(p, CFG),
                              reduced=check_theorem_main(reduce_problem(p), CFG))
    assert given.to_dict() == equivalence_suite(p, CFG).to_dict()


def test_equivalence_report_serializes():
    eq = equivalence_suite(problem("t*x", u="t", omega="r"), CFG)
    d = eq.to_dict()
    assert d["verdicts_match"] is True
    assert set(d["margin_discrepancies"]) == {
        "bound_f_le_uprime_over_u_omega~H3_bound_f_le_omega_over_lambda",
        "uniform_limit_f_over_uprime~H4_uniform_limit_f_over_vprime"}


# ---------------------------------------------------------------------------
# witness re-verification

REVERIFY_CASES = [
    pytest.param({"f": f, "u": u, "omega": om}, id=f"{f}-{u}-{om}")
    for f, u, om, _ in EQ_CORPUS
] + [
    # v/lambda = 1/t: H1 and H2 both diverge at 0+
    pytest.param({"f": "0", "v": "t", "lambda": "t^2", "omega": "r"},
                 id="0-v=t-lambda=t^2-r"),
    # omega(0) = 0*inf is nan: the domain_error witnesses of Constantin's
    # bound and of H3 sit at x = 0, where omega makes the bound non-finite
    pytest.param({"f": "0", "u": "t", "omega": "r*log(1/r)"},
                 id="0-t-r*log(1/r)"),
    pytest.param({"f": "x/(2*t)", "v": "t", "lambda": "t",
                  "omega": "r*log(1/r)"},
                 id="x/(2*t)-v=t-lambda=t-r*log(1/r)"),
]


@pytest.mark.parametrize("spec", REVERIFY_CASES)
def test_all_failure_witnesses_reverify(spec):
    p = pt = ProblemSpec.from_dict(spec)
    reports = [check_nagumo(p, CFG)]
    if p.u is not None:
        reports += [check_athanassov(p, CFG), check_constantin(p, CFG)]
        pt = reduce_problem(p)
    for rep in reports:
        assert reverify(p, CFG, rep)
    assert reverify(pt, CFG, check_theorem_main(pt, CFG))


# a failing pair, bound and limit witness and the field that a move by one
# ulp breaks: reverify compares the re-run's witness field for field
MOVED_WITNESSES = [
    ({"f": "1.413*x/t"}, check_nagumo, "lipschitz_1_over_t", "lhs"),
    ({"f": "1.413*x/t"}, check_nagumo, "lipschitz_1_over_t", "rhs"),
    ({"f": "1.413*x/t", "u": "t^0.4667", "omega": "r"}, check_constantin,
     "bound_f_le_uprime_over_u_omega", "lhs"),
    ({"f": "1.413*x/t", "u": "t^0.4667", "omega": "r"}, check_constantin,
     "bound_f_le_uprime_over_u_omega", "rhs"),
    ({"f": "1.413*x/t"}, check_nagumo, "uniform_limit_f", "sup"),
    ({"f": "1.413*x/t"}, check_nagumo, "uniform_limit_f", "sup_prev"),
    ({"f": "-sqrt(abs(x))"}, check_nagumo, "uniform_limit_f", "sup"),
    # omega(2^-40) = 2^-0.4: the gate's first failure, omega_vanishes_at_0
    ({"f": "0", "u": "t", "omega": "r^0.01"}, check_constantin,
     "comparison_function", "sup"),
]


@pytest.mark.parametrize("spec,check,name,key", MOVED_WITNESSES, ids=[
    "pair-lhs", "pair-rhs", "bound-lhs", "bound-rhs", "limit_increase-sup",
    "limit_increase-sup_prev", "limit_final-sup", "gate_limit-sup"])
def test_witness_moved_by_one_ulp_does_not_reverify(spec, check, name, key):
    p = ProblemSpec.from_dict(spec)
    h = check(p, CFG).hypothesis(name)
    assert not h.passed
    assert reverify(p, CFG, CriterionReport("recorded", [h]))
    moved = replace(h, witness={
        **h.witness, key: math.nextafter(h.witness[key], math.inf)})
    assert not reverify(p, CFG, CriterionReport("moved", [moved]))


def test_omega_domain_witness_reverifies():
    # omega is nan on (0, 2^-30): omega_vanishes_at_0 fails with a
    # domain_error witness at an r value, which reverify evaluates omega at
    p = problem("0", u="t", omega="r*sqrt(r - 2^-30)")
    gate = check_comparison_fn(p.omega, CFG)
    assert gate.hypothesis("omega_vanishes_at_0").witness["kind"] == "domain_error"
    assert reverify(p, CFG, gate)
    rep = check_constantin(p, CFG)
    assert not rep.hypothesis("comparison_function").passed
    assert reverify(p, CFG, rep)


def test_h1_integrates_up_to_horizon():
    # v/lambda = 1/sqrt(0.5 - t) is nan past t = 0.5, beyond T = 0.4
    p = ProblemSpec.from_dict({"f": "0", "v": "t", "lambda": "t*sqrt(0.5 - t)",
                               "omega": "r", "T": 0.4})
    rep = check_theorem_main(p, CFG)
    h1 = rep.hypothesis("H1_integrability")
    assert h1.passed and h1.witness["t"] == 0.4
    exact = 2 * (math.sqrt(0.5) - math.sqrt(0.1))
    assert h1.witness["integral"] == pytest.approx(exact, rel=1e-9)
    assert not rep.hypothesis("H2_osgood_scaled").passed
    assert reverify(p, CFG, rep)


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_every_emitted_hypothesis_has_a_definition():
    names = {"omega_vanishes_at_0", "omega_increasing", "osgood_integral"}
    for path in sorted(CORPUS.glob("*.json")):
        p = ProblemSpec.from_dict(json.loads(path.read_text()))
        for name, (gauges, _) in cli.CRITERIA.items():
            if all(getattr(p, g) is not None for g in gauges):
                (rep,) = cli.run_checks(p, [name], CFG)
                names |= {h.name for h in rep.hypotheses}
    assert names == set(criteria.HYPOTHESES)
    unknown = CriterionReport("nagumo", [Hypothesis(
        "no_such_hypothesis", False, -1.0, {"kind": "grid_ineq", "t": 1.0,
                                           "x": 0.0})])
    with pytest.raises(KeyError):
        reverify(p, CFG, unknown)


# ---------------------------------------------------------------------------
# the integrals at 0+ (H1, H2 and the Osgood gate) fail one way

def _one_panel_fallback(monkeypatch):
    """Limit the adaptive integrals that redo rejected panels to their first
    GK15 panel: the sweep redoes base panels with the budget PANEL_BUDGET
    and segments with DEFAULT_BUDGET, both read at call time, and reverify
    re-runs the sweep."""
    monkeypatch.setattr(quadrature, "PANEL_BUDGET", 1)
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", 1)


def _unvalidated(f="0", **gauges):
    """A ProblemSpec without the load-time checks, so omega(0) may be 1."""
    allowed = {"u": {"t"}, "v": {"t"}, "lam": {"t"}, "omega": {"r"}}
    return ProblemSpec(parse(f, {"t", "x"}),
                       **{k: parse(src, allowed[k]) for k, src in gauges.items()})


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# hypothesis, gauges, one-panel fallback, witness kind, margin, the
# witness's keys besides kind, and where it sits
INTEGRAL_FAILURES = [
    # lambda = t^1.99 underflows to 0 near 0+, where v/lambda = t/0
    pytest.param("H1_integrability", dict(v="t", lam="t^1.99", omega="r"), False,
                 "domain_error", math.nan, "t", lambda w: 0.0 < w["t"] < 1e-150,
                 id="H1-domain_error"),
    # v/lambda = 1/t is not integrable at 0+
    pytest.param("H1_integrability", dict(v="t", lam="t^2", omega="r"), False,
                 "divergent", -math.inf, "t", lambda w: w["t"] == 1.0,
                 id="H1-divergent"),
    # v/lambda has a kink at t = 0.3, inside a geometric panel; lambda(0) > 0
    # keeps the samples at t = 0, where the panels end, finite
    pytest.param("H1_integrability",
                 dict(v="t*min(1, t/0.3)", lam="t + 1e-300", omega="r"), True,
                 "divergent", math.nan, "t", lambda w: w["t"] == 1.0,
                 id="H1-unconverged"),
    # lambda underflows to 0 near 0+: omega(eps*v)/lambda = r/0
    pytest.param("H2_osgood_scaled", dict(v="t", lam="exp(-1/t)", omega="r"),
                 False, "domain_error", math.nan, "t eps", lambda w: True,
                 id="H2-domain_error-v=t-lambda=exp(-1/t)-r"),
    # the reduced pair of u = t: omega(eps*t) is nan below eps*t = 2^-30
    pytest.param("H2_osgood_scaled", dict(u="t", omega="r*sqrt(r - 2^-30)"),
                 False, "domain_error", math.nan, "t eps", lambda w: True,
                 id="H2-domain_error-reduced-t-r*sqrt(r - 2^-30)"),
    pytest.param("H2_osgood_scaled", dict(v="t", lam="t^2", omega="r"), False,
                 "divergent", -math.inf, "t eps",
                 lambda w: w["t"] == CFG.t_grid(1.0)[0] and w["eps"] == CFG.eps_min,
                 id="H2-divergent"),
    # omega has a kink at eps*t = 1/2, inside a t segment for eps = 1
    pytest.param("H2_osgood_scaled",
                 dict(v="t", lam="t", omega="min(r, (r + 1/2)/2)"), True,
                 "divergent", math.nan, "t eps t0",
                 lambda w: w["eps"] == 1.0 and 0.0 < w["t0"] < 0.5 < w["t"],
                 id="H2-unconverged"),
    # omega is nan on (0.299, 0.301), inside an r segment
    pytest.param("osgood_integral",
                 dict(u="t", omega="r + 0*sqrt(abs(r - 0.3) - 0.001)"), False,
                 "domain_error", math.nan, "r", lambda w: 0.299 < w["r"] < 0.301,
                 id="gate-domain_error"),
    # int_0+ 1/(s log(2/s)) diverges too slowly for the tail tests: the base
    # panels reach the last one above 2^-1022 unclassified and end there
    pytest.param("osgood_integral", dict(u="t", omega="-1/log(r/2)"), False,
                 "divergent", math.nan, "r", lambda w: w["r"] == CFG.r_grid()[0],
                 id="gate-unconverged-floor"),
    # omega(s)/s = 1/s is not integrable at 0+
    pytest.param("osgood_integral", dict(u="t", omega="1"), False,
                 "divergent", -math.inf, "r", lambda w: w["r"] == CFG.r_grid()[0],
                 id="gate-divergent"),
    # the kink of omega at r = 0.505 lies inside an r segment
    pytest.param("osgood_integral", dict(u="t", omega="min(r, (r + 0.505)/2)"),
                 True, "divergent", math.nan, "r r0",
                 lambda w: w["r0"] < 0.505 < w["r"], id="gate-unconverged"),
]


@pytest.mark.parametrize("name,gauges,one_panel,kind,margin,keys,where",
                         INTEGRAL_FAILURES)
def test_integral_failure_convention(monkeypatch, name, gauges, one_panel, kind,
                                     margin, keys, where):
    p = _unvalidated(**gauges)
    gate = name == "osgood_integral"
    if not gate and p.v is None:
        p = reduce_problem(p)

    def reports():
        if gate:
            return [check_comparison_fn(p.omega, CFG), check_constantin(p, CFG)]
        return [check_theorem_main(p, CFG)]

    if one_panel:
        assert all(rep.overall for rep in reports())
        _one_panel_fallback(monkeypatch)
    reps = reports()
    h = reps[0].hypothesis(name)
    assert not h.passed and _same(h.worst_margin, margin)
    assert h.witness["kind"] == kind and set(h.witness) == {"kind", *keys.split()}
    assert where(h.witness)
    assert all(reverify(p, CFG, rep) for rep in reps)
    if gate:
        # the aggregate keeps a nan margin and the first failing witness
        agg = reps[1].hypothesis("comparison_function")
        first = next(x for x in reps[0].hypotheses if not x.passed)
        assert not agg.passed and _same(agg.worst_margin, margin)
        assert agg.witness == first.witness


# ---------------------------------------------------------------------------
# batched sweeps against the panel-by-panel loops

def _scalar_h2(p, c):
    """Worst H2 margin from one adaptive integral per (eps, segment) on top
    of the geometric base loop."""
    tg, eg = c.t_grid(p.T), c.eps_grid()
    v_fn, lam_fn = p.v.lambdify(("t",)), p.lam.lambdify(("t",))
    om = p.omega.lambdify(("r",))
    vt = v_fn(tg)
    vmax = float(np.max(np.abs(vt)))
    margins = np.empty((len(tg), len(eg)))
    for ie, eps in enumerate(eg.tolist()):
        qtol = max(1e-12 * eps * max(vmax, 1.0), 1e-300)
        base, values, converged = scalar_reference.sweep(
            lambda w: om(eps * v_fn(w)) / lam_fn(w), tg, qtol)
        if base.diverged:
            return -math.inf
        if not converged.all():
            return math.nan
        margins[:, ie] = vt - values / eps
    return float(margins.min())


def _scalar_osgood(omega, c):
    om = omega.lambdify(("r",))
    rg = c.r_grid()
    base, values, converged = scalar_reference.sweep(lambda s: om(s) / s, rg,
                                                     c.quad_tol)
    if base.diverged:
        return -math.inf
    if not converged.all():
        return math.nan
    return float(np.min(rg - values))


@st.composite
def _sweep_problems(draw):
    """Problem specs from the corpus families: gauge u = t^q (reduced pair)
    or a direct pair v = t^m, lambda = t^k; omega = a*r."""
    f = draw(st.sampled_from(["1.3*t^0.5*x", "-sqrt(abs(x))", "0.7*x/t", "0"]))
    a = draw(st.floats(min_value=0.5, max_value=1.5))
    d = {"f": f, "omega": f"{a!r}*r"}
    if draw(st.booleans()):
        d["u"] = f"t^{draw(st.floats(min_value=1.0, max_value=2.0))!r}"
        return reduce_problem(ProblemSpec.from_dict(d))
    k = draw(st.floats(min_value=0.5, max_value=0.95))
    d["v"] = f"t^{draw(st.floats(min_value=k, max_value=1.5))!r}"
    d["lambda"] = f"t^{k!r}"
    return ProblemSpec.from_dict(d)


@given(_sweep_problems())
@settings(max_examples=6, deadline=None)
def test_batched_sweeps_match_panel_loops(p):
    rep = check_theorem_main(p, CFG)
    h2 = rep.hypothesis("H2_osgood_scaled")
    ref = _scalar_h2(p, CFG)
    # every panel has the loop's bits, so the margins are equal
    assert h2.passed == (ref >= -CFG.tol)
    assert _same(h2.worst_margin, ref)
    osg = check_comparison_fn(p.omega, CFG).hypothesis("osgood_integral")
    ref = _scalar_osgood(p.omega, CFG)
    assert osg.passed == (ref >= -CFG.tol)
    assert osg.worst_margin == ref


# ---------------------------------------------------------------------------
# properties

@given(st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=10, deadline=None)
def test_omega_scale_coherence(k):
    # omega(s) = s and omega_k(s) = omega(k*s)/k describe the same gate
    om = substitute(parse("r", {"r"}),
                    {"r": parse(f"{k!r}*r", {"r"})})
    scaled = parse(f"({om.serialize()})/{k!r}", {"r"})
    rep = check_comparison_fn(scaled, CFG)
    assert rep.overall
    assert abs(rep.hypothesis("osgood_integral").worst_margin) <= 1e-8


@given(st.sampled_from(EQ_CORPUS))
@settings(max_examples=8, deadline=None)
def test_reports_are_deterministic(case):
    f, u, om, _ = case
    p = problem(f, u=u, omega=om)
    a = check_constantin(p, CFG).to_dict()
    b = check_constantin(p, CFG).to_dict()
    assert a == b
