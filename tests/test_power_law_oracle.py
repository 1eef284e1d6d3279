"""Closed-form oracle for power-law gauges: the tau map, H1, H2 and the
Osgood gate.

For lambda = t^k the tau map is tau(t) = tau_minus + (t^(1-k) - T^(1-k))/(k-1)
(tau_minus + log(T/t) at k = 1), and tau_plus = tau_minus + T^(1-k)/(1-k)
when k < 1, +inf when k >= 1.  For v = t^m, H1's integral of v/lambda over
(0, T] is T^(m-k+1)/(m-k+1) when m - k > -1 and diverges otherwise.  With
omega = a*r^beta and e = m*beta - k + 1, H2's margin at (t, eps) is
t^m - a*eps^(beta-1)*t^e/e, and H2 diverges where e <= 0; the gate's
integral of omega(s)/s over (0, r] is a*r^beta/beta, checked against r.
These are the paper's integrals themselves, so unlike ``scalar_reference``,
which replays algorithms the library once used, they also catch an error
that every version of the code shares.

Left out: the slow-tail band, k in (0.9, 1), m - k in (-1, -0.9) and, for
H2, e in (0, 0.2].  There the geometric panels' ratio 2^(k-1) (or 2^(m-k))
lies above the tail test's cap 0.95, or 2^-e so close to 1 that the tail
needs hundreds of panels, so the panels walk toward the underflow before
the tail converges, and the integrals are not yet classified right: the draw m = 1.139, k = 2.426, beta = 1.352, a = 2
(e = 0.114) fails H2 with a domain_error where lambda = t^k underflows,
at t = 2.3e-134, in place of a margin.
"""
import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from odeuniq import criteria, reparam
from odeuniq.expr import parse

# below and above the slow-tail band (0.9, 1)
_K = st.one_of(st.floats(0.25, 0.9), st.floats(1.0, 2.5))
_T = st.floats(0.25, 1.0)


@given(_K, _T, st.floats(-2.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_tau_map_of_a_power_gauge(k, T, tau_minus):
    rep = reparam.build_tau(parse(f"t^{k!r}", {"t"}), T, tau_minus=tau_minus)
    if k < 1.0:
        exact = T ** (1.0 - k) / (1.0 - k)
        assert math.isclose(rep.tau_plus - tau_minus, exact, rel_tol=1e-12)
    else:
        assert rep.tau_plus == math.inf
    # (t^a - T^a)/(-a) with a = 1 - k, as T^a*expm1(-a*log(T/t))/(-a), which
    # keeps its digits for k near 1
    a, L = 1.0 - k, np.log(T / rep.t_table)
    tau = L if a == 0.0 else T ** a * np.expm1(-a * L) / -a
    # log(T/t) rounds near t = T: an absolute floor there
    np.testing.assert_allclose(rep.tau_table - tau_minus, tau, rtol=1e-12,
                               atol=1e-12 * np.abs(tau).max())


@given(st.floats(0.25, 2.0), st.floats(0.25, 2.5), _T)
@settings(max_examples=100, deadline=None)
def test_h1_of_power_gauges(m, k, T):
    assume(not -1.0 < m - k < -0.9)  # the slow-tail band
    p = criteria.ProblemSpec.from_dict({
        "f": "0", "v": f"t^{m!r}", "lambda": f"t^{k!r}", "omega": "r",
        "T": T})
    h1 = criteria._h1_hypothesis(p, criteria.CheckConfig())
    if m - k > -1.0:
        exact = T ** (m - k + 1.0) / (m - k + 1.0)
        assert h1.passed
        assert math.isclose(h1.witness["integral"], exact, rel_tol=1e-12)
    else:
        assert not h1.passed
        assert h1.witness["kind"] == "divergent"


# omega = a*r^beta
_A = st.floats(0.1, 2.0)
_BETA = st.floats(0.5, 2.0)


def _band(v_max):
    """A closed-form worst margin within this of 0 decides no verdict."""
    return 1e-6 * max(1.0, v_max)


@given(st.floats(0.25, 2.0), st.floats(0.25, 2.5), _BETA, _A, _T)
# H2 fails on an unconverged piece: 0.9-1.8 s of 10,000-split segments
@example(m=1.0, k=1.9260684797415322, beta=1.9260684797415322, a=1.0, T=1.0)
@settings(max_examples=150, deadline=None)
def test_h2_of_power_gauges(m, k, beta, a, T):
    e = m * beta - k + 1.0
    assume(not 0.0 < e <= 0.2)  # the slow-tail band
    p = criteria.ProblemSpec.from_dict({
        "f": "0", "v": f"t^{m!r}", "lambda": f"t^{k!r}",
        "omega": f"{a!r}*r^{beta!r}", "T": T})
    c = criteria.CheckConfig()
    h2 = criteria._h2_hypothesis(p, c)
    if e <= 0.0:
        assert not h2.passed
        assert h2.witness["kind"] == "divergent"
        return
    t, eps = c.t_grid(T)[:, None], c.eps_grid()

    def scaled(t, eps):
        return a * eps ** (beta - 1.0) * t ** e / e

    worst = float(np.min(t ** m - scaled(t, eps)))
    if abs(worst) > _band(T ** m):
        assert h2.passed == (worst > 0.0)
    w = h2.witness
    if math.isnan(h2.worst_margin):
        # an unconverged piece, the sweep's "did not converge" failure: an
        # integral far above eps*v (at m = 1, k = beta the integrand is the
        # constant eps^beta) has GK15 error estimates, about 1e-16 of each
        # panel's value, above H2's tolerance 1e-12*eps*max(|v|, 1).  Only
        # a margin far below 0 has such an integral
        assert w["kind"] == "divergent"
        assert w["t"] ** m - scaled(w["t"], w["eps"]) < -_band(T ** m)
        return
    assert w["kind"] == "quad_ineq_eps"
    # the report rebuilds scaled_integral as v_t - margin, which rounds it
    # to within an ulp of v_t where it is far smaller than v_t
    assert math.isclose(w["scaled_integral"], scaled(w["t"], w["eps"]),
                        rel_tol=1e-11, abs_tol=math.ulp(w["v_t"]))


@given(_BETA, _A)
@settings(max_examples=100, deadline=None)
def test_osgood_gate_of_power_omegas(beta, a):
    c = criteria.CheckConfig()
    gate = criteria.check_comparison_fn(
        parse(f"{a!r}*r^{beta!r}", {"r"}), c).hypothesis("osgood_integral")
    r = c.r_grid()
    worst = float(np.min(r - a * r ** beta / beta))
    if abs(worst) > _band(1.0):
        assert gate.passed == (worst > 0.0)
    w = gate.witness
    assert w["kind"] == "quad_ineq"
    assert math.isclose(w["integral"], a * w["r"] ** beta / beta,
                        rel_tol=1e-11)
