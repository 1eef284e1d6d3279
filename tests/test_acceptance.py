"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line on the live terminal so a full
run doubles as a release checklist.
"""
import json
import math
import time

import numpy as np
import pytest

from odeuniq import cli
from odeuniq.criteria import (
    CheckConfig,
    ProblemSpec,
    check_athanassov,
    check_comparison_fn,
    check_constantin,
    check_nagumo,
    check_theorem_main,
    equivalence_suite,
    reduce_to_constantin,
    reverify,
)
from odeuniq.expr import parse
from odeuniq.quadrature import (
    integrate,
    integrate_singular_left,
    integrate_to_infinity,
)
from odeuniq.reparam import (
    DegenerateReparamError,
    alpha_l1_check,
    build_tau,
    exp_reparam_check,
    generalized_reparam,
    solve_tau_exp_root,
    transform,
    verify_fixed_point,
)
from odeuniq.solver import convergence_order, funnel_probe, integrate_ivp

CFG = CheckConfig()


class _Line:
    """Collect one status line and emit it even when asserts abort early."""

    def __init__(self, capsys, label):
        self.capsys = capsys
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        status = "pass" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"criterion {self.label}: {status}")
        return False


def test_01_quadrature_oracles(capsys):
    with _Line(capsys, "01 quadrature oracles"):
        t0 = time.monotonic()
        cases = [
            (integrate(lambda w: w ** 2, 0.0, 1.0), 1.0 / 3.0),
            (integrate(np.sin, 0.0, math.pi), 2.0),
            (integrate(np.exp, 0.0, 1.0), math.e - 1.0),
            (integrate(lambda w: 1.0 / w, 1.0, 2.0), math.log(2.0)),
            (integrate(lambda w: np.cos(10 * w), 0.0, 1.0),
             math.sin(10.0) / 10.0),
            (integrate_singular_left(lambda w: w ** -0.5, 1.0), 2.0),
            (integrate_singular_left(np.log, 1.0), -1.0),
            (integrate_singular_left(lambda w: w ** -0.9, 1.0), 10.0),
            (integrate_singular_left(lambda w: w ** -0.25, 1.0), 4.0 / 3.0),
            (integrate_to_infinity(lambda s: np.exp(-s), 0.0), 1.0),
            (integrate_to_infinity(lambda s: s * np.exp(-s), 0.0), 1.0),
            (integrate_to_infinity(lambda s: s ** -2.0, 1.0), 1.0),
        ]
        assert len(cases) == 12
        for res, exact in cases:
            assert res.converged and not res.diverged
            assert abs(res.value - exact) <= 1e-8 * abs(exact)
        div = integrate_singular_left(lambda w: 1.0 / w, 1.0)
        assert div.diverged
        assert time.monotonic() - t0 < 1.0


def test_02_comparison_function_gate(capsys):
    with _Line(capsys, "02 comparison-function gate"):
        t0 = time.monotonic()
        rep = check_comparison_fn(parse("r", {"r"}), CFG)
        assert rep.overall
        assert abs(rep.hypothesis("osgood_integral").worst_margin) <= 1e-9
        assert check_comparison_fn(parse("r^2", {"r"}), CFG).overall
        rep = check_comparison_fn(parse("sqrt(r)", {"r"}), CFG)
        h = rep.hypothesis("osgood_integral")
        assert not h.passed
        assert h.witness["r"] == pytest.approx(1.0)
        assert h.worst_margin == pytest.approx(-1.0, abs=1e-6)
        assert time.monotonic() - t0 < 1.0


def test_03_equality_case_margins(capsys):
    with _Line(capsys, "03 scaled-Osgood equality case"):
        t0 = time.monotonic()
        p = ProblemSpec.from_dict({"f": "0", "v": "t", "lambda": "t",
                                   "omega": "r"})
        rep = check_theorem_main(p, CFG)
        assert rep.overall
        h2 = rep.hypothesis("H2_osgood_scaled")
        assert abs(h2.worst_margin) <= 1e-7
        assert abs(h2.witness["max_margin"]) <= 1e-7
        assert time.monotonic() - t0 < 5.0


EQ_TRIPLES = [
    ("0", "t", "r"), ("t*x", "t", "r"), ("x/t", "t", "r"),
    ("0", "t^2", "r"), ("x*t^2", "t^2", "r"), ("t*x", "sqrt(t)", "r"),
    ("t*x", "t^2", "r/2"), ("-sqrt(abs(x))", "t", "sqrt(r)"),
]


def test_04_reduction_equivalence(capsys):
    with _Line(capsys, "04 reduction equivalence"):
        assert len(EQ_TRIPLES) >= 6
        for f, u, om in EQ_TRIPLES:
            p = ProblemSpec.from_dict({"f": f, "u": u, "omega": om})
            eq = equivalence_suite(p, CFG)
            assert eq.verdicts_match, (f, u, om)
            assert eq.max_discrepancy <= 1e-6, (f, u, om)


def test_05_fixed_point_and_inverse(capsys):
    with _Line(capsys, "05 reparametrization fixed point"):
        for lam_src in ("1", "t", "sqrt(t)", "t/2"):
            lam = parse(lam_src, {"t"})
            rep = build_tau(lam, 1.0)
            assert verify_fixed_point(rep, lam, n_tau=50) < 1e-6, lam_src
        rep = build_tau(parse("t", {"t"}), 1.0)
        for tau in np.linspace(0.0, 17.0, 35):
            t_exact = math.exp(-float(tau))
            assert abs(rep.t_of_tau(float(tau), refine=True)
                       - t_exact) <= 1e-8


def test_06_l1_identity(capsys):
    with _Line(capsys, "06 weight L1 identity"):
        for v_src, lam_src in (("t", "t"), ("t^2", "t/2"),
                               ("sqrt(t)", "sqrt(t)")):
            v, lam = parse(v_src, {"t"}), parse(lam_src, {"t"})
            rep = build_tau(lam, 1.0)
            taus = np.linspace(rep.tau_minus, rep.tau_horizon, 12)[1:-1]
            assert len(taus) == 10
            for tau in taus:
                assert alpha_l1_check(rep, v, lam, float(tau)) < 1e-6


def test_07_exponential_reparametrization(capsys):
    with _Line(capsys, "07 exponential reparametrization"):
        for u_src, kwargs in (("t", {}), ("t^2", {}),
                              ("exp(-1/t)", {"t_min": 2e-3})):
            u = parse(u_src, {"t"})
            _, lam = reduce_to_constantin(u)
            rep = build_tau(lam, 1.0, **kwargs)
            assert exp_reparam_check(u, rep) < 1e-7, u_src


def test_08_generalized_reparametrization(capsys):
    with _Line(capsys, "08 generalized reparametrization"):
        root = solve_tau_exp_root(1.0)
        assert abs(root * math.exp(root) - 1.0) < 1e-10
        assert root == pytest.approx(0.567143, abs=1e-6)
        # the shifted right-hand side is positive only for c > e, so the
        # monotone table is assembled at a supercritical c
        with pytest.raises(DegenerateReparamError):
            generalized_reparam(parse("t", {"t"}), c=1.0)
        grep = generalized_reparam(parse("t", {"t"}), c=10.0)
        assert np.all(np.diff(grep.rep.t_table) > 0)
        assert np.all(np.diff(grep.rep.tau_table) < 0)


def test_09_nonuniqueness_detection(capsys):
    with _Line(capsys, "09 non-uniqueness detection"):
        t0 = time.monotonic()
        peano = parse("-sqrt(abs(x))", {"t", "x"})
        rep = funnel_probe(peano, T=1.0, n=201, t_floor=1e-6)
        assert rep.basin_width == pytest.approx(0.25, abs=0.03)
        rep_lin = funnel_probe(parse("x", {"t", "x"}), T=1.0, n=201,
                               t_floor=1e-6)
        assert rep_lin.basin_width <= 2.0 * rep_lin.grid_spacing
        # checkers agree: the square-root field fails with a witness pair
        # hugging x = 0, the linear field passes its gauge-based criteria
        nag = check_nagumo(ProblemSpec.from_dict({"f": "-sqrt(abs(x))"}), CFG)
        assert not nag.overall
        w = nag.hypothesis("lipschitz_1_over_t").witness
        assert min(abs(w["x1"]), abs(w["x2"])) <= 0.05
        lin = ProblemSpec.from_dict({"f": "x", "u": "t^(1/4)*exp(t)",
                                     "omega": "r"})
        assert check_athanassov(lin, CFG).overall
        assert check_constantin(lin, CFG).overall
        assert time.monotonic() - t0 < 30.0


def test_10_change_of_variable_consistency(capsys):
    with _Line(capsys, "10 change-of-variable consistency"):
        f = parse("t*x", {"t", "x"})
        v = lam = parse("t", {"t"})
        rep = build_tau(lam, 1.0)
        field = transform(f, v, lam, rep)
        x_T = 0.5
        traj_t = integrate_ivp(f, 1.0, x_T, 0.01, rtol=1e-10, atol=1e-13)
        tau_end = rep.tau_of_t(0.01)
        traj_tau = integrate_ivp(field.F, rep.tau_minus, x_T, tau_end,
                                 rtol=1e-10, atol=1e-13)
        dev = 0.0
        for t in np.geomspace(0.012, 0.99, 40):
            dev = max(dev, abs(traj_tau.at(rep.tau_of_t(float(t)))
                               - traj_t.at(float(t))))
        assert dev < 1e-5


def test_11_solver_order(capsys):
    with _Line(capsys, "11 solver convergence order"):
        order = convergence_order(parse("x", {"t", "x"}), 0.0, 1.0, 1.0,
                                  exact=math.exp(-1.0),
                                  rtols=(1e-4, 1e-6, 1e-8))
        assert abs(order - 5.0) <= 0.5, order


def test_12_determinism_and_witnesses(capsys, tmp_path):
    with _Line(capsys, "12 determinism and witnesses"):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli.main(["suite", "--corpus", "corpus", "--out", a]) == 0
        assert cli.main(["suite", "--corpus", "corpus", "--out", b]) == 0
        blob = open(a, "rb").read()
        assert blob == open(b, "rb").read()
        assert b"timestamp" not in blob.lower()
        # every failure witness in the shipped corpus re-evaluates
        import glob
        for path in sorted(glob.glob("corpus/*.json")):
            raw = json.loads(open(path).read())
            raw.pop("expect", None)
            raw.pop("justification", None)
            raw.pop("generalized_c", None)
            p = ProblemSpec.from_dict(raw)
            checks = [(p, check_nagumo(p, CFG))]
            if p.u is not None:
                checks.append((p, check_athanassov(p, CFG)))
                if p.omega is not None:
                    checks.append((p, check_constantin(p, CFG)))
                    v, lam = reduce_to_constantin(p.u)
                    reduced = ProblemSpec(f=p.f, u=p.u, v=v, lam=lam,
                                          omega=p.omega, T=p.T,
                                          x_bound=p.x_bound)
                    checks.append((reduced, check_theorem_main(reduced, CFG)))
            if p.v is not None and p.lam is not None and p.omega is not None:
                checks.append((p, check_theorem_main(p, CFG)))
            for problem, rep in checks:
                if not rep.overall:
                    assert reverify(problem, CFG, rep), (path, rep.criterion)
