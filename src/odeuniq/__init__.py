"""Numerical verification of uniqueness criteria for singular scalar IVPs
x' + f(t, x) = 0, x(0) = 0 on (0, T], with time reparametrizations and
direct solver-based evidence probes."""

from .criteria import (
    CheckConfig,
    CriterionReport,
    EquivalenceReport,
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
from .expr import (
    EvalDomainError,
    Expression,
    ExprError,
    ExprSyntaxError,
    parse,
    substitute,
)
from .quadrature import QuadResult, integrate, integrate_singular_left, integrate_to_infinity
from .reparam import (
    DegenerateReparamError,
    GeneralizedReparam,
    Reparametrization,
    ReparamError,
    TransformedField,
    alpha_l1_check,
    build_tau,
    exp_reparam_check,
    generalized_reparam,
    solve_tau_exp_root,
    transform,
    verify_fixed_point,
)
from .solver import (
    FunnelReport,
    Trajectory,
    convergence_order,
    funnel_probe,
    integrate_ivp,
)

__version__ = "0.1.0"

__all__ = [
    "CheckConfig", "CriterionReport", "EquivalenceReport", "Hypothesis",
    "ProblemSpec", "ProblemValidationError",
    "check_athanassov", "check_comparison_fn", "check_constantin",
    "check_nagumo", "check_theorem_main", "equivalence_suite",
    "reduce_problem", "reduce_to_constantin", "reverify",
    "EvalDomainError", "Expression", "ExprError", "ExprSyntaxError",
    "parse", "substitute",
    "QuadResult", "integrate", "integrate_singular_left",
    "integrate_to_infinity",
    "DegenerateReparamError", "GeneralizedReparam", "Reparametrization",
    "ReparamError", "TransformedField", "alpha_l1_check", "build_tau",
    "exp_reparam_check", "generalized_reparam", "solve_tau_exp_root",
    "transform", "verify_fixed_point",
    "FunnelReport", "Trajectory", "convergence_order",
    "funnel_probe", "integrate_ivp",
]
