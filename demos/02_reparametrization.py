"""Building and verifying the time reparametrization tau(t).

tau(t) = tau_minus + int_t^T ds/lambda(s) straightens the singular endpoint:
t = 0 maps to tau_plus (finite iff 1/lambda is integrable at 0+).  Three
independent identities validate the construction:

  1. the fixed point      t(tau) = int_tau^tau_plus lambda(t(s)) ds
  2. the weight identity  int_tau^tau_horizon alpha = int_t_min^t(tau) v/lambda
     (both sides stop at the table's horizon, where t = t_min)
  3. the exponential form u(t(tau)) = c e^{-tau} when lambda = u/u'
"""
import math

import numpy as np

from odeuniq import (
    alpha_l1_check,
    build_tau,
    exp_reparam_check,
    parse,
    reduce_to_constantin,
    verify_fixed_point,
)

for lam_src, closed_form in [("1", "tau = 1 - t"),
                             ("t", "tau = -log t"),
                             ("sqrt(t)", "tau = 2(1 - sqrt t)"),
                             ("t/2", "tau = -2 log t")]:
    lam = parse(lam_src, {"t"})
    rep = build_tau(lam, 1.0)
    res = verify_fixed_point(rep, lam)
    print(f"lambda = {lam_src:8s} {closed_form:22s} "
          f"tau_plus = {rep.tau_plus:<12.6g} fixed-point residual = {res:.2e}")

# lambda = t: the inverse is t(tau) = e^{-tau}; check deep into the tail
rep = build_tau(parse("t", {"t"}), 1.0)
print("\nlambda = t inverse vs e^{-tau}:")
for tau in (0.5, 5.0, 12.0, 17.0):
    t_num = rep.t_of_tau(tau, refine=True)
    print(f"  tau = {tau:5.1f}  t(tau) = {t_num:.12e}  "
          f"err = {abs(t_num - math.exp(-tau)):.2e}")

# weight identity at a midpoint for the pair v = t, lambda = t
v = lam = parse("t", {"t"})
mid = 0.5 * (rep.tau_minus + rep.tau_horizon)
print(f"\nL1 identity residual at mid tau: "
      f"{alpha_l1_check(rep, v, lam, mid):.2e}")

# exponential reparametrization for three gauges u with lambda = u/u'
print("\nexponential form u(t(tau)) = u(T) e^{-tau}:")
for u_src, kwargs in (("t", {}), ("t^2", {}), ("exp(-1/t)", {"t_min": 2e-3})):
    u = parse(u_src, {"t"})
    _, lam_u = reduce_to_constantin(u)
    rep_u = build_tau(lam_u, 1.0, **kwargs)
    print(f"  u = {u_src:10s} residual = {exp_reparam_check(u, rep_u):.2e}")
