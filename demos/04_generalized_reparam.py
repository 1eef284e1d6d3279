"""The generalized reparametrization u(t(tau)) = c e^{-tau} - 1/tau.

The perturbed right-hand side h(tau) = c e^{-tau} - 1/tau vanishes where
tau e^{-tau} = 1/c.  h rises to one peak tau_1 < 1 and then falls, and the
peak is positive only when c > e, so the invertible branch only exists at
supercritical c; the table's tau_plus is the zero of h past the peak.
This script first prints ``solve_tau_exp_root``'s root of tau e^tau = 1/c
(the omega constant ~ 0.567143 at c = 1), which is not the table's
tau_plus, and then assembles the table at c = 10.
"""
import math

import numpy as np

from odeuniq import (
    DegenerateReparamError,
    generalized_reparam,
    parse,
    solve_tau_exp_root,
)

for c in (0.5, 1.0, math.e, 10.0, 100.0):
    root = solve_tau_exp_root(c)
    resid = abs(root * math.exp(root) - 1.0 / c)
    print(f"c = {c:7.3f}  root of tau e^tau = 1/c : {root:.15f}  "
          f"residual = {resid:.1e}")

u = parse("t", {"t"})
print("\nbranch assembly at u = t:")
for c in (1.0, 10.0):
    try:
        grep = generalized_reparam(u, c=c)
    except DegenerateReparamError as exc:
        print(f"  c = {c:5.1f}: degenerate ({exc})")
        continue
    rep = grep.rep
    mono = bool(np.all(np.diff(rep.t_table) > 0)
                and np.all(np.diff(rep.tau_table) < 0))
    print(f"  c = {c:5.1f}: tau domain [{rep.tau_minus:.6f}, "
          f"{rep.tau_plus:.6f}], strictly monotone = {mono}")
    # the defining identity holds at every table node
    worst = max(abs(grep.rhs(float(tau)) - float(t))
                for t, tau in zip(rep.t_table, rep.tau_table))
    print(f"           identity residual over table = {worst:.2e}")
