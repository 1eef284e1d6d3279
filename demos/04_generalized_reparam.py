"""The generalized reparametrization u(t(tau)) = c e^{-tau} - 1/tau.

The perturbed right-hand side h(tau) = c e^{-tau} - 1/tau vanishes where
tau e^tau = 1/c.  For c = 1 that root is the omega constant ~ 0.567143,
but h is never positive unless c > e, so the invertible branch only exists
at supercritical c.  This script locates the root, assembles the table at
c = 10, and checks the relaxed pointwise bound that the construction buys:
|f| <= u'/(u - 1/tau^2) * omega(|x|) on the branch.
"""
import math

import numpy as np

from odeuniq import (
    CheckConfig,
    DegenerateReparamError,
    ProblemSpec,
    check_relaxed_bound,
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

print("\nrelaxed bound |f| <= u'/(u - 1/tau^2) omega(|x|) for f = 0:")
p = ProblemSpec.from_dict({"f": "0", "u": "t", "omega": "r"})
grep = generalized_reparam(p.u, c=10.0)
rep = check_relaxed_bound(p, grep, CheckConfig())
for h in rep.hypotheses:
    print(f"  {h.name:32s} {'ok' if h.passed else 'BAD'} "
          f"margin={h.worst_margin:+.3e}")
