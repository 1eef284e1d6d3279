"""Panel-by-panel reference loops for ``quadrature.sweep_singular_left``.

These are the loops the batched sweep replaced: the geometric-panel loop
of ``integrate_singular_left`` and the per-segment adaptive integrals of
the H2 and Osgood sweeps.  Tests compare the batched driver against them.
"""
import numpy as np

from odeuniq.quadrature import _tail_driver, integrate


def singular_left(g, b, tol, budget=10_000, max_panels=1200):
    """int_0+^b g, one adaptive ``integrate`` call per geometric panel."""

    def panels():
        hi = b
        for k in range(max_panels):
            lo = hi * 0.5
            ptol = 0.5 * tol / ((k + 1) * (k + 2))
            res = integrate(g, lo, hi, tol=max(ptol, 1e-300),
                            budget=min(budget, 200))
            yield res.value, res.abs_error_estimate
            hi = lo

    return _tail_driver(panels(), tol, max_panels)


def sweep(g, grid, tol):
    """(base, values, converged): int_0+^grid[j] g for every j, with the
    flag of the piece ending at grid[j]; values is None after a divergent
    base, as the loop stopped there."""
    base = singular_left(g, float(grid[0]), tol)
    if base.diverged:
        return base, None, None
    total = base.value
    values, converged = [total], [base.converged]
    for a, b in zip(grid[:-1], grid[1:]):
        seg = integrate(g, float(a), float(b), tol=tol)
        total += seg.value
        values.append(total)
        converged.append(seg.converged)
    return base, np.array(values), np.array(converged)
