"""Test-only reference for the finite-difference oracle: the scalar loop
`numerics.finite_diff_grad` ran before it took one stacked evaluation,
and an adapter that gives a one-point function the stack contract."""

import numpy as np

from nestlab.errors import NumericError


def scalar_finite_diff_grad(f, x, h=1e-4):
    """Central differences with one call of `f` per perturbed point."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f(x)
        flat_x[i] = orig - h
        fm = f(x)
        flat_x[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite evaluation at entry {i}")
        flat_g[i] = (fp - fm) / (2.0 * h)
    return grad


def per_point(f):
    """`f` of one point as a function of a stack of points."""
    return lambda stack: np.array([f(x) for x in stack])
