"""Deterministic dense numerics.

Everything downstream runs on float64 numpy arrays.  This module owns the
portable PRNG (SplitMix64, identical streams on every platform), the
numerically stable softmax and a central finite-difference gradient
oracle.  The layout of a table is the caller's choice: softmax takes
numpy's row sum, left to right on a class-major table and pairwise on a
C-ordered row.
"""

import math

import numpy as np

from .errors import NumericError, ShapeError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
# the same constants as numpy scalars, for the vector path
_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


def _mix(z):
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def _count(size):
    """The number of entries of an array of shape `size`."""
    return math.prod(size) if np.iterable(size) else int(size)


class SplitMix64:
    """Counter-based 64-bit generator with a fixed update rule.

    The state advances by a fixed odd constant per draw and the output is a
    bijective mix of the state, so blocks of draws can be produced
    vectorized without changing the stream.  Each vector call takes one
    block, mixed in place in one array with one scratch array beside it.
    """

    def __init__(self, seed):
        self._state = int(seed) & _MASK64

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def _raw(self, n):
        # identical to n sequential next_u64 calls; uint64 arithmetic wraps
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _U_GAMMA
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        t = np.empty_like(z)
        for shift, mult in ((_U30, _U_MIX1), (_U27, _U_MIX2)):
            np.right_shift(z, shift, out=t)
            z ^= t
            z *= mult
        np.right_shift(z, _U31, out=t)
        z ^= t
        return z

    def _unit(self, n):
        """The top 53 bits of the next n draws as float64 integers; times
        2**-53 they are the uniforms of `uniform`."""
        z = self._raw(n)
        z >>= _U11
        return z.astype(np.float64)

    def uniform(self, size=None):
        """Uniform floats in [0, 1)."""
        if size is None:
            return (self.next_u64() >> 11) * _INV_2_53
        out = self._unit(_count(size))
        out *= _INV_2_53
        return out.reshape(size)

    def normal(self, size, mean=0.0, std=1.0):
        """Box-Muller normals of shape `size` from the uniform stream: u1
        from the first m = ceil(n / 2) draws, u2 from the next m."""
        n = _count(size)
        m = (n + 1) // 2
        u = self._unit(2 * m)
        u[:m] += 1.0  # shift u1 into (0, 1] so the log is finite
        u *= _INV_2_53
        r = np.log(u[:m])
        r *= -2.0
        np.sqrt(r, out=r)
        theta = u[m:]
        theta *= 2.0 * np.pi
        z = np.empty(2 * m)
        np.multiply(r, np.cos(theta, out=z[:m]), out=z[:m])
        np.multiply(r, np.sin(theta, out=z[m:]), out=z[m:])
        z = z[:n]
        z *= std
        z += mean
        return z.reshape(size)

    def integers(self, high, size=None):
        """Integers uniform on [0, high)."""
        if size is None:
            return int(self.uniform() * high)
        return np.minimum((self.uniform(size) * high).astype(np.int64), high - 1)

    def permutation(self, n):
        """Fisher-Yates shuffle of range(n): swap i with integers(i + 1)
        for i = n-1 down to 1, its n - 1 draws taken as one block."""
        perm = list(range(n))
        if n > 1:
            u = self._unit(n - 1)
            u *= _INV_2_53
            u *= np.arange(n, 1, -1, dtype=np.float64)
            for i, j in zip(range(n - 1, 0, -1), u.astype(np.int64).tolist()):
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


def softmax(x, out=None):
    """Stable softmax over the last axis; rows sum to 1.

    The exp and the divide run in place in the one fresh array of the
    max-subtraction, so the only allocations beyond the output are
    per-row vectors; `x` is never written.  With `out`, a float64 array
    of `x`'s shape and memory layout (`x` itself included) whose rows
    reshape to one 2-D view, the same operations run in `out`, which is
    returned: no table is allocated.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ShapeError("softmax of empty input")
    flat = x.reshape(-1, x.shape[-1])
    m = np.maximum.reduce(flat, axis=1)[:, None]
    if out is None:
        e = flat - m
    else:
        if out.shape != x.shape or out.dtype != np.float64:
            raise ShapeError(f"softmax out of shape {out.shape} for input {x.shape}")
        e = out.reshape(flat.shape)
        if not np.may_share_memory(e, out):
            raise ShapeError("softmax out has no 2-D view of its rows")
        np.subtract(flat, m, out=e)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1)[:, None]
    return out if out is not None else e.reshape(x.shape)


def finite_diff_grad(f, x, h=1e-4):
    """Central-difference gradient of a scalar function of an array.

    `f` is evaluated once, on a stack: it takes a `(2n, *x.shape)` array of
    points, `x + h*e_i` for entry i at row i and `x - h*e_i` at row n + i
    (n = x.size), and returns their 2n values.  Entry i of the gradient
    is `(f_i+ - f_i-) / (2h)`, the arithmetic of one evaluation per point,
    so a stacked `f` whose values match its scalar form gives the same
    bits.  The stack holds 2n copies of `x`, so the memory is O(n^2).  A
    non-finite value raises `NumericError` naming the first entry it hits.
    """
    x = np.array(x, dtype=np.float64)
    n = x.size
    if n == 0:
        return x
    flat = x.ravel()
    points = np.tile(flat, (2, n, 1))
    idx = np.arange(n)
    points[0, idx, idx] = flat + h
    points[1, idx, idx] = flat - h
    fp, fm = np.asarray(f(points.reshape((2 * n,) + x.shape)), dtype=np.float64).reshape(2, n)
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if bad.any():
        raise NumericError(f"non-finite evaluation at entry {int(np.argmax(bad))}")
    return ((fp - fm) / (2.0 * h)).reshape(x.shape)
