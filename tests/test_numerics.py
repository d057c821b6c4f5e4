"""Numerics: PRNG stream stability, softmax, finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestlab.errors import NumericError, ShapeError
from nestlab.numerics import _GAMMA, _INV_2_53, _MASK64, _MIX1, _MIX2, SplitMix64, finite_diff_grad, softmax

from fd_reference import per_point, scalar_finite_diff_grad

# First five raw draws for seed 0, frozen from the reference SplitMix64
# implementation (Steele et al. mixing constants).
_SEED0_STREAM = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_splitmix_known_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == _SEED0_STREAM


def test_same_seed_same_million_element_stream():
    a = SplitMix64(12345).uniform(10**6)
    b = SplitMix64(12345).uniform(10**6)
    assert a.tobytes() == b.tobytes()


def test_vectorized_matches_sequential():
    seq = SplitMix64(99)
    vec = SplitMix64(99)
    singles = np.array([seq.uniform() for _ in range(257)])
    block = vec.uniform(257)
    np.testing.assert_array_equal(singles, block)
    # the two generators must also end in the same state
    assert seq.next_u64() == vec.next_u64()


def test_uniform_range_and_moments():
    u = SplitMix64(7).uniform(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5e-3
    assert abs(u.var() - 1.0 / 12.0) < 5e-3


def test_normal_moments():
    z = SplitMix64(11).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    shifted = SplitMix64(11).normal(1000, mean=3.0, std=0.5)
    assert abs(shifted.mean() - 3.0) < 0.1


def test_integers_cover_range():
    vals = SplitMix64(3).integers(7, size=10_000)
    assert set(np.unique(vals)) == set(range(7))


def test_permutation_is_permutation():
    perm = SplitMix64(5).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def _permutation_loop(rng, n):
    """Reference: Fisher-Yates with one scalar draw per swap."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.integers(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def test_permutation_matches_scalar_draw_loop():
    # same permutation, dtype and generator state as one draw per swap
    for seed in range(20):
        for n in [*range(40), 199, 200, 257]:
            fast, ref = SplitMix64(seed), SplitMix64(seed)
            perm, expected = fast.permutation(n), _permutation_loop(ref, n)
            assert perm.dtype == expected.dtype and perm.tolist() == expected.tolist(), (seed, n)
            assert fast.next_u64() == ref.next_u64(), (seed, n)


class _TwoBlockSplitMix64(SplitMix64):
    """Test-only copy of the vector draws as they were before each call
    took one block mixed in place: allocating uint64 ops, and `normal`'s
    u1 and u2 from two sequential blocks."""

    def _raw(self, n):
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + idx * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform(self, size=None):
        if size is None:
            return super().uniform()
        n = int(np.prod(size))
        out = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return out.reshape(size)

    def normal(self, size, mean=0.0, std=1.0):
        n = int(np.prod(size))
        m = (n + 1) // 2
        u1 = ((self._raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (self._raw(m) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return (mean + std * z).reshape(size)

    def permutation(self, n):
        perm = list(range(n))
        if n > 1:
            u = (self._raw(n - 1) >> np.uint64(11)).astype(np.float64) * _INV_2_53
            js = (u * np.arange(n, 1, -1, dtype=np.float64)).astype(np.int64).tolist()
            for i, j in zip(range(n - 1, 0, -1), js):
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


def _draw_script():
    """Vector draws of every shape kind, each followed by scalar draws, so
    a block that takes one draw too many or too few shifts what follows."""
    sizes = ((), 0, 1, 2, 7, 16, 33, (0,), (4, 0), (1,), (2, 3), (16, 5), (2, 3, 4), (5, 1, 7))
    locs = ((3.0, 0.5), (-1.5, 1.0 / np.sqrt(7)), (0.0, 4.0), (2.5, 1.0))
    for size in sizes:
        yield lambda g, size=size: g.uniform(size)
        yield lambda g, size=size: g.normal(size)
        for mean, std in locs:
            yield lambda g, size=size, mean=mean, std=std: g.normal(size, mean=mean, std=std)
            yield lambda g: g.uniform()
        yield lambda g, size=size: g.integers(9, size=size)
        yield lambda g: g.integers(5)
    for n in (0, 1, 2, 3, 17, 200):
        yield lambda g, n=n: g.permutation(n)
        yield lambda g: g.next_u64()


@pytest.mark.parametrize("seed", [0, 1, 99, 2**63 + 5, 2**64 - 1])
def test_in_place_draws_equal_the_two_block_draws_bit_for_bit(seed):
    ours, ref = SplitMix64(seed), _TwoBlockSplitMix64(seed)
    for i, draw in enumerate(_draw_script()):
        got, want = draw(ours), draw(ref)
        assert type(got) is type(want), i
        if isinstance(want, np.ndarray):
            assert (got.shape, got.dtype) == (want.shape, want.dtype), i
            assert got.tobytes() == want.tobytes(), i
        else:
            assert got == want, i
        assert ours._state == ref._state, i


def test_softmax_uniform_cases():
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])
    np.testing.assert_allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5])


def test_softmax_two_logit_value():
    s = softmax(np.array([2.0, 0.0]))
    e2 = np.exp(2.0)
    np.testing.assert_allclose(s, [e2 / (e2 + 1.0), 1.0 / (e2 + 1.0)], atol=1e-12)
    assert abs(s[0] - 0.88079) < 1e-5


def test_softmax_empty_errors():
    with pytest.raises(ShapeError):
        softmax(np.zeros(0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_sums_to_one(vals):
    s = softmax(np.array(vals))
    assert abs(s.sum() - 1.0) <= 1e-12
    assert (s > 0).all()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=6), st.randoms())
def test_softmax_permutation_equivariant(vals, pyrandom):
    x = np.array(vals)
    perm = np.array(pyrandom.sample(range(len(vals)), len(vals)))
    np.testing.assert_allclose(softmax(x)[perm], softmax(x[perm]), atol=1e-12)


def test_finite_diff_sum_and_quadratic():
    x = SplitMix64(2).normal((3, 2))
    np.testing.assert_allclose(finite_diff_grad(lambda s: s.sum(axis=(1, 2)), x), np.ones((3, 2)), atol=1e-9)
    g = finite_diff_grad(lambda s: s[:, 0] ** 2, np.array([3.0, 1.0]))
    assert abs(g[0] - 6.0) < 1e-6
    assert abs(g[1]) < 1e-9


def test_finite_diff_nonfinite_errors():
    def f(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(s[:, 0])

    with pytest.raises(NumericError):
        finite_diff_grad(f, np.array([0.0]))


_SUM_AND_QUADRATIC = [
    (lambda a: a.sum(), lambda s: s.sum(axis=tuple(range(1, s.ndim)))),
    (lambda a: a.ravel()[0] ** 2, lambda s: s.reshape(len(s), -1)[:, 0] ** 2),
    (lambda a: (a * a).sum(), lambda s: (s * s).sum(axis=tuple(range(1, s.ndim)))),
]


@pytest.mark.parametrize("case", range(len(_SUM_AND_QUADRATIC)))
@pytest.mark.parametrize("shape", [(1,), (2,), (3, 2), (2, 3, 4)])
@pytest.mark.parametrize("h", [1e-4, 1e-6])
def test_stacked_oracle_equals_the_scalar_loop_bit_for_bit(case, shape, h):
    scalar, stacked = _SUM_AND_QUADRATIC[case]
    x = SplitMix64(len(shape) + case).normal(shape)
    x.ravel()[0] = -0.0  # a signed zero is perturbed like any other entry
    ref = scalar_finite_diff_grad(scalar, x, h)
    for f in (stacked, per_point(scalar)):
        ours = finite_diff_grad(f, x, h)
        assert ours.shape == x.shape
        assert ours.tobytes() == ref.tobytes()


def test_stacked_oracle_takes_one_evaluation_of_the_whole_stack():
    x = SplitMix64(3).normal((2, 3))
    seen = []

    def f(s):
        seen.append(s.copy())
        return s.sum(axis=(1, 2))

    finite_diff_grad(f, x, h=0.5)
    (stack,) = seen
    assert stack.shape == (12, 2, 3)
    # x + h*e_i at row i, x - h*e_i at row 6 + i
    for i in range(6):
        for sign, row in ((1.0, i), (-1.0, 6 + i)):
            point = x.copy()
            point.ravel()[i] += sign * 0.5
            assert stack[row].tobytes() == point.tobytes()
    assert finite_diff_grad(f, np.zeros((0, 3))).shape == (0, 3)
    assert len(seen) == 1  # an empty x is not evaluated


@pytest.mark.parametrize("bad", [[(2, 1)], [(0, -1), (3, 1)], [(4, 1), (1, -1)], [(5, -1)], [(3, 1), (3, -1), (5, 1)]])
def test_stacked_oracle_names_the_first_non_finite_entry(bad):
    # f is NaN at x + h*e_i for each (i, 1) in `bad` and inf at x - h*e_i
    # for each (i, -1)
    x = SplitMix64(4).normal(6)

    def value(a):
        for i, sign in bad:
            if a[i] == x[i] + sign * 1e-4:
                return np.nan if sign > 0 else np.inf
        return a.sum()

    with pytest.raises(NumericError) as ref:
        scalar_finite_diff_grad(value, x)
    with pytest.raises(NumericError) as ours:
        finite_diff_grad(per_point(value), x)
    first = min(i for i, _ in bad)
    assert str(ours.value) == str(ref.value) == f"non-finite evaluation at entry {first}"


def _sweep_max(a):
    """Test-only copy of the row max softmax took before it took numpy's:
    numpy's below 64 rows, else a running np.maximum over the columns."""
    if len(a) < 64:
        return np.maximum.reduce(a, axis=1)
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j], out=out)
    return out


def _softmax_before_in_place(x, axis=-1):
    """Test-only copy of softmax as it was before its exp and divide ran
    in place, three fresh arrays of the input's size, and before its max
    was numpy's; its sum is numpy's, as softmax's is."""
    x = np.asarray(x, dtype=np.float64)
    rows = x.swapaxes(axis, -1)
    flat = rows.reshape(-1, rows.shape[-1])
    e = np.exp(flat - _sweep_max(flat)[:, None])
    return (e / np.sum(e, axis=1)[:, None]).reshape(rows.shape).swapaxes(axis, -1)


def _softmax_inputs():
    rng = SplitMix64(91)
    for n in (1, 2, 63, 64, 65, 300):
        for c in (1, 2, 3, 5, 7, 8, 11, 17, 128, 131):
            x = rng.normal((n, c), std=4.0)
            x[::5, 0] = 700.0  # rows whose exp overflows without the shift
            yield f"{n}x{c}", x
    for n in (63, 300):  # a zero max of either sign, a NaN, -inf
        for c in (3, 9):
            x = rng.normal((n, c))
            x[1::4] = -0.0
            x[1::8, ::2] = 0.0
            x[2::4, 1] = np.nan
            x[3::4, 0] = -np.inf
            yield f"{n}x{c}-specials", x
    x = rng.normal((3, 70, 6))
    yield "3x70x6", x
    yield "vector", rng.normal(9)


@pytest.mark.parametrize("name, x", list(_softmax_inputs()), ids=lambda v: v if isinstance(v, str) else "")
def test_in_place_softmax_equals_the_old_expression_bit_for_bit(name, x):
    for layout in (np.ascontiguousarray(x), np.asfortranarray(x), x[..., ::-1]):
        layout.setflags(write=False)  # the input is never written
        before = layout.tobytes()
        for axis in range(-x.ndim, x.ndim):  # softmax over `axis`: the last axis of a view
            got, want = softmax(layout.swapaxes(axis, -1)).swapaxes(axis, -1), _softmax_before_in_place(layout, axis=axis)
            assert got.shape == want.shape and got.strides == want.strides, (name, axis)
            assert got.tobytes() == want.tobytes(), (name, axis)
            assert got.flags.writeable and not np.shares_memory(got, layout)
        assert layout.tobytes() == before


@pytest.mark.parametrize("c", [5, 11])
@pytest.mark.parametrize("order", ["C", "F"])
def test_softmax_peaks_at_its_output_plus_row_vectors(c, order):
    import tracemalloc

    n = 51200
    x = np.asarray(SplitMix64(c).normal((n, c)), order=order)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = softmax(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the output, the row max and the row sum's partial sums, nothing of
    # the input's size beside the output
    assert peak <= out.nbytes + 4 * n * 8 + 64 * 1024
