"""Numerics: PRNG stream stability, softmax, restricted broadcasts, oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestlab.errors import NumericError, ShapeError
from nestlab.numerics import (
    SplitMix64,
    finite_diff_grad,
    hadamard,
    matmul,
    softmax,
)

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


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(np.eye(2), a), a)


def test_matmul_column_selection():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(a, np.array([[1.0], [0.0]])), [[1.0], [3.0]])


def test_matmul_hand_computed():
    a = np.array([[0.5, 2.0], [3.0, 2.0]])
    p = np.array([[0.2], [0.8]])
    np.testing.assert_allclose(matmul(a, p), [[1.7], [2.2]], atol=1e-15)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_matmul_associative_on_random_triples():
    rng = SplitMix64(17)
    for _ in range(20):
        a = rng.normal((3, 4))
        b = rng.normal((4, 5))
        c = rng.normal((5, 2))
        np.testing.assert_allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-10)


def test_hadamard_identity_and_zero():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(hadamard(a, np.ones((2, 2))), a)
    np.testing.assert_array_equal(hadamard(a, np.zeros((2, 2))), np.zeros((2, 2)))


def test_hadamard_column_broadcast():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    col = np.array([[2.0], [1.0]])
    np.testing.assert_array_equal(hadamard(col, a), [[2.0, 4.0], [3.0, 4.0]])


def test_hadamard_row_broadcast():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    row = np.array([[10.0, 0.5]])
    np.testing.assert_array_equal(hadamard(row, a), [[10.0, 1.0], [30.0, 2.0]])


def test_hadamard_rejects_general_broadcast():
    with pytest.raises(ShapeError):
        hadamard(np.zeros((2, 3)), np.zeros((3, 2)))


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
    np.testing.assert_allclose(finite_diff_grad(lambda a: a.sum(), x), np.ones((3, 2)), atol=1e-9)
    g = finite_diff_grad(lambda a: a.ravel()[0] ** 2, np.array([3.0, 1.0]))
    assert abs(g[0] - 6.0) < 1e-6
    assert abs(g[1]) < 1e-9


def test_finite_diff_nonfinite_errors():
    def f(a):
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.log(a[0]))

    with pytest.raises(NumericError):
        finite_diff_grad(f, np.array([0.0]))
