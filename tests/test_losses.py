"""Losses: frozen reference values, fold-then-CE oracles, gradient checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestlab.errors import DataError, ShapeError
from nestlab.losses import ce, incremental_loss, unbiased_ce, unbiased_kd
from nestlab.numerics import SplitMix64, finite_diff_grad, softmax

import loss_reference
from fd_reference import per_point


def logits_for_probs(probs):
    """Any logit vector whose softmax equals the given probabilities."""
    return np.log(np.asarray(probs, dtype=np.float64))


def test_ce_uniform_logits():
    for c in (2, 3, 7):
        loss, _ = ce(np.zeros((4, c)), np.zeros(4, dtype=np.int64))
        assert abs(loss - np.log(c)) < 1e-12


def test_ce_half_probability():
    z = logits_for_probs([[0.5, 0.25, 0.25]])
    loss, _ = ce(z, np.array([0]))
    assert abs(loss - 0.693147) < 1e-6


def test_ce_label_range():
    with pytest.raises(DataError):
        ce(np.zeros((2, 3)), np.array([0, 3]))


def test_unbiased_ce_new_class_pixel():
    z = logits_for_probs([[0.2, 0.3, 0.5]])
    loss, _ = unbiased_ce(z, np.array([2]), n_old=2)
    assert abs(loss - 0.693147) < 1e-6


def test_unbiased_ce_background_fold():
    # bg absorbs the old class: -log(0.2 + 0.3)
    z = logits_for_probs([[0.2, 0.3, 0.5]])
    loss, _ = unbiased_ce(z, np.array([0]), n_old=2)
    assert abs(loss - 0.693147) < 1e-6


def test_unbiased_ce_fold_then_ce_reference():
    # independent reference: fold old columns into bg, then plain CE
    rng = SplitMix64(21)
    for _ in range(25):
        n, c, n_old = 6, 5, 3
        z = rng.normal((n, c))
        y = rng.integers(c - n_old + 1, size=n)
        y = np.where(y > 0, y + n_old - 1, 0)
        q = softmax(z)
        folded = np.concatenate([q[:, :n_old].sum(axis=1, keepdims=True), q[:, n_old:]], axis=1)
        y_f = np.where(y > 0, y - n_old + 1, 0)
        ref = -np.log(folded[np.arange(n), y_f]).mean()
        loss, _ = unbiased_ce(z, y, n_old)
        assert abs(loss - ref) < 1e-12


def test_unbiased_ce_empty_fold_equals_ce():
    rng = SplitMix64(22)
    z = rng.normal((8, 4))
    y = rng.integers(4, size=8)
    a, da = unbiased_ce(z, y, n_old=1)
    b, db = ce(z, y)
    assert abs(a - b) < 1e-12
    np.testing.assert_allclose(da, db, atol=1e-12)


def test_unbiased_ce_rejects_old_class_labels():
    with pytest.raises(DataError):
        unbiased_ce(np.zeros((2, 4)), np.array([0, 2]), n_old=3)


@settings(max_examples=25, deadline=None)
@given(st.floats(-30, 30))
def test_unbiased_ce_logit_shift_invariant(shift):
    rng = SplitMix64(23)
    z = rng.normal((5, 4))
    y = np.array([0, 3, 2, 0, 3])
    a, _ = unbiased_ce(z, y, n_old=2)
    b, _ = unbiased_ce(z + shift, y, n_old=2)
    assert abs(a - b) < 1e-9


def test_unbiased_kd_hand_computed():
    # old probs (0.4, 0.6); current (0.1, 0.5, 0.4) -> q_hat = (0.5, 0.5)
    z = logits_for_probs([[0.1, 0.5, 0.4]])
    old = np.array([[0.4, 0.6]])
    loss, _ = unbiased_kd(z, old)
    assert abs(loss - 0.693147) < 1e-6


def test_unbiased_kd_self_distillation_minimum():
    # q reproducing the old probs with zero new mass attains the target's
    # entropy, the minimum over q_hat for a fixed target
    old = np.array([[0.3, 0.7], [0.6, 0.4]])
    eps = 1e-12
    z = logits_for_probs(np.concatenate([old * (1 - eps), np.full((2, 1), eps)], axis=1))
    loss, _ = unbiased_kd(z, old)
    entropy = -(old * np.log(old)).sum(axis=1).mean()
    assert abs(loss - entropy) < 1e-6
    # any perturbation increases the loss
    z2 = z.copy()
    z2[:, 0] += 0.3
    assert unbiased_kd(z2, old)[0] > loss


def test_unbiased_kd_fold_then_cross_entropy_reference():
    rng = SplitMix64(24)
    for _ in range(25):
        n, n_old, n_new = 5, 3, 2
        z = rng.normal((n, n_old + n_new))
        old = softmax(rng.normal((n, n_old)))
        q = softmax(z)
        q_hat = np.concatenate(
            [(q[:, 0] + q[:, n_old:].sum(axis=1))[:, None], q[:, 1:n_old]], axis=1
        )
        ref = -(old * np.log(q_hat)).sum(axis=1).mean()
        loss, _ = unbiased_kd(z, old)
        assert abs(loss - ref) < 1e-12


def test_unbiased_kd_shape_errors():
    with pytest.raises(ShapeError):
        unbiased_kd(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        unbiased_kd(np.zeros((2, 3)), np.zeros((2, 4)))
    for old in (0.5, np.zeros(100)):
        with pytest.raises(ShapeError):
            unbiased_kd(np.zeros((100, 3)), old)


def _random_instance(rng, n=4, c=5, n_old=3):
    z = rng.normal((n, c))
    y = rng.integers(c - n_old + 1, size=n)
    y = np.where(y > 0, y + n_old - 1, 0)
    old = softmax(rng.normal((n, n_old)))
    return z, y, old


def test_gradients_match_finite_differences():
    rng = SplitMix64(25)
    for _ in range(30):
        z, y, old = _random_instance(rng)
        _, dz = ce(z, y)
        num = finite_diff_grad(per_point(lambda a: ce(a, y)[0]), z)
        np.testing.assert_allclose(dz, num, rtol=1e-4, atol=1e-8)
        _, dz = unbiased_ce(z, y, 3)
        num = finite_diff_grad(per_point(lambda a: unbiased_ce(a, y, 3)[0]), z)
        np.testing.assert_allclose(dz, num, rtol=1e-4, atol=1e-8)
        _, dz = unbiased_kd(z, old)
        num = finite_diff_grad(per_point(lambda a: unbiased_kd(a, old)[0]), z)
        np.testing.assert_allclose(dz, num, rtol=1e-4, atol=1e-8)


def test_incremental_loss_combination():
    rng = SplitMix64(26)
    z, y, old = _random_instance(rng)
    total, dz = incremental_loss(z, y, old, n_old=3, lambda_kd=2.5)
    ce_only, dce = unbiased_ce(z, y, 3)
    kd_only, dkd = unbiased_kd(z, old)
    assert abs(total - (ce_only + 2.5 * kd_only)) < 1e-12
    np.testing.assert_allclose(dz, dce + 2.5 * dkd, atol=1e-12)
    # lambda 0 short-circuits the distillation term
    t0, dz0 = incremental_loss(z, y, None, n_old=3, lambda_kd=0.0)
    assert abs(t0 - ce_only) < 1e-12
    np.testing.assert_allclose(dz0, dce, atol=1e-12)


def test_losses_nonnegative():
    rng = SplitMix64(27)
    for _ in range(20):
        z, y, old = _random_instance(rng)
        assert unbiased_ce(z, y, 3)[0] >= 0.0
        assert unbiased_kd(z, old)[0] >= 0.0


# Row-wise oracles: the kernels must reproduce them bit for bit.  Each
# class sum adds a row's classes left to right from +0.0, one column at a
# time, the order numpy takes on the kernels' class-major tables.


def _left_to_right(a):
    s = np.zeros(len(a))
    for j in range(a.shape[1]):
        s = s + a[:, j]
    return s


def _oracle_softmax(x):
    e = np.exp(x - np.max(x, axis=1, keepdims=True))
    return e / _left_to_right(e)[:, None]


def _oracle_ce(logits, labels):
    n = len(labels)
    q = _oracle_softmax(logits)
    loss = -np.log(np.maximum(q[np.arange(n), labels], 1e-300)).mean()
    dz = q.copy()
    dz[np.arange(n), labels] -= 1.0
    return loss, dz / n


def _oracle_unbiased_ce(logits, labels, n_old):
    n = len(labels)
    q = _oracle_softmax(logits)
    fold = _left_to_right(q[:, :n_old])
    is_bg = labels == 0
    modeled = np.where(is_bg, fold, q[np.arange(n), labels])
    loss = -np.log(np.maximum(modeled, 1e-300)).mean()
    dz = np.empty_like(q)
    new_rows = ~is_bg
    dz[new_rows] = q[new_rows]
    dz[new_rows, labels[new_rows]] -= 1.0
    if is_bg.any():
        qb = q[is_bg]
        g = qb.copy()
        g[:, :n_old] -= qb[:, :n_old] / fold[is_bg, None]
        dz[is_bg] = g
    return loss, dz / n


def _oracle_unbiased_kd(logits, old_probs):
    n, c = logits.shape
    n_old = old_probs.shape[1]
    q = _oracle_softmax(logits)
    s_new = q[:, 0] + _left_to_right(q[:, n_old:])
    t0 = old_probs[:, 0]
    per_pixel = t0 * np.log(np.maximum(s_new, 1e-300))
    if n_old > 1:
        per_pixel = per_pixel + _left_to_right(old_probs[:, 1:n_old] * np.log(np.maximum(q[:, 1:n_old], 1e-300)))
    loss = -per_pixel.mean()
    in_fold = np.zeros(c)
    in_fold[0] = 1.0
    in_fold[n_old:] = 1.0
    dz = t0[:, None] * q * (1.0 - in_fold[None, :] / s_new[:, None])
    dz += (1.0 - t0)[:, None] * q
    if n_old > 1:
        dz[:, 1:n_old] -= old_probs[:, 1:n_old]
    return loss, dz / n


def _layouts(z):
    """The same logits C-ordered, Fortran-ordered and as a column slice
    of a wider array."""
    wide = np.zeros((z.shape[0], z.shape[1] + 3))
    wide[:, 2 : 2 + z.shape[1]] = z
    return {"C": z, "F": np.asfortranarray(z), "sliced": wide[:, 2 : 2 + z.shape[1]]}


# 63/64/65 rows straddle the row count where the kernels once switched
# from C order to class-major (Fortran) order; they now work class-major
# at every row count
@pytest.mark.parametrize("n", [16, 63, 64, 65, 2048])
@pytest.mark.parametrize("labels", ["all_background", "no_background", "mixed"])
@pytest.mark.parametrize("n_old,c", [(1, 3), (3, 5), (7, 8), (10, 11), (9, 20)])
def test_kernels_match_row_wise_oracles_bit_for_bit(n, labels, n_old, c):
    rng = SplitMix64(1000 * n + 10 * n_old + c)
    z = 4.0 * rng.normal((n, c))
    new = n_old + rng.integers(c - n_old, size=n) if c > n_old else np.zeros(n, dtype=np.int64)
    y = {"all_background": np.zeros(n, dtype=np.int64), "no_background": new, "mixed": np.where(rng.uniform(n) < 0.7, 0, new)}[
        labels
    ]
    old = _oracle_softmax(rng.normal((n, n_old)))

    np.testing.assert_array_equal(softmax(np.asfortranarray(z)), _oracle_softmax(z))
    refs = (_oracle_ce(z, y), _oracle_unbiased_ce(z, y, n_old), _oracle_unbiased_kd(z, old))
    olds = _layouts(old)
    for layout, zl in _layouts(z).items():
        ours = (ce(zl, y), unbiased_ce(zl, y, n_old), unbiased_kd(zl, olds[layout]))
        for (loss, dz), (ref_loss, ref_dz) in zip(ours, refs):
            assert loss == ref_loss, layout
            np.testing.assert_array_equal(dz, ref_dz, err_msg=layout)
            assert dz.flags.c_contiguous, layout
        # the logits are read, never written
        np.testing.assert_array_equal(zl, z)


@pytest.mark.parametrize("n", [16, 2048])
def test_unbiased_kd_with_an_empty_fold_is_the_oracle_and_quiet(n):
    # an old-class logit 1000 above the rest underflows the folded mass
    # s_new to 0 in every third row; the gradient there is NaN, as in the
    # oracle, and no RuntimeWarning escapes the kernel
    rng = SplitMix64(n)
    z = rng.normal((n, 6))
    z[::3, 2] = 1000.0
    old = _oracle_softmax(rng.normal((n, 3)))
    with np.errstate(all="ignore"):
        ref = _oracle_unbiased_kd(z, old)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, dz = unbiased_kd(z, old)
    assert loss == ref[0]
    assert np.isnan(dz[::3]).all() and np.isfinite(dz[1::3]).all()
    np.testing.assert_array_equal(dz, ref[1])


@pytest.mark.parametrize("n", [16, 2048])
def test_unbiased_ce_with_an_underflowed_fold_is_the_oracle_and_quiet(n):
    # a new-class logit 1000 above the rest underflows the background fold
    # to 0 in every third row, all background; the old-class gradient there
    # is NaN, as in the oracle, the new-class columns stay finite and no
    # RuntimeWarning escapes the kernel.  With background the only old
    # column the call is base training's `ce`, whose column 0 goes NaN
    rng = SplitMix64(n + 1)
    z = rng.normal((n, 5))
    z[::3, 4] = 1000.0
    labels = rng.integers(2, size=n) * 4  # background or class 4
    labels[::3] = 0
    for n_old, kernel in ((3, lambda: unbiased_ce(z, labels, 3)), (1, lambda: ce(z, labels))):
        with np.errstate(all="ignore"):
            ref = _oracle_unbiased_ce(z, labels, n_old)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, dz = kernel()
        assert loss == ref[0]
        assert np.isnan(dz[::3, :n_old]).all() and np.isfinite(dz[:, n_old:]).all()
        np.testing.assert_array_equal(dz, ref[1])


def test_only_the_unbiased_kernels_call_softmax_in_losses():
    # one cross-entropy formula: `ce` hands off to `unbiased_ce`, and only
    # the unbiased kernels and `incremental_loss`, which shares one softmax
    # between their cores, take a softmax in `losses`
    import ast
    import pathlib

    from nestlab import losses

    tree = ast.parse(pathlib.Path(losses.__file__).read_text())
    callers = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                name = getattr(node, "id", getattr(node, "attr", None))
                if isinstance(node, (ast.Name, ast.Attribute)) and name == "softmax":
                    callers.append(fn.name)
    assert sorted(set(callers)) == ["incremental_loss", "unbiased_ce", "unbiased_kd"]


def test_softmax_of_a_vector_matches_the_oracle_bit_for_bit():
    # a vector is one C-ordered row, which numpy sums pairwise, so its
    # oracle takes numpy's sum of the vector, not `_left_to_right`
    for c in (1, 5, 9, 40):
        x = SplitMix64(c).normal(c)
        e = np.exp(x - np.max(x))
        assert softmax(x).tobytes() == (e / np.sum(e)).tobytes()


# Leading batch axes: every slice of a batched call is the 2-D call on that
# slice alone, byte for byte.  1 and 16 rows per slice stay below the 64
# rows where the kernels once switched layout, 63/64/65 straddle it, and a
# batch of several slices crosses it even where its slices do not.


def _batched_instance(rng, k, n, c=6, n_old=3, special=None):
    z = 4.0 * rng.normal((k, n, c))
    y = np.where(rng.uniform((k, n)) < 0.6, 0, n_old + rng.integers(c - n_old, size=(k, n)))
    old = softmax(rng.normal((k, n, n_old)))
    if special == "empty_fold":
        # an old-class logit 1000 above the rest underflows unbiased_kd's
        # folded mass to 0 in every third row of the first slice
        z[0, ::3, 2] = 1000.0
    elif special == "underflowed_fold":
        # a new-class logit 1000 above the rest underflows unbiased_ce's
        # background fold to 0 in every third row, all background
        z[0, ::3, c - 1] = 1000.0
        y[0, ::3] = 0
    return z, y, old


def _assert_slices_match(batched, single, k):
    loss, dz = batched
    assert loss.shape == (k,) and dz.flags.c_contiguous
    for i in range(k):
        ref_loss, ref_dz = single(i)
        assert loss[i].tobytes() == np.float64(ref_loss).tobytes()
        assert dz[i].tobytes() == ref_dz.tobytes()


@pytest.mark.parametrize("special", [None, "empty_fold", "underflowed_fold"])
@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 16, 63, 64, 65])
def test_batched_kernels_equal_the_2d_call_on_each_slice(n, k, special):
    rng = SplitMix64(100 * n + 10 * k + (special is not None))
    z, y, old = _batched_instance(rng, k, n, special=special)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # labels and old_probs per slice, and one set broadcast over all
        _assert_slices_match(unbiased_ce(z, y, 3), lambda i: unbiased_ce(z[i], y[i], 3), k)
        _assert_slices_match(unbiased_ce(z, y[0], 3), lambda i: unbiased_ce(z[i], y[0], 3), k)
        _assert_slices_match(unbiased_kd(z, old), lambda i: unbiased_kd(z[i], old[i]), k)
        _assert_slices_match(unbiased_kd(z, old[0]), lambda i: unbiased_kd(z[i], old[0]), k)
    if special == "empty_fold":
        assert np.isnan(unbiased_kd(z, old)[1][0, ::3]).all()
    if special == "underflowed_fold":
        assert np.isnan(unbiased_ce(z, y, 3)[1][0, ::3, :3]).all()


def test_batched_kernels_over_two_leading_axes():
    rng = SplitMix64(7)
    z, y, old = _batched_instance(rng, 6, 16)
    z, y, old = z.reshape(2, 3, 16, 6), y.reshape(2, 3, 16), old.reshape(2, 3, 16, 3)
    for kernel, args in ((unbiased_ce, (y, 3)), (unbiased_kd, (old,))):
        loss, dz = kernel(z, *args)
        assert loss.shape == (2, 3) and dz.shape == z.shape
        for i, j in np.ndindex(2, 3):
            ref_loss, ref_dz = kernel(z[i, j], *(a[i, j] if isinstance(a, np.ndarray) else a for a in args))
            assert loss[i, j] == ref_loss and dz[i, j].tobytes() == ref_dz.tobytes()


def test_batched_kernels_reject_bad_labels_and_row_counts():
    rng = SplitMix64(8)
    z, y, old = _batched_instance(rng, 3, 16)
    for labels, error in (
        (np.where(np.arange(16) == 5, 6, y), DataError),  # past the last column
        (np.where(np.arange(16) == 5, -1, y), DataError),
        (np.where(np.arange(16) == 5, 1, y), DataError),  # a previous step's class
        (y[:, :15], ShapeError),  # one label short per slice
        (y[:2], ShapeError),  # a slice without labels
    ):
        with pytest.raises(error):
            unbiased_ce(z, labels, 3)
    for probs in (old[:, :15], old[:2], old[0, :15], old[..., 0], np.zeros((3, 16, 7))):
        with pytest.raises(ShapeError):
            unbiased_kd(z, probs)
    with pytest.raises(ShapeError):
        unbiased_ce(z[0, 0], y[0, 0], 3)  # one row without its row axis


# incremental_loss shares one softmax between its two terms, and
# unbiased_ce can return only the columns its caller reads; both against
# the kernels that computed every column from a softmax of their own


def _oracle_case(n, n_old, labels, finite, lead=()):
    c = n_old + 2
    rng = SplitMix64(10_000 * n + 100 * n_old + 10 * len(lead) + finite)
    shape = lead + (n,)
    z = 4.0 * rng.normal(shape + (c,))
    if not finite:
        z[..., ::5, 0] = np.inf
        z[..., 1::7, c - 1] = -np.inf
        z[..., 2::11, 1] = np.nan
    new = n_old + rng.integers(c - n_old, size=shape)
    y = {"all_background": np.zeros(shape, dtype=np.int64), "no_background": new, "mixed": np.where(rng.uniform(shape) < 0.6, 0, new)}[
        labels
    ]
    return z, y, _oracle_softmax(rng.normal((int(np.prod(shape)), n_old))).reshape(shape + (n_old,))


def _assert_same_bits(ours, ref):
    """The same (loss, dz) bytes, signed zeros and NaN payloads included."""
    assert np.float64(ours[0]).tobytes() == np.float64(ref[0]).tobytes()
    assert ours[1].shape == ref[1].shape and ours[1].tobytes() == np.ascontiguousarray(ref[1]).tobytes()
    assert ours[1].flags.c_contiguous


@pytest.mark.parametrize("finite", [True, False])
@pytest.mark.parametrize("labels", ["all_background", "no_background", "mixed"])
@pytest.mark.parametrize("n_old", [1, 2, 7, 10])
@pytest.mark.parametrize("n", [16, 63, 64, 2048])
def test_one_softmax_kernels_equal_the_two_softmax_references(n, n_old, labels, finite):
    for lead in ((), (3,)):
        z, y, old = _oracle_case(n, n_old, labels, finite, lead)
        with np.errstate(all="ignore"):
            for lam, probs in ((0.0, old), (0.5, old), (1.0, old), (1.0, None)):
                _assert_same_bits(
                    incremental_loss(z, y, probs, n_old, lam), loss_reference.incremental_loss(z, y, probs, n_old, lam)
                )
            _assert_same_bits(unbiased_kd(z, old), loss_reference.unbiased_kd(z, old))
            full = loss_reference.unbiased_ce(z, y, n_old)
            _assert_same_bits(unbiased_ce(z, y, n_old), full)
            for k in sorted({0, 1, n_old}):
                loss, dz = unbiased_ce(z, y, n_old, old_cols=k)
                cols = np.r_[0:k, n_old : n_old + 2]
                _assert_same_bits((loss, dz), (full[0], full[1][..., cols]))
        # the logits are read, never written
        assert np.array_equal(z, _oracle_case(n, n_old, labels, finite, lead)[0], equal_nan=True)


def test_unbiased_ce_rejects_old_cols_outside_the_old_columns():
    z, y, _ = _oracle_case(16, 3, "mixed", True)
    for k in (-1, 4):
        with pytest.raises(ShapeError):
            unbiased_ce(z, y, 3, old_cols=k)


@pytest.mark.parametrize("shape, axis", [((16, 5), 1), ((2048, 11), 1), ((2048, 11), 0), ((3, 64, 9), -1), ((7,), -1)])
def test_softmax_in_place_has_the_bits_of_the_fresh_output(shape, axis):
    # softmax runs over the last axis; `axis` is moved there in a view, so
    # axis 0 of a C-ordered table is the last axis of its transpose
    x = np.moveaxis(5.0 * SplitMix64(len(shape)).normal(shape), axis, -1)
    before = x.copy()
    ref = softmax(x)
    np.testing.assert_array_equal(x, before)  # without `out`, x is never written
    assert softmax(x, out=x) is x
    assert x.tobytes() == ref.tobytes()
    if x.ndim == 2:
        fortran = np.asfortranarray(before)
        ref = softmax(fortran)
        assert softmax(fortran, out=fortran).tobytes(order="A") == np.asarray(ref, order="A").tobytes(order="A")


def test_softmax_rejects_an_out_it_cannot_fill():
    x = SplitMix64(3).normal((8, 4))
    for out in (np.empty((4, 8)), np.empty((8, 4), dtype=np.float32)):
        with pytest.raises(ShapeError):
            softmax(x, out=out)
    # rows that would need a copy to lie in one 2-D array
    x = np.asfortranarray(SplitMix64(4).normal((3, 8, 4)))
    with pytest.raises(ShapeError):
        softmax(x, out=x)

