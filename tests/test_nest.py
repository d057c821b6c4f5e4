"""Transform init, classifier generation, pre-tuning, WA, cost formula."""

import numpy as np
import pytest

from nestlab import nest
from nestlab.errors import DataError, NumericError, ShapeError
from nestlab.losses import unbiased_ce
from nestlab.model import Backbone, Head, SegModel, grow_head
from nestlab.numerics import SplitMix64, finite_diff_grad, softmax

import toys


def test_similarity_scores_hand_computed():
    # W_old = I2, p = [2, 0]: column sums [2, 0], scores = softmax([2, 0])
    h, s = nest.similarity_scores(np.array([2.0, 0.0]), np.eye(2))
    np.testing.assert_array_equal(h, [[2.0, 0.0], [0.0, 0.0]])
    assert abs(s[0] - 0.88079) < 1e-5
    assert abs(s[1] - 0.11920) < 1e-5


def test_similarity_scores_equal_head_softmax():
    rng = SplitMix64(31)
    for _ in range(50):
        d, n_old = 2 + rng.integers(8), 1 + rng.integers(5)
        p = rng.normal(d)
        w = rng.normal((d, n_old))
        _, s = nest.similarity_scores(p, w)
        np.testing.assert_allclose(s, softmax(w.T @ p), atol=1e-12)


def test_similarity_scores_shape_error():
    with pytest.raises(ShapeError):
        nest.similarity_scores(np.zeros(3), np.zeros((4, 2)))


def test_binary_mask():
    h = np.array([[1.0, -2.0], [0.0, 3.0]])
    np.testing.assert_array_equal(nest.binary_mask(h), [[1.0, 0.0], [0.0, 1.0]])
    assert nest.binary_mask(-np.ones((3, 3))).sum() == 0.0


def test_masked_table_never_negative():
    rng = SplitMix64(32)
    for _ in range(100):
        h = rng.normal((4, 3))
        assert (nest.binary_mask(h) * h).min() >= 0.0


def test_init_importance_single_pixel_hand_case():
    # one pixel, W = I2, p = [2, 0]: Hadamard table diag([2, 0]), so only
    # the top-left mask entry survives and carries score softmax([2,0])[0]
    w = np.eye(2)
    pix = np.array([[2.0, 0.0]])
    m = nest.init_importance(pix, w)
    s = softmax(np.array([2.0, 0.0]))
    np.testing.assert_allclose(m, [[s[0], 0.0], [0.0, 0.0]], atol=1e-12)


def test_init_importance_range_and_average():
    rng = SplitMix64(33)
    pix = rng.normal((20, 4))
    w = rng.normal((4, 3))
    m = nest.init_importance(pix, w)
    assert m.min() >= 0.0 and m.max() <= 1.0
    # equals the mean of per-pixel masked score tables
    acc = np.zeros_like(w)
    for p in pix:
        h, s = nest.similarity_scores(p, w)
        acc += nest.binary_mask(h) * s[None, :]
    np.testing.assert_allclose(m, acc / 20, atol=1e-12)


def test_init_importance_needs_pixels():
    with pytest.raises(DataError):
        nest.init_importance(np.zeros((0, 3)), np.zeros((3, 2)))


def test_init_projection_values():
    m = np.zeros((2, 2))
    np.testing.assert_allclose(nest.init_projection(m), [[0.5], [0.5]])
    m = np.array([[0.88079, 0.11920], [0.0, 0.0]])
    p = nest.init_projection(m)
    ref = softmax(np.array([0.88079, 0.11920]))
    np.testing.assert_allclose(p.ravel(), ref, atol=1e-12)
    # sigmoid(0.88079 - 0.11920) evaluated directly
    assert abs(p[0, 0] - 0.6816988) < 1e-6


def test_generate_new_weight_hand_computed():
    m = np.array([[0.5, 1.0], [1.0, 0.5]])
    p = np.array([[0.2], [0.8]])
    w_old = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(nest.generate_new_weight(m, p, w_old), [1.7, 2.2], atol=1e-12)


def test_generate_new_weight_zero_importance():
    w_old = SplitMix64(34).normal((3, 2))
    out = nest.generate_new_weight(np.zeros((3, 2)), np.full((2, 1), 0.5), w_old)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_generate_bg_weight():
    # the background column m0 * w0 * p0 is the generated column of the
    # one-column head w0
    w0 = np.array([[1.0], [4.0]])
    np.testing.assert_array_equal(nest.generate_new_weight(np.array([[2.0], [1.0]]), np.array([[0.5]]), w0), [1.0, 2.0])
    np.testing.assert_array_equal(nest.generate_new_weight(np.ones((2, 1)), np.ones((1, 1)), w0), w0[:, 0])
    np.testing.assert_array_equal(nest.generate_new_weight(np.ones((2, 1)), np.zeros((1, 1)), w0), [0.0, 0.0])


def test_identity_background_init_reproduces_w0():
    rng = SplitMix64(35)
    for _ in range(10):
        d = 2 + rng.integers(6)
        old = toys.old_model(rng, d=d)
        table = toys.table(toys.step(rng), old)
        w_old = old.head.weights
        for tset in (nest.similarity_init_transforms(table, old), nest.random_init_transforms(table, old, rng)):
            bg = nest.generate_new_weight(tset.bg_importance, tset.bg_projection, w_old[:, :1])
            np.testing.assert_array_equal(bg, w_old[:, :1].T)


def test_assemble_pretune_head_layout():
    rng = SplitMix64(36)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    tset = nest.similarity_init_transforms(table, old)
    head = nest.assemble_pretune_head(old.head, tset)
    assert head.num_classes == 5  # bg + 2 frozen old + 2 new
    # identity bg transform and untouched old columns
    np.testing.assert_array_equal(head.weights[:, 0], old.head.weights[:, 0])
    assert head.weights[:, 1:3].tobytes() == old.head.weights[:, 1:3].tobytes()


def test_assemble_no_new_classes():
    rng = SplitMix64(37)
    old = toys.old_model(rng)
    d, n_old = old.head.weights.shape
    tset = nest.TransformSet(
        importance=np.zeros((0, d, n_old)),
        projection=np.zeros((0, n_old, 1)),
        bg_importance=2.0 * np.ones((1, d, 1)),
        bg_projection=np.ones((1, 1, 1)),
    )
    head = nest.assemble_pretune_head(old.head, tset)
    assert head.num_classes == old.head.num_classes
    np.testing.assert_array_equal(head.weights[:, 0], 2.0 * old.head.weights[:, 0])
    assert head.weights[:, 1:].tobytes() == old.head.weights[:, 1:].tobytes()


def test_similarity_init_requires_class_pixels():
    rng = SplitMix64(38)
    old = toys.old_model(rng)
    classes, x, labels = toys.step(rng)
    labels[labels == 4] = 0
    with pytest.raises(DataError):
        nest.similarity_init_transforms(toys.table((classes, x, labels), old), old)


def test_pretune_zero_lr_equivalent():
    # lr -> 0 must leave the transforms (and generated weights) unchanged
    rng = SplitMix64(39)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    tset = nest.similarity_init_transforms(table, old)
    before = tset.importance.copy()
    nest.pretune(table, old, tset, nest.PretuneConfig(epochs=2, lr=1e-300, batch_size=2), SplitMix64(1))
    np.testing.assert_allclose(tset.importance, before, atol=1e-12)


def test_pretune_moves_bg_transform():
    rng = SplitMix64(40)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    tset = nest.similarity_init_transforms(table, old)
    nest.pretune(table, old, tset, nest.PretuneConfig(epochs=1, lr=0.1, batch_size=2), SplitMix64(1))
    w0 = old.head.weights[:, :1]
    moved = nest.generate_new_weight(tset.bg_importance, tset.bg_projection, w0)
    assert not np.array_equal(moved, w0.T)


def test_pretune_improves_unce():
    rng = SplitMix64(41)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng, images=8), old)

    def loss_of(tset):
        head = nest.assemble_pretune_head(old.head, tset)
        return unbiased_ce(head.logits(table.f.reshape(-1, 4)), table.y.ravel(), 3)[0]

    tset = nest.similarity_init_transforms(table, old)
    before = loss_of(tset)
    nest.pretune(table, old, tset, nest.PretuneConfig(epochs=10, lr=0.2, batch_size=4), SplitMix64(1))
    assert loss_of(tset) < before


def test_pretune_leaves_old_model_untouched():
    rng = SplitMix64(42)
    old = toys.old_model(rng)
    before = old.param_bytes()
    table = toys.table(toys.step(rng), old)
    tset = nest.similarity_init_transforms(table, old)
    nest.pretune(table, old, tset, nest.PretuneConfig(epochs=3, lr=0.1, batch_size=2), SplitMix64(1))
    assert old.param_bytes() == before


def test_pretune_that_generates_an_overflowing_column_from_finite_transforms_raises():
    # one batch: its step leaves every transform finite (~1e198), but each
    # generated column multiplies two of them, past float64's range
    rng = SplitMix64(48)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng, images=1), old)
    tset = nest.similarity_init_transforms(table, old)
    cfg = nest.PretuneConfig(epochs=1, lr=1e200, batch_size=1)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="non-finite new columns after tuning epoch 0"):
            nest.pretune(table, old, tset, cfg, SplitMix64(1))
        head = nest.assemble_pretune_head(old.head, tset)
    arrays = (tset.bg_importance, tset.bg_projection, tset.importance, tset.projection)
    assert all(np.isfinite(a).all() for a in arrays)
    assert not np.isfinite(head.weights).all()


def _per_class_head(old_head, tset):
    """Reference: the pre-tuning head built one generated column at a
    time, with the background column m0 * w0 * p0 written out."""
    w_old = old_head.weights
    cols = [((m * w_old) @ p)[:, 0] for m, p in zip(tset.importance, tset.projection)]
    head = grow_head(old_head, np.stack(cols, axis=1), tset.biases)
    head.weights[:, 0] = tset.bg_importance[0, :, 0] * w_old[:, 0] * tset.bg_projection.item()
    return head


def _pretune_reassembling_every_batch(table, old_model, tset, cfg, rng, lse_column=True):
    """Reference: the pre-tuning loop that assembled a fresh head for
    every batch and stepped each new class's transform, and the background
    pair, by its own hand-written chain rule.  Its loss reads the frozen
    old columns through one log-sum-exp column, computed once before the
    loop, or, without `lse_column`, through the whole head."""
    w_old = old_model.head.weights
    d, n_old = w_old.shape
    w0 = w_old[:, 0]
    use_bias = old_model.head.biases is not None
    feats = table.f.reshape(-1, d)
    lse = toys.log_sum_exp(feats, old_model.head, list(range(1, n_old))).reshape(table.y.shape)
    new = 1 if lse_column else n_old  # the first new column of dz
    for _ in range(cfg.epochs):
        order = rng.permutation(len(table.f))
        for start in range(0, len(table.f), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x = table.f[batch].reshape(-1, d)
            y = table.y[batch].reshape(-1)
            head = _per_class_head(old_model.head, tset)
            if lse_column:
                _, dz = toys.pseudo_column_ce(head, x, y, n_old, 1, lse[batch].reshape(-1))
            else:
                _, dz = unbiased_ce(head.logits(x), y, n_old)
            g = x.T @ dz
            g0 = g[:, 0]
            d_m0 = (g0 * w0 * tset.bg_projection.item())[None, :, None]
            d_p0 = float(g0 @ (tset.bg_importance[0, :, 0] * w0))
            if tset.train_importance:
                tset.bg_importance = tset.bg_importance - cfg.lr * d_m0
            if tset.train_projection:
                tset.bg_projection = tset.bg_projection - cfg.lr * d_p0
            importance, projection = tset.importance.copy(), tset.projection.copy()
            bias_grads = dz[:, new:].sum(axis=0)
            for i in range(len(importance)):
                gc = g[:, new + i]
                m, p = tset.importance[i], tset.projection[i]
                d_m = gc[:, None] * w_old * p.ravel()[None, :]
                d_p = ((m * w_old).T @ gc)[:, None]
                if tset.train_importance:
                    importance[i] = m - cfg.lr * d_m
                if tset.train_projection:
                    projection[i] = p - cfg.lr * d_p
                if use_bias and tset.biases is not None:
                    tset.biases[i] = tset.biases[i] - cfg.lr * bias_grads[i]
            tset.importance, tset.projection = importance, projection
    return tset


def _random_labels(rng, rows, n_old, n_new):
    """Background or new-class head columns, background about half."""
    ids = rng.integers(2 * n_new, size=rows)
    return np.where(ids < n_new, 0, n_old + ids - n_new)


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("old_cols", [0, 1])
@pytest.mark.parametrize("n_old", range(2, 12))
def test_one_log_sum_exp_column_gives_the_whole_heads_loss_and_gradient(n_old, old_cols, use_bias):
    # the frozen columns enter the loss only through their softmax mass,
    # which is the mass of one column holding their log-sum-exp
    rng = SplitMix64(300 + 2 * n_old + old_cols)
    d = 4
    for n_new in (1, 2, 3):
        c = n_old + n_new
        head = Head(rng.normal((d, c)), rng.normal(c) if use_bias else None)
        for rows in (1, 7, 2048):
            x = rng.normal((rows, d))
            y = _random_labels(rng, rows, n_old, n_new)
            lse = nest._log_sum_exp(x, head, np.arange(old_cols, n_old))
            loss, dz = toys.pseudo_column_ce(head, x, y, n_old, old_cols, lse)
            want_loss, want_dz = unbiased_ce(head.logits(x), y, n_old, old_cols=old_cols)
            assert dz.shape == want_dz.shape == (rows, old_cols + n_new)
            np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=0)
            # a background entry q_0 - q_0/fold cancels where fold is near 1,
            # so its rounding is measured against 1/rows, the largest entry
            # a mean's gradient can have
            np.testing.assert_allclose(dz, want_dz, rtol=1e-12, atol=1e-12 / rows)


@pytest.mark.parametrize("frozen", [700.0, -700.0])
def test_log_sum_exp_column_of_extreme_frozen_logits_is_finite(frozen):
    # frozen logits near exp's range on either side: the row max keeps the
    # log-sum-exp finite, and the loss is the whole head's
    rng = SplitMix64(310)
    rows, n_old, n_new = 64, 5, 2
    x = np.abs(rng.normal((rows, 1))) + 0.5
    w = np.concatenate([[0.3], frozen + np.arange(n_old - 1) / 2, [0.2, -0.1]])[None, :]
    head = Head(w / x.mean(), None)
    y = _random_labels(rng, rows, n_old, n_new)
    for old_cols in (0, 1):
        lse = nest._log_sum_exp(x, head, np.arange(old_cols, n_old))
        assert np.isfinite(lse).all()
        loss, dz = toys.pseudo_column_ce(head, x, y, n_old, old_cols, lse)
        want_loss, want_dz = unbiased_ce(head.logits(x), y, n_old, old_cols=old_cols)
        np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=0)
        np.testing.assert_allclose(dz, want_dz, rtol=1e-12, atol=1e-12 / rows)  # as above


def test_tuning_whose_background_fold_underflows_raises():
    # the new columns' logits lie ~1000 above the old ones': a background
    # pixel's folded probability underflows to 0, and the gradient of the
    # tuned background column with it
    rng = SplitMix64(311)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    head = grow_head(old.head, np.full((old.head.dim, 2), 1e3))
    params = [head.weights[:, :1], head.weights[:, 3:]]

    def grads(x, dz):
        g = x.T @ dz
        return [g[:, :1], g[:, 1:]]

    cfg = nest.PretuneConfig(epochs=2, lr=0.1, batch_size=len(table.f))  # one batch per epoch
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"^non-finite parameters at tuning epoch 0$"):
            nest.tune_new_columns(table, lambda: head, 3, cfg, SplitMix64(1), params, grads, tune_bg=True)


@pytest.mark.parametrize("strategy", ["nest:similarity:both", "two_stage"])
def test_tuning_loss_never_sees_a_frozen_column(strategy, monkeypatch):
    # S6-1 at step 4: 10 old columns and one new class; each batch's loss
    # runs on the tuned columns and the one log-sum-exp column alone
    from nestlab.strategies import initialize_head, parse_strategy
    from nestlab.synthdata import TaskSequence, WorldSpec, build_world, step_view

    world, seq = build_world(WorldSpec()), TaskSequence()
    rng = SplitMix64(312)
    old = SegModel(Backbone.single_relu(16, 16, rng), Head(rng.normal((16, 10)), np.zeros(10))).snapshot()
    table = step_view(seq, world, 4, old.backbone)
    n_new = len(table.classes)
    calls = []

    def recording(logits, labels, n_old, old_cols=None):
        calls.append((logits.shape, n_old, old_cols))
        return unbiased_ce(logits, labels, n_old, old_cols)

    monkeypatch.setattr(nest, "unbiased_ce", recording)
    cfg = nest.PretuneConfig(epochs=1)
    initialize_head(parse_strategy(strategy), old, table, cfg, SplitMix64(1))
    old_cols = int(strategy.startswith("nest"))
    assert n_new == 1 and len(calls) == -(-len(table.f) // cfg.batch_size)
    assert all(shape[-1] == old_cols + 1 + n_new and n == old_cols + 1 and k == old_cols for shape, n, k in calls)


def _tset_bytes(tset):
    arrays = (tset.bg_importance, tset.bg_projection, tset.importance, tset.projection, tset.biases)
    return b"".join(a.tobytes() for a in arrays if a is not None)


# 4x4 images in batches of 2 give 32-row batches, 8x8 images in batches
# of 3 give 192-row batches: either side of 64 rows, where the loss
# kernels once switched from C order to class-major order
@pytest.mark.parametrize("hw, batch_size", [(4, 2), (8, 3)])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("variant", ["both", "importance_only", "projection_only"])
def test_pretune_equals_reassembling_the_head_every_batch(variant, use_bias, hw, batch_size):
    rng = SplitMix64(48)
    d, n_old = 4, 3
    head = Head(rng.normal((d, n_old)), rng.normal(n_old) if use_bias else None)
    old = SegModel(Backbone.single_relu(4, d, rng), head).snapshot()
    table = toys.table(toys.step(rng, hw=hw, images=6), old)
    cfg = nest.PretuneConfig(epochs=3, lr=0.5, batch_size=batch_size)

    def fresh():
        tset = nest.similarity_init_transforms(table, old)
        return nest.apply_component_variant(tset, variant)

    ours_rng, ref_rng = SplitMix64(7), SplitMix64(7)
    ours = fresh()
    tuned = nest.pretune(table, old, ours, cfg, ours_rng)
    ref = _pretune_reassembling_every_batch(table, old, fresh(), cfg, ref_rng)
    assert _tset_bytes(ours) != _tset_bytes(fresh())  # the transforms moved
    assert _tset_bytes(ours) == _tset_bytes(ref)
    assert ours_rng.next_u64() == ref_rng.next_u64()
    # the loss on the whole head is the same loss, rounded otherwise
    full = _pretune_reassembling_every_batch(table, old, fresh(), cfg, SplitMix64(7), lse_column=False)
    for name in ("bg_importance", "bg_projection", "importance", "projection", "biases"):
        if getattr(full, name) is not None:
            np.testing.assert_allclose(getattr(ours, name), getattr(full, name), rtol=1e-9, atol=0, err_msg=name)
    # the returned head is the tuned transforms' head, byte for byte
    assembled = _per_class_head(old.head, ref)
    assert assembled.weights.tobytes() == nest.assemble_pretune_head(old.head, ref).weights.tobytes()
    assert tuned.weights.tobytes() == assembled.weights.tobytes()
    assert (tuned.biases is None) == (assembled.biases is None) == (not use_bias)
    if use_bias:
        assert tuned.biases.tobytes() == assembled.biases.tobytes()


@pytest.mark.parametrize("use_bias", [False, True])
def test_transform_initializers_carry_biases_exactly_when_the_old_head_has_them(use_bias):
    rng = SplitMix64(45)
    head = Head(rng.normal((4, 3)), rng.normal(3) if use_bias else None)
    old = SegModel(Backbone.single_relu(4, 4, rng), head).snapshot()
    table = toys.table(toys.step(rng), old)
    for tset in (nest.similarity_init_transforms(table, old), nest.random_init_transforms(table, old, SplitMix64(1))):
        if use_bias:
            assert tset.biases.dtype == np.float64 and tset.biases.tobytes() == np.zeros(2).tobytes()
        else:
            assert tset.biases is None


def test_component_variants():
    rng = SplitMix64(43)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    t_imp = nest.apply_component_variant(nest.similarity_init_transforms(table, old), "importance_only")
    np.testing.assert_array_equal(t_imp.projection, np.full((2, 3, 1), 1.0 / 3))
    assert not t_imp.train_projection
    t_proj = nest.apply_component_variant(nest.similarity_init_transforms(table, old), "projection_only")
    np.testing.assert_array_equal(t_proj.importance, np.ones((2, 4, 3)))
    assert not t_proj.train_importance
    with pytest.raises(ValueError):
        nest.apply_component_variant(t_proj, "bogus")


def test_projection_only_is_linear_combination():
    # with M = ones, Eq. (1) degenerates to W_old @ P
    rng = SplitMix64(44)
    w_old = rng.normal((4, 3))
    p = softmax(rng.normal(3))[:, None]
    out = nest.generate_new_weight(np.ones((4, 3)), p, w_old)
    np.testing.assert_allclose(out, (w_old @ p).ravel(), atol=1e-12)


def test_weight_align_halves_oversized_column():
    old = np.array([[2.0, 0.0], [0.0, 2.0]]).T  # two columns of norm 2
    new = np.array([[0.0], [4.0]])  # single column of norm 4
    np.testing.assert_allclose(nest.weight_align(old, new), [[0.0], [2.0]], atol=1e-12)


def test_weight_align_noop_when_matched():
    rng = SplitMix64(45)
    old = rng.normal((4, 3))
    new = old[:, :2].copy()
    scale = np.linalg.norm(old, axis=0).mean() / np.linalg.norm(new, axis=0).mean()
    aligned = nest.weight_align(old, new * 1.0)
    np.testing.assert_allclose(aligned, new * scale, atol=1e-12)


def test_weight_align_postcondition_random():
    rng = SplitMix64(46)
    for _ in range(30):
        old = rng.normal((5, 1 + rng.integers(4)))
        new = rng.normal((5, 1 + rng.integers(3))) * (0.2 + 3 * rng.uniform())
        scaled = nest.weight_align(old, new)
        assert abs(
            np.linalg.norm(scaled, axis=0).mean() - np.linalg.norm(old, axis=0).mean()
        ) < 1e-12


def test_weight_align_zero_columns():
    with pytest.raises(NumericError):
        nest.weight_align(np.ones((3, 2)), np.zeros((3, 1)))


def test_cost_formula_reference_points():
    assert nest.extra_param_count(1, 20, 256) == 5398
    assert nest.extra_param_count(2, 16, 256) == 8483
    with pytest.raises(ValueError):
        nest.extra_param_count(0, 5, 8)


def test_param_count_matches_formula():
    rng = SplitMix64(47)
    for _ in range(10):
        n_new, n_old, d = 1 + rng.integers(4), 1 + rng.integers(10), 2 + rng.integers(12)
        tset = nest.TransformSet(
            importance=np.zeros((n_new, d, n_old)),
            projection=np.zeros((n_new, n_old, 1)),
            bg_importance=np.zeros((1, d, 1)),
            bg_projection=np.ones((1, 1, 1)),
            biases=np.zeros(n_new),
        )
        assert tset.param_count() == nest.extra_param_count(n_new, n_old, d)


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize(
    "variant, frozen, trained", [("importance_only", "projection", "importance"), ("projection_only", "importance", "projection")]
)
def test_pretune_leaves_the_frozen_transform_family_byte_identical(variant, frozen, trained, use_bias):
    import copy

    rng = SplitMix64(50)
    head = Head(rng.normal((4, 3)), rng.normal(3) if use_bias else None)
    old = SegModel(Backbone.single_relu(4, 4, rng), head).snapshot()
    table = toys.table(toys.step(rng, images=6), old)
    tset = nest.apply_component_variant(nest.similarity_init_transforms(table, old), variant)
    before = copy.deepcopy(tset)
    nest.pretune(table, old, tset, nest.PretuneConfig(epochs=3, lr=0.5, batch_size=2), SplitMix64(7))

    def family(t, name):
        """The background transform's and each new class's matrix of one
        family, as bytes."""
        return [m.tobytes() for m in (*getattr(t, f"bg_{name}"), *getattr(t, name))]

    assert family(tset, frozen) == family(before, frozen)
    assert all(a != b for a, b in zip(family(tset, trained), family(before, trained)))


_FIELDS = ("bg_importance", "bg_projection", "importance", "projection", "biases")


def _pretune_step_errors(variant, use_bias, lr=0.5):
    """One pre-tuning batch over the whole toy table (two new classes):
    for each array of the TransformSet, its move against `-lr` times the
    central-difference gradient of the batch's unbiased CE over the
    flattened TransformSet, as a relative error, or as the largest
    absolute move for an array of the frozen family."""
    rng = SplitMix64(51)
    old = toys.old_model(rng, use_bias=use_bias)
    table = toys.table(toys.step(rng, images=6), old)
    tset = nest.apply_component_variant(nest.similarity_init_transforms(table, old), variant)
    before = {name: getattr(tset, name).copy() for name in _FIELDS if getattr(tset, name) is not None}
    sizes = [a.size for a in before.values()]
    x, y, n_old = table.f.reshape(-1, old.head.dim), table.y.ravel(), old.head.num_classes
    w_old, b_old = old.head.weights, old.head.biases

    def loss(stack):
        """One pre-tuning head per row of `stack`, all through one loss call."""
        k = len(stack)
        parts = np.split(stack, np.cumsum(sizes)[:-1], axis=1)
        t = {name: part.reshape(k, *a.shape) for part, (name, a) in zip(parts, before.items())}
        bg = nest.generate_new_weight(t["bg_importance"], t["bg_projection"], w_old[:, :1])
        new = nest.generate_new_weight(t["importance"], t["projection"], w_old)
        w = np.concatenate([bg, np.broadcast_to(w_old.T[1:], (k, n_old - 1, len(w_old))), new], axis=1)
        b = None if b_old is None else np.concatenate([np.broadcast_to(b_old, (k, n_old)), t["biases"]], axis=1)
        return unbiased_ce(Head(w.swapaxes(1, 2), b).logits(x), y, n_old)[0]

    grad = finite_diff_grad(loss, np.concatenate([a.ravel() for a in before.values()]))
    nest.pretune(table, old, tset, nest.PretuneConfig(epochs=1, lr=lr, batch_size=len(table.f)), SplitMix64(7))
    frozen = {"importance_only": "projection", "projection_only": "importance"}.get(variant)
    errors = {}
    for (name, a), g in zip(before.items(), np.split(grad, np.cumsum(sizes)[:-1])):
        move = (getattr(tset, name) - a).ravel()
        if name in (frozen, f"bg_{frozen}"):
            errors[name] = np.abs(move).max()
        else:
            errors[name] = np.linalg.norm(move + lr * g) / np.linalg.norm(lr * g)
    return errors, frozen


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("variant", ["both", "importance_only", "projection_only"])
def test_pretune_steps_every_transform_by_the_finite_difference_gradient(variant, use_bias):
    # the background pair, the stack and the biases each move by -lr times
    # the derivative of the batch's loss; the frozen family moves not at all
    errors, frozen = _pretune_step_errors(variant, use_bias)
    assert ("biases" in errors) == use_bias
    for name, err in errors.items():
        if name in (frozen, f"bg_{frozen}"):
            assert err == 0.0, name
        else:
            assert err <= 1e-4, (name, err)


def test_pretune_step_check_detects_a_scaled_transform_gradient(monkeypatch):
    transform_grads = nest.transform_grads

    def scaled(*args):
        d_m, d_p = transform_grads(*args)
        return d_m * (1 + 1e-3), d_p * (1 + 1e-3)

    monkeypatch.setattr(nest, "transform_grads", scaled)
    errors, _ = _pretune_step_errors("both", True)
    assert max(errors.values()) > 1e-4
