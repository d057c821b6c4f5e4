"""Initialization strategies: parsing and the head-extension contracts."""

import numpy as np
import pytest

from nestlab import nest
from nestlab.errors import ConfigError, NumericError
from nestlab.numerics import SplitMix64
from nestlab.strategies import initialize_head, parse_strategy

import toys


def test_parse_simple_strategies():
    assert parse_strategy("random").kind == "random"
    assert parse_strategy("background").kind == "background"
    assert parse_strategy("two_stage").kind == "two_stage"


def test_parse_nest_variants():
    s = parse_strategy("nest")
    assert (s.kind, s.matrix_init, s.components) == ("nest", "similarity", "both")
    s = parse_strategy("nest:random:projection_only")
    assert (s.kind, s.matrix_init, s.components) == ("nest", "random", "projection_only")


def test_parse_rejects_bad_strings():
    for bad in ("warp", "random:x", "nest:cosine", "nest:similarity:half"):
        with pytest.raises(ConfigError):
            parse_strategy(bad)


def test_parse_rejects_a_fourth_part():
    for bad in ("nest:similarity:both:junk", "nest:random:importance_only:", "nest:::"):
        with pytest.raises(ConfigError):
            parse_strategy(bad)


@pytest.mark.parametrize("strategy", ["two_stage", "nest"])
def test_tuning_that_overflows_the_new_columns_raises(strategy):
    # one batch, whose loss is taken before its update overflows, so only
    # the epoch's parameter check can see the non-finite result
    rng = SplitMix64(48)
    old = toys.old_model(rng)
    classes, x, labels = toys.step(rng, images=1)
    table = toys.table((classes, 100.0 * x, labels), old)
    cfg = nest.PretuneConfig(epochs=1, lr=1e308, batch_size=1)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="epoch 0"):
        initialize_head(parse_strategy(strategy), old, table, cfg, SplitMix64(1))


def test_background_copy_columns():
    rng = SplitMix64(61)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    head = initialize_head(parse_strategy("background"), old, table, nest.PretuneConfig(), SplitMix64(1))
    w0 = old.head.weights[:, 0]
    np.testing.assert_array_equal(head.weights[:, 3], w0)
    np.testing.assert_array_equal(head.weights[:, 4], w0)
    assert head.biases is None
    assert head.weights[:, :3].tobytes() == old.head.weights.tobytes()


def test_background_copy_bias_split():
    rng = SplitMix64(62)
    old = toys.old_model(rng, use_bias=True)
    table = toys.table(toys.step(rng), old)
    head = initialize_head(parse_strategy("background"), old, table, nest.PretuneConfig(), SplitMix64(1))
    expected = old.head.biases[0] - np.log(3.0)  # n_new + 1 = 3
    np.testing.assert_allclose(head.biases[3:], expected, atol=1e-12)


def test_random_strategy_shape_and_determinism():
    rng = SplitMix64(63)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    head_a = initialize_head(parse_strategy("random"), old, table, nest.PretuneConfig(), SplitMix64(5))
    head_b = initialize_head(parse_strategy("random"), old, table, nest.PretuneConfig(), SplitMix64(5))
    assert head_a.weights[:, 3:].shape == (4, 2)
    np.testing.assert_array_equal(head_a.weights, head_b.weights)


def test_two_stage_changes_background_copy():
    rng = SplitMix64(64)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    cfg = nest.PretuneConfig(epochs=3, lr=0.1, batch_size=2)
    ts_head = initialize_head(parse_strategy("two_stage"), old, table, cfg, SplitMix64(1))
    bg_head = initialize_head(parse_strategy("background"), old, table, cfg, SplitMix64(1))
    assert not np.array_equal(ts_head.weights[:, 3:], bg_head.weights[:, 3:])


def test_nest_strategy_column_count_and_frozen_old():
    rng = SplitMix64(65)
    old = toys.old_model(rng)
    before = old.param_bytes()
    table = toys.table(toys.step(rng), old)
    cfg = nest.PretuneConfig(epochs=2, lr=0.05, batch_size=2)
    head = initialize_head(parse_strategy("nest"), old, table, cfg, SplitMix64(1))
    assert head.weights[:, 3:].shape == (4, 2)
    assert old.param_bytes() == before
    # the default keeps the original background column
    assert head.weights[:, 0].tobytes() == old.head.weights[:, 0].tobytes()


def test_nest_weight_align_postcondition():
    rng = SplitMix64(66)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    cfg = nest.PretuneConfig(epochs=2, lr=0.05, batch_size=2, weight_align=True)
    cols = initialize_head(parse_strategy("nest"), old, table, cfg, SplitMix64(1)).weights[:, 3:]
    assert abs(
        np.linalg.norm(cols, axis=0).mean() - np.linalg.norm(old.head.weights, axis=0).mean()
    ) < 1e-12


def test_nest_use_pretuned_bg_returns_column():
    rng = SplitMix64(67)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    cfg = nest.PretuneConfig(epochs=2, lr=0.1, batch_size=2, use_pretuned_bg=True)
    bg = initialize_head(parse_strategy("nest"), old, table, cfg, SplitMix64(1)).weights[:, 0]
    assert bg.shape == (4,)
    assert not np.array_equal(bg, old.head.weights[:, 0])


def test_nest_random_matrix_init_differs():
    rng = SplitMix64(68)
    old = toys.old_model(rng)
    table = toys.table(toys.step(rng), old)
    cfg = nest.PretuneConfig(epochs=1, lr=0.01, batch_size=2, weight_align=False)
    sim = initialize_head(parse_strategy("nest:similarity:both"), old, table, cfg, SplitMix64(1))
    rnd = initialize_head(parse_strategy("nest:random:both"), old, table, cfg, SplitMix64(1))
    assert not np.array_equal(sim.weights[:, 3:], rnd.weights[:, 3:])


# the six strategy strings of tests/golden/mixed_strategies
GOLDEN_STRATEGIES = (
    "random",
    "background",
    "two_stage",
    "nest:similarity:both",
    "nest:random:importance_only",
    "nest:similarity:projection_only",
)


@pytest.mark.parametrize("use_pretuned_bg", [False, True])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("strategy", GOLDEN_STRATEGIES)
def test_initialized_head_keeps_the_old_columns(strategy, use_bias, use_pretuned_bg):
    rng = SplitMix64(69)
    old = toys.old_model(rng, use_bias=use_bias)
    table = toys.table(toys.step(rng), old)
    cfg = nest.PretuneConfig(epochs=2, lr=0.1, batch_size=2, use_pretuned_bg=use_pretuned_bg)
    head = initialize_head(parse_strategy(strategy), old, table, cfg, SplitMix64(1))
    assert head.num_classes == 3 + 2
    assert head.weights.flags.writeable
    assert head.weights[:, 1:3].tobytes() == old.head.weights[:, 1:].tobytes()
    replaced = use_pretuned_bg and strategy.startswith("nest")
    assert (head.weights[:, 0].tobytes() == old.head.weights[:, 0].tobytes()) != replaced
    if use_bias:
        assert head.biases.flags.writeable and head.biases.shape == (5,)
        assert head.biases[:3].tobytes() == old.head.biases.tobytes()
    else:
        assert head.biases is None


def _two_stage_concatenating_every_batch(table, old_model, cols, biases, cfg, rng, lse_column=True):
    """Reference: the two-stage loop that concatenated the head, and the
    biases, for every batch.  Its loss reads the old columns through one
    log-sum-exp column, computed once before the loop, or, without
    `lse_column`, through the whole head."""
    from nestlab.losses import unbiased_ce
    from nestlab.model import Head

    w_old = old_model.head.weights
    d, n_old = w_old.shape
    n_images = len(table.f)
    lse = toys.log_sum_exp(table.f.reshape(-1, d), old_model.head, list(range(n_old))).reshape(table.y.shape)
    for _ in range(cfg.epochs):
        order = rng.permutation(n_images)
        for start in range(0, n_images, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x = table.f[batch].reshape(-1, d)
            y = table.y[batch].reshape(-1)
            head = Head(
                np.concatenate([w_old, cols], axis=1),
                None if biases is None else np.concatenate([old_model.head.biases, biases]),
            )
            if lse_column:
                _, dz = toys.pseudo_column_ce(head, x, y, n_old, 0, lse[batch].reshape(-1))
            else:
                _, dz = unbiased_ce(head.logits(x), y, n_old)
                dz = dz[:, n_old:]
            cols = cols - cfg.lr * (x.T @ dz)
            if biases is not None:
                biases = biases - cfg.lr * dz.sum(axis=0)
    return cols, biases


# 4x4 images in batches of 2 give 32-row batches, 8x8 images in batches
# of 3 give 192-row batches: either side of 64 rows, where the loss
# kernels once switched from C order to class-major order
@pytest.mark.parametrize("hw, batch_size", [(4, 2), (8, 3)])
@pytest.mark.parametrize("use_bias", [False, True])
def test_two_stage_equals_concatenating_the_head_every_batch(use_bias, hw, batch_size):
    rng = SplitMix64(49)
    old = toys.old_model(rng, use_bias=use_bias)
    table = toys.table(toys.step(rng, hw=hw, images=6), old)
    cfg = nest.PretuneConfig(epochs=3, lr=0.3, batch_size=batch_size)
    start = initialize_head(parse_strategy("background"), old, table, cfg, SplitMix64(1))
    start_cols = start.weights[:, 3:]
    start_biases = None if start.biases is None else start.biases[3:]

    ours_rng, ref_rng = SplitMix64(7), SplitMix64(7)
    head = initialize_head(parse_strategy("two_stage"), old, table, cfg, ours_rng)
    cols, biases = head.weights[:, 3:], None if head.biases is None else head.biases[3:]
    ref_cols, ref_biases = _two_stage_concatenating_every_batch(table, old, start_cols, start_biases, cfg, ref_rng)
    assert head.weights[:, 0].tobytes() == old.head.weights[:, 0].tobytes()
    assert cols.tobytes() != start_cols.tobytes()  # the columns moved
    assert cols.tobytes() == ref_cols.tobytes()
    if use_bias:
        assert biases.tobytes() != start_biases.tobytes()
        assert biases.tobytes() == ref_biases.tobytes()
    else:
        assert biases is None and ref_biases is None
    assert ours_rng.next_u64() == ref_rng.next_u64()
    # the loss on the whole head is the same loss, rounded otherwise
    full_cols, full_biases = _two_stage_concatenating_every_batch(
        table, old, start_cols, start_biases, cfg, SplitMix64(7), lse_column=False
    )
    np.testing.assert_allclose(cols, full_cols, rtol=1e-9, atol=0)
    if use_bias:
        np.testing.assert_allclose(biases, full_biases, rtol=1e-9, atol=0)


def _two_stage_step_errors(use_bias, lr=0.5):
    """One two_stage batch over the whole toy table (two new classes): the
    move of the new columns and of their biases against `-lr` times the
    central-difference gradient of the batch's unbiased CE, as relative
    errors, and the head as it came out."""
    from nestlab.losses import unbiased_ce
    from nestlab.model import Head
    from nestlab.numerics import finite_diff_grad

    rng = SplitMix64(52)
    old = toys.old_model(rng, use_bias=use_bias)
    table = toys.table(toys.step(rng, images=6), old)
    cfg = nest.PretuneConfig(epochs=1, lr=lr, batch_size=len(table.f))
    start = initialize_head(parse_strategy("background"), old, table, cfg, SplitMix64(1))  # two_stage's start
    x, y, n_old = table.f.reshape(-1, old.head.dim), table.y.ravel(), old.head.num_classes
    d, n_new = old.head.dim, len(table.classes)
    tuned = {"weights": start.weights[:, n_old:]}
    if use_bias:
        tuned["biases"] = start.biases[n_old:]

    def loss(stack):
        """One head per row of `stack`, all through one loss call."""
        k = len(stack)
        new = stack[:, : d * n_new].reshape(k, d, n_new)
        w = np.concatenate([np.broadcast_to(old.head.weights, (k, d, n_old)), new], axis=2)
        b = None
        if use_bias:
            b = np.concatenate([np.broadcast_to(old.head.biases, (k, n_old)), stack[:, d * n_new :]], axis=1)
        return unbiased_ce(Head(w, b).logits(x), y, n_old)[0]

    grad = finite_diff_grad(loss, np.concatenate([a.ravel() for a in tuned.values()]))
    head = initialize_head(parse_strategy("two_stage"), old, table, cfg, SplitMix64(7))
    errors = {}
    for (name, a), g in zip(tuned.items(), np.split(grad, [d * n_new])):
        move = (getattr(head, name)[..., n_old:] - a).ravel()
        errors[name] = np.linalg.norm(move + lr * g) / np.linalg.norm(lr * g)
    return errors, head, old


@pytest.mark.parametrize("use_bias", [False, True])
def test_two_stage_steps_the_new_columns_by_the_finite_difference_gradient(use_bias):
    # the new columns and biases move by -lr times the derivative of the
    # batch's loss; column 0 and the old columns keep their bytes
    errors, head, old = _two_stage_step_errors(use_bias)
    assert sorted(errors) == (["biases", "weights"] if use_bias else ["weights"])
    assert all(err <= 1e-4 for err in errors.values()), errors
    assert head.weights[:, :3].tobytes() == old.head.weights.tobytes()
    if use_bias:
        assert head.biases[:3].tobytes() == old.head.biases.tobytes()


def test_two_stage_step_check_detects_a_scaled_dz(monkeypatch):
    tune_new_columns = nest.tune_new_columns

    def scaled(table, head_fn, n_old, cfg, rng, params, grads, *args):
        return tune_new_columns(table, head_fn, n_old, cfg, rng, params, lambda x, dz: grads(x, dz * (1 + 1e-3)), *args)

    monkeypatch.setattr(nest, "tune_new_columns", scaled)
    errors, _, _ = _two_stage_step_errors(True)
    assert min(errors.values()) > 1e-4, errors
