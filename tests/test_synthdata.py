"""Synthetic worlds: prototypes, rendering, step views, round-trip."""

import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestlab.errors import ConfigError, NumericError
from nestlab.metrics import _ROW_BLOCK, row_norms
from nestlab.model import Backbone
from nestlab.numerics import SplitMix64
from nestlab.synthdata import (
    TaskSequence,
    WorldSpec,
    _make_prototypes,
    build_world,
    dump_images,
    label_columns,
    minibatches,
    sgd_epochs,
    step_table,
    step_view,
)


def tiny_spec(**overrides):
    base = dict(
        num_classes=4,
        feature_dim=6,
        prototype_rule="independent",
        mixture_classes=(),
        height=8,
        width=8,
        images_per_class=5,
        test_images_per_class=2,
        seed=3,
    )
    base.update(overrides)
    return WorldSpec(**base)


# the identity backbone: a table's `f` is then its `x`
IDENTITY = Backbone([], 6)


def test_prototypes_unit_norm():
    spec = tiny_spec(num_classes=2)
    protos = _make_prototypes(spec, SplitMix64(1))
    np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-12)


def test_degenerate_mixture_equals_parent():
    # with beta=0 and a single possible parent, the mixture collapses onto it
    spec = tiny_spec(num_classes=2, prototype_rule="mixture", mixture_classes=(2,), mixture_beta=0.0)
    protos = _make_prototypes(spec, SplitMix64(1))
    np.testing.assert_allclose(protos[2], protos[1], atol=1e-12)


def test_same_seed_byte_identical_pools():
    a = build_world(tiny_spec())
    b = build_world(tiny_spec())
    for name in ("train_x", "train_y", "test_x", "test_y"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_world_arrays_reject_in_place_writes():
    # runs that share one world cannot change it under each other
    world = build_world(tiny_spec())
    with pytest.raises(ValueError):
        world.prototypes[0] += 1.0
    for name in ("train_x", "train_y", "test_x", "test_y"):
        with pytest.raises(ValueError):
            getattr(world, name)[-1, 0] = 1


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        build_world(tiny_spec(num_classes=1))
    with pytest.raises(ConfigError):
        build_world(tiny_spec(noise_sigma=0.0))
    with pytest.raises(ConfigError):
        build_world(tiny_spec(blobs_min=3, blobs_max=2))
    with pytest.raises(ConfigError):
        build_world(tiny_spec(prototype_rule="fractal"))


def test_sequence_arithmetic():
    seq = TaskSequence()
    assert seq.num_steps == 5
    assert seq.classes_at(0) == (1, 2, 3, 4, 5, 6)
    assert seq.classes_at(1) == (7,)
    assert seq.seen_classes(4) == tuple(range(1, 11))
    with pytest.raises(ConfigError):
        TaskSequence(class_order=(1, 2, 3), base_count=2, increment=2).validate(3)


def test_overlapped_relabel_rule():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    view = step_view(seq, world, 1, IDENTITY)
    # class 3 takes head column 3, after background and classes 1-2
    assert set(np.unique(view.y).tolist()) == {0, 3}
    # overlapped keeps every train image
    assert len(view.x) == len(world.train_x)


def test_overlapped_pixels_preserved():
    # pixels of a current class are exactly the pixels with that full label
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    view = step_view(seq, world, 2, IDENTITY)
    np.testing.assert_array_equal(view.y == 4, world.train_y == 4)


def test_disjoint_excludes_future_classes():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1, setting="disjoint")
    view = step_view(seq, world, 1, IDENTITY)
    # exactly the originals free of the future class 4 are retained
    kept = sum(1 for labels in world.train_y if not (labels == 4).any())
    assert len(view.x) == kept
    assert kept < len(world.train_x)  # the tiny world does hit class 4


def test_label_union_over_steps_is_full_label_set():
    # brute force over a small world: every class appears as a training
    # label in exactly the step that introduces it
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    seen = set()
    for t in range(seq.num_steps):
        view = step_view(seq, world, t, IDENTITY)
        # in the order 1..4, class c takes head column c
        seen |= set(np.unique(view.y).tolist())
    assert seen == {0, 1, 2, 3, 4}


def test_test_split_keeps_seen_classes():
    # the trainer's evaluation labels: every seen class keeps its column
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(2, 4, 1, 3), base_count=2, increment=1)
    cols = label_columns(world.test_y, seq.seen_classes(1), 1)
    for c, col in ((2, 1), (4, 2), (1, 3), (3, 0)):
        assert (world.test_y == c).any()
        assert (cols[world.test_y == c] == col).all(), c
    assert (cols[world.test_y == 0] == 0).all()


def test_step_index_out_of_range():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    with pytest.raises(ConfigError):
        step_view(seq, world, 3, IDENTITY)


def load_images(path):
    """Read back what `dump_images` wrote: features (n, H*W, d) and
    labels (n, H*W), with each record's (h, w, d)."""
    with open(path) as fh:
        recs = [json.loads(line) for line in fh]
    x = np.array([r["features"] for r in recs], dtype=np.float64).reshape(len(recs), -1, recs[0]["d"])
    y = np.array([r["labels"] for r in recs], dtype=np.int64)
    return x, y, {(r["h"], r["w"], r["d"]) for r in recs}


def test_dump_load_round_trip(tmp_path):
    world = build_world(tiny_spec(images_per_class=2, height=4))
    path = tmp_path / "imgs.jsonl"
    dump_images(world.train_x, world.train_y, 4, path)
    x, y, shapes = load_images(path)
    assert shapes == {(4, 8, 6)}
    assert x.tobytes() == world.train_x.tobytes()
    assert y.tobytes() == world.train_y.tobytes()


def test_s61_shape():
    spec = WorldSpec()
    assert spec.num_classes == 10
    assert spec.feature_dim == 16
    assert spec.mixture_classes == (7, 8, 9, 10)
    world = build_world(tiny_spec())
    assert world.prototypes.shape == (5, 6)


def test_table_feature_norms_computed_once_on_first_use():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    table = step_view(seq, world, 1, Backbone.single_relu(6, 5, SplitMix64(1)))
    assert "f_norms" not in vars(table)
    norms = table.f_norms
    assert table.f_norms is norms
    assert norms.tobytes() == row_norms(table.f.reshape(-1, 5)).tobytes()
    with pytest.raises(ValueError):
        norms[0] = 1.0


@pytest.mark.parametrize("n, batch_size", [(1, 1), (7, 3), (8, 4), (5, 8)])
def test_minibatches_cover_every_image_once_per_epoch(n, batch_size):
    rng, ref = SplitMix64(70), SplitMix64(70)
    epochs = list(minibatches(n, 3, batch_size, rng))
    assert len(epochs) == 3
    for batches in epochs:
        assert sorted(np.concatenate(batches).tolist()) == list(range(n))
        assert all(len(b) == batch_size for b in batches[:-1])
        assert 1 <= len(batches[-1]) <= batch_size  # only the last may be short
        assert np.concatenate(batches).tobytes() == ref.permutation(n).tobytes()
    # the generator consumed what three permutations consume, no more
    assert rng.next_u64() == ref.next_u64()


def test_minibatches_draw_each_epoch_when_it_starts():
    rng, ref = SplitMix64(71), SplitMix64(71)
    schedule = minibatches(6, 2, 4, rng)
    assert rng.next_u64() == ref.next_u64()  # nothing drawn before the first epoch
    next(schedule)
    ref.permutation(6)
    assert rng.next_u64() == ref.next_u64()


def _toy_grads(batch):
    """A batch's loss and gradients for `_toy_params`: a deterministic
    function of its image indices."""
    rng = SplitMix64(int(batch.sum()) + 100 * len(batch))
    return float(batch.sum()), [rng.normal((2, 3)), rng.normal(4)]


def _toy_params():
    rng = SplitMix64(73)
    return [rng.normal((2, 3)), rng.normal(4)]


def test_sgd_epochs_steps_each_array_by_the_bits_of_p_minus_lr_g_in_the_minibatches_schedule():
    rng, ref_rng = SplitMix64(72), SplitMix64(72)
    params, ref = _toy_params(), _toy_params()
    views = list(params)
    seen = []

    def lr_fn(it):
        seen.append(it)
        return 0.1 / (1 + it)

    yielded = list(sgd_epochs(7, 3, 3, rng, params, _toy_grads, lr_fn, ""))
    it = 0
    for epoch, batches in enumerate(minibatches(7, 3, 3, ref_rng)):
        assert yielded[epoch] == [_toy_grads(b)[0] for b in batches]
        for batch in batches:
            ref = [p - (0.1 / (1 + it)) * g for p, g in zip(ref, _toy_grads(batch)[1])]
            it += 1
    assert [p.tobytes() for p in params] == [p.tobytes() for p in ref]
    assert all(p is v for p, v in zip(params, views))  # stepped in place
    assert seen == list(range(9))  # across epochs: 3 batches each
    # the loop drew one permutation per epoch, as `minibatches` does
    assert rng.next_u64() == ref_rng.next_u64()


def test_sgd_epochs_holds_an_array_with_a_none_gradient():
    params = _toy_params()
    fixed = params[1].tobytes()

    def batch_grads(batch):
        loss, (g, _) = _toy_grads(batch)
        return loss, [g, None]

    for _ in sgd_epochs(5, 2, 2, SplitMix64(74), params, batch_grads, lambda it: 0.5, ""):
        pass
    assert params[1].tobytes() == fixed
    assert params[0].tobytes() != _toy_params()[0].tobytes()


def test_sgd_epochs_raises_on_a_non_finite_loss_before_any_array_moves():
    params, calls = _toy_params(), []

    def batch_grads(batch):
        calls.append(batch)
        loss, grads = _toy_grads(batch)
        return (float("nan") if len(calls) == 5 else loss), grads

    # 5 images in batches of 2: the fifth batch is epoch 1's second
    with pytest.raises(NumericError, match=r"^non-finite loss at tuning epoch 1, batch 1$"):
        for _ in sgd_epochs(5, 3, 2, SplitMix64(75), params, batch_grads, lambda it: 0.5, "tuning "):
            pass
    ref = _toy_params()
    for batch in calls[:4]:
        ref = [p - 0.5 * g for p, g in zip(ref, _toy_grads(batch)[1])]
    assert [p.tobytes() for p in params] == [p.tobytes() for p in ref]


def test_sgd_epochs_raises_on_a_non_finite_parameter_at_the_end_of_its_epoch():
    params, calls = _toy_params(), []

    def batch_grads(batch):
        calls.append(batch)
        loss, (g, gb) = _toy_grads(batch)
        return loss, [g, np.full(4, np.inf) if len(calls) == 4 else gb]

    yielded = []
    # 5 images in batches of 2: the fourth batch is epoch 1's first
    with pytest.raises(NumericError, match=r"^non-finite parameters at step 2, epoch 1$"):
        for losses in sgd_epochs(5, 3, 2, SplitMix64(76), params, batch_grads, lambda it: 0.5, "step 2, "):
            yielded.append(losses)
    assert len(yielded) == 1 and len(calls) == 6  # epoch 1 ran to its end


def test_minibatches_is_called_only_by_sgd_epochs():
    # every SGD loop is `sgd_epochs`: no other function walks the schedule
    import ast
    import pathlib

    import nestlab

    callers = []
    for path in sorted(pathlib.Path(nestlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    name = getattr(node, "id", getattr(node, "attr", None))
                    if isinstance(node, (ast.Name, ast.Attribute)) and name == "minibatches":
                        callers.append((path.stem, fn.name))
            elif isinstance(fn, ast.ImportFrom) and any(a.name == "minibatches" for a in fn.names):
                callers.append((path.stem, "import"))
    assert callers == [("synthdata", "sgd_epochs")]


def _relabel(labels, keep):
    """The per-image background shift that `label_columns` replaced."""
    return np.where(np.isin(labels, list(keep)), labels, 0).astype(np.int64)


def _map_labels(labels, col_of):
    """The dict-driven column map that `label_columns` replaced: ids
    missing from `col_of` map to column 0, flattened."""
    lut = np.zeros(max(col_of) + 1, dtype=np.int64)
    for c, col in col_of.items():
        lut[c] = col
    return lut[np.asarray(labels).ravel()]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=40),
    st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True),
    st.integers(1, 9),
)
def test_label_columns_equals_relabel_then_map_labels(labels, classes, first):
    labels = np.array(labels, dtype=np.int64).reshape(1, -1)
    col_of = {c: first + i for i, c in enumerate(classes)}
    want = _map_labels(_relabel(labels, classes), col_of).reshape(labels.shape)
    got = label_columns(labels, tuple(classes), first)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _stacked_table(world, seq, t, backbone):
    """The step table as it was built before `label_columns`: one
    `isin`/`where` per kept image of the world and a dict column map,
    with the kept images' features stacked."""
    current, future = set(seq.classes_at(t)), set(seq.class_order) - set(seq.seen_classes(t))
    n_old = 1 + len(seq.seen_classes(t)) - len(current)
    col_of = {c: n_old + i for i, c in enumerate(seq.classes_at(t))}
    kept = [
        i
        for i, labels in enumerate(world.train_y)
        if not (seq.setting == "disjoint" and future and np.isin(labels, list(future)).any())
    ]
    x = np.stack([world.train_x[i] for i in kept])
    n_img, n_pix, d_in = x.shape
    labels = np.stack([_relabel(world.train_y[i], current) for i in kept])
    y = _map_labels(labels, col_of).reshape(n_img, n_pix)
    f = backbone.forward(x.reshape(-1, d_in)).reshape(n_img, n_pix, -1)
    return x, y, f


def test_world_train_features_are_views_of_one_read_only_array():
    # each pool is one features array and one labels array, one row per
    # image, none of them writable
    world = build_world(tiny_spec())
    assert world.train_x.shape == (4 * 5, 8 * 8, 6) and world.train_y.shape == (4 * 5, 8 * 8)
    assert world.test_x.shape == (4 * 2, 8 * 8, 6) and world.test_y.shape == (4 * 2, 8 * 8)
    for x, y in ((world.train_x, world.train_y), (world.test_x, world.test_y)):
        assert x.dtype == np.float64 and y.dtype == np.int64
        assert x.flags.c_contiguous and y.flags.c_contiguous
        assert not x.flags.writeable and not y.flags.writeable


@pytest.mark.parametrize("setting", ["overlapped", "disjoint"])
def test_step_table_equals_the_stacked_build_byte_for_byte(setting):
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(3, 1, 4, 2), base_count=2, increment=1, setting=setting)
    backbone = Backbone.single_relu(6, 5, SplitMix64(2))
    for t in range(seq.num_steps):
        table = step_view(seq, world, t, backbone)
        assert table.classes == seq.classes_at(t)
        for got, want in zip((table.x, table.y, table.f), _stacked_table(world, seq, t, backbone)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (setting, t)
            assert not got.flags.writeable


def test_overlapped_table_x_is_the_worlds_memory():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    table = step_view(seq, world, 1, Backbone.single_relu(6, 5, SplitMix64(1)))
    assert table.x is world.train_x
    with pytest.raises(ValueError):
        table.x[0, 0, 0] = 1.0


def test_disjoint_table_x_holds_exactly_the_kept_images():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1, setting="disjoint")
    table = step_view(seq, world, 1, IDENTITY)
    kept = [i for i, labels in enumerate(world.train_y) if not (labels == 4).any()]
    assert 0 < len(kept) < len(world.train_x)
    assert table.x.tobytes() == world.train_x[kept].tobytes()
    assert not table.x.flags.writeable
    # the last step has no future class, so it keeps, and views, every image
    assert step_view(seq, world, seq.num_steps - 1, IDENTITY).x is world.train_x


def test_hand_built_table_freezes_its_arrays_without_copying():
    x = SplitMix64(5).normal((3, 16, 3))
    labels = np.array([0, 2, 2]).repeat(16).reshape(3, 16)
    y = label_columns(labels, (2,), 1)
    table = step_table((2,), x, y, Backbone([], 3))
    assert table.x is x and table.y is y and table.classes == (2,)
    assert y.tolist() == [[0] * 16, [1] * 16, [1] * 16]
    for a in (x, y, table.f):
        assert not a.flags.writeable


def _traced(fn):
    """fn()'s result, with the bytes it left allocated and the peak above
    the start, as tracemalloc counts them (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current - base, peak - base


_KIB = 1024


def test_step_table_allocates_only_its_labels_and_features():
    # an overlapped step's table: the world's features, its own labels
    # and frozen features, and nothing else left behind
    world = build_world(WorldSpec())
    backbone = Backbone.single_relu(16, 16, SplitMix64(1))
    table, net, peak = _traced(lambda: step_view(TaskSequence(), world, 1, backbone))
    assert table.x is world.train_x
    assert net <= table.f.nbytes + table.y.nbytes + 64 * _KIB
    # plus one ufunc buffer of the backbone's broadcast bias add at the peak
    assert peak <= table.f.nbytes + table.y.nbytes + 64 * _KIB + np.getbufsize() * 8


def test_feature_norms_make_no_table_sized_temporary():
    world = build_world(WorldSpec())
    table = step_view(TaskSequence(), world, 1, Backbone.single_relu(16, 16, SplitMix64(1)))
    assert table.f.shape[0] * table.f.shape[1] > 2 * _ROW_BLOCK
    norms, _, peak = _traced(lambda: table.f_norms)
    assert peak < table.f.nbytes / 4
    assert norms.tobytes() == row_norms(table.f.reshape(-1, 16)).tobytes()


@pytest.mark.parametrize("rows", [1, 63, 64, 4095, 4096, 4097, 51200])
def test_blocked_row_norms_equal_linalg_norm_bit_for_bit(rows):
    # the einsum formula's bits, whole or a `_ROW_BLOCK` block at a time
    # as `cosine_stats` asks; numpy's norm sums the squares in another
    # order, so it agrees to rounding
    a = SplitMix64(rows).normal((rows, 16))
    a[::7] = np.maximum(a[::7], 0.0)  # ReLU-like rows with exact zeros
    a[3::11] = 0.0
    a.setflags(write=False)
    norms = row_norms(a)
    assert norms.tobytes() == np.sqrt(np.einsum("ij,ij->i", a, a)).tobytes()
    blocks = [row_norms(a[start : start + _ROW_BLOCK]) for start in range(0, rows, _ROW_BLOCK)]
    assert np.concatenate(blocks).tobytes() == norms.tobytes()
    np.testing.assert_allclose(norms, np.linalg.norm(a, axis=1), rtol=1e-15, atol=0)


_WORLD_ARRAYS = ("prototypes", "train_x", "train_y", "test_x", "test_y")


@pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
def test_world_pickle_round_trip_stays_read_only_and_shared(protocol):
    # numpy loads arrays writable; a loaded world, which run_plan's
    # workers share, is frozen again
    world = build_world(tiny_spec())
    loaded = pickle.loads(pickle.dumps(world, protocol=protocol))
    for name in _WORLD_ARRAYS:
        a, b = getattr(loaded, name), getattr(world, name)
        assert not a.flags.writeable, name
        assert a.tobytes() == b.tobytes() and a.shape == b.shape and a.dtype == b.dtype, name
    assert loaded.spec == world.spec


def test_world_pickle_holds_the_train_features_once():
    world = build_world(WorldSpec())
    size = len(pickle.dumps(world))
    # the layout of a world whose images each own their arrays
    owned = dict(
        spec=world.spec,
        prototypes=world.prototypes,
        train=[(np.array(x), np.array(y)) for x, y in zip(world.train_x, world.train_y)],
        test=[(np.array(x), np.array(y)) for x, y in zip(world.test_x, world.test_y)],
    )
    assert size <= len(pickle.dumps(owned))
    assert size < world.train_x.nbytes * 3 / 2
