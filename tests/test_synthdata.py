"""Synthetic worlds: prototypes, rendering, step views, round-trip."""

import json
import pickle
import tracemalloc

import numpy as np
import pytest

from nestlab.errors import ConfigError
from nestlab.metrics import _ROW_BLOCK, row_norms
from nestlab.model import Backbone
from nestlab.numerics import SplitMix64
from nestlab.synthdata import (
    LabeledImage,
    StepData,
    TaskSequence,
    WorldSpec,
    _make_prototypes,
    build_world,
    dump_images,
    map_labels,
    minibatches,
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
    for x, y in zip(a.train_pool + a.test_pool, b.train_pool + b.test_pool):
        assert x.features.tobytes() == y.features.tobytes()
        assert x.full_labels.tobytes() == y.full_labels.tobytes()


def test_world_arrays_reject_in_place_writes():
    # runs that share one world cannot change it under each other
    world = build_world(tiny_spec())
    with pytest.raises(ValueError):
        world.prototypes[0] += 1.0
    for img in (world.train_pool[0], world.test_pool[-1]):
        with pytest.raises(ValueError):
            img.features[0, 0] = 0.0
        with pytest.raises(ValueError):
            img.full_labels[0, 0] = 1


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
    view = step_view(seq, world, 1)
    current = {0, 3}
    for img in view.train_images:
        assert set(np.unique(img.full_labels)) <= current
    # overlapped keeps every train image
    assert len(view.train_images) == len(world.train_pool)


def test_overlapped_pixels_preserved():
    # pixels of a current class are exactly the pixels with that full label
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    view = step_view(seq, world, 2)
    for img, orig in zip(view.train_images, world.train_pool):
        np.testing.assert_array_equal(img.full_labels == 4, orig.full_labels == 4)


def test_disjoint_excludes_future_classes():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1, setting="disjoint")
    view = step_view(seq, world, 1)
    # exactly the originals free of the future class 4 are retained
    kept = sum(1 for orig in world.train_pool if not (orig.full_labels == 4).any())
    assert len(view.train_images) == kept
    assert kept < len(world.train_pool)  # the tiny world does hit class 4


def test_label_union_over_steps_is_full_label_set():
    # brute force over a small world: every class appears as a training
    # label in exactly the step that introduces it
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    seen = set()
    for t in range(seq.num_steps):
        view = step_view(seq, world, t)
        for img in view.train_images:
            seen |= set(np.unique(img.full_labels).tolist())
    assert seen == {0, 1, 2, 3, 4}


def test_test_split_keeps_seen_classes():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    view = step_view(seq, world, 1)
    allowed = {0, 1, 2, 3}
    for img in view.test_images:
        assert set(np.unique(img.full_labels).tolist()) <= allowed


def test_step_index_out_of_range():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    with pytest.raises(ConfigError):
        step_view(seq, world, 3)


def load_images(path):
    """Read back what `dump_images` wrote."""
    images = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            feats = np.array(rec["features"], dtype=np.float64).reshape(rec["h"], rec["w"], rec["d"])
            labels = np.array(rec["labels"], dtype=np.int64).reshape(rec["h"], rec["w"])
            images.append(LabeledImage(feats, labels))
    return images


def test_dump_load_round_trip(tmp_path):
    world = build_world(tiny_spec(images_per_class=2))
    path = tmp_path / "imgs.jsonl"
    dump_images(world.train_pool, path)
    loaded = load_images(path)
    assert len(loaded) == len(world.train_pool)
    for a, b in zip(world.train_pool, loaded):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.full_labels.tobytes() == b.full_labels.tobytes()


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
    data = step_view(seq, world, 1)
    table = step_table(data, Backbone.single_relu(6, 5, SplitMix64(1)), {c: c for c in range(1, 5)})
    assert "f_norms" not in vars(table)
    norms = table.f_norms
    assert table.f_norms is norms
    assert norms.tobytes() == np.linalg.norm(table.f.reshape(-1, 5), axis=1).tobytes()
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


def _stacked_table(world, seq, t, backbone, col_of):
    """The step table as it was built before the world held one train
    array: the kept images' features and relabeled labels stacked per
    image, straight from the world's pool."""
    current, future = set(seq.classes_at(t)), set(seq.class_order) - set(seq.seen_classes(t))
    kept = [
        img
        for img in world.train_pool
        if not (seq.setting == "disjoint" and future and np.isin(img.full_labels, list(future)).any())
    ]
    x = np.stack([img.features.reshape(-1, img.features.shape[-1]) for img in kept])
    n_img, n_pix, d_in = x.shape
    labels = np.stack([np.where(np.isin(img.full_labels, list(current)), img.full_labels, 0) for img in kept])
    y = map_labels(labels, col_of).reshape(n_img, n_pix)
    f = backbone.forward(x.reshape(-1, d_in)).reshape(n_img, n_pix, -1)
    return x, y, f


def test_world_train_features_are_views_of_one_read_only_array():
    world = build_world(tiny_spec())
    assert world.train_x.shape == (len(world.train_pool), 8 * 8, 6)
    assert not world.train_x.flags.writeable
    for i, img in enumerate(world.train_pool):
        assert img.features.shape == (8, 8, 6)
        assert np.shares_memory(img.features, world.train_x[i])
        assert img.features.tobytes() == world.train_x[i].tobytes()
    with pytest.raises(ValueError):
        world.train_x[0, 0, 0] = 0.0


@pytest.mark.parametrize("setting", ["overlapped", "disjoint"])
def test_step_table_equals_the_stacked_build_byte_for_byte(setting):
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1, setting=setting)
    backbone = Backbone.single_relu(6, 5, SplitMix64(2))
    col_of = {c: i + 1 for i, c in enumerate(seq.class_order)}
    for t in range(seq.num_steps):
        table = step_table(step_view(seq, world, t), backbone, col_of)
        for got, want in zip((table.x, table.y, table.f), _stacked_table(world, seq, t, backbone, col_of)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (setting, t)
            assert not got.flags.writeable


def test_overlapped_table_x_is_the_worlds_memory():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1)
    data = step_view(seq, world, 1)
    assert data.train_x is world.train_x
    table = step_table(data, Backbone.single_relu(6, 5, SplitMix64(1)), {c: c for c in range(1, 5)})
    assert np.shares_memory(table.x, world.train_x)
    with pytest.raises(ValueError):
        table.x[0, 0, 0] = 1.0
    for img, row in zip(data.train_images, world.train_x):
        assert np.shares_memory(img.features, row)


def test_disjoint_table_x_holds_exactly_the_kept_images():
    world = build_world(tiny_spec())
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1, setting="disjoint")
    data = step_view(seq, world, 1)
    kept = [i for i, img in enumerate(world.train_pool) if not (img.full_labels == 4).any()]
    assert 0 < len(kept) < len(world.train_pool)
    assert data.train_x.tobytes() == world.train_x[kept].tobytes()
    assert not data.train_x.flags.writeable
    for img, row in zip(data.train_images, data.train_x):
        assert np.shares_memory(img.features, row)
    # the last step has no future class, so it keeps, and views, every image
    assert step_view(seq, world, seq.num_steps - 1).train_x is world.train_x


def test_hand_built_step_stacks_its_images_once():
    rng = SplitMix64(5)
    images = [LabeledImage(rng.normal((4, 4, 3)), np.full((4, 4), c, dtype=np.int64)) for c in (0, 2, 2)]
    data = StepData.stacked(1, (2,), images)
    assert data.train_x.shape == (3, 16, 3) and not data.train_x.flags.writeable
    for img, orig, row in zip(data.train_images, images, data.train_x):
        assert img.features.tobytes() == orig.features.tobytes()
        assert img.full_labels is orig.full_labels
        assert np.shares_memory(img.features, row)
    table = step_table(data, Backbone([], 3), {2: 1})
    assert table.x is data.train_x


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
    world = build_world(WorldSpec())
    seq = TaskSequence()
    data = step_view(seq, world, 1)
    backbone = Backbone.single_relu(16, 16, SplitMix64(1))
    col_of = {c: i + 1 for i, c in enumerate(seq.class_order)}
    table, net, peak = _traced(lambda: step_table(data, backbone, col_of))
    assert net <= table.f.nbytes + table.y.nbytes + 64 * _KIB
    # plus one ufunc buffer of the backbone's broadcast bias add at the peak
    assert peak <= table.f.nbytes + table.y.nbytes + 64 * _KIB + np.getbufsize() * 8


def test_feature_norms_make_no_table_sized_temporary():
    world = build_world(WorldSpec())
    data = step_view(TaskSequence(), world, 1)
    table = step_table(data, Backbone.single_relu(16, 16, SplitMix64(1)), {c: c for c in range(1, 11)})
    assert table.f.shape[0] * table.f.shape[1] > 2 * _ROW_BLOCK
    norms, _, peak = _traced(lambda: table.f_norms)
    assert peak < table.f.nbytes / 4
    assert norms.tobytes() == np.linalg.norm(table.f.reshape(-1, 16), axis=1).tobytes()


@pytest.mark.parametrize("rows", [1, 63, 64, 4095, 4096, 4097, 51200])
def test_blocked_row_norms_equal_linalg_norm_bit_for_bit(rows):
    a = SplitMix64(rows).normal((rows, 16))
    a[::7] = np.maximum(a[::7], 0.0)  # ReLU-like rows with exact zeros
    a[3::11] = 0.0
    a.setflags(write=False)
    assert row_norms(a).tobytes() == np.linalg.norm(a, axis=1).tobytes()


def _world_arrays(world):
    """Every array of a world, by where it lives."""
    arrays = {"prototypes": world.prototypes, "train_x": world.train_x}
    for pool in ("train_pool", "test_pool"):
        for i, img in enumerate(getattr(world, pool)):
            arrays[f"{pool}[{i}].features"] = img.features
            arrays[f"{pool}[{i}].full_labels"] = img.full_labels
    return arrays


@pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
def test_world_pickle_round_trip_stays_read_only_and_shared(protocol):
    world = build_world(tiny_spec())
    loaded = pickle.loads(pickle.dumps(world, protocol=protocol))
    before, after = _world_arrays(world), _world_arrays(loaded)
    assert before.keys() == after.keys()
    for key, a in after.items():
        assert not a.flags.writeable, key
        assert a.tobytes() == before[key].tobytes() and a.shape == before[key].shape, key
    for i, img in enumerate(loaded.train_pool):
        assert np.shares_memory(img.features, loaded.train_x[i])
    assert loaded.spec == world.spec


def test_world_pickle_holds_the_train_features_once():
    world = build_world(WorldSpec())
    size = len(pickle.dumps(world))
    # the layout of a world whose train images each own their features
    owned = dict(
        spec=world.spec,
        prototypes=world.prototypes,
        train_pool=[LabeledImage(np.array(img.features), img.full_labels) for img in world.train_pool],
        test_pool=world.test_pool,
    )
    assert size <= len(pickle.dumps(owned))
    assert size < world.train_x.nbytes * 3 / 2
