"""Synthetic worlds: prototypes, rendering, step views, round-trip."""

import json

import numpy as np
import pytest

from nestlab.errors import ConfigError
from nestlab.model import Backbone
from nestlab.numerics import SplitMix64
from nestlab.synthdata import (
    LabeledImage,
    TaskSequence,
    WorldSpec,
    _make_prototypes,
    build_world,
    dump_images,
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
