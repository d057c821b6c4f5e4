"""Config sections are valid by construction: each checks itself when it
is built, `ExperimentConfig` checks the sequence against the world and
the strategy string, and every section is frozen."""

import dataclasses

import pytest

from nestlab.cli import ReportConfig
from nestlab.errors import ConfigError
from nestlab.nest import PretuneConfig
from nestlab.synthdata import TaskSequence, WorldSpec, build_world
from nestlab.trainer import ExperimentConfig, TrainConfig, train_base

# (section, bad fields, the message of the check that rejects them)
_REJECTED = [
    (WorldSpec, {"num_classes": 1}, "num_classes must be >= 2"),
    (WorldSpec, {"feature_dim": 1}, "feature_dim must be >= 2"),
    (WorldSpec, {"height": 3}, "image size must be >= 4x4"),
    (WorldSpec, {"width": 0}, "image size must be >= 4x4"),
    (WorldSpec, {"noise_sigma": 0.0}, "noise_sigma must be positive"),
    (WorldSpec, {"noise_sigma": -0.3}, "noise_sigma must be positive"),
    (WorldSpec, {"mixture_beta": -0.1}, "mixture_beta must lie in [0, 1]"),
    (WorldSpec, {"mixture_beta": 1.5}, "mixture_beta must lie in [0, 1]"),
    (WorldSpec, {"prototype_rule": "fractal"}, "unknown prototype_rule 'fractal'"),
    (WorldSpec, {"blobs_min": 0}, "blob count range must satisfy 1 <= min <= max <= height * width"),
    (WorldSpec, {"blobs_min": 3, "blobs_max": 2}, "blob count range must satisfy 1 <= min <= max <= height * width"),
    (WorldSpec, {"blobs_max": 257}, "blob count range must satisfy 1 <= min <= max <= height * width"),
    (WorldSpec, {"height": 4, "width": 5, "blobs_max": 21}, "blob count range must satisfy 1 <= min <= max <= height * width"),
    (WorldSpec, {"mixture_classes": (1,)}, "mixture class 1 out of range"),
    (WorldSpec, {"mixture_classes": (7, 11)}, "mixture class 11 out of range"),
    (WorldSpec, {"images_per_class": 0}, "need at least one image per class in each pool"),
    (WorldSpec, {"test_images_per_class": -1}, "need at least one image per class in each pool"),
    (
        WorldSpec,
        {"height": 10**20},
        "the train pool's features (200, 1600000000000000000000, 16) exceed numpy's array size limit",
    ),
    (
        WorldSpec,
        {"test_images_per_class": 10**20},
        "the test pool's features (1000000000000000000000, 256, 16) exceed numpy's array size limit",
    ),
    (PretuneConfig, {"epochs": 0}, "pretune.epochs must be >= 1"),
    (PretuneConfig, {"batch_size": 0}, "pretune.batch_size must be >= 1"),
    (PretuneConfig, {"lr": 0.0}, "pretune.lr must be positive"),
    (PretuneConfig, {"lr": -1.0}, "pretune.lr must be positive"),
    (TrainConfig, {"backbone_dim": 0}, "train.backbone_dim must be >= 1"),
    (TrainConfig, {"batch_size": 0}, "train.batch_size must be >= 1"),
    (TrainConfig, {"base_epochs": -1}, "train.base_epochs must be >= 0"),
    (TrainConfig, {"inc_epochs": -1}, "train.inc_epochs must be >= 0"),
    (TrainConfig, {"lambda_kd": -0.5}, "train.lambda_kd must be >= 0"),
    (TrainConfig, {"poly_power": -0.9}, "train.poly_power must be >= 0"),
    (TrainConfig, {"base_lr": 0.0}, "train.base_lr must be > 0"),
    (TrainConfig, {"base_lr": -1.0}, "train.base_lr must be > 0"),
    (TrainConfig, {"inc_lr": -0.5}, "train.inc_lr must be > 0"),
    (ExperimentConfig, {"sequence": TaskSequence(class_order=(1, 2))}, "class_order must be a permutation of 1..K"),
    (ExperimentConfig, {"sequence": TaskSequence(class_order=(1,) * 10)}, "class_order must be a permutation of 1..K"),
    (ExperimentConfig, {"sequence": TaskSequence(setting="fused")}, "unknown setting 'fused'"),
    (ExperimentConfig, {"sequence": TaskSequence(base_count=0)}, "base_count must be >= 1"),
    (ExperimentConfig, {"sequence": TaskSequence(base_count=11)}, "base_count + k*increment must reach num_classes"),
    (ExperimentConfig, {"sequence": TaskSequence(increment=0)}, "base_count + k*increment must reach num_classes"),
    (ExperimentConfig, {"sequence": TaskSequence(increment=3)}, "base_count + k*increment must reach num_classes"),
    (ExperimentConfig, {"world": WorldSpec(num_classes=4, mixture_classes=())}, "class_order must be a permutation of 1..K"),
    (ExperimentConfig, {"strategy": "nonsense"}, "unknown strategy 'nonsense'"),
    (ExperimentConfig, {"strategy": "nest:similarity:both:x"}, "strategy 'nest:similarity:both:x' has more than three parts"),
]


@pytest.mark.parametrize("cls, fields, message", _REJECTED, ids=[f"{c.__name__}-{'-'.join(f)}" for c, f, _ in _REJECTED])
def test_a_section_with_a_bad_value_cannot_be_built(cls, fields, message):
    with pytest.raises(ConfigError) as e:
        cls(**fields)
    assert str(e.value) == message
    # `replace` builds a new config, so it checks again
    with pytest.raises(ConfigError) as e:
        dataclasses.replace(cls(), **fields)
    assert str(e.value) == message


@pytest.mark.parametrize("cls", [WorldSpec, TaskSequence, PretuneConfig, TrainConfig, ExperimentConfig, ReportConfig])
def test_every_section_is_frozen(cls):
    cfg = cls()
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    assert cfg == cls()


def test_only_the_sequence_is_left_to_validate():
    # a sequence is valid only against a world's class count; every other
    # section, and the experiment, is checked when it is built
    assert [cls for cls in (WorldSpec, PretuneConfig, TrainConfig, ExperimentConfig) if hasattr(cls, "validate")] == []
    TaskSequence().validate(WorldSpec().num_classes)


def test_train_base_cannot_start_on_a_gradient_ascent_config():
    # a base_lr of -1.0 would train the base step by gradient ascent; the
    # config that asks for it cannot be made, so train_base never sees it
    spec = WorldSpec(num_classes=2, mixture_classes=(), height=4, width=4, images_per_class=1, test_images_per_class=1)
    world = build_world(spec)
    cfg = ExperimentConfig(world=spec, sequence=TaskSequence(class_order=(1, 2), base_count=2))
    with pytest.raises(ConfigError, match="train.base_lr must be > 0"):
        train_base(dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, base_lr=-1.0)), world)
    with pytest.raises(ConfigError, match="train.batch_size must be >= 1"):
        train_base(dataclasses.replace(cfg, train=TrainConfig(batch_size=0)), world)
