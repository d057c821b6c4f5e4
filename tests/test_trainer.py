"""Trainer: end-to-end contracts on small worlds (kept fast)."""

import dataclasses
import pickle

import numpy as np
import pytest

from nestlab.nest import PretuneConfig
from nestlab.synthdata import TaskSequence, WorldSpec
from nestlab.trainer import ExperimentConfig, TrainConfig, run_experiment


def small_config(strategy="nest:similarity:both", sequence=None, **train):
    world = WorldSpec(
        num_classes=4,
        feature_dim=8,
        prototype_rule="independent",
        mixture_classes=(),
        height=8,
        width=8,
        images_per_class=6,
        test_images_per_class=2,
        seed=2,
    )
    base = dict(backbone_dim=8, base_epochs=10, base_lr=0.1, inc_epochs=3, inc_lr=0.01, batch_size=4, lambda_kd=1.0)
    base.update(train)
    return ExperimentConfig(
        world=world,
        sequence=sequence or TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1),
        strategy=strategy,
        pretune=PretuneConfig(epochs=3, lr=0.05, batch_size=4),
        train=TrainConfig(**base),
        seed=1,
    )


def test_step_and_report_structure():
    result = run_experiment(small_config())
    assert [r.step for r in result.reports] == [0, 1, 2]
    assert len(result.reports[1].epochs) == 3


def test_determinism():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    for ra, rb in zip(a.reports, b.reports):
        assert ra.miou_all == rb.miou_all or (np.isnan(ra.miou_all) and np.isnan(rb.miou_all))
        for ea, eb in zip(ra.epochs, rb.epochs):
            assert ea.loss_mean == eb.loss_mean
            assert ea.featsim_mean == eb.featsim_mean


def test_single_step_sequence_is_base_training_only():
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=4, increment=1)
    result = run_experiment(small_config(sequence=seq))
    assert len(result.reports) == 1
    assert result.reports[0].step == 0


def test_zero_incremental_epochs_keeps_old_model():
    # lambda 0 and no formal epochs: the step only appends initialized columns
    cfg = small_config(inc_epochs=0, lambda_kd=0.0, strategy="background")
    result = run_experiment(cfg)
    assert len(result.reports) == 3
    for rep in result.reports[1:]:
        assert rep.epochs == []


def test_fix_old_classifiers_byte_identity():
    from nestlab.model import Backbone, Head, SegModel
    from nestlab.numerics import SplitMix64
    from nestlab.synthdata import build_world
    from nestlab.trainer import run_step, train_base_step

    cfg = small_config(fix_old_classifiers=True, strategy="background")
    world = build_world(cfg.world)
    rng = SplitMix64(cfg.seed)
    model, _ = train_base_step(cfg, world, rng)
    old_cols = model.head.weights[:, 1:].copy()
    run_step(model, cfg, world, 1, rng)
    # columns of previously learned classes must not move (bg may)
    assert model.head.weights[:, 1 : old_cols.shape[1] + 1].tobytes() == old_cols.tobytes()


def test_backbone_moves_without_fixing():
    from nestlab.numerics import SplitMix64
    from nestlab.synthdata import build_world
    from nestlab.trainer import run_step, train_base_step

    cfg = small_config(strategy="background")
    world = build_world(cfg.world)
    rng = SplitMix64(cfg.seed)
    model, _ = train_base_step(cfg, world, rng)
    w_before = model.backbone.layers[0][0].copy()
    report = run_step(model, cfg, world, 1, rng)
    assert not np.array_equal(model.backbone.layers[0][0], w_before)
    # stability stats live in [−1, 1] and are populated per epoch
    assert len(report.epochs) == cfg.train.inc_epochs
    for st in report.epochs:
        assert -1.0 <= st.featsim_mean <= 1.0 + 1e-12


def test_poly_decay_changes_trajectory():
    a = run_experiment(small_config(poly_power=0.0))
    b = run_experiment(small_config(poly_power=0.9))
    la = [e.loss_mean for r in a.reports[1:] for e in r.epochs]
    lb = [e.loss_mean for r in b.reports[1:] for e in r.epochs]
    assert la != lb


def test_use_bias_mode_runs():
    result = run_experiment(small_config(use_bias=True))
    assert len(result.reports) == 3
    assert np.isfinite(result.reports[-1].miou_all)


def test_disjoint_protocol_runs():
    seq = TaskSequence(class_order=(1, 2, 3, 4), base_count=2, increment=1, setting="disjoint")
    result = run_experiment(small_config(sequence=seq))
    assert len(result.reports) == 3


def test_all_strategies_complete():
    for strat in ("random", "background", "two_stage", "nest:similarity:both",
                  "nest:random:both", "nest:similarity:importance_only",
                  "nest:similarity:projection_only"):
        result = run_experiment(small_config(strategy=strat))
        assert len(result.reports) == 3, strat


def test_permuted_class_orders_complete():
    # five random class orders, per the sequence-permutation table structure
    from nestlab.numerics import SplitMix64

    rng = SplitMix64(77)
    for _ in range(5):
        order = tuple(int(c) + 1 for c in rng.permutation(4))
        seq = TaskSequence(class_order=order, base_count=2, increment=1)
        result = run_experiment(small_config(sequence=seq))
        assert [r.step for r in result.reports] == [0, 1, 2], order


def test_base_step_reaches_high_train_accuracy():
    # the S6-1 base problem is separable; accuracy > 90% within 30 epochs
    from nestlab.numerics import SplitMix64
    from nestlab.synthdata import build_world, label_columns
    from nestlab.trainer import train_base_step

    cfg = ExperimentConfig(train=TrainConfig(base_epochs=30, base_lr=0.2), seed=1)
    world = build_world(cfg.world)
    model, _ = train_base_step(cfg, world, SplitMix64(1))
    truth = label_columns(world.train_y, cfg.sequence.classes_at(0), 1)
    pred = [np.argmax(model.head.logits(model.backbone.forward(x)), axis=1) for x in world.train_x]
    assert (np.stack(pred) == truth).mean() > 0.9


def test_step_columns_follow_class_order():
    # with increment 2 and an order that is not sorted, each step's classes
    # keep class_order order, and the table labels every class with the
    # head column formal training and evaluation use
    from nestlab.model import Backbone
    from nestlab.synthdata import build_world, step_view

    spec = WorldSpec(
        num_classes=10,
        feature_dim=4,
        prototype_rule="independent",
        mixture_classes=(),
        height=8,
        width=8,
        images_per_class=3,
        test_images_per_class=1,
    )
    seq = TaskSequence(class_order=(1, 2, 3, 4, 5, 6, 8, 7, 10, 9), base_count=6, increment=2)
    world = build_world(spec)
    col_of = {c: i + 1 for i, c in enumerate(seq.class_order)}
    for t in range(seq.num_steps):
        table = step_view(seq, world, t, Backbone([], 4))
        assert table.classes == seq.classes_at(t)
        labels = world.train_y
        for c in table.classes:
            assert (labels == c).any()
            assert (table.y[labels == c] == col_of[c]).all()
        others = ~np.isin(labels, table.classes)
        assert others.any() and (table.y[others] == 0).all()
        for a in (table.x, table.y, table.f):
            with pytest.raises(ValueError):
                a[0] = 0


def _pinned(result):
    # wall_seconds is a timing; the rest must match byte for byte
    return repr([dataclasses.replace(r, wall_seconds=0.0) for r in result.reports])


def test_shared_base_matches_independent_runs():
    # arms continued from one train_base equal arms that train their own
    from nestlab.synthdata import build_world
    from nestlab.trainer import train_base

    world = build_world(small_config().world)
    base = train_base(small_config(), world)
    base_bytes = base.model.param_bytes()
    for strat in ("background", "nest:similarity:both"):
        shared = run_experiment(small_config(strategy=strat), world, base)
        assert _pinned(shared) == _pinned(run_experiment(small_config(strategy=strat))), strat
        assert base.model.param_bytes() == base_bytes


def test_world_and_base_reach_a_worker_read_only():
    # run_plan's workers receive the world and the base as the process
    # pool pickles them; they arrive read-only and give the same run
    from multiprocessing.reduction import ForkingPickler

    from nestlab.synthdata import build_world
    from nestlab.trainer import train_base

    world = build_world(small_config().world)
    base = train_base(small_config(), world)
    sent_world, sent_base = pickle.loads(ForkingPickler.dumps((world, base)))
    model = sent_base.model
    arrays = [sent_world.prototypes, sent_world.train_x, sent_world.train_y, sent_world.test_x, sent_world.test_y]
    arrays += [model.head.weights] + [a for layer in model.backbone.layers for a in layer]
    assert not any(a.flags.writeable for a in arrays)
    cfg = small_config()
    assert _pinned(run_experiment(cfg, sent_world, sent_base)) == _pinned(run_experiment(cfg, world, base))
    # the S6-1 world holds each pool once: at most the 8 718 065 bytes it
    # pickled to when its train images were views into one array
    from nestlab.synthdata import WorldSpec

    assert len(ForkingPickler.dumps(build_world(WorldSpec()))) <= 8_718_065


def test_train_config_has_no_seed_list():
    # the seeds of a config file are the command line's run plan; a
    # TrainConfig is one run, and ExperimentConfig.seed is its seed
    with pytest.raises(TypeError):
        TrainConfig(seeds=(2,))


def _plan_wiring(monkeypatch, configs):
    """`run_plan(configs)` with worlds, bases and runs stubbed out: each
    config's (world, base) as the plan wired them, and the base count."""
    from nestlab import trainer

    bases = []

    def fake_train_base(cfg, world):
        bases.append(object())
        return bases[-1]

    monkeypatch.setattr(trainer, "build_world", lambda spec: object())
    monkeypatch.setattr(trainer, "train_base", fake_train_base)
    monkeypatch.setattr(trainer, "run_experiment", lambda cfg, world, base: (world, base))
    return trainer.run_plan(configs), len(bases)


def _changed(cfg, name, value):
    """`cfg` with one field, or one `train.` field, replaced."""
    if name.startswith("train."):
        return dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, **{name[len("train.") :]: value}))
    return dataclasses.replace(cfg, **{name: value})


# every input of the base step, and every field it never reads
_OWN_BASE = {
    "world": dataclasses.replace(small_config().world, seed=3),
    "sequence": TaskSequence(class_order=(2, 1, 3, 4), base_count=2, increment=1),
    "seed": 2,
    "train.backbone_dim": 4,
    "train.base_epochs": 3,
    "train.base_lr": 0.05,
    "train.batch_size": 2,
    "train.use_bias": True,
}
_SHARED_BASE = {
    "strategy": "background",
    "pretune": PretuneConfig(epochs=1, lr=0.5, batch_size=2),
    "train.inc_epochs": 1,
    "train.inc_lr": 0.5,
    "train.lambda_kd": 0.0,
    "train.fix_old_classifiers": True,
    "train.poly_power": 0.9,
}


@pytest.mark.parametrize("name", list(_OWN_BASE))
def test_plan_trains_a_base_per_field_the_base_step_reads(monkeypatch, name):
    ref = small_config()
    (_, base_a), (_, base_b) = _plan_wiring(monkeypatch, [ref, _changed(ref, name, _OWN_BASE[name])])[0]
    assert base_a is not base_b


@pytest.mark.parametrize("name", list(_SHARED_BASE))
def test_plan_shares_the_base_across_fields_the_base_step_never_reads(monkeypatch, name):
    ref = small_config()
    runs, n_bases = _plan_wiring(monkeypatch, [ref, _changed(ref, name, _SHARED_BASE[name])])
    assert n_bases == 1 and runs[0] == runs[1]


def test_plan_key_splits_on_a_train_field_it_does_not_know(monkeypatch):
    # a TrainConfig field added later gives its own base: the key blanks
    # the fields the base step never reads and keeps everything else
    extended = dataclasses.make_dataclass("Extended", [("warmup", int, 0)], bases=(TrainConfig,), frozen=True)
    a = dataclasses.replace(small_config(), train=extended(**vars(small_config().train)))
    b = dataclasses.replace(a, train=dataclasses.replace(a.train, warmup=5))
    (_, base_a), (_, base_b) = _plan_wiring(monkeypatch, [a, b])[0]
    assert base_a is not base_b


@pytest.mark.parametrize("workers", [1, 2])
def test_plan_equals_each_run_alone(workers):
    # two worlds, two training cells, strategies and a repeated config:
    # every result is the one run_experiment gives the config alone
    from nestlab.trainer import run_plan

    other_world = _changed(small_config(), "world", _OWN_BASE["world"])
    configs = [
        small_config(),
        small_config(strategy="background"),
        small_config(base_lr=0.05),
        dataclasses.replace(other_world, strategy="background"),
        small_config(),
        other_world,
        small_config(inc_lr=0.02, strategy="two_stage"),
    ]
    results = run_plan(configs, workers=workers)
    assert [_pinned(r) for r in results] == [_pinned(run_experiment(cfg)) for cfg in configs]


@pytest.mark.parametrize("strategy", ["background", "nest:similarity:both"])
def test_fix_old_classifiers_freezes_exactly_the_old_class_columns(monkeypatch, strategy):
    # through formal training, columns 1..n_old-1 and their biases keep
    # their bytes; the background column and the new columns move
    from nestlab import trainer
    from nestlab.numerics import SplitMix64
    from nestlab.synthdata import build_world

    cfg = small_config(fix_old_classifiers=True, use_bias=True, strategy=strategy)
    world = build_world(cfg.world)
    rng = SplitMix64(cfg.seed)
    model, _ = trainer.train_base_step(cfg, world, rng)
    n_old = model.head.num_classes
    initialized = []

    def initialize_head(*args):
        head = trainer_initialize_head(*args)
        initialized.append(head.copy())
        return head

    trainer_initialize_head = trainer.initialize_head
    monkeypatch.setattr(trainer, "initialize_head", initialize_head)
    trainer.run_step(model, cfg, world, 1, rng)
    (start,) = initialized
    end = model.head
    assert end.weights[:, 1:n_old].tobytes() == start.weights[:, 1:n_old].tobytes()
    assert end.biases[1:n_old].tobytes() == start.biases[1:n_old].tobytes()
    for cols in (slice(0, 1), slice(n_old, None)):
        assert not np.array_equal(end.weights[:, cols], start.weights[:, cols])
        assert not np.array_equal(end.biases[cols], start.biases[cols])


def test_no_batch_array_is_alive_when_the_stability_probe_runs(monkeypatch):
    # the epoch's probe is its memory peak; the batch's pixels, features,
    # logits and gradients are freed before it runs
    import sys

    from nestlab import trainer

    cfg = small_config()
    loops, probes = [], []

    def sgd_epochs(*args):
        loops.append(real_loop(*args))
        return loops[-1]

    def track_stability(model, table):
        frame = sys._getframe(1)
        assert frame.f_code is trainer._train_epochs.__code__
        assert not [k for k, v in frame.f_locals.items() if isinstance(v, np.ndarray)]
        arrays = [(k, v) for k, v in loops[-1].gi_frame.f_locals.items() if isinstance(v, np.ndarray)]
        probes.append((arrays, {a.shape for a in model._arrays()}))
        return real(model, table)

    real, real_loop = trainer.track_stability, trainer.sgd_epochs
    monkeypatch.setattr(trainer, "track_stability", track_stability)
    monkeypatch.setattr(trainer, "sgd_epochs", sgd_epochs)
    run_experiment(cfg)
    assert len(probes) == cfg.train.base_epochs + 2 * cfg.train.inc_epochs
    # the loop keeps the schedule's last batch of image indices, and the
    # last parameter it stepped with that parameter's gradient
    for arrays, param_shapes in probes:
        assert sorted(k for k, _ in arrays) == ["batch", "g", "p"]
        for k, v in arrays:
            if k == "batch":
                assert v.dtype.kind == "i" and len(v) <= cfg.train.batch_size
            else:
                assert v.shape in param_shapes


def test_kd_targets_for_a_table_allocate_no_second_table():
    # 51 200 x 10 probabilities with biases: the logits array is the one
    # table allocated, softmaxed in place
    import tracemalloc

    from nestlab.model import Head
    from nestlab.numerics import SplitMix64, softmax
    from nestlab.synthdata import StepTable
    from nestlab.trainer import _kd_targets

    rng = SplitMix64(4)
    f = np.abs(rng.normal((200, 256, 16)))
    head = Head(rng.normal((16, 10)), rng.normal(10))
    table = StepTable((), f, np.zeros(f.shape[:2], dtype=np.int64), f)
    ref = softmax(f.reshape(-1, 16) @ head.weights + head.biases)
    tracemalloc.start()
    try:
        probs = _kd_targets(head, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = 51_200 * 10 * 8
    assert probs.shape == (200, 256, 10) and probs.tobytes() == ref.tobytes()
    assert peak < 1.5 * table_bytes, peak
