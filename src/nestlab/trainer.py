"""End-to-end incremental training: base step, per-step classifier
initialization, formal training with the unbiased losses, and
stability instrumentation (per-epoch loss and feature-similarity stats).
Base and formal training step the whole model through
`synthdata.sgd_epochs`, the one SGD loop, over the step's table from
`synthdata.step_view`; evaluation maps the world's test labels to head
columns with `synthdata.label_columns`.  `run_plan` runs a list of configs,
building each world once and training each base step once.
"""

import contextlib
import copy
import time
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, NumericError
from .losses import ce, incremental_loss
from .metrics import ConfusionMatrix, cosine_stats, iou_per_class, miou_range
from .model import Backbone, Head, SegModel
from .nest import PretuneConfig
from .numerics import SplitMix64, softmax
from .strategies import initialize_head, parse_strategy
from .synthdata import TaskSequence, WorldSpec, build_world, check_array_size, label_columns, sgd_epochs, step_view


@dataclass(frozen=True)
class TrainConfig:
    """Base and incremental training of one run; checked when built."""

    backbone_dim: int = 16
    base_epochs: int = 60
    base_lr: float = 0.2
    inc_epochs: int = 10
    inc_lr: float = 0.005
    batch_size: int = 8
    lambda_kd: float = 1.0
    fix_old_classifiers: bool = False
    poly_power: float = 0.0
    use_bias: bool = False

    def __post_init__(self):
        for key in ("backbone_dim", "batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"train.{key} must be >= 1")
        for key in ("base_epochs", "inc_epochs", "lambda_kd", "poly_power"):
            if getattr(self, key) < 0:
                raise ConfigError(f"train.{key} must be >= 0")
        for key in ("base_lr", "inc_lr"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"train.{key} must be > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run; `ExperimentConfig()` is the S6-1 benchmark run.  Each
    section checks itself when built; this checks the sequence against the
    world, then the strategy string, then the base step table's size
    against `backbone_dim`, so a config that exists is valid."""

    world: WorldSpec = field(default_factory=WorldSpec)
    sequence: TaskSequence = field(default_factory=TaskSequence)
    strategy: str = "nest:similarity:both"
    pretune: PretuneConfig = field(default_factory=PretuneConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 1

    def __post_init__(self):
        self.sequence.validate(self.world.num_classes)
        parse_strategy(self.strategy)
        # the base step's table of backbone features is train-pool sized
        w = self.world
        shape = (w.num_classes * w.images_per_class, w.height * w.width, self.train.backbone_dim)
        check_array_size("the base step table's features", shape)


@dataclass
class EpochStats:
    loss_mean: float
    loss_std: float
    featsim_mean: float
    featsim_std: float


@dataclass
class StepReport:
    step: int
    miou_base: float
    miou_new: float
    miou_all: float
    epochs: list = field(default_factory=list)
    wall_seconds: float = 0.0


@dataclass
class BaseStep:
    model: SegModel  # frozen snapshot
    rng: SplitMix64  # the generator after base training
    report: StepReport


@dataclass
class RunResult:
    reports: list


def track_stability(live_model, table):
    """Cosine similarity between live and frozen backbone features.

    `cosine_stats` forwards the table a row block at a time and compares
    each block as it comes, so no table-sized array is allocated per
    epoch; each row's features, and so the result, are bit for bit those
    of one whole-table pass.
    """
    x = table.x.reshape(-1, table.x.shape[-1])
    f = table.f.reshape(-1, table.f.shape[-1])
    return cosine_stats(lambda rows: live_model.backbone.forward(x[rows]), f, table.f_norms)


def _kd_targets(old_head, table):
    """The old head's class probabilities over the step table's frozen
    features, (n_img, H*W, n_old): one whole-table matmul, since a matmul
    blocked by rows rounds differently at 9 or more columns, softmaxed in
    place, so the table is the only table-sized array allocated."""
    z = old_head.logits(table.f.reshape(-1, table.f.shape[-1]))
    return softmax(z, out=z).reshape(table.f.shape[:2] + (old_head.num_classes,))


def _train_epochs(model, table, epochs, batch_size, rng, lr_fn, loss_fn, step, frozen_cols=()):
    """Minibatch SGD of the whole model over the table's images through
    `sgd_epochs`, with the loss and stability stats of every epoch.
    `loss_fn(z, y, batch)` returns (loss, dloss/dz); the head columns
    `frozen_cols` (and their biases) keep their values."""

    def batch_grads(batch):
        # every batch-sized array is freed when this returns
        x = table.x[batch].reshape(-1, table.x.shape[-1])
        out, acts = model.backbone.forward_cache(x)
        loss, dz = loss_fn(model.head.logits(out), table.y[batch].reshape(-1), batch)
        grads = model.grads(out, acts, dz)
        for g in grads[2 * len(model.backbone.layers) :]:  # the head's weights and biases
            g[..., frozen_cols] = 0.0
        return loss, grads

    stats = []
    params = model._arrays()
    for losses in sgd_epochs(len(table.x), epochs, batch_size, rng, params, batch_grads, lr_fn, f"step {step}, "):
        stats.append(EpochStats(float(np.mean(losses)), float(np.std(losses)), *track_stability(model, table)))
    return stats


def _step_report(model, world, sequence, step, stats, t0):
    """The StepReport of `step`, timed from `t0`, from evaluating `model`
    on the world's test images."""
    seen = sequence.seen_classes(step)
    # one forward per image: a matmul's rounding depends on its row count
    pred = [np.argmax(model.head.logits(model.backbone.forward(x)), axis=1) for x in world.test_x]
    cm = ConfusionMatrix(model.head.num_classes)
    cm.add(label_columns(world.test_y, seen, 1), np.stack(pred))
    iou = iou_per_class(cm)
    n_base = sequence.base_count
    new_ids = range(n_base + 1, len(seen) + 1)
    miou_new = miou_range(iou, new_ids) if new_ids else float("nan")
    miou_base = miou_range(iou, range(n_base + 1))
    miou_all = miou_range(iou, range(len(seen) + 1))
    return StepReport(step, miou_base, miou_new, miou_all, stats, time.perf_counter() - t0)


def train_base_step(cfg, world, rng):
    """Plain cross-entropy training on step 0 classes; returns the model
    and its per-epoch stats."""
    train = cfg.train
    d_in = world.spec.feature_dim
    backbone = Backbone.single_relu(d_in, train.backbone_dim, rng)
    n_cols = cfg.sequence.base_count + 1
    head_w = 0.01 * rng.normal((train.backbone_dim, n_cols))
    head_b = np.zeros(n_cols) if train.use_bias else None
    model = SegModel(backbone, Head(head_w, head_b))

    # the freshly initialized backbone is the base step's frozen reference
    table = step_view(cfg.sequence, world, 0, model.backbone)
    stats = _train_epochs(
        model, table, train.base_epochs, train.batch_size, rng, lambda it: train.base_lr, lambda z, y, batch: ce(z, y), 0
    )
    return model, stats


def run_step(model, cfg, world, t, rng):
    """One incremental step of `model`, trained in place: the strategy's
    head, then formal training; returns the step's StepReport."""
    t0 = time.perf_counter()
    train = cfg.train
    snapshot = model.snapshot()
    snapshot_bytes = snapshot.param_bytes()
    table = step_view(cfg.sequence, world, t, snapshot.backbone)
    strategy = parse_strategy(cfg.strategy)

    n_old = snapshot.head.num_classes
    try:
        model.head = initialize_head(strategy, snapshot, table, cfg.pretune, rng)
    except NumericError as e:
        raise NumericError(f"step {t}: {e}") from e

    old_probs = _kd_targets(snapshot.head, table) if train.lambda_kd > 0 else None

    def loss_fn(z, y, batch):
        op = None if old_probs is None else old_probs[batch].reshape(-1, n_old)
        return incremental_loss(z, y, op, n_old, train.lambda_kd)

    total_iters = train.inc_epochs * -(-len(table.x) // train.batch_size)

    def lr_fn(it):
        if train.poly_power > 0:
            return train.inc_lr * (1.0 - min(it / total_iters, 1.0)) ** train.poly_power
        return train.inc_lr

    frozen_cols = tuple(range(1, n_old)) if train.fix_old_classifiers else ()
    stats = _train_epochs(model, table, train.inc_epochs, train.batch_size, rng, lr_fn, loss_fn, t, frozen_cols)

    if snapshot.param_bytes() != snapshot_bytes:
        raise NumericError("old-model snapshot was mutated during the step")

    return _step_report(model, world, cfg.sequence, t, stats, t0)


def train_base(cfg, world):
    """Train and evaluate step 0 once, for every arm of this seed."""
    rng = SplitMix64(cfg.seed)
    t0 = time.perf_counter()
    model, base_stats = train_base_step(cfg, world, rng)
    report = _step_report(model, world, cfg.sequence, 0, base_stats, t0)
    return BaseStep(model.snapshot(), rng, report)


def run_experiment(cfg, world=None, base=None):
    """Run all steps of the sequence; returns a RunResult.  Steps after
    the base continue from copies of the base's model and generator."""
    if world is None:
        world = build_world(cfg.world)
    if base is None:
        base = train_base(cfg, world)
    model = base.model.copy()
    rng = copy.copy(base.rng)
    reports = [base.report] + [run_step(model, cfg, world, t, rng) for t in range(1, cfg.sequence.num_steps)]
    return RunResult(reports)


def _base_key(cfg):
    """What `train_base` may read of `cfg`: its fields, with only those
    it never reads blanked out.  A field added later then gives its own
    base, trained again, instead of sharing one trained for another
    config."""
    unread = dict.fromkeys(("inc_epochs", "inc_lr", "lambda_kd", "fix_old_classifiers", "poly_power"))
    train = dict(vars(cfg.train), **unread)
    return repr(dict(vars(cfg), strategy=None, pretune=None, train=train))


def _recording_warnings(fn, *args):
    """`fn(*args)` and the warnings it raised, in order, as the arguments
    of `warnings.showwarning`: a worker process cannot show its own, since
    it is forked inside `cli.main`'s hold on warnings."""
    with warnings.catch_warnings(record=True) as caught:
        result = fn(*args)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def run_plan(configs, workers=1):
    """Run every config; returns their RunResults in input order.

    One world is built per distinct `WorldSpec` and one base step trained
    per distinct `_base_key`; every run continues from its key's base, so
    each result is byte-identical to `run_experiment(cfg)` run alone.
    With `workers` > 1 the bases, then the runs, are mapped over that many
    worker processes.  Serial or not, each task's warnings are recorded
    and shown again here once every task is done, in task order.
    """
    worlds = {repr(cfg.world): cfg.world for cfg in configs}
    worlds = {key: build_world(spec) for key, spec in worlds.items()}
    base_cfgs = {}  # base key -> the first config with that key
    for cfg in configs:
        base_cfgs.setdefault(_base_key(cfg), cfg)
    pool = contextlib.nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool as executor:
        map_fn = executor.map if executor else map
        base_worlds = [worlds[repr(cfg.world)] for cfg in base_cfgs.values()]
        base_tasks = list(map_fn(partial(_recording_warnings, train_base), base_cfgs.values(), base_worlds))
        bases = dict(zip(base_cfgs, (base for base, _ in base_tasks)))
        run_worlds = [worlds[repr(cfg.world)] for cfg in configs]
        run_bases = [bases[_base_key(cfg)] for cfg in configs]
        run_tasks = list(map_fn(partial(_recording_warnings, run_experiment), configs, run_worlds, run_bases))
    for _, caught in base_tasks + run_tasks:
        for args in caught:
            warnings.showwarning(*args)
    return [result for result, _ in run_tasks]
