"""End-to-end incremental training: base step, per-step classifier
initialization, formal training with the unbiased losses, and
stability instrumentation (per-epoch loss and feature-similarity stats).
Base and formal training are one SGD loop, `_train_epochs`, over the
`synthdata.minibatches` schedule; a config file's seed list is the CLI's.
"""

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .losses import ce, incremental_loss
from .metrics import ConfusionMatrix, cosine_stats, iou_per_class, miou_range
from .model import Backbone, Head, SegModel
from .nest import PretuneConfig
from .numerics import SplitMix64, softmax
from .strategies import initialize_head, parse_strategy
from .synthdata import TaskSequence, WorldSpec, build_world, map_labels, minibatches, step_table, step_view


@dataclass
class TrainConfig:
    """Base and incremental training of one run."""

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

    def validate(self):
        for key in ("backbone_dim", "batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"train.{key} must be >= 1")
        for key in ("base_epochs", "inc_epochs", "lambda_kd", "poly_power"):
            if getattr(self, key) < 0:
                raise ConfigError(f"train.{key} must be >= 0")
        for key in ("base_lr", "inc_lr"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"train.{key} must be > 0")


@dataclass
class ExperimentConfig:
    """One run; `ExperimentConfig()` is the S6-1 benchmark run."""

    world: WorldSpec = field(default_factory=WorldSpec)
    sequence: TaskSequence = field(default_factory=TaskSequence)
    strategy: str = "nest:similarity:both"
    pretune: PretuneConfig = field(default_factory=PretuneConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 1

    def validate(self):
        """Check every section: the world, the sequence against the world,
        pre-tuning, training, then the strategy string."""
        self.world.validate()
        self.sequence.validate(self.world.num_classes)
        self.pretune.validate()
        self.train.validate()
        parse_strategy(self.strategy)


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
    ious: np.ndarray


@dataclass
class RunResult:
    reports: list
    per_class_iou: dict  # class id -> IoU at the final step


def _col_of_class(sequence):
    """Head column index per class id: introduction order, bg = 0."""
    return {c: i + 1 for i, c in enumerate(sequence.class_order)}


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


def _train_epochs(model, table, epochs, batch_size, rng, lr_fn, loss_fn, step, frozen_cols=()):
    """Minibatch SGD over the table's images in the `minibatches` schedule,
    with the loss and stability stats of every epoch.  `lr_fn` takes the
    iteration count of the whole run of epochs, `loss_fn(z, y, batch)`
    returns (loss, dloss/dz)."""
    stats = []
    for epoch, batches in enumerate(minibatches(len(table.x), epochs, batch_size, rng)):
        losses = []
        for it, batch in enumerate(batches):
            x = table.x[batch].reshape(-1, table.x.shape[-1])
            y = table.y[batch].reshape(-1)
            out, acts = model.backbone.forward_cache(x)
            z = model.head.logits(out)
            loss, dz = loss_fn(z, y, batch)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at step {step}, epoch {epoch}, batch {it}")
            losses.append(loss)
            lr = lr_fn(epoch * len(batches) + it)
            d_head = out.T @ dz
            if frozen_cols:
                d_head[:, list(frozen_cols)] = 0.0
            dfeats = dz @ model.head.weights.T
            layer_grads = model.backbone.backward(dfeats, acts)
            model.head.weights = model.head.weights - lr * d_head
            if model.head.biases is not None:
                db = dz.sum(axis=0)
                if frozen_cols:
                    db[list(frozen_cols)] = 0.0
                model.head.biases = model.head.biases - lr * db
            for li, (gw, gb) in enumerate(layer_grads):
                w, b = model.backbone.layers[li]
                model.backbone.layers[li] = (w - lr * gw, b - lr * gb)
        # the loss is floored by a safe log, so only the parameters show a
        # gradient that went non-finite
        if not np.isfinite(model.flat_params()).all():
            raise NumericError(f"non-finite parameters at step {step}, epoch {epoch}")
        sim_mean, sim_std = track_stability(model, table)
        stats.append(EpochStats(float(np.mean(losses)), float(np.std(losses)), sim_mean, sim_std))
    return stats


def _evaluate(model, test_images, n_cols, col_of):
    cm = ConfusionMatrix(n_cols)
    for img in test_images:
        h, w, d_in = img.features.shape
        feats = model.backbone.forward(img.features.reshape(-1, d_in))
        pred = np.argmax(model.head.logits(feats), axis=1)
        truth = map_labels(img.full_labels, col_of)
        cm.add(truth, pred)
    return cm


def _report_from_cm(cm, step, sequence):
    ious = iou_per_class(cm)
    n_base = sequence.base_count
    n_seen = n_base + step * sequence.increment
    base_ids = list(range(0, n_base + 1))
    new_ids = list(range(n_base + 1, n_seen + 1))
    all_ids = list(range(0, n_seen + 1))
    miou_new = miou_range(ious, new_ids) if new_ids else float("nan")
    return ious, miou_range(ious, base_ids), miou_new, miou_range(ious, all_ids)


def train_base_step(cfg, world, rng=None):
    """Plain cross-entropy training on step 0 classes."""
    if rng is None:
        rng = SplitMix64(cfg.seed)
    train = cfg.train
    d_in = world.spec.feature_dim
    backbone = Backbone.single_relu(d_in, train.backbone_dim, rng)
    n_cols = cfg.sequence.base_count + 1
    head_w = 0.01 * rng.normal((train.backbone_dim, n_cols))
    head_b = np.zeros(n_cols) if train.use_bias else None
    model = SegModel(backbone, Head(head_w, head_b))

    data = step_view(cfg.sequence, world, 0)
    # the freshly initialized backbone is the base step's frozen reference
    table = step_table(data, model.backbone, _col_of_class(cfg.sequence))
    stats = _train_epochs(
        model, table, train.base_epochs, train.batch_size, rng, lambda it: train.base_lr, lambda z, y, batch: ce(z, y), 0
    )
    return model, data, stats


def run_step(model, cfg, world, t, rng):
    """One incremental step: the strategy's head, then formal training."""
    t0 = time.perf_counter()
    train = cfg.train
    snapshot = model.snapshot()
    snapshot_bytes = snapshot.param_bytes()
    data = step_view(cfg.sequence, world, t)
    col_of = _col_of_class(cfg.sequence)
    table = step_table(data, snapshot.backbone, col_of)
    strategy = parse_strategy(cfg.strategy)

    n_old = snapshot.head.num_classes
    try:
        model.head = initialize_head(strategy, snapshot, table, cfg.pretune, rng)
    except NumericError as e:
        raise NumericError(f"step {t}: {e}") from e

    old_probs = None
    if train.lambda_kd > 0:
        frozen = table.f.reshape(-1, table.f.shape[-1])
        old_probs = softmax(snapshot.head.logits(frozen), axis=1).reshape(len(table.f), -1, n_old)

    def loss_fn(z, y, batch):
        op = None if old_probs is None else old_probs[batch].reshape(-1, n_old)
        total, _, dz = incremental_loss(z, y, op, n_old, train.lambda_kd)
        return total, dz

    total_iters = train.inc_epochs * -(-len(table.x) // train.batch_size)

    def lr_fn(it):
        if train.poly_power > 0:
            return train.inc_lr * (1.0 - min(it / total_iters, 1.0)) ** train.poly_power
        return train.inc_lr

    frozen_cols = tuple(range(1, n_old)) if train.fix_old_classifiers else ()
    stats = _train_epochs(model, table, train.inc_epochs, train.batch_size, rng, lr_fn, loss_fn, t, frozen_cols)

    if snapshot.param_bytes() != snapshot_bytes:
        raise NumericError("old-model snapshot was mutated during the step")

    cm = _evaluate(model, data.test_images, model.head.num_classes, col_of)
    ious, miou_base, miou_new, miou_all = _report_from_cm(cm, t, cfg.sequence)
    report = StepReport(t, miou_base, miou_new, miou_all, stats, time.perf_counter() - t0)
    return model, report, ious


def train_base(cfg, world):
    """Train and evaluate step 0 once, for every arm of this seed."""
    rng = SplitMix64(cfg.seed)
    t0 = time.perf_counter()
    model, base_data, base_stats = train_base_step(cfg, world, rng)
    cm = _evaluate(model, base_data.test_images, model.head.num_classes, _col_of_class(cfg.sequence))
    ious, miou_base, miou_new, miou_all = _report_from_cm(cm, 0, cfg.sequence)
    report = StepReport(0, miou_base, miou_new, miou_all, base_stats, time.perf_counter() - t0)
    return BaseStep(model.snapshot(), rng, report, ious)


def run_experiment(cfg, world=None, base=None):
    """Run all steps of the sequence; returns a RunResult.  Steps after
    the base continue from copies of the base's model and generator."""
    cfg.validate()
    if world is None:
        world = build_world(cfg.world)
    if base is None:
        base = train_base(cfg, world)
    model = base.model.copy()
    rng = copy.copy(base.rng)
    reports = [base.report]
    ious = base.ious

    for t in range(1, cfg.sequence.num_steps):
        model, report, ious = run_step(model, cfg, world, t, rng)
        reports.append(report)

    col_of = _col_of_class(cfg.sequence)
    per_class = {0: float(ious[0])}
    for c, col in col_of.items():
        if col < len(ious):
            per_class[c] = float(ious[col])
    return RunResult(reports=reports, per_class_iou=per_class)
