"""Synthetic per-pixel segmentation worlds with controllable class similarity.

Each image is a background canvas with rectangular class blobs painted on
top; pixel features are drawn from per-class Gaussian prototypes.  The
world keeps each pool as two read-only arrays, features and class-id
labels, one row per image.  A step's view of it is its `StepTable`: the
train pixels, labelled by `label_columns` with every class outside the
step as background (background shift under the overlapped and disjoint
protocols), plus the frozen backbone's features.  The table's features
are the world's array itself, except that the disjoint protocol gathers
the images it keeps once per step.  `sgd_epochs` is every trainer's one
SGD loop, over the `minibatches` schedule.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .metrics import row_norms
from .numerics import SplitMix64


@dataclass(frozen=True)
class WorldSpec:
    """A synthetic world, checked when built; the defaults are the S6-1 benchmark's."""

    num_classes: int = 10
    feature_dim: int = 16
    prototype_rule: str = "mixture"  # "independent" | "mixture"
    mixture_beta: float = 0.3
    mixture_classes: tuple = (7, 8, 9, 10)  # class ids built as mixtures of earlier prototypes
    noise_sigma: float = 0.3
    height: int = 16
    width: int = 16
    blobs_min: int = 2
    blobs_max: int = 5
    images_per_class: int = 20
    test_images_per_class: int = 5
    seed: int = 1

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.feature_dim < 2:
            raise ConfigError("feature_dim must be >= 2")
        if self.height < 4 or self.width < 4:
            raise ConfigError("image size must be >= 4x4")
        if self.noise_sigma <= 0:
            raise ConfigError("noise_sigma must be positive")
        if not (0.0 <= self.mixture_beta <= 1.0):
            raise ConfigError("mixture_beta must lie in [0, 1]")
        if self.prototype_rule not in ("independent", "mixture"):
            raise ConfigError(f"unknown prototype_rule {self.prototype_rule!r}")
        # no image has more blobs than pixels, so the rendering work stays
        # bounded by the pool size, which is checked below
        if not (1 <= self.blobs_min <= self.blobs_max <= self.height * self.width):
            raise ConfigError("blob count range must satisfy 1 <= min <= max <= height * width")
        for c in self.mixture_classes:
            if not (2 <= c <= self.num_classes):
                raise ConfigError(f"mixture class {c} out of range")
        if self.images_per_class < 1 or self.test_images_per_class < 1:
            raise ConfigError("need at least one image per class in each pool")
        for pool, per_class in (("train", self.images_per_class), ("test", self.test_images_per_class)):
            shape = (self.num_classes * per_class, self.height * self.width, self.feature_dim)
            check_array_size(f"the {pool} pool's features", shape)


def check_array_size(what, shape):
    """Reject a configured float64 array of `shape`: numpy indexes an
    array's bytes with np.intp, so a larger one cannot be allocated at all."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} {shape} exceed numpy's array size limit")


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


@dataclass
class World:
    """A synthetic world; every array of it is read-only.

    Each pool is two arrays: features (n, H*W, d_in) float64 and class-id
    labels (n, H*W) int64, 0 = background, one row per image.  numpy
    loads pickled arrays writable, so loading a world freezes them again.
    """

    spec: WorldSpec
    prototypes: np.ndarray  # (K+1, d_in), row 0 = background
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __setstate__(self, state):
        vars(self).update(state)
        _freeze(self.prototypes, self.train_x, self.train_y, self.test_x, self.test_y)


@dataclass(frozen=True)
class TaskSequence:
    """The order classes arrive in; the defaults are S6-1: 6 base, 1 per step.
    It is valid only against a world's class count: see `validate`."""

    class_order: tuple = tuple(range(1, 11))
    base_count: int = 6
    increment: int = 1
    setting: str = "overlapped"

    def validate(self, num_classes):
        if sorted(self.class_order) != list(range(1, num_classes + 1)):
            raise ConfigError("class_order must be a permutation of 1..K")
        if self.setting not in ("overlapped", "disjoint"):
            raise ConfigError(f"unknown setting {self.setting!r}")
        if self.base_count < 1:
            raise ConfigError("base_count must be >= 1")
        rest = num_classes - self.base_count
        if rest < 0 or (rest > 0 and (self.increment < 1 or rest % self.increment)):
            raise ConfigError("base_count + k*increment must reach num_classes")

    @property
    def num_steps(self):
        rest = len(self.class_order) - self.base_count
        return 1 + (rest // self.increment if rest else 0)

    def classes_at(self, t):
        if t == 0:
            return tuple(self.class_order[: self.base_count])
        lo = self.base_count + (t - 1) * self.increment
        return tuple(self.class_order[lo : lo + self.increment])

    def seen_classes(self, t):
        return tuple(self.class_order[: self.base_count + t * self.increment])


@dataclass
class StepTable:
    """A step's train pixels, built once per step and never written.

    x: raw features (n_img, H*W, d_in), under the overlapped protocol
    the world's `train_x` itself; y: head-column labels (n_img, H*W);
    f: features of the frozen backbone (n_img, H*W, d); classes: the
    step's class ids in head-column order.
    """

    classes: tuple
    x: np.ndarray
    y: np.ndarray
    f: np.ndarray

    @cached_property
    def f_norms(self):
        """Per-pixel norms of `f`, flattened; computed on first use, in one
        pass that allocates only the norms."""
        norms = row_norms(self.f.reshape(-1, self.f.shape[-1]))
        _freeze(norms)
        return norms


def _unit(v):
    return v / np.linalg.norm(v)


def _make_prototypes(spec, rng):
    d = spec.feature_dim
    protos = np.zeros((spec.num_classes + 1, d))
    protos[0] = _unit(rng.normal(d))
    mixture = set(spec.mixture_classes) if spec.prototype_rule == "mixture" else set()
    for c in range(1, spec.num_classes + 1):
        if c in mixture:
            weights = rng.uniform(c - 1)
            weights = weights / weights.sum()
            base = weights @ protos[1:c]
            noise = _unit(rng.normal(d))
            protos[c] = _unit(base + spec.mixture_beta * noise)
        else:
            protos[c] = _unit(rng.normal(d))
    return protos


def _render_image(spec, protos, primary_class, rng):
    """One image's class-id labels (H*W,) and features (H*W, d_in)."""
    h, w = spec.height, spec.width
    labels = np.zeros((h, w), dtype=np.int64)
    n_blobs = spec.blobs_min + rng.integers(spec.blobs_max - spec.blobs_min + 1)
    for b in range(n_blobs):
        cls = primary_class if b == 0 else 1 + rng.integers(spec.num_classes)
        bh = 4 + rng.integers(max(1, h // 2 - 3))
        bw = 4 + rng.integers(max(1, w // 2 - 3))
        top = rng.integers(h - bh + 1)
        left = rng.integers(w - bw + 1)
        labels[top : top + bh, left : left + bw] = cls
    feats = protos[labels] + spec.noise_sigma * rng.normal((h, w, spec.feature_dim))
    return labels.ravel(), feats.reshape(h * w, -1)


def _render_pool(spec, protos, per_class, rng):
    """`per_class` images of each class in turn, as read-only features
    (n, H*W, d_in) and labels (n, H*W)."""
    n_pix = spec.height * spec.width
    x = np.empty((spec.num_classes * per_class, n_pix, spec.feature_dim))
    y = np.empty(x.shape[:2], dtype=np.int64)
    for i in range(len(x)):
        y[i], x[i] = _render_image(spec, protos, 1 + i // per_class, rng)
    # every run that shares the world reads it; none may write it
    _freeze(x, y)
    return x, y


def build_world(spec):
    """Deterministically generate prototypes plus the train and test
    pools, each rendered into a features array and a labels array."""
    rng = SplitMix64(spec.seed)
    protos = _make_prototypes(spec, rng)
    _freeze(protos)
    train_x, train_y = _render_pool(spec, protos, spec.images_per_class, rng)
    test_x, test_y = _render_pool(spec, protos, spec.test_images_per_class, rng)
    return World(spec, protos, train_x, train_y, test_x, test_y)


def label_columns(labels, classes, first):
    """Class ids to head columns: `classes[i]` to column `first + i`, every
    other id to 0 (background), through one lookup table."""
    lut = np.zeros(max([labels.max(), *classes]) + 1, dtype=np.int64)
    lut[list(classes)] = np.arange(first, first + len(classes))
    return lut[labels]


def step_table(classes, x, y, backbone):
    """The read-only pixel table of `x` (n_img, H*W, d_in) and its head-column
    labels `y` (n_img, H*W), with the features of the frozen `backbone`.
    `x` and `y` are frozen, not copied; only `f` is allocated."""
    n_img, n_pix, d_in = x.shape
    f = backbone.forward(x.reshape(-1, d_in)).reshape(n_img, n_pix, -1)
    _freeze(x, y, f)
    return StepTable(tuple(classes), x, y, f)


def step_view(seq, world, t, backbone):
    """The step table of step t, its features taken by the frozen `backbone`.

    Train labels collapse everything outside the step's classes to
    background, and its classes take the head columns after the old ones;
    the disjoint protocol additionally drops train images that contain any
    future class.  A step that keeps every train image views the world's
    `train_x`; one that drops some gathers the rest once.
    """
    seq.validate(world.spec.num_classes)
    if not (0 <= t < seq.num_steps):
        raise ConfigError(f"step {t} outside sequence of {seq.num_steps} steps")
    classes, seen = seq.classes_at(t), seq.seen_classes(t)
    future = sorted(set(seq.class_order) - set(seen))
    x, y = world.train_x, world.train_y
    if seq.setting == "disjoint" and future:
        keep = ~np.isin(y, future).any(axis=1)
        if not keep.any():
            raise DataError(f"disjoint filtering left no training images at step {t}")
        x, y = x[keep], y[keep]
    return step_table(classes, x, label_columns(y, classes, 1 + len(seen) - len(classes)), backbone)


def minibatches(n, epochs, batch_size, rng):
    """The minibatch schedule of every SGD loop over `n` images: for each
    epoch, the list of its batches of image indices, the last one short
    when `batch_size` does not divide `n`.  An epoch's order is drawn from
    `rng` when that epoch starts."""
    for _ in range(epochs):
        order = rng.permutation(n)
        yield [order[start : start + batch_size] for start in range(0, n, batch_size)]


def sgd_epochs(n, epochs, batch_size, rng, params, batch_grads, lr_fn, where):
    """The one SGD loop: minibatch SGD of the arrays `params`, in place,
    over `n` images in the `minibatches` schedule, yielding each epoch's
    batch losses once its parameters are checked finite.
    `batch_grads(batch)` returns the batch's loss and one gradient per
    array, None for one held fixed; `lr_fn` takes the iteration count of
    the whole run.  A non-finite loss raises before any array moves; each
    `NumericError` names `where`, the epoch and, for a loss, the batch."""
    for epoch, batches in enumerate(minibatches(n, epochs, batch_size, rng)):
        losses = []
        for b, batch in enumerate(batches):
            loss, grads = batch_grads(batch)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at {where}epoch {epoch}, batch {b}")
            lr = lr_fn(epoch * len(batches) + b)
            for p, g in zip(params, grads, strict=True):
                if g is not None:
                    p -= lr * g
            losses.append(loss)
        # the loss is floored by a safe log, so only the parameters show a
        # gradient that went non-finite
        if not all(np.isfinite(p).all() for p in params):
            raise NumericError(f"non-finite parameters at {where}epoch {epoch}")
        yield losses


def dump_images(x, y, height, path):
    """Write a pool of images, features `x` (n, H*W, d) and labels `y`
    (n, H*W), as JSON lines; floats round-trip bit-exactly."""
    n, n_pix, d = x.shape
    with open(path, "w") as fh:
        for feats, labels in zip(x, y):
            rec = {
                "h": height,
                "w": n_pix // height,
                "d": d,
                "features": feats.ravel().tolist(),
                "labels": labels.tolist(),
            }
            fh.write(json.dumps(rec) + "\n")
