"""Synthetic per-pixel segmentation worlds with controllable class similarity.

Each image is a background canvas with rectangular class blobs painted on
top; pixel features are drawn from per-class Gaussian prototypes.  Step
views relabel pixels of classes outside the current step as background,
reproducing background shift under the overlapped and disjoint protocols.
The world holds its train features in one read-only array; every train
image, step view and step table reads views of it, never a copy, except
that the disjoint protocol gathers the images it keeps once per step.  A
step table holds a step's train pixels, with head-column labels and the
frozen backbone's features, for every consumer to index; `minibatches` is
the one schedule in which every SGD loop visits its images.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError
from .metrics import row_norms
from .numerics import SplitMix64


@dataclass
class WorldSpec:
    """A synthetic world; the defaults are the S6-1 benchmark's."""

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

    def validate(self):
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
        if not (1 <= self.blobs_min <= self.blobs_max):
            raise ConfigError("blob count range must satisfy 1 <= min <= max")
        for c in self.mixture_classes:
            if not (2 <= c <= self.num_classes):
                raise ConfigError(f"mixture class {c} out of range")
        if self.images_per_class < 1 or self.test_images_per_class < 1:
            raise ConfigError("need at least one image per class in each pool")


@dataclass
class LabeledImage:
    features: np.ndarray  # (H, W, d_in) float64
    full_labels: np.ndarray  # (H, W) int64, 0 = background


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _views(train_x, labels):
    """Train images whose features are views of the rows of `train_x`."""
    return [LabeledImage(x.reshape(y.shape + x.shape[-1:]), y) for x, y in zip(train_x, labels)]


@dataclass
class World:
    """A synthetic world; every array of it is read-only.

    train_x: the train pool's features, (n_train, H*W, d_in), one array;
    each train image's `features` is a view of its row.  A pickle holds
    `train_x` once and no train image's features; loading it rebuilds the
    views and makes every array read-only again.
    """

    spec: WorldSpec
    prototypes: np.ndarray  # (K+1, d_in), row 0 = background
    train_x: np.ndarray
    train_pool: list  # of LabeledImage
    test_pool: list

    def __getstate__(self):
        state = dict(vars(self))
        state["train_pool"] = [img.full_labels for img in self.train_pool]
        return state

    def __setstate__(self, state):
        labels = state.pop("train_pool")
        vars(self).update(state)
        test_arrays = [a for img in self.test_pool for a in (img.features, img.full_labels)]
        _freeze(self.prototypes, self.train_x, *labels, *test_arrays)
        self.train_pool = _views(self.train_x, labels)


@dataclass
class TaskSequence:
    """The order classes arrive in; the defaults are S6-1: 6 base, 1 per step."""

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
class StepData:
    """A step's view of the world.

    train_x: the train images' features, (n_img, H*W, d_in), read-only:
    the world's own `train_x` when the step keeps every train image, else
    one gather of the rows it keeps.  Each of `train_images` has its row
    of `train_x` as features and its labels relabeled for the step;
    `test_images` keep every class seen so far.
    """

    step: int
    class_set: tuple
    train_x: np.ndarray
    train_images: list
    test_images: list = field(default_factory=list)

    @classmethod
    def stacked(cls, step, class_set, train_images):
        """The step of hand-made `train_images`, their features stacked
        into one read-only `train_x` that the returned images view."""
        train_x = np.stack([img.features.reshape(-1, img.features.shape[-1]) for img in train_images])
        _freeze(train_x)
        return cls(step, class_set, train_x, _views(train_x, [img.full_labels for img in train_images]))


@dataclass
class StepTable:
    """A step's train pixels, built once per step and never written.

    x: raw features (n_img, H*W, d_in), the step's `StepData.train_x`
    itself, so under the overlapped protocol the world's memory; y:
    head-column labels (n_img, H*W); f: features of the frozen backbone
    (n_img, H*W, d); classes: the step's class ids in head-column order.
    """

    classes: tuple
    x: np.ndarray
    y: np.ndarray
    f: np.ndarray

    @cached_property
    def f_norms(self):
        """Per-pixel norms of `f`, flattened; computed on first use, a row
        block at a time, so no `f`-sized temporary is allocated."""
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
        if c in mixture and c >= 2:
            weights = rng.uniform(c - 1)
            weights = weights / weights.sum()
            base = weights @ protos[1:c]
            noise = _unit(rng.normal(d))
            protos[c] = _unit(base + spec.mixture_beta * noise)
        else:
            protos[c] = _unit(rng.normal(d))
    return protos


def _render_image(spec, protos, primary_class, rng):
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
    return LabeledImage(features=feats, full_labels=labels)


def build_world(spec):
    """Deterministically generate prototypes plus train/test image pools;
    the train features are rendered into one array, `World.train_x`, and
    every array of the world is read-only."""
    spec.validate()
    rng = SplitMix64(spec.seed)
    protos = _make_prototypes(spec, rng)
    train_x = np.empty((spec.num_classes * spec.images_per_class, spec.height * spec.width, spec.feature_dim))
    labels = []
    for c in range(1, spec.num_classes + 1):
        for _ in range(spec.images_per_class):
            img = _render_image(spec, protos, c, rng)
            train_x[len(labels)] = img.features.reshape(train_x.shape[1:])
            labels.append(img.full_labels)
    test_pool = []
    for c in range(1, spec.num_classes + 1):
        for _ in range(spec.test_images_per_class):
            test_pool.append(_render_image(spec, protos, c, rng))
    # every run that shares this world reads it; none may write it
    _freeze(protos, train_x, *labels, *(a for img in test_pool for a in (img.features, img.full_labels)))
    return World(spec=spec, prototypes=protos, train_x=train_x, train_pool=_views(train_x, labels), test_pool=test_pool)


def _relabel(labels, keep):
    out = np.where(np.isin(labels, list(keep)), labels, 0)
    return out.astype(np.int64)


def step_view(seq, world, t):
    """Training and evaluation views of the world at step t.

    Train labels collapse everything outside the step's classes to
    background; the disjoint protocol additionally drops train images that
    contain any future class.  Test labels keep all classes seen so far.
    A step that keeps every train image views the world's `train_x`;
    one that drops some gathers the rest once.
    """
    seq.validate(world.spec.num_classes)
    if not (0 <= t < seq.num_steps):
        raise ConfigError(f"step {t} outside sequence of {seq.num_steps} steps")
    current = set(seq.classes_at(t))
    seen = set(seq.seen_classes(t))
    future = set(seq.class_order) - seen

    kept = [
        i
        for i, img in enumerate(world.train_pool)
        if not (seq.setting == "disjoint" and future and np.isin(img.full_labels, list(future)).any())
    ]
    if not kept:
        raise DataError(f"disjoint filtering left no training images at step {t}")
    train_x = world.train_x
    if len(kept) < len(train_x):
        train_x = train_x[kept]
        _freeze(train_x)
    train = _views(train_x, [_relabel(world.train_pool[i].full_labels, current) for i in kept])

    test = [
        LabeledImage(img.features, _relabel(img.full_labels, seen))
        for img in world.test_pool
    ]
    return StepData(step=t, class_set=seq.classes_at(t), train_x=train_x, train_images=train, test_images=test)


def map_labels(labels, col_of):
    """Class ids to head columns, flattened; ids missing from `col_of` map
    to column 0 (background)."""
    lut = np.zeros(max(col_of) + 1, dtype=np.int64)
    for c, col in col_of.items():
        lut[c] = col
    return lut[np.asarray(labels).ravel()]


def step_table(data, backbone, col_of):
    """The pixel table of a step's train images, read-only.

    `backbone` is the frozen one whose features go in `f`; `col_of` maps
    class ids to head columns.  The table's `x` is `data.train_x`, not a
    copy: the only arrays allocated are `y` and `f`.
    """
    x = data.train_x
    n_img, n_pix, d_in = x.shape
    y = map_labels(np.stack([img.full_labels for img in data.train_images]), col_of).reshape(n_img, n_pix)
    f = backbone.forward(x.reshape(-1, d_in)).reshape(n_img, n_pix, -1)
    _freeze(y, f)
    return StepTable(data.class_set, x, y, f)


def minibatches(n, epochs, batch_size, rng):
    """The minibatch schedule of every SGD loop over `n` images: for each
    epoch, the list of its batches of image indices, the last one short
    when `batch_size` does not divide `n`.  An epoch's order is drawn from
    `rng` when that epoch starts."""
    for _ in range(epochs):
        order = rng.permutation(n)
        yield [order[start : start + batch_size] for start in range(0, n, batch_size)]


def dump_images(images, path):
    """Write images as JSON lines; floats round-trip bit-exactly."""
    with open(path, "w") as fh:
        for img in images:
            h, w, d = img.features.shape
            rec = {
                "h": h,
                "w": w,
                "d": d,
                "features": img.features.ravel().tolist(),
                "labels": img.full_labels.ravel().tolist(),
            }
            fh.write(json.dumps(rec) + "\n")

