"""Toy old models and step tables that the nest and strategy tests share.

`old_model` draws the head bias (if any) first, then the backbone, then
the head weights; `step` draws each image's labels, then its features.
Tests that build their models in another draw order build them inline.
"""

import numpy as np

from nestlab.model import Backbone, Head, SegModel
from nestlab.synthdata import label_columns, step_table


def old_model(rng, d_in=4, d=4, n_old=3, use_bias=False):
    """A frozen one-layer model with `n_old` head columns."""
    head_b = rng.normal(n_old) if use_bias else None
    return SegModel(Backbone.single_relu(d_in, d, rng), Head(rng.normal((d, n_old)), head_b)).snapshot()


def step(rng, d_in=4, hw=4, new_classes=(3, 4), images=4):
    """(classes, features, class-id labels) of random images of
    `new_classes` and background."""
    x, labels = np.empty((images, hw * hw, d_in)), np.empty((images, hw * hw), dtype=np.int64)
    for i in range(images):
        ids = rng.integers(len(new_classes) + 1, size=hw * hw)
        labels[i] = np.where(ids > 0, np.asarray(new_classes)[ids - 1], 0)
        x[i] = rng.normal((hw * hw, d_in))
    return tuple(new_classes), x, labels


def table(step, old):
    """The step's table, its classes in the head columns after `old`'s."""
    classes, x, labels = step
    return step_table(classes, x, label_columns(labels, classes, old.head.num_classes), old.backbone)
