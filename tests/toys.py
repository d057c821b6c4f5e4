"""Toy old models and step tables that the nest and strategy tests share,
and the reference of their tuning loss: the unbiased cross entropy on the
tuned columns and one log-sum-exp column of the frozen ones.

`old_model` draws the head bias (if any) first, then the backbone, then
the head weights; `step` draws each image's labels, then its features.
Tests that build their models in another draw order build them inline.
"""

import numpy as np

from nestlab.losses import unbiased_ce
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


def log_sum_exp(feats, head, cols):
    """Reference: each row's log-sum-exp over the logits of `head`'s
    columns `cols` (a list), over the whole `(rows, d)` table at once, the
    logits one row per column, as the loss kernels lay them out."""
    z = np.ascontiguousarray(head.weights[:, cols]).T @ feats.T
    if head.biases is not None:
        z += head.biases[cols][:, None]
    a = z.max(axis=0)
    return a + np.log(np.exp(z - a).sum(axis=0))


def pseudo_column_ce(head, x, y, n_old, old_cols, lse):
    """Reference: `unbiased_ce` of a batch on the table of `head`'s first
    `old_cols` columns, then one column holding `lse`, the batch's
    log-sum-exp of its other old columns, then its new columns; the new
    labels shifted onto that table.  Returns the loss and the gradient of
    the first `old_cols` and the new columns."""
    live = list(range(old_cols)) + list(range(n_old, head.num_classes))
    z = np.ascontiguousarray(head.weights[:, live]).T @ x.T
    if head.biases is not None:
        z += head.biases[live][:, None]
    z = np.concatenate([z[:old_cols], lse[None], z[old_cols:]])
    y = np.where(y > 0, y - (n_old - old_cols - 1), 0)
    return unbiased_ce(z.T, y, old_cols + 1, old_cols=old_cols)
