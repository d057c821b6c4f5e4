"""Test-only references for the loss kernels: `unbiased_ce`, which always
returned every column's gradient, `unbiased_kd`, and `incremental_loss`,
which summed the two kernels' results, each with its own softmax.  The
kernels must reproduce them bit for bit."""

import numpy as np

from nestlab.numerics import softmax


def _safe_log(x):
    return np.log(np.maximum(x, 1e-300))


def _rows(logits):
    logits = np.asarray(logits, dtype=np.float64)
    rows_shape = logits.shape[:-1]
    if len(rows_shape) != 1:
        logits = logits.reshape(-1, logits.shape[-1])
    return np.asfortranarray(logits), rows_shape


def _per_row(a, rows_shape, tail=()):
    a = np.broadcast_to(a, rows_shape + tail)
    return a if len(rows_shape) == 1 else a.reshape((-1,) + tail)


def _slice_mean(values, rows_shape):
    if len(rows_shape) != 1:
        values = values.reshape(rows_shape)
    return np.add.reduce(values, axis=-1) / rows_shape[-1]


def _slice_grad(g, rows_shape):
    return np.divide(g, rows_shape[-1], order="C").reshape(rows_shape + g.shape[1:])


def unbiased_ce(logits, labels, n_old):
    """Every column's gradient, from its own softmax."""
    logits, rows_shape = _rows(logits)
    labels = _per_row(np.asarray(labels, dtype=np.int64), rows_shape)
    c = logits.shape[1]
    q = softmax(logits)
    fold = np.add.reduce(q[:, :n_old], axis=1)
    rows = np.arange(len(q))
    is_bg = labels == 0
    modeled = np.where(is_bg, fold, q[rows, labels])
    loss = _slice_mean(-_safe_log(modeled), rows_shape)
    old = q[:, :n_old]
    with np.errstate(invalid="ignore"):
        old -= old / np.where(is_bg, fold, np.inf)[:, None]
    for j in range(n_old, c):
        q[:, j] -= labels == j
    return loss, _slice_grad(q, rows_shape)


def unbiased_kd(logits, old_probs):
    """The distillation kernel, from its own softmax."""
    logits, rows_shape = _rows(logits)
    old_probs = np.asarray(old_probs, dtype=np.float64)
    n_old = old_probs.shape[-1]
    old_probs = np.asfortranarray(_per_row(old_probs, rows_shape, (n_old,)))
    q = softmax(logits)
    s_new = q[:, 0] + np.add.reduce(q[:, n_old:], axis=1)
    t0 = old_probs[:, 0]
    per_pixel = t0 * _safe_log(s_new)
    if n_old > 1:
        per_pixel = per_pixel + np.add.reduce(old_probs[:, 1:n_old] * _safe_log(q[:, 1:n_old]), axis=1)
    loss = -_slice_mean(per_pixel, rows_shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        in_fold = 1.0 - 1.0 / s_new
        dz = t0[:, None] * q
        bg, old, new = dz[:, 0], dz[:, 1:n_old], dz[:, n_old:]
        bg *= in_fold
        new *= in_fold[:, None]
        if not s_new.all():
            old *= (1.0 - 0.0 / s_new)[:, None]
    q *= (1.0 - t0)[:, None]
    dz += q
    if n_old > 1:
        dz[:, 1:n_old] -= old_probs[:, 1:n_old]
    return loss, _slice_grad(dz, rows_shape)


def incremental_loss(logits, labels, old_probs, n_old, lambda_kd):
    """The sum of the two kernels' results, two softmaxes."""
    total, dz = unbiased_ce(logits, labels, n_old)
    if lambda_kd > 0 and old_probs is not None:
        l_kd, dz_kd = unbiased_kd(logits, old_probs)
        total = total + lambda_kd * l_kd
        dz = dz + lambda_kd * dz_kd
    return total, dz
