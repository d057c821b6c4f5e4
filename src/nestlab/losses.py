"""Training objectives with hand-derived gradients w.r.t. the logits.

Class indices here are head column indices: column 0 is background,
columns 1..n_old-1 are previously learned classes, columns n_old.. are the
current step's classes.  The unbiased variants fold probability mass
across that split to model background shift.  `_unbiased_ce_core` is the
one cross-entropy formula: plain `ce`, for base training, is the unbiased
cross entropy with background as the only old column.

The kernels work class-major: they copy their logits and targets to
Fortran order at every row count, so each class is one contiguous vector
for the softmax, the background fold and the column updates, and
numpy adds a row's classes left to right (a one-row table is C-ordered
too, and numpy sums it pairwise).  Their gradients come back C-ordered,
the layout of the callers' matmuls and column sums.
"""

import numpy as np

from .errors import DataError, ShapeError
from .numerics import softmax

_LOG_FLOOR = 1e-300


def _safe_log(x):
    return np.log(np.maximum(x, _LOG_FLOOR))


def _rows(logits):
    """`(..., n, C)` logits as one class-major `(rows, C)` table, and the
    shape `(..., n)` of one value per row, for the unbiased kernels.  Every
    row is worked on alone, so a slice's rows come out as in a call on
    that slice."""
    logits = np.asarray(logits, dtype=np.float64)
    rows_shape = logits.shape[:-1]
    if len(rows_shape) != 1:
        if not rows_shape:
            raise ShapeError(f"logits of shape {logits.shape} are not (..., n, C)")
        logits = logits.reshape(-1, logits.shape[-1])
    return np.asfortranarray(logits), rows_shape


def _per_row(what, a, rows_shape, tail=()):
    """`a` of shape `(n, *tail)` or `(..., n, *tail)`, broadcast over the
    rows of the `rows_shape` table, as one flat `(rows, *tail)` array."""
    shape = rows_shape + tail
    if a.shape != shape:
        try:
            a = np.broadcast_to(a, shape)
        except ValueError:
            raise ShapeError(f"{what} of shape {a.shape} do not fit logit rows {rows_shape}") from None
    return a if len(rows_shape) == 1 else a.reshape((-1,) + tail)


def _slice_mean(values, rows_shape):
    """The mean of each slice's per-row values: bit for bit
    `ndarray.mean()` of the slice, without its Python-level wrapper."""
    if len(rows_shape) != 1:
        values = values.reshape(rows_shape)
    return np.add.reduce(values, axis=-1) / rows_shape[-1]


def _slice_grad(g, rows_shape):
    """The `(rows, C)` gradient of the per-row losses as the gradient of
    each slice's mean, C-ordered in the logits' shape."""
    return np.divide(g, rows_shape[-1], order="C").reshape(rows_shape + g.shape[1:])


def _checked_labels(labels, n_old, c, rows_shape):
    """Background-shifted labels for `c` columns, the first `n_old` of them
    old, as one flat label per row of the `rows_shape` table."""
    labels = np.asarray(labels, dtype=np.int64)
    if n_old < 1 or n_old > c:
        raise ShapeError(f"n_old={n_old} incompatible with {c} columns")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError("label outside class range")
    bad = (labels > 0) & (labels < n_old)
    if bad.any():
        raise DataError(f"label {labels[bad][0]} belongs to a previous step")
    return _per_row("labels", labels, rows_shape)


def _checked_targets(old_probs, c, rows_shape):
    """The old model's probabilities, n_old <= `c` columns, as one
    class-major row per row of the `rows_shape` table."""
    old_probs = np.asarray(old_probs, dtype=np.float64)
    if old_probs.ndim < 2 or old_probs.shape[-2] != rows_shape[-1]:
        raise ShapeError("old_probs row count mismatch")
    n_old = old_probs.shape[-1]
    if n_old < 1 or n_old > c:
        raise ShapeError(f"old model has {n_old} classes, current has {c}")
    return np.asfortranarray(_per_row("old_probs", old_probs, rows_shape, (n_old,)))


def _unbiased_ce_core(q, labels, n_old, rows_shape, old_cols):
    """The unbiased cross entropy of each slice from the softmax `q`, and,
    in place in `q`, the gradient of the per-row losses: in the first
    `old_cols` columns and the new ones; the other old columns keep `q`."""
    fold = np.add.reduce(q[:, :n_old], axis=1)
    rows = np.arange(len(q))
    is_bg = labels == 0
    modeled = np.where(is_bg, fold, q[rows, labels])
    loss = _slice_mean(-_safe_log(modeled), rows_shape)

    # background pixels: d(-log fold)/dz_k = q_k - q_k*[k<n_old]/fold, NaN
    # (quietly, for the callers' finite checks) where fold underflowed to 0; a
    # new-class pixel divides by inf, and q_k - q_k/inf == q_k for 0 <= q_k <= 1
    if old_cols:
        old = q[:, :old_cols]
        with np.errstate(invalid="ignore"):
            old -= old / np.where(is_bg, fold, np.inf)[:, None]
    # new-class pixels: q - onehot(label), one label column at a time (a
    # background pixel's onehot would subtract 0.0 from q_0 >= +0)
    for j in range(n_old, q.shape[1]):
        q[:, j] -= labels == j
    return loss


def _unbiased_kd_core(q, old_probs, rows_shape):
    """The unbiased distillation loss of each slice from the softmax `q`
    toward `old_probs`, and the gradient of the per-row losses; `q` is
    written."""
    n_old = old_probs.shape[1]
    s_new = q[:, 0] + np.add.reduce(q[:, n_old:], axis=1)
    t0 = old_probs[:, 0]
    per_pixel = t0 * _safe_log(s_new)
    if n_old > 1:
        per_pixel = per_pixel + np.add.reduce(old_probs[:, 1:n_old] * _safe_log(q[:, 1:n_old]), axis=1)
    loss = -_slice_mean(per_pixel, rows_shape)

    # folded-background term t0*q_k*(1 - [k in fold]/s_new), one column
    # block at a time; a zero s_new gives NaN quietly, and the caller's
    # finite checks report it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        in_fold = 1.0 - 1.0 / s_new
        dz = t0[:, None] * q
        bg, old, new = dz[:, 0], dz[:, 1:n_old], dz[:, n_old:]
        bg *= in_fold
        new *= in_fold[:, None]
        # 1 - 0/s_new is 1.0 but where s_new is 0 (or NaN, which comes
        # only from a row of q that is NaN already)
        if not s_new.all():
            old *= (1.0 - 0.0 / s_new)[:, None]
    # + (1 - t0)*q_k, in place in q, - per-old-class terms
    q *= (1.0 - t0)[:, None]
    dz += q
    if n_old > 1:
        dz[:, 1:n_old] -= old_probs[:, 1:n_old]
    return loss, dz


def unbiased_ce(logits, labels, n_old, old_cols=None):
    """Cross entropy where background absorbs all old-class probability.

    For label 0 the modeled probability is sum of columns 0..n_old-1; for a
    new-class label it is the plain softmax probability.  Labels in
    1..n_old-1 are invalid: step labels must already be background-shifted.

    `logits` may carry leading batch axes, `(..., n, C)`, with labels of
    shape `(n,)` or `(..., n)`: the loss is then one mean per slice of n
    rows and `dz` has the logits' shape, each slice bit for bit the call on
    that slice alone.

    `old_cols`, for a caller that reads only some columns of `dz`, returns
    the gradient of only the first `old_cols` columns and the new ones,
    side by side: `dz` is then `(..., n, old_cols + C - n_old)`, each entry
    the bits of the full `dz`'s, and the other old columns cost nothing.
    """
    logits, rows_shape = _rows(logits)
    c = logits.shape[1]
    labels = _checked_labels(labels, n_old, c, rows_shape)
    if old_cols is None:
        old_cols = n_old
    elif not 0 <= old_cols <= n_old:
        raise ShapeError(f"old_cols={old_cols} outside 0..{n_old}")
    q = softmax(logits)
    loss = _unbiased_ce_core(q, labels, n_old, rows_shape, old_cols)
    if old_cols == n_old:
        return loss, _slice_grad(q, rows_shape)
    n = rows_shape[-1]
    dz = np.empty((len(q), old_cols + c - n_old))
    np.divide(q[:, :old_cols], n, out=dz[:, :old_cols])
    np.divide(q[:, n_old:], n, out=dz[:, old_cols:])
    return loss, dz.reshape(rows_shape + dz.shape[1:])


def ce(logits, labels):
    """Mean cross entropy: `unbiased_ce` with background the only old column."""
    return unbiased_ce(logits, labels, 1)


def unbiased_kd(logits, old_probs):
    """Distillation toward the old model with new-class mass folded into bg.

    `old_probs` has n_old columns and rows summing to 1.  The current
    model's background probability is the sum over {bg} + new columns.
    Leading batch axes work as in `unbiased_ce`: `(..., n, C)` logits with
    `old_probs` of shape `(n, n_old)` or `(..., n, n_old)`.
    """
    logits, rows_shape = _rows(logits)
    old_probs = _checked_targets(old_probs, logits.shape[1], rows_shape)
    loss, g = _unbiased_kd_core(softmax(logits), old_probs, rows_shape)
    return loss, _slice_grad(g, rows_shape)


def incremental_loss(logits, labels, old_probs, n_old, lambda_kd):
    """L_unce + lambda * L_unkd; returns (total, dlogits), bit for bit the
    sum of the two kernels' results.  Both terms read one softmax: the
    distillation core gets a copy, as each core writes its gradient into
    its probabilities, and `dz` is written once, as ce/n + lambda*(kd/n)."""
    if not (lambda_kd > 0 and old_probs is not None):
        return unbiased_ce(logits, labels, n_old)
    logits, rows_shape = _rows(logits)
    c = logits.shape[1]
    labels = _checked_labels(labels, n_old, c, rows_shape)
    old_probs = _checked_targets(old_probs, c, rows_shape)
    q = softmax(logits)
    l_kd, g_kd = _unbiased_kd_core(q.copy(order="K"), old_probs, rows_shape)
    total = _unbiased_ce_core(q, labels, n_old, rows_shape, n_old) + lambda_kd * l_kd
    g_kd /= rows_shape[-1]
    g_kd *= lambda_kd
    dz = _slice_grad(q, rows_shape)
    flat = dz.reshape(g_kd.shape)
    flat += g_kd
    return total, dz
