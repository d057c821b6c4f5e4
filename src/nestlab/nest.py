"""Similarity-initialized classifier generation and pre-tuning.

New-class weight columns are generated from the old head as
``w_c = (M_c * W_old) @ P_c`` with a per-class importance matrix M_c and
projection column P_c, kept as one stack over the step's new classes.
The generated background column ``m0 * w0 * p0`` is the same expression
with W_old replaced by its one column w0, so the background pair is a
one-element stack through the same `generate_new_weight` and chain rule
`transform_grads`.  The matrices are initialized from cross-task
similarity scores computed by the frozen old model, then tuned on the
unbiased cross entropy while everything else stays frozen, through
`tune_new_columns`: the frozen-feature step, shared with the `two_stage`
baseline, that the one SGD loop `synthdata.sgd_epochs` runs.  The loss
reads the old columns that tuning never moves only through their summed
softmax mass, so `tune_new_columns` folds them, once per step, into one
log-sum-exp column per pixel.  The bias mode follows the old head: new
classes get biases exactly when it has them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .losses import unbiased_ce
from .metrics import _ROW_BLOCK
from .model import grow_head
from .numerics import softmax
from .synthdata import sgd_epochs


@dataclass(frozen=True)
class PretuneConfig:
    epochs: int = 30
    lr: float = 0.3
    batch_size: int = 8
    weight_align: bool = True
    use_pretuned_bg: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("pretune.epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("pretune.batch_size must be >= 1")
        if self.lr <= 0:
            raise ConfigError("pretune.lr must be positive")


@dataclass
class TransformSet:
    """Learnable transforms for one incremental step, as stacks.

    Entry i of `importance`, `projection` and `biases` belongs to head
    column n_old + i, the i-th class of the step's table.  The background
    pair is a one-element stack over the one column w0.  The train_* flags
    let ablations freeze either matrix family, background pair included.
    """

    importance: np.ndarray  # (n_new, d, n_old)
    projection: np.ndarray  # (n_new, n_old, 1)
    bg_importance: np.ndarray  # (1, d, 1)
    bg_projection: np.ndarray  # (1, 1, 1)
    biases: np.ndarray = None  # (n_new,), or None
    train_importance: bool = True
    train_projection: bool = True

    def param_count(self):
        arrays = (self.importance, self.projection, self.bg_importance, self.bg_projection, self.biases)
        return sum(a.size for a in arrays if a is not None)


def similarity_scores(p_u, w_old):
    """Decompose the old head's scoring of one embedding.

    Returns the Hadamard table H = W_old * p_u (column-broadcast) and the
    softmax of its column sums, which equals softmax(W_old^T p_u).
    """
    p_u = np.asarray(p_u, dtype=np.float64).ravel()
    w_old = np.asarray(w_old, dtype=np.float64)
    if w_old.ndim != 2 or w_old.shape[0] != p_u.shape[0]:
        raise ShapeError(f"embedding dim {p_u.shape[0]} vs head {w_old.shape}")
    h = w_old * p_u[:, None]
    s = softmax(h.sum(axis=0))
    return h, s


def binary_mask(h):
    """1 where the Hadamard entry is strictly positive, else 0."""
    return (np.asarray(h) > 0).astype(np.float64)


def init_importance(pixels, w_old):
    """Average masked score tables over all pixels of one new class.

    pixels: (N, d) embeddings of the class from the frozen old backbone.
    Result entries lie in [0, 1].
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.shape[0] == 0:
        raise DataError("need at least one pixel embedding")
    w_old = np.asarray(w_old, dtype=np.float64)
    h_all = pixels[:, :, None] * w_old[None, :, :]  # (N, d, n_old)
    s_all = softmax(pixels @ w_old)  # (N, n_old)
    contrib = (h_all > 0) * s_all[:, None, :]
    return contrib.mean(axis=0)


def init_projection(m):
    """Column-sum softmax of the importance matrix, as a column vector."""
    m = np.asarray(m, dtype=np.float64)
    return softmax(m.sum(axis=0))[:, None]


def generate_new_weight(m, p, w_old):
    """The column `(M ⊙ W_old) P`.  (M, P) stacked over matching leading
    axes, `(..., d, n_old)` and `(..., n_old, 1)`, give one `(..., d)`
    column per stacked transform."""
    m = np.asarray(m, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    w_old = np.asarray(w_old, dtype=np.float64)
    if m.shape[-2:] != w_old.shape or p.shape[-2:] != (w_old.shape[1], 1) or m.shape[:-2] != p.shape[:-2]:
        raise ShapeError(f"transform shapes {m.shape}, {p.shape} vs head {w_old.shape}")
    return ((m * w_old) @ p)[..., 0]


def transform_grads(g, m, p, w_old):
    """Chain rule through `generate_new_weight` for a stack of k
    transforms: the gradients w.r.t. M `(k, d, n_old)` and P
    `(k, n_old, 1)` from `g` `(d, k)`, whose column i is the gradient
    w.r.t. generated column i."""
    gt = g.T[:, :, None]
    d_m = gt * w_old * p.swapaxes(-1, -2)
    d_p = (m * w_old).swapaxes(-1, -2) @ gt
    return d_m, d_p


def assemble_pretune_head(old_head, tset):
    """Head used during pre-tuning: generated bg, frozen old, generated new."""
    w_old = old_head.weights
    head = grow_head(old_head, generate_new_weight(tset.importance, tset.projection, w_old).T, tset.biases)
    head.weights[:, :1] = generate_new_weight(tset.bg_importance, tset.bg_projection, w_old[:, :1]).T
    return head


def _transform_set(importance, projection, old_head):
    """The TransformSet of the stacks, with the identity background pair
    (the generated bg column starts equal to w0) and zero biases exactly
    when `old_head` has biases."""
    biases = None if old_head.biases is None else np.zeros(len(importance))
    return TransformSet(importance, projection, np.ones((1, old_head.dim, 1)), np.ones((1, 1, 1)), biases)


def similarity_init_transforms(table, old_model):
    """Initialize a TransformSet from cross-task similarity scores."""
    w_old = old_model.head.weights
    d, n_old = w_old.shape
    all_feats = table.f.reshape(-1, d)
    all_labels = table.y.ravel()
    importance = np.empty((len(table.classes), d, n_old))
    projection = np.empty((len(table.classes), n_old, 1))
    for i, c in enumerate(table.classes):
        pix = all_feats[all_labels == n_old + i]
        if pix.shape[0] == 0:
            raise DataError(f"no pixels of class {c} in the step's train split")
        importance[i] = init_importance(pix, w_old)
        projection[i] = init_projection(importance[i])
    return _transform_set(importance, projection, old_model.head)


def random_init_transforms(table, old_model, rng):
    """Ablation baseline: standard-normal matrices, projection re-normalized."""
    d, n_old = old_model.head.weights.shape
    importance = np.empty((len(table.classes), d, n_old))
    projection = np.empty((len(table.classes), n_old, 1))
    for i in range(len(table.classes)):  # one class's pair at a time: the draw order
        importance[i] = rng.normal((d, n_old))
        projection[i] = softmax(rng.normal(n_old))[:, None]
    return _transform_set(importance, projection, old_model.head)


def apply_component_variant(tset, variant):
    """Restrict the transform family for the component-level ablation.

    importance_only: projection frozen at uniform; projection_only:
    importance frozen at all-ones.
    """
    if variant == "both":
        return tset
    if variant == "importance_only":
        tset.projection = np.full_like(tset.projection, 1.0 / tset.projection.shape[1])
        tset.train_projection = False
    elif variant == "projection_only":
        tset.importance = np.ones_like(tset.importance)
        tset.train_importance = False
    else:
        raise ValueError(f"unknown component variant {variant!r}")
    return tset


def _logits_by_class(head, cols, feats):
    """The logits of `head`'s columns `cols` (an index array), their biases
    added, over the `(rows, d)` features, class-major: one row per column,
    the layout of the loss kernels' tables."""
    z = head.weights.take(cols, axis=1).T @ feats.T
    if head.biases is not None:
        z += head.biases.take(cols)[:, None]
    return z


def _log_sum_exp(feats, head, cols):
    """Each row's log-sum-exp over the logits of `head`'s columns `cols`,
    `_ROW_BLOCK` rows at a time: `a + log(sum(exp(z - a)))`, with `a` the
    row's max logit."""
    out = np.empty(len(feats))
    for start in range(0, len(feats), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        z = _logits_by_class(head, cols, feats[rows])
        a = np.maximum.reduce(z, axis=0)
        z -= a
        np.exp(z, out=z)
        out[rows] = a + np.log(np.add.reduce(z, axis=0))
    return out


def tune_new_columns(table, head_fn, n_old, cfg, rng, params, grads, tune_bg=False):
    """Pre-tuning's and two_stage's `sgd_epochs` of `params` on the
    unbiased cross entropy of each batch's head `head_fn()`, whose first
    `n_old` columns are the old classes', over the table's frozen features.
    `grads(x, dz)` gives their gradients from the batch's features and the
    dloss/dlogits of column 0 if `tune_bg`, then of the new columns.

    Old columns 1..n_old-1, and column 0 unless `tune_bg`, never move, and
    there is always at least one of them (a base step learns a class).
    The loss reads them only through their summed softmax mass, which is
    the mass of one column holding their log-sum-exp; so that column is
    computed once, before the loop, from the first head, and each batch's
    loss runs on the tuned columns and it alone."""
    old_cols = int(tune_bg)
    head = head_fn()
    feats = table.f.reshape(-1, table.f.shape[-1])
    lse = _log_sum_exp(feats, head, np.arange(old_cols, n_old)).reshape(table.y.shape)
    tuned = np.r_[:old_cols, n_old : head.num_classes]
    shift = n_old - old_cols - 1  # the n_old - old_cols frozen columns become one

    def batch_grads(batch):
        x = table.f[batch].reshape(-1, feats.shape[1])
        z = _logits_by_class(head_fn(), tuned, x)
        z = np.concatenate((z[:old_cols], lse[batch].reshape(1, -1), z[old_cols:]))
        y = table.y[batch].reshape(-1)
        loss, dz = unbiased_ce(z.T, np.where(y > 0, y - shift, 0), old_cols + 1, old_cols=old_cols)
        return loss, grads(x, dz)

    for _ in sgd_epochs(len(table.f), cfg.epochs, cfg.batch_size, rng, params, batch_grads, lambda _: cfg.lr, "tuning "):
        pass


def pretune(table, old_model, tset, cfg, rng):
    """Tune the transforms by SGD on unbiased cross entropy.

    The old model is never written to; only importance/projection matrices
    (and optional new-class biases) move, in place in `tset`'s arrays.
    The backbone is frozen, so its features come from the table.  Returns
    the tuned head, `assemble_pretune_head(old_model.head, tset)`.
    """
    w_old = old_model.head.weights
    n_old = w_old.shape[1]
    tune_biases = old_model.head.biases is not None and tset.biases is not None
    params = [tset.bg_importance, tset.bg_projection, tset.importance, tset.projection]
    if tune_biases:
        params.append(tset.biases)
    # an ablation's frozen family, background pair included, never steps
    trained = (tset.train_importance, tset.train_projection) * 2

    def grads(x, dz):
        g = x.T @ dz  # (d, 1 + n_new): grad w.r.t. head columns 0 and n_old..
        d_bg = transform_grads(g[:, :1], tset.bg_importance, tset.bg_projection, w_old[:, :1])
        d_new = transform_grads(g[:, 1:], tset.importance, tset.projection, w_old)
        out = [d if train else None for d, train in zip(d_bg + d_new, trained)]
        if tune_biases:
            out.append(dz[:, 1:].sum(axis=0))
        return out

    tune_new_columns(table, lambda: assemble_pretune_head(old_model.head, tset), n_old, cfg, rng, params, grads, tune_bg=True)
    tuned = assemble_pretune_head(old_model.head, tset)
    # finite transforms can still generate an overflowing column
    if not np.isfinite(tuned.weights).all():
        raise NumericError(f"non-finite new columns after tuning epoch {cfg.epochs - 1}")
    return tuned


def weight_align(old_cols, new_cols):
    """Rescale new columns so mean norms match the old columns'."""
    old_cols = np.asarray(old_cols, dtype=np.float64)
    new_cols = np.asarray(new_cols, dtype=np.float64)
    mean_old = np.linalg.norm(old_cols, axis=0).mean()
    mean_new = np.linalg.norm(new_cols, axis=0).mean()
    if mean_new == 0:
        raise NumericError("new columns have zero mean norm")
    return new_cols * (mean_old / mean_new)


def extra_param_count(n_new, n_old, d):
    """Scalars added by the transforms (with per-new-class biases)."""
    if min(n_new, n_old, d) < 1:
        raise ValueError("all arguments must be >= 1")
    return n_new * n_old * (d + 1) + d + n_new + 1
