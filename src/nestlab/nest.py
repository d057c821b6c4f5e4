"""Similarity-initialized classifier generation and pre-tuning.

New-class weight columns are generated from the old head as
``w_c = (M_c * W_old) @ P_c`` with a per-class importance matrix M_c and
projection column P_c.  Both are initialized from cross-task similarity
scores computed by the frozen old model, then tuned on the unbiased cross
entropy while everything else stays frozen, by `tune_new_columns`: the one
frozen-feature SGD loop, which the `two_stage` baseline shares.  The bias
mode follows the old head: new classes get biases exactly when it has them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .losses import unbiased_ce
from .model import grow_head
from .numerics import softmax
from .synthdata import minibatches


@dataclass
class PretuneConfig:
    epochs: int = 30
    lr: float = 0.3
    batch_size: int = 8
    weight_align: bool = True
    use_pretuned_bg: bool = False

    def validate(self):
        if self.epochs < 1:
            raise ConfigError("pretune.epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("pretune.batch_size must be >= 1")
        if self.lr <= 0:
            raise ConfigError("pretune.lr must be positive")


@dataclass
class TransformSet:
    """Learnable transforms for one incremental step.

    One (importance, projection) pair per new class plus the background
    pair; optional per-new-class bias scalars.  The train_* flags let
    ablations freeze either matrix family.
    """

    new_classes: tuple
    importance: dict  # class id -> (d, n_old)
    projection: dict  # class id -> (n_old, 1)
    bg_importance: np.ndarray  # (d, 1)
    bg_projection: float
    biases: dict = None  # class id -> float, or None
    train_importance: bool = True
    train_projection: bool = True

    def param_count(self):
        n = sum(m.size for m in self.importance.values())
        n += sum(p.size for p in self.projection.values())
        n += self.bg_importance.size + 1
        if self.biases is not None:
            n += len(self.biases)
        return n


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
    s_all = softmax(pixels @ w_old, axis=1)  # (N, n_old)
    contrib = (h_all > 0) * s_all[:, None, :]
    return contrib.mean(axis=0)


def init_projection(m):
    """Column-sum softmax of the importance matrix, as a column vector."""
    m = np.asarray(m, dtype=np.float64)
    return softmax(m.sum(axis=0))[:, None]


def init_background_transform(d):
    """Identity transform: the generated bg column starts equal to w_0."""
    return np.ones((d, 1)), 1.0


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


def transform_grads(gc, m, p, w_old):
    """Chain rule through `generate_new_weight`: the gradients w.r.t. M
    and P from `gc`, the gradient w.r.t. the generated column."""
    d_m = gc[:, None] * w_old * p.ravel()[None, :]
    d_p = ((m * w_old).T @ gc)[:, None]
    return d_m, d_p


def generate_bg_weight(m0, p0, w0):
    m0 = np.asarray(m0, dtype=np.float64).ravel()
    w0 = np.asarray(w0, dtype=np.float64).ravel()
    if m0.shape != w0.shape:
        raise ShapeError(f"bg transform {m0.shape} vs column {w0.shape}")
    return m0 * w0 * float(p0)


def generate_columns(tset, w_old):
    """New-class columns in head-column order, as a (d, n_new) block."""
    cols = [generate_new_weight(tset.importance[c], tset.projection[c], w_old) for c in tset.new_classes]
    return np.stack(cols, axis=1) if cols else np.zeros((w_old.shape[0], 0))


def assemble_pretune_head(old_head, tset):
    """Head used during pre-tuning: generated bg, frozen old, generated new."""
    w_old = old_head.weights
    new_b = [tset.biases[c] for c in tset.new_classes] if tset.biases else None
    head = grow_head(old_head, generate_columns(tset, w_old), new_b)
    head.weights[:, 0] = generate_bg_weight(tset.bg_importance, tset.bg_projection, w_old[:, 0])
    return head


def similarity_init_transforms(table, old_model):
    """Initialize a TransformSet from cross-task similarity scores."""
    w_old = old_model.head.weights
    d, n_old = w_old.shape
    all_feats = table.f.reshape(-1, d)
    all_labels = table.y.ravel()
    new_classes = table.classes
    importance, projection = {}, {}
    for i, c in enumerate(new_classes):
        pix = all_feats[all_labels == n_old + i]
        if pix.shape[0] == 0:
            raise DataError(f"no pixels of class {c} in the step's train split")
        m = init_importance(pix, w_old)
        importance[c] = m
        projection[c] = init_projection(m)
    m0, p0 = init_background_transform(d)
    biases = {c: 0.0 for c in new_classes} if old_model.head.biases is not None else None
    return TransformSet(new_classes, importance, projection, m0, p0, biases)


def random_init_transforms(table, old_model, rng):
    """Ablation baseline: standard-normal matrices, projection re-normalized."""
    w_old = old_model.head.weights
    d, n_old = w_old.shape
    new_classes = table.classes
    importance, projection = {}, {}
    for c in new_classes:
        importance[c] = rng.normal((d, n_old))
        projection[c] = softmax(rng.normal(n_old))[:, None]
    m0, p0 = init_background_transform(d)
    biases = {c: 0.0 for c in new_classes} if old_model.head.biases is not None else None
    return TransformSet(new_classes, importance, projection, m0, p0, biases)


def apply_component_variant(tset, variant):
    """Restrict the transform family for the component-level ablation.

    importance_only: projection frozen at uniform; projection_only:
    importance frozen at all-ones.
    """
    if variant == "both":
        return tset
    if variant == "importance_only":
        for c in tset.new_classes:
            n_old = tset.projection[c].shape[0]
            tset.projection[c] = np.full((n_old, 1), 1.0 / n_old)
        tset.train_projection = False
    elif variant == "projection_only":
        for c in tset.new_classes:
            tset.importance[c] = np.ones_like(tset.importance[c])
        tset.train_importance = False
    else:
        raise ValueError(f"unknown component variant {variant!r}")
    return tset


def tune_new_columns(table, head, n_old, cfg, rng, update, tune_bg=False):
    """The frozen-feature loop of pre-tuning and two-stage: SGD on the
    unbiased cross entropy of `head`, whose first `n_old` columns are the
    old classes', over the table's frozen features.  After each batch's
    loss, `update(x, dz)` steps its parameters from dloss/dlogits and
    writes the head's tuned columns (and biases).  `dz` holds only the
    columns an update reads: column 0 if `tune_bg`, then the new ones."""
    cfg.validate()
    for epoch, batches in enumerate(minibatches(len(table.f), cfg.epochs, cfg.batch_size, rng)):
        for b, batch in enumerate(batches):
            x = table.f[batch].reshape(-1, head.dim)
            loss, dz = unbiased_ce(head.logits(x), table.y[batch].reshape(-1), n_old, old_cols=int(tune_bg))
            if not np.isfinite(loss):
                raise NumericError(f"non-finite tuning loss at epoch {epoch}, batch {b}")
            update(x, dz)
    # the loss is floored by a safe log, so only the head shows a gradient
    # that went non-finite
    if not (np.isfinite(head.weights).all() and (head.biases is None or np.isfinite(head.biases).all())):
        raise NumericError(f"non-finite new columns after tuning epoch {cfg.epochs - 1}")


def pretune(table, old_model, tset, cfg, rng):
    """Tune the transforms by SGD on unbiased cross entropy.

    The old model is never written to; only importance/projection matrices
    (and optional new-class biases) move, in `tset` itself.  The backbone
    is frozen, so its features come from the table.  Returns the tuned
    head, byte-equal to `assemble_pretune_head(old_model.head, tset)`.
    """
    w_old = old_model.head.weights
    n_old = w_old.shape[1]
    w0 = w_old[:, 0]
    new_classes = tset.new_classes
    tune_biases = old_model.head.biases is not None and tset.biases is not None
    # built once; each update rewrites only its generated columns and biases
    head = assemble_pretune_head(old_model.head, tset)

    def update(x, dz):
        g = x.T @ dz  # (d, 1 + n_new): grad w.r.t. head columns 0 and n_old..
        g0 = g[:, 0]
        d_m0 = (g0 * w0 * tset.bg_projection)[:, None]
        d_p0 = float(g0 @ (tset.bg_importance.ravel() * w0))
        if tset.train_importance:
            tset.bg_importance = tset.bg_importance - cfg.lr * d_m0
        if tset.train_projection:
            tset.bg_projection = tset.bg_projection - cfg.lr * d_p0
        for i, c in enumerate(new_classes):
            m, p = tset.importance[c], tset.projection[c]
            d_m, d_p = transform_grads(g[:, 1 + i], m, p, w_old)
            if tset.train_importance:
                tset.importance[c] = m - cfg.lr * d_m
            if tset.train_projection:
                tset.projection[c] = p - cfg.lr * d_p
            if tune_biases:
                tset.biases[c] = tset.biases[c] - cfg.lr * float(dz[:, 1 + i].sum())
        head.weights[:, 0] = generate_bg_weight(tset.bg_importance, tset.bg_projection, w0)
        head.weights[:, n_old:] = generate_columns(tset, w_old)
        if tune_biases:
            head.biases[n_old:] = [tset.biases[c] for c in new_classes]

    tune_new_columns(table, head, n_old, cfg, rng, update, tune_bg=True)
    return head


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
