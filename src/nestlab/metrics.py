"""Confusion-matrix IoU and cosine feature-similarity statistics."""

import numpy as np

from .errors import ConfigError, ShapeError

# Rows per block of a pass over a pixel table: 512 KiB of float64 at
# width 16, so a block's temporaries stay in L2 and no table-sized
# temporary is allocated, and faulted in, on every call.
_ROW_BLOCK = 4096


class ConfusionMatrix:
    """Square count matrix, rows = ground truth, columns = prediction."""

    def __init__(self, num_classes):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def add(self, truth, pred):
        truth = np.asarray(truth).ravel()
        pred = np.asarray(pred).ravel()
        if truth.shape != pred.shape:
            raise ShapeError("truth/pred length mismatch")
        idx = truth * self.num_classes + pred
        binc = np.bincount(idx, minlength=self.num_classes**2)
        self.counts += binc.reshape(self.num_classes, self.num_classes)


def iou_per_class(cm):
    """IoU per class; absent classes (zero denominator) come back as NaN."""
    tp = np.diag(cm.counts).astype(np.float64)
    denom = cm.counts.sum(axis=1) + cm.counts.sum(axis=0) - np.diag(cm.counts)
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(denom > 0, tp / np.maximum(denom, 1), np.nan)
    return iou


def miou_range(ious, class_ids):
    """Mean IoU over present classes in the given id range."""
    ids = list(class_ids)
    if not ids:
        raise ConfigError("empty class range")
    vals = np.asarray([ious[i] for i in ids])
    present = ~np.isnan(vals)
    if not present.any():
        return float("nan")
    return float(vals[present].mean())


def row_norms(a):
    """Per-row Euclidean norms of a (rows, d) table: the square root of
    each row's sum of squares, in one `einsum` pass that allocates only
    its output, so no table-sized temporary is made."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def cosine_stats(a_rows, b, b_norms):
    """Per-pixel cosine similarity between two feature tables: (mean, std).

    `a_rows(rows)` returns the pixels `rows` (a slice) of the first table
    as a (pixels, d) array, so a caller that computes that table need
    never hold all of it.  `b` is the second table, (pixels, d), and
    `b_norms` its per-pixel norms, computed once by a caller that compares
    many tables against the same `b`.  Zero-norm pixels contribute
    similarity 0; std is the population std.  The similarities are per-row
    results, filled `_ROW_BLOCK` rows at a time into one vector, the only
    pixel-sized array held; the mean and std then run over the whole
    vector, so neither depends on the block size.
    """
    n = b.shape[0]
    sims = np.empty(n)
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        blk = a_rows(rows)
        denom = row_norms(blk)
        denom *= b_norms[rows]
        dots = np.einsum("ij,ij->i", blk, b[rows])
        sims[rows] = np.where(denom > 0, dots / np.maximum(denom, 1e-300), 0.0)
    return float(sims.mean()), float(sims.std())
