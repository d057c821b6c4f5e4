"""Metrics: confusion matrix, IoU ranges, cosine similarity stats and the
per-epoch stability probe built on them."""

import numpy as np
import pytest

from nestlab.errors import ConfigError, ShapeError
from nestlab.metrics import _ROW_BLOCK, ConfusionMatrix, cosine_stats, iou_per_class, miou_range, row_norms
from nestlab.model import Backbone, Head, SegModel
from nestlab.numerics import SplitMix64
from nestlab.synthdata import TaskSequence, WorldSpec, build_world, step_table, step_view
from nestlab.trainer import track_stability


def test_perfect_prediction():
    cm = ConfusionMatrix(3)
    y = np.array([0, 1, 2, 1, 0])
    cm.add(y, y)
    np.testing.assert_array_equal(iou_per_class(cm), [1.0, 1.0, 1.0])


def test_disjoint_prediction_zero_iou():
    cm = ConfusionMatrix(2)
    cm.add(np.zeros(5, dtype=int), np.ones(5, dtype=int))
    ious = iou_per_class(cm)
    assert ious[0] == 0.0 and ious[1] == 0.0


def test_partial_overlap_value():
    # truth: 10 px of class 1; prediction: 10 px with 5 overlapping
    cm = ConfusionMatrix(2)
    truth = np.array([1] * 10 + [0] * 10)
    pred = np.array([1] * 5 + [0] * 10 + [1] * 5)
    cm.add(truth, pred)
    assert abs(iou_per_class(cm)[1] - 5.0 / 15.0) < 1e-12


def test_absent_class_is_nan():
    cm = ConfusionMatrix(3)
    cm.add(np.array([0, 1]), np.array([0, 1]))
    ious = iou_per_class(cm)
    assert np.isnan(ious[2])


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        ConfusionMatrix(2).add(np.zeros(3), np.zeros(4))


def test_miou_range():
    ious = np.array([1.0, 0.5, np.nan, 0.25])
    assert miou_range(ious, [1]) == 0.5
    assert miou_range(ious, [0, 1, 3]) == pytest.approx((1.0 + 0.5 + 0.25) / 3)
    # NaNs are excluded from the mean, not counted as zeros
    assert miou_range(ious, [1, 2]) == 0.5
    assert np.isnan(miou_range(ious, [2]))
    with pytest.raises(ConfigError):
        miou_range(ious, [])


def test_miou_all_equal():
    assert miou_range(np.full(4, 0.7), range(4)) == pytest.approx(0.7)


def _stats(a, b):
    """cosine_stats of two (pixels, d) tables, `a` given by rows."""
    return cosine_stats(a.__getitem__, b, _einsum_norms(b))


def test_cosine_stats_identical():
    a = SplitMix64(51).normal((10, 4))
    mean, std = _stats(a, a.copy())
    assert mean == pytest.approx(1.0)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_cosine_stats_orthogonal():
    a = np.zeros((5, 2))
    b = np.zeros((5, 2))
    a[:, 0] = 1.0
    b[:, 1] = 1.0
    mean, _ = _stats(a, b)
    assert mean == pytest.approx(0.0)


def test_cosine_stats_scale_invariant():
    a = SplitMix64(52).normal((10, 4))
    mean, _ = _stats(a, 2.0 * a)
    assert mean == pytest.approx(1.0)


def test_cosine_stats_with_given_norms_is_identical():
    # the norms a step table caches for its frozen features
    rng = SplitMix64(53)
    a, b = rng.normal((3, 7, 4)), rng.normal((3, 7, 4))
    b[0, 0] = 0.0
    table = step_table((), b, np.zeros((3, 7), dtype=np.int64), Backbone([], 4))  # f is b
    fa, fb = a.reshape(-1, 4), b.reshape(-1, 4)
    assert cosine_stats(fa.__getitem__, fb, table.f_norms) == _whole_table_cosine_stats(fa, fb)


def test_cosine_stats_zero_norm_contributes_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    mean, _ = _stats(a, b)
    assert mean == pytest.approx(0.5)


@pytest.mark.parametrize("d", [1, 3, 8, 16, 130])
@pytest.mark.parametrize("n", [1, 63, 64, 100, _ROW_BLOCK])
def test_row_norms_are_linalg_norm_bit_for_bit(n, d):
    rng = SplitMix64(10 * n + d)
    # per-row magnitudes from 1e-150 to 1e150, zero rows, rows whose
    # squares overflow to inf and rows whose squares underflow to zero
    a = rng.normal((n, d)) * 10.0 ** (300.0 * rng.uniform((n, 1)) - 150.0)
    a[::4] = 0.0
    a[1::9, 0] = 1e200
    a[2::9] = 1e-170
    with np.errstate(over="ignore", under="ignore"):
        ours = row_norms(a)
        assert ours.tobytes() == _einsum_norms(a).tobytes()
        # numpy's norm sums the squares in another order: the same to rounding
        np.testing.assert_allclose(ours, np.linalg.norm(a, axis=1), rtol=1e-15, atol=0)
    if n > 1:
        assert np.isinf(ours[1]) and ours[2] == 0.0


def _einsum_norms(a):
    """Reference: each row's norm as the square root of one `einsum`
    sum of squares, the formula of `row_norms`."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _whole_table_cosine_stats(a, b, b_norms=None):
    """Reference: cosine_stats as one pass over every row at once."""
    fa = a.reshape(-1, a.shape[-1])
    fb = b.reshape(-1, b.shape[-1])
    na = _einsum_norms(fa)
    nb = _einsum_norms(fb) if b_norms is None else b_norms
    denom = na * nb
    dots = np.einsum("ij,ij->i", fa, fb)
    sims = np.where(denom > 0, dots / np.maximum(denom, 1e-300), 0.0)
    return float(sims.mean()), float(sims.std())


# fewer rows than one block, one block, one row past it, and a row count
# that is not a multiple of the block
BLOCK_ROWS = [1, 100, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 700]


@pytest.mark.parametrize("n", BLOCK_ROWS)
def test_cosine_stats_blocked_equals_whole_table(n):
    rng = SplitMix64(54 + n)
    a, b = rng.normal((n, 6)), rng.normal((n, 6))
    a[::5] = 0.0  # zero-norm pixels
    b[::7] = 0.0
    norms = _einsum_norms(b)
    assert _stats(a, b) == _whole_table_cosine_stats(a, b)
    # the first table computed block by block
    blocks = []
    assert cosine_stats(lambda rows: blocks.append(rows) or a[rows], b, norms) == _whole_table_cosine_stats(a, b, norms)
    assert len(blocks) == -(-n // _ROW_BLOCK)


def _table(x, frozen):
    return step_table((), x, np.zeros(x.shape[:2], dtype=np.int64), frozen)


def _probe_oracle(live, table):
    x = table.x.reshape(-1, table.x.shape[-1])
    return _whole_table_cosine_stats(live.backbone.forward(x), table.f, table.f_norms)


@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("n_img, n_pix", [(1, 100), (1, _ROW_BLOCK), (3, 1500), (5, 2000)])
def test_track_stability_equals_whole_table_probe(n_img, n_pix, n_layers):
    rng = SplitMix64(60 + n_layers)
    d = 6
    x = rng.normal((n_img, n_pix, d))
    x[:, ::9] = 0.0  # zero-norm pixels, in the frozen features too
    table = _table(x, Backbone.single_relu(d, d, rng))
    dims = [d, d] if n_layers == 1 else [d, 9, d]
    layers = [(rng.normal((dims[i + 1], dims[i])), rng.normal(dims[i + 1], std=0.1)) for i in range(n_layers)]
    live = SegModel(Backbone(layers, d), Head(np.zeros((d, 2))))
    assert track_stability(live, table) == _probe_oracle(live, table)


def test_track_stability_equals_whole_table_probe_on_s61_base_table():
    rng = SplitMix64(1)
    world = build_world(WorldSpec())
    d_in = world.spec.feature_dim
    frozen = Backbone.single_relu(d_in, 16, rng)
    table = step_view(TaskSequence(), world, 0, frozen)
    assert table.x.shape[0] * table.x.shape[1] % _ROW_BLOCK != 0
    (w, b), = frozen.layers
    live = SegModel(Backbone([(w + 0.05 * rng.normal(w.shape), b + 0.01)], d_in), Head(np.zeros((16, 2))))
    assert track_stability(live, table) == _probe_oracle(live, table)


def _probe_peak(n=51_200, d=16):
    """tracemalloc's peak over one `cosine_stats` call on n x d tables,
    the first one forwarded a block at a time as `track_stability` does,
    and the call's result."""
    import tracemalloc

    rng = SplitMix64(5)
    x = rng.normal((n, d))
    live, frozen = Backbone.single_relu(d, d, rng), Backbone.single_relu(d, d, rng)
    b = frozen.forward(x)
    norms = np.linalg.norm(b, axis=1)
    tracemalloc.start()
    try:
        stats = cosine_stats(lambda rows: live.forward(x[rows]), b, norms)
        return tracemalloc.get_traced_memory()[1], stats
    finally:
        tracemalloc.stop()


def test_cosine_stats_holds_one_pixel_vector(monkeypatch):
    # with small blocks the pixel-sized arrays set the peak: the similarity
    # vector and the one temporary of its std, where norms, dots and their
    # ratio each held their own vector before (about six at the peak)
    n = 51_200
    _, ref = _probe_peak(n)
    monkeypatch.setattr("nestlab.metrics._ROW_BLOCK", 256)
    peak, stats = _probe_peak(n)
    assert peak < 2.25 * n * 8, peak
    assert stats == pytest.approx(ref, rel=1e-12)


def test_cosine_stats_peak_on_the_s61_table_size():
    # at 4 096-row blocks the block's forward output, squares and partial
    # sums add ~1.3 MiB to the two pixel vectors; the code that held five
    # pixel vectors peaked at 2.25 MiB here
    n = 51_200
    peak, _ = _probe_peak(n)
    assert peak < 2 * n * 8 + 2.5 * _ROW_BLOCK * 16 * 8, peak
