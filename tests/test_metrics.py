"""Metrics: confusion matrix, IoU ranges, cosine similarity stats."""

import numpy as np
import pytest

from nestlab.errors import ConfigError, ShapeError
from nestlab.metrics import ConfusionMatrix, cosine_stats, iou_per_class, miou_range
from nestlab.numerics import SplitMix64


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


def test_cosine_stats_identical():
    a = SplitMix64(51).normal((10, 4))
    mean, std = cosine_stats(a, a.copy())
    assert mean == pytest.approx(1.0)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_cosine_stats_orthogonal():
    a = np.zeros((5, 2))
    b = np.zeros((5, 2))
    a[:, 0] = 1.0
    b[:, 1] = 1.0
    mean, _ = cosine_stats(a, b)
    assert mean == pytest.approx(0.0)


def test_cosine_stats_scale_invariant():
    a = SplitMix64(52).normal((10, 4))
    mean, _ = cosine_stats(a, 2.0 * a)
    assert mean == pytest.approx(1.0)


def test_cosine_stats_with_given_norms_is_identical():
    rng = SplitMix64(53)
    a, b = rng.normal((3, 7, 4)), rng.normal((3, 7, 4))
    b[0, 0] = 0.0
    norms = np.linalg.norm(b.reshape(-1, 4), axis=1)
    assert cosine_stats(a, b, norms) == cosine_stats(a, b)


def test_cosine_stats_zero_norm_contributes_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    mean, _ = cosine_stats(a, b)
    assert mean == pytest.approx(0.5)


def test_cosine_stats_shape_error():
    with pytest.raises(ShapeError):
        cosine_stats(np.zeros((2, 3)), np.zeros((3, 2)))
