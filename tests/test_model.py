"""Model: backbone forward/backward, head growth, snapshot."""

import pickle

import numpy as np
import pytest

from nestlab.errors import ShapeError
from nestlab.model import Backbone, Head, SegModel, grow_head
from nestlab.numerics import SplitMix64, finite_diff_grad

from fd_reference import per_point


def test_identity_backbone_passes_through():
    bb = Backbone([], 4)
    x = SplitMix64(1).normal((5, 4))
    assert bb.forward(x) is x
    out, acts = bb.forward_cache(x)
    assert out is x and acts == [x]


@pytest.mark.parametrize("n_layers", [1, 2])
def test_forward_in_place_matches_relu_of_affine(n_layers):
    # each layer bit for bit np.maximum(x @ w.T + b, 0.0), on a read-only
    # input that stays unwritten
    rng = SplitMix64(20 + n_layers)
    dims = [5, 7, 4][: n_layers + 1]
    layers = [(rng.normal((dims[i + 1], dims[i])), rng.normal(dims[i + 1])) for i in range(n_layers)]
    bb = Backbone(layers, dims[0])
    x = rng.normal((300, dims[0]))
    before = x.copy()
    x.setflags(write=False)
    expected = [x]
    for w, b in layers:
        expected.append(np.maximum(expected[-1] @ w.T + b, 0.0))
    out, acts = bb.forward_cache(x)
    assert bb.forward(x).tobytes() == out.tobytes() == expected[-1].tobytes()
    assert [a.tobytes() for a in acts] == [e.tobytes() for e in expected]
    assert acts[0] is x and x.tobytes() == before.tobytes()


def test_single_layer_identity_weights():
    bb = Backbone([(np.eye(3), np.zeros(3))], 3)
    x = np.abs(SplitMix64(2).normal((4, 3)))  # positive, so ReLU is inert
    np.testing.assert_array_equal(bb.forward(x), x)


def test_relu_kills_negated_input():
    bb = Backbone([(-np.eye(3), np.zeros(3))], 3)
    x = np.abs(SplitMix64(3).normal((4, 3)))
    np.testing.assert_array_equal(bb.forward(x), np.zeros((4, 3)))


def test_layer_chain_validated():
    with pytest.raises(ShapeError):
        Backbone([(np.zeros((3, 4)), np.zeros(3)), (np.zeros((2, 5)), np.zeros(2))], 4)


def test_head_logits_identity_and_linearity():
    head = Head(np.eye(3))
    p = np.zeros((1, 3))
    p[0, 1] = 1.0
    np.testing.assert_array_equal(head.logits(p), p)
    feats = SplitMix64(4).normal((6, 3))
    np.testing.assert_allclose(head.logits(2 * feats), 2 * head.logits(feats), atol=1e-12)


def test_logits_match_per_pixel_matvec():
    rng = SplitMix64(5)
    w = rng.normal((3, 3))
    head = Head(w)
    feats = rng.normal((9, 3))
    z = head.logits(feats)
    for i in range(9):
        np.testing.assert_allclose(z[i], w.T @ feats[i], atol=1e-12)


def test_grow_head_append_nothing():
    head = Head(SplitMix64(6).normal((2, 2)))
    grown = grow_head(head, np.zeros((2, 0)))
    np.testing.assert_array_equal(grown.weights, head.weights)


def test_grow_head_preserves_old_columns():
    old = SplitMix64(7).normal((2, 2))
    head = Head(old)
    grown = grow_head(head, np.array([[5.0], [6.0]]))
    assert grown.num_classes == 3
    assert grown.weights[:, :2].tobytes() == old.tobytes()
    np.testing.assert_array_equal(grown.weights[:, 2], [5.0, 6.0])


def test_grow_head_row_mismatch():
    with pytest.raises(ShapeError):
        grow_head(Head(np.zeros((2, 2))), np.zeros((3, 1)))


def test_grow_head_bias_mode():
    head = Head(np.zeros((2, 2)), biases=np.array([0.5, -0.5]))
    grown = grow_head(head, np.ones((2, 1)), np.array([2.0]))
    np.testing.assert_array_equal(grown.biases, [0.5, -0.5, 2.0])


def test_snapshot_immune_to_training():
    rng = SplitMix64(8)
    model = SegModel(Backbone.single_relu(3, 4, rng), Head(rng.normal((4, 2))))
    snap = model.snapshot()
    before = snap.param_bytes()
    model.head.weights += 1.0
    w, b = model.backbone.layers[0]
    model.backbone.layers[0] = (w * 2.0, b + 1.0)
    assert snap.param_bytes() == before


def test_snapshot_rejects_in_place_writes():
    rng = SplitMix64(13)
    model = SegModel(Backbone.single_relu(3, 4, rng), Head(rng.normal((4, 2)), biases=rng.normal(2)))
    snap = model.snapshot()
    w, b = snap.backbone.layers[0]
    for a in (w, b, snap.head.weights, snap.head.biases):
        with pytest.raises(ValueError):
            a += 1.0
    model.head.weights += 1.0  # the live model stays writable


@pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
def test_snapshot_stays_frozen_through_a_pickle_round_trip(protocol):
    # numpy loads arrays writable; a snapshot sent to a worker must not be
    rng = SplitMix64(15)
    model = SegModel(Backbone.single_relu(3, 4, rng), Head(rng.normal((4, 2)), biases=rng.normal(2)))
    snap = pickle.loads(pickle.dumps(model.snapshot(), protocol=protocol))
    assert snap.param_bytes() == model.param_bytes()
    w, b = snap.backbone.layers[0]
    for a in (w, b, snap.head.weights, snap.head.biases):
        with pytest.raises(ValueError):
            a += 1.0
    live = pickle.loads(pickle.dumps(model, protocol=protocol))
    assert live.param_bytes() == model.param_bytes()
    w, b = live.backbone.layers[0]
    for a in (w, b, live.head.weights, live.head.biases):
        a += 1.0  # a live model stays writable
    assert vars(live).keys() == vars(model).keys()


def test_copy_of_snapshot_is_writable_and_independent():
    rng = SplitMix64(14)
    snap = SegModel(Backbone.single_relu(3, 4, rng), Head(rng.normal((4, 2)), biases=rng.normal(2))).snapshot()
    before = snap.param_bytes()
    live = snap.copy()
    assert live.param_bytes() == before
    w, b = live.backbone.layers[0]
    for a in (w, b, live.head.weights, live.head.biases):
        a += 1.0
    live.backbone.layers[0] = (w * 2.0, b)
    assert snap.param_bytes() == before


def test_backward_matches_finite_differences():
    rng = SplitMix64(9)
    model = SegModel(Backbone.single_relu(3, 4, rng), Head(rng.normal((4, 2))))
    x = rng.normal((6, 3)) + 0.5  # keep pre-activations off the ReLU kink

    def f(flat):
        m = model.unflatten(flat)
        return float((m.head.logits(m.backbone.forward(x)) ** 2).sum())

    out, acts = model.backbone.forward_cache(x)
    z = model.head.logits(out)
    dz = 2.0 * z
    d_head = out.T @ dz
    layer_grads = model.backbone.backward(dz @ model.head.weights.T, acts)
    analytic = np.concatenate(
        [g.ravel() for gw, gb in layer_grads for g in (gw, gb)] + [d_head.ravel()]
    )
    numeric = finite_diff_grad(per_point(f), model.flat_params())
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-6)


def test_flat_params_round_trip():
    rng = SplitMix64(12)
    model = SegModel(Backbone.single_relu(3, 4, rng), Head(rng.normal((4, 2))))
    flat = model.flat_params()
    other = SegModel(Backbone.single_relu(3, 4, SplitMix64(0)), Head(np.zeros((4, 2))))
    assert other.unflatten(flat).param_bytes() == model.param_bytes()


def _two_layer_biased_model(rng):
    backbone = Backbone([(rng.normal((5, 3)), rng.normal(5)), (rng.normal((4, 5)), rng.normal(4))], 3)
    return SegModel(backbone, Head(rng.normal((4, 6)), rng.normal(6)))


def test_param_bytes_are_the_flat_params():
    # both read the one parameter order, biases included
    model = _two_layer_biased_model(SplitMix64(13))
    flat = model.flat_params()
    assert flat.size == 5 * 3 + 5 + 4 * 5 + 4 + 4 * 6 + 6
    assert model.param_bytes() == flat.tobytes()


@pytest.mark.parametrize("k", [1, 3, 8])
def test_unflattened_stack_runs_each_model_bit_for_bit(k):
    rng = SplitMix64(14 + k)
    model = _two_layer_biased_model(rng)
    x = rng.normal((9, 3))
    stack = model.flat_params() + 0.1 * rng.normal((k, model.flat_params().size))
    probe = model.unflatten(stack)
    logits = probe.head.logits(probe.backbone.forward(x))
    assert logits.shape == (k, 9, 6)
    for i in range(k):
        single = model.unflatten(stack[i].copy())
        assert logits[i].tobytes() == single.head.logits(single.backbone.forward(x)).tobytes()
    # one unstacked vector unflattens to a model of the same parameters
    assert model.unflatten(model.flat_params()).param_bytes() == model.param_bytes()
