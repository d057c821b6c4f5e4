"""The gradient check of `nestlab verify`: its loss closures, its cost in
model draws and loss calls, that it can fail, and that it checks the
gradient code that training and pre-tuning use."""

import collections

import numpy as np
import pytest

from nestlab import nest, verify
from nestlab.cli import main
from nestlab.losses import unbiased_ce, unbiased_kd
from nestlab.model import Backbone, Head, SegModel
from nestlab.numerics import SplitMix64, finite_diff_grad, softmax
from nestlab.synthdata import TaskSequence, WorldSpec, build_world
from nestlab.trainer import ExperimentConfig, TrainConfig, train_base_step

from fd_reference import scalar_finite_diff_grad


def _rebuilding_param_loss(model, x, y, n_old, old_probs, loss_kind):
    """Reference: the one-point closure that built a throwaway random model
    on every evaluation, replaced its backbone and head with copies of
    `model`'s and then overwrote its parameters with copies of `flat`'s."""
    d_in, d, n_cols = model.backbone.input_dim, model.head.dim, model.head.num_classes

    def f(flat):
        m2 = verify._random_model(SplitMix64(0), d_in, d, n_cols)
        m2.backbone = Backbone([(w.copy(), b.copy()) for w, b in model.backbone.layers], d_in)
        m2.head = model.head.copy()
        m2 = m2.unflatten(flat).copy()
        out = m2.backbone.forward(x)
        z = m2.head.logits(out)
        if loss_kind == "unce":
            return unbiased_ce(z, y, n_old)[0]
        return unbiased_kd(z, old_probs)[0]

    return f


def _concatenating_mp_loss(feats, weights, y, n_old):
    """Reference: the one-point (M, P) closure that concatenated a fresh
    head on every evaluation."""
    d = weights.shape[0]
    w_old = weights[:, :n_old].copy()

    def f_mp(flat):
        m = flat[: d * n_old].reshape(d, n_old)
        p = flat[d * n_old :].reshape(n_old, 1)
        col = nest.generate_new_weight(m, p, w_old)
        w_full = np.concatenate([w_old, col[:, None], weights[:, n_old + 1 :]], axis=1)
        return unbiased_ce(feats @ w_full, y, n_old)[0]

    return f_mp


def _instance(seed):
    """A gradient-check instance drawn as `check_gradients` draws one
    (without its ReLU-kink rejection, which both closures share)."""
    rng = SplitMix64(seed)
    d_in, d = 2 + rng.integers(4), 2 + rng.integers(7)
    n_old, n_new = 2 + rng.integers(4), 1 + rng.integers(3)
    model = verify._random_model(rng, d_in, d, n_old + n_new)
    x = rng.normal((16, d_in))
    y = rng.integers(n_new + 1, size=16)
    y = np.where(y > 0, y + n_old - 1, 0)
    old_probs = softmax(rng.normal((16, n_old)))
    m_c = rng.uniform((d, n_old))
    p_c = softmax(rng.normal(n_old))[:, None]
    return model, x, y, n_old, old_probs, np.concatenate([m_c.ravel(), p_c.ravel()])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("loss_kind", ["unce", "unkd"])
def test_probe_model_closure_equals_rebuilding_the_model_every_evaluation(seed, loss_kind):
    # the batched oracle on the stacked closure against the scalar loop on
    # the one-point closure
    model, x, y, n_old, old_probs, _ = _instance(seed)
    before = model.param_bytes()
    loss = (lambda z: unbiased_ce(z, y, n_old)[0]) if loss_kind == "unce" else (lambda z: unbiased_kd(z, old_probs)[0])
    ours = finite_diff_grad(verify._param_loss_fn(model, x, loss), model.flat_params())
    ref = scalar_finite_diff_grad(_rebuilding_param_loss(model, x, y, n_old, old_probs, loss_kind), model.flat_params())
    assert ours.tobytes() == ref.tobytes()
    assert np.abs(ours).max() > 0
    assert model.param_bytes() == before


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mp_closure_equals_concatenating_the_head_every_evaluation(seed):
    model, x, y, n_old, _, flat_mp = _instance(seed)
    weights = model.head.weights.copy()
    feats = model.backbone.forward(x)
    ours = finite_diff_grad(verify._mp_loss_fn(feats, model.head.weights, y, n_old), flat_mp)
    ref = scalar_finite_diff_grad(_concatenating_mp_loss(feats, model.head.weights, y, n_old), flat_mp)
    assert ours.tobytes() == ref.tobytes()
    assert np.abs(ours).max() > 0
    assert model.head.weights.tobytes() == weights.tobytes()


def test_gradient_check_reports_the_reference_run():
    # the detail string of the check when every evaluation rebuilt its model
    assert verify.check_gradients(instances=5) == ("gradient_correctness", True, "max relative error 4.04e-09")


# `nestlab verify`'s result lines before its draws were mixed in place;
# every check draws its inputs from SplitMix64, so a changed stream shows
# here first
_VERIFY_LINES = [
    "[PASS] decomposition_exactness: max deviation 7.22e-16",
    "[PASS] matrix_init_oracle: max deviation 2.22e-16",
    "[PASS] gradient_correctness: max relative error 8.96e-09",
    "[PASS] frozen_parameter_contract: old model bytes unchanged",
    "[PASS] weight_align: max mean-norm gap 8.88e-16",
    "[PASS] cost_formula: formula matches allocated scalars",
]


def test_verify_prints_the_reference_result_lines(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == _VERIFY_LINES
    assert len(lines) == 7 and lines[-1].startswith("verify finished in ")


def test_gradient_check_makes_one_loss_call_per_perturbation_stack(monkeypatch):
    # per instance: the analytic and the stacked numeric call for each of
    # the two model-parameter losses, and the same pair for (M, P); one
    # call per perturbed point would be hundreds
    calls = collections.Counter()
    for name in ("unbiased_ce", "unbiased_kd"):
        kernel = getattr(verify, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(verify, name, counted)
    assert verify.check_gradients(instances=5)[1]
    assert calls == {"unbiased_ce": 20, "unbiased_kd": 10}


def test_gradient_check_draws_one_model_per_rejection_loop_try(monkeypatch):
    single_relu = Backbone.single_relu.__func__
    random_model = verify._random_model
    backbones, draws = [], []

    def counting_single_relu(cls, *args, **kwargs):
        backbones.append(1)
        return single_relu(cls, *args, **kwargs)

    def recording_random_model(rng, *args):
        draws.append(rng)
        return random_model(rng, *args)

    monkeypatch.setattr(Backbone, "single_relu", classmethod(counting_single_relu))
    monkeypatch.setattr(verify, "_random_model", recording_random_model)
    name, ok, _ = verify.check_gradients(instances=3)
    assert ok
    # the rejection loop draws every model from the check's own rng
    loop_draws = sum(rng is draws[0] for rng in draws)
    assert loop_draws >= 3
    assert len(backbones) == len(draws) == loop_draws


_SCALE = 1 + 1e-3


def _scaled_dz(kernel):
    def scaled(*args):
        loss, dz = kernel(*args)
        return loss, dz * _SCALE

    return scaled


def _scaled_model_grads(grads):
    def scaled(self, out, acts, dz):
        return [g * _SCALE for g in grads(self, out, acts, dz)]

    return scaled


def _scaled_transform_grads(transform_grads):
    def scaled(*args):
        d_m, d_p = transform_grads(*args)
        return d_m * _SCALE, d_p * _SCALE

    return scaled


@pytest.mark.parametrize(
    "owner, attr, scale",
    [
        (verify, "unbiased_ce", _scaled_dz),
        (verify, "unbiased_kd", _scaled_dz),
        (SegModel, "grads", _scaled_model_grads),
        (nest, "transform_grads", _scaled_transform_grads),
    ],
    ids=["unbiased_ce", "unbiased_kd", "SegModel.grads", "transform_grads"],
)
def test_gradient_check_detects_a_scaled_gradient(monkeypatch, owner, attr, scale):
    # the loss kernels and the two chain-rule helpers that training and
    # pre-tuning step with: a 0.1 % error in any of them fails criterion 3
    monkeypatch.setattr(owner, attr, scale(getattr(owner, attr)))
    name, ok, detail = verify.check_gradients(instances=2)
    assert name == "gradient_correctness" and not ok, detail


def _bias_gradient_error(instances=3, seed=29, h=1e-4):
    """The largest relative error of `SegModel.grads`' head-bias gradient
    against central differences through the stacked probe closure, over
    heads with biases (which `check_gradients` does not draw)."""
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(instances):
        d_in, d, n_old, n_new = 3, 5, 3, 2
        while True:
            model = verify._random_model(rng, d_in, d, n_old + n_new)
            x = rng.normal((16, d_in))
            w0, b0 = model.backbone.layers[0]
            if np.abs(x @ w0.T + b0).min() > 10 * h:
                break
        model.head = Head(model.head.weights, rng.normal(n_old + n_new))
        y = rng.integers(n_new + 1, size=16)
        y = np.where(y > 0, y + n_old - 1, 0)
        old_probs = softmax(rng.normal((16, n_old)))
        for loss in (lambda z: unbiased_ce(z, y, n_old), lambda z: unbiased_kd(z, old_probs)):
            out, acts = model.backbone.forward_cache(x)
            _, dz = loss(model.head.logits(out))
            d_bias = model.grads(out, acts, dz)[-1]
            numeric = finite_diff_grad(verify._param_loss_fn(model, x, lambda z: loss(z)[0]), model.flat_params(), h=h)
            # the biases come last in flat_params order
            worst = max(worst, verify._rel_err(d_bias, numeric[-len(d_bias) :]))
    return worst


def test_head_bias_gradients_match_finite_differences():
    assert _bias_gradient_error() <= 1e-4


def test_head_bias_gradient_check_detects_a_scaled_bias_gradient(monkeypatch):
    grads = SegModel.grads

    def scaled_bias(self, out, acts, dz):
        *rest, d_bias = grads(self, out, acts, dz)
        return rest + [d_bias * _SCALE]

    monkeypatch.setattr(SegModel, "grads", scaled_bias)
    assert _bias_gradient_error() > 1e-4


def test_training_and_pretuning_step_with_the_checked_helpers(monkeypatch):
    # the code criterion 3 checks is the code that trains: formal
    # training backprops through SegModel.grads, pre-tuning through
    # nest.transform_grads
    calls = collections.Counter()

    def count(owner, attr):
        fn = getattr(owner, attr)

        def counted(*args):
            calls[attr] += 1
            return fn(*args)

        monkeypatch.setattr(owner, attr, counted)

    count(SegModel, "grads")
    count(nest, "transform_grads")
    spec = WorldSpec(num_classes=2, feature_dim=3, mixture_classes=(), height=4, width=4, images_per_class=2)
    seq = TaskSequence(class_order=(1, 2), base_count=1)
    cfg = ExperimentConfig(world=spec, sequence=seq, train=TrainConfig(base_epochs=1, batch_size=1))
    world = build_world(spec)
    train_base_step(cfg, world, SplitMix64(1))
    n_batches = len(world.train_x)  # one epoch over every image, batch size 1
    assert n_batches and calls == {"grads": n_batches}

    rng = SplitMix64(5)
    old = verify._random_model(rng, 4, 4, 3).snapshot()
    table = verify._toy_step(rng, old.backbone, 3)
    tset = nest.similarity_init_transforms(table, old)
    nest.pretune(table, old, tset, nest.PretuneConfig(epochs=1, batch_size=2), rng)
    # two batches of the four toy images, two `transform_grads` calls per
    # batch (background and stack)
    assert calls == {"grads": n_batches, "transform_grads": 2 * 2}
