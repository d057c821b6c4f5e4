"""Self-contained verification suite: exact properties and gradient checks.

Each check returns (name, passed, detail).  `run_all` is what the CLI's
`verify` command executes; the whole suite is designed to finish in well
under a minute.
"""

import numpy as np

from . import nest
from .losses import unbiased_ce, unbiased_kd
from .model import Backbone, Head, SegModel
from .numerics import SplitMix64, finite_diff_grad, softmax
from .synthdata import step_table


def _rel_err(analytic, numeric):
    denom = max(np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


def check_decomposition_exactness(trials=1000, seed=7, scores_fn=None):
    """Similarity decomposition must reproduce softmax(W^T p) exactly."""
    scores_fn = scores_fn or nest.similarity_scores
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(trials):
        d = 2 + rng.integers(15)
        n_old = 1 + rng.integers(8)
        p = rng.normal(d)
        w = rng.normal((d, n_old))
        _, s = scores_fn(p, w)
        ref = softmax(w.T @ p)
        worst = max(worst, float(np.abs(s - ref).max()))
    return "decomposition_exactness", worst <= 1e-12, f"max deviation {worst:.2e}"


def _brute_force_importance(pixels, w_old):
    """Per-pixel loop reference for the averaged masked score tables."""
    acc = np.zeros_like(w_old)
    for p in pixels:
        h, s = nest.similarity_scores(p, w_old)
        mask = nest.binary_mask(h)
        acc += mask * s[None, :]
    return acc / len(pixels)


def check_matrix_init_oracle(worlds=50, seed=11, importance_fn=None):
    """Vectorized init must match the per-pixel brute-force reference."""
    importance_fn = importance_fn or nest.init_importance
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(worlds):
        d = 2 + rng.integers(11)
        n_old = 2 + rng.integers(6)
        n_pix = 1 + rng.integers(40)
        center = rng.normal(d)
        pixels = center[None, :] + 0.5 * rng.normal((n_pix, d))
        w_old = rng.normal((d, n_old))
        m = importance_fn(pixels, w_old)
        m_ref = _brute_force_importance(pixels, w_old)
        worst = max(worst, float(np.abs(m - m_ref).max()))
        p = nest.init_projection(m)
        p_ref = softmax(m_ref.sum(axis=0))[:, None]
        worst = max(worst, float(np.abs(p - p_ref).max()))
        if not (m.min() >= 0.0 and m.max() <= 1.0 and p.min() > 0.0):
            return "matrix_init_oracle", False, "init range violated"
    return "matrix_init_oracle", worst <= 1e-10, f"max deviation {worst:.2e}"


def _random_model(rng, d_in, d, n_cols):
    backbone = Backbone.single_relu(d_in, d, rng)
    head = Head(rng.normal((d, n_cols), std=0.5))
    return SegModel(backbone, head)


def _param_loss_fn(model, x, loss):
    """`stack -> loss(logits)` over a stack of flat parameter vectors of
    `model`: each row is unflattened into a model of `model`'s shapes and
    the whole stack runs through one forward pass, one head and one call
    of `loss`, which returns one value per stacked model."""

    def f(stack):
        probe = model.unflatten(stack)
        return loss(probe.head.logits(probe.backbone.forward(x)))

    return f


def _mp_loss_fn(feats, weights, y, n_old):
    """`stack of flat (M, P) -> L_unce` of the head `weights` whose column
    `n_old` is generated from (M, P) and the first `n_old` columns: one
    head per row of the stack, all through one `unbiased_ce` call."""
    d = weights.shape[0]
    w_old = weights[:, :n_old].copy()

    def f(stack):
        k = len(stack)
        m = stack[:, : d * n_old].reshape(k, d, n_old)
        p = stack[:, d * n_old :].reshape(k, n_old, 1)
        w_full = np.repeat(weights[None], k, axis=0)
        w_full[:, :, n_old] = nest.generate_new_weight(m, p, w_old)
        return unbiased_ce(Head(w_full).logits(feats), y, n_old)[0]

    return f


def check_gradients(instances=100, seed=13, h=1e-4):
    """Analytic loss gradients vs central finite differences."""
    rng = SplitMix64(seed)
    worst = 0.0
    for k in range(instances):
        d_in = 2 + rng.integers(4)
        d = 2 + rng.integers(7)
        n_old = 2 + rng.integers(4)
        n_new = 1 + rng.integers(3)
        n_cols = n_old + n_new
        n_pix = 16
        while True:
            model = _random_model(rng, d_in, d, n_cols)
            x = rng.normal((n_pix, d_in))
            # keep pre-activations clear of the ReLU kink, where the
            # central-difference oracle itself is invalid
            w0, b0 = model.backbone.layers[0]
            if np.abs(x @ w0.T + b0).min() > 10 * h:
                break
        y = rng.integers(n_new + 1, size=n_pix)
        y = np.where(y > 0, y + n_old - 1, 0)  # labels in {0} | new cols
        old_probs = softmax(rng.normal((n_pix, n_old)))

        # model-parameter gradients of L_unce and L_unkd
        for loss in (lambda z: unbiased_ce(z, y, n_old), lambda z: unbiased_kd(z, old_probs)):
            out, acts = model.backbone.forward_cache(x)
            _, dz = loss(model.head.logits(out))
            analytic = np.concatenate([g.ravel() for g in model.grads(out, acts, dz)])
            f = _param_loss_fn(model, x, lambda z: loss(z)[0])
            numeric = finite_diff_grad(f, model.flat_params(), h=h)
            worst = max(worst, _rel_err(analytic, numeric))

        # L_unce gradient w.r.t. (M, P) through the weight generation
        w_old = model.head.weights[:, :n_old].copy()
        feats = model.backbone.forward(x)
        m_c = rng.uniform((d, n_old))
        p_c = softmax(rng.normal(n_old))[:, None]

        flat_mp = np.concatenate([m_c.ravel(), p_c.ravel()])
        col = nest.generate_new_weight(m_c, p_c, w_old)
        w_full = np.concatenate([w_old, col[:, None], model.head.weights[:, n_old + 1 :]], axis=1)
        _, dz = unbiased_ce(feats @ w_full, y, n_old)
        d_m, d_p = nest.transform_grads((feats.T @ dz[:, n_old])[:, None], m_c[None], p_c[None], w_old)
        analytic = np.concatenate([d_m.ravel(), d_p.ravel()])
        numeric = finite_diff_grad(_mp_loss_fn(feats, model.head.weights, y, n_old), flat_mp, h=h)
        worst = max(worst, _rel_err(analytic, numeric))
    return "gradient_correctness", worst <= 1e-4, f"max relative error {worst:.2e}"


def _toy_step(rng, backbone, n_old, d_in=4):
    """The table of four random 4x4 images whose pixels are background or
    new class 3 or 4, which take the head columns from `n_old`."""
    x, y = np.empty((4, 16, d_in)), np.empty((4, 16), dtype=np.int64)
    for i in range(4):
        k = rng.integers(3, size=16)  # 0 = background, else new class k
        y[i] = np.where(k > 0, n_old - 1 + k, 0)
        x[i] = rng.normal((16, d_in))
    return step_table((3, 4), x, y, backbone)


def check_frozen_contract(seed=17):
    """Pre-tuning must not move the old model's bytes."""
    rng = SplitMix64(seed)
    d_in, d, n_old = 4, 4, 3
    old = _random_model(rng, d_in, d, n_old).snapshot()
    before = old.param_bytes()
    table = _toy_step(rng, old.backbone, n_old, d_in=d_in)
    tset = nest.similarity_init_transforms(table, old)
    nest.pretune(table, old, tset, nest.PretuneConfig(epochs=3, lr=0.05, batch_size=2), rng)
    ok = old.param_bytes() == before
    return "frozen_parameter_contract", ok, "old model bytes unchanged" if ok else "old model mutated"


def check_weight_align(trials=50, seed=19):
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(trials):
        d = 2 + rng.integers(15)
        old = rng.normal((d, 1 + rng.integers(6)))
        new = rng.normal((d, 1 + rng.integers(4))) * (0.1 + 5 * rng.uniform())
        scaled = nest.weight_align(old, new)
        diff = abs(
            np.linalg.norm(scaled, axis=0).mean() - np.linalg.norm(old, axis=0).mean()
        )
        worst = max(worst, diff)
    return "weight_align", worst <= 1e-12, f"max mean-norm gap {worst:.2e}"


def check_cost_formula(seed=23):
    if nest.extra_param_count(1, 20, 256) != 5398:
        return "cost_formula", False, "reference point (1, 20, 256) != 5398"
    rng = SplitMix64(seed)
    for _ in range(20):
        n_new = 1 + rng.integers(5)
        n_old = 1 + rng.integers(30)
        d = 1 + rng.integers(64)
        tset = nest.TransformSet(
            importance=np.zeros((n_new, d, n_old)),
            projection=np.zeros((n_new, n_old, 1)),
            bg_importance=np.zeros((1, d, 1)),
            bg_projection=np.ones((1, 1, 1)),
            biases=np.zeros(n_new),
        )
        if tset.param_count() != nest.extra_param_count(n_new, n_old, d):
            return "cost_formula", False, f"mismatch at ({n_new}, {n_old}, {d})"
    return "cost_formula", True, "formula matches allocated scalars"


ALL_CHECKS = (
    check_decomposition_exactness,
    check_matrix_init_oracle,
    check_gradients,
    check_frozen_contract,
    check_weight_align,
    check_cost_formula,
)


def run_all(out=print):
    """Run every check, print one line each; returns True iff all pass."""
    all_ok = True
    for fn in ALL_CHECKS:
        name, ok, detail = fn()
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
