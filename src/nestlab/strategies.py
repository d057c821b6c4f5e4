"""Classifier-initialization strategies used by the ablation harness.

Selected by config string: "random", "background", "two_stage", or
"nest[:matrix_init:components]" with matrix_init in {similarity, random}
and components in {both, importance_only, projection_only}.
`two_stage` only supplies its update to `nest.tune_new_columns`, the
frozen-feature loop of pre-tuning.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import grow_head
from . import nest


@dataclass
class InitStrategy:
    kind: str  # random | background | two_stage | nest
    matrix_init: str = "similarity"
    components: str = "both"


def parse_strategy(text):
    parts = text.split(":")
    kind = parts[0]
    if kind in ("random", "background", "two_stage"):
        if len(parts) > 1:
            raise ConfigError(f"strategy {kind!r} takes no options")
        return InitStrategy(kind)
    if kind == "nest":
        if len(parts) > 3:
            raise ConfigError(f"strategy {text!r} has more than three parts")
        matrix_init = parts[1] if len(parts) > 1 else "similarity"
        components = parts[2] if len(parts) > 2 else "both"
        if matrix_init not in ("similarity", "random"):
            raise ConfigError(f"unknown matrix init {matrix_init!r}")
        if components not in ("both", "importance_only", "projection_only"):
            raise ConfigError(f"unknown component variant {components!r}")
        return InitStrategy("nest", matrix_init, components)
    raise ConfigError(f"unknown strategy {text!r}")


def _background_copy(old_model, n_new):
    w0 = old_model.head.weights[:, 0]
    cols = np.tile(w0[:, None], (1, n_new))
    biases = None
    if old_model.head.biases is not None:
        biases = np.full(n_new, old_model.head.biases[0] - np.log(n_new + 1))
    return cols, biases


def _two_stage_tune(table, old_model, cols, biases, cfg, rng):
    """Tune only the new columns (and biases) on the frozen features, in
    the loop that pre-tuning uses; everything else stays frozen."""
    n_old = old_model.head.num_classes
    head = grow_head(old_model.head, cols, biases)

    def update(x, dz):
        head.weights[:, n_old:] -= cfg.lr * (x.T @ dz[:, n_old:])
        if head.biases is not None:
            head.biases[n_old:] -= cfg.lr * dz[:, n_old:].sum(axis=0)

    nest.tune_new_columns(table, head, n_old, cfg, rng, update)
    return head.weights[:, n_old:], None if head.biases is None else head.biases[n_old:]


def initialize_head(strategy, old_model, table, pretune_cfg, rng, use_bias=False):
    """New-class columns (d, n_new), optional biases (n_new,), and an
    optional replacement background column (only when the pre-tuned
    background transform is kept for formal training).  `table` is the
    step's pixel table."""
    n_new = len(table.classes)
    d = old_model.head.dim
    if strategy.kind == "random":
        cols = 0.01 * rng.normal((d, n_new))
        biases = np.zeros(n_new) if use_bias else None
        return cols, biases, None
    if strategy.kind == "background":
        cols, biases = _background_copy(old_model, n_new)
        return cols, biases, None
    if strategy.kind == "two_stage":
        cols, biases = _background_copy(old_model, n_new)
        cols, biases = _two_stage_tune(table, old_model, cols, biases, pretune_cfg, rng)
        return cols, biases, None
    if strategy.kind == "nest":
        if strategy.matrix_init == "similarity":
            tset = nest.similarity_init_transforms(table, old_model, use_bias=use_bias)
        else:
            tset = nest.random_init_transforms(table, old_model, rng, use_bias=use_bias)
        nest.apply_component_variant(tset, strategy.components)
        tset = nest.pretune(table, old_model, tset, pretune_cfg, rng)
        cols = nest.generate_columns(tset, old_model.head.weights)
        if pretune_cfg.weight_align and cols.size:
            cols = nest.weight_align(old_model.head.weights, cols)
        biases = None
        if use_bias and tset.biases is not None:
            biases = np.asarray([tset.biases[c] for c in tset.new_classes])
        bg_col = None
        if pretune_cfg.use_pretuned_bg:
            bg_col = nest.generate_bg_weight(
                tset.bg_importance, tset.bg_projection, old_model.head.weights[:, 0]
            )
        return cols, biases, bg_col
    raise ConfigError(f"unknown strategy kind {strategy.kind!r}")
