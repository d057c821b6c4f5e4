"""Classifier-initialization strategies used by the ablation harness.

Selected by config string: "random", "background", "two_stage", or
"nest[:matrix_init:components]" with matrix_init in {similarity, random}
and components in {both, importance_only, projection_only}.
Every strategy returns the step's head: the old columns, then one new
column per class, grown by `model.grow_head`; only nest with
`use_pretuned_bg` also replaces column 0.  New-class biases exist exactly
when the old head has biases.  `two_stage` tunes views of its new
columns (and biases) through `nest.tune_new_columns`, the frozen-feature
step of pre-tuning, which `synthdata.sgd_epochs` runs.
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


def _background_head(old_head, n_new):
    """The old head grown by `n_new` copies of its background column,
    each with the background bias less log(n_new + 1) (MiB's split)."""
    biases = None
    if old_head.biases is not None:
        biases = np.full(n_new, old_head.biases[0] - np.log(n_new + 1))
    return grow_head(old_head, np.tile(old_head.weights[:, :1], (1, n_new)), biases)


def initialize_head(strategy, old_model, table, pretune_cfg, rng):
    """The step's head: the old model's columns (and biases, if it has
    them), then one new column per class of `table`, the step's pixel
    table.  Column 0 is replaced only by nest with `use_pretuned_bg`;
    the old model is never written to."""
    old = old_model.head
    n_old = old.num_classes
    n_new = len(table.classes)
    if strategy.kind == "random":
        return grow_head(old, 0.01 * rng.normal((old.dim, n_new)))
    if strategy.kind == "background":
        return _background_head(old, n_new)
    if strategy.kind == "two_stage":
        # tune only the new columns (and biases) on the frozen features
        head = _background_head(old, n_new)
        params = [head.weights[:, n_old:]] + ([] if head.biases is None else [head.biases[n_old:]])

        def grads(x, dz):  # dz: the new columns only
            return [x.T @ dz] + ([] if head.biases is None else [dz.sum(axis=0)])

        nest.tune_new_columns(table, lambda: head, n_old, pretune_cfg, rng, params, grads)
        return head
    if strategy.kind == "nest":
        if strategy.matrix_init == "similarity":
            tset = nest.similarity_init_transforms(table, old_model)
        else:
            tset = nest.random_init_transforms(table, old_model, rng)
        nest.apply_component_variant(tset, strategy.components)
        head = nest.pretune(table, old_model, tset, pretune_cfg, rng)
        if not pretune_cfg.use_pretuned_bg:
            head.weights[:, 0] = old.weights[:, 0]
        if pretune_cfg.weight_align and n_new:
            head.weights[:, n_old:] = nest.weight_align(old.weights, head.weights[:, n_old:])
        return head
    raise ConfigError(f"unknown strategy kind {strategy.kind!r}")
