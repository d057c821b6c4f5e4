"""Step-by-step walkthrough of similarity-initialized classifier generation.

Trains the base model on the first six classes, then walks through what
happens when class 7 arrives: the cross-task similarity scores, the
importance/projection initialization, pre-tuning, weight aligning, and
how much better the generated column is than copying the background
classifier.

Run:  python demos/transform_walkthrough.py
"""

import numpy as np

from nestlab import nest
from nestlab.losses import unbiased_ce
from nestlab.numerics import SplitMix64
from nestlab.strategies import initialize_head, parse_strategy
from nestlab.synthdata import build_world, step_view
from nestlab.trainer import ExperimentConfig, train_base_step


def new_class_stats(head, old_model, table, n_old):
    """Unbiased CE and new-pixel accuracy of a candidate head on a step's
    table, one image at a time."""
    total = hits = new_px = n = 0
    loss_sum = 0.0
    for x, y in zip(table.x, table.y):
        z = head.logits(old_model.backbone.forward(x))
        loss_sum += unbiased_ce(z, y, n_old)[0] * y.size
        n += y.size
        pred = np.argmax(z, axis=1)
        new = y == n_old
        hits += int((pred[new] == n_old).sum())
        new_px += int(new.sum())
    return loss_sum / n, hits / max(new_px, 1)


def main():
    rng = SplitMix64(1)
    cfg = ExperimentConfig(seed=1)
    world = build_world(cfg.world)
    print("training the base model on classes 1-6 ...")
    model, _ = train_base_step(cfg, world, rng)
    old = model.snapshot()
    n_old = old.head.num_classes

    table = step_view(cfg.sequence, world, 1, old.backbone)  # class 7 arrives
    print(f"step 1 introduces class {table.classes}, "
          f"{len(table.x)} training images\n")

    tset = nest.similarity_init_transforms(table, old)
    i = table.classes.index(7)  # the stacks follow the table's class order
    m = tset.importance[i]
    p = tset.projection[i]
    print("similarity init for class 7:")
    print(f"  importance matrix: shape {m.shape}, entries in "
          f"[{m.min():.3f}, {m.max():.3f}]")
    order = np.argsort(-p.ravel())
    print("  projection weights over old columns (bg is column 0):")
    for col in order:
        print(f"    column {col}: {p[col, 0]:.3f}")
    print("  -> the background column usually dominates (the new class was\n"
          "     labeled background until now); the importance matrix then\n"
          "     reweights its channels toward the new class\n")

    w_old = old.head.weights
    head0 = nest.assemble_pretune_head(old.head, tset)
    loss0, acc0 = new_class_stats(head0, old, table, n_old)
    print(f"before pre-tuning: unbiased CE {loss0:.3f}, new-pixel accuracy {acc0:.3f}")

    head1 = nest.pretune(table, old, tset, nest.PretuneConfig(), SplitMix64(2))
    loss1, acc1 = new_class_stats(head1, old, table, n_old)
    print(f"after  pre-tuning: unbiased CE {loss1:.3f}, new-pixel accuracy {acc1:.3f}")

    col = head1.weights[:, n_old:]
    aligned = nest.weight_align(w_old, col)
    print(f"\ncolumn norm {np.linalg.norm(col):.3f} -> {np.linalg.norm(aligned):.3f} "
          f"after weight aligning (old mean {np.linalg.norm(w_old, axis=0).mean():.3f})")

    # the baseline everything is measured against: copy the bg classifier
    bg_head = initialize_head(parse_strategy("background"), old, table, nest.PretuneConfig(), rng)
    loss_bg, acc_bg = new_class_stats(bg_head, old, table, n_old)
    print(f"\nbackground-copy baseline: unbiased CE {loss_bg:.3f}, "
          f"new-pixel accuracy {acc_bg:.3f}")
    print(f"extra scalars the transforms cost: "
          f"{nest.extra_param_count(1, n_old, w_old.shape[0])}")


if __name__ == "__main__":
    main()
