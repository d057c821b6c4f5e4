"""A guided tour of the synthetic world and its background shift.

Builds the default 10-class benchmark world and walks through the task
sequence, showing how each step's training view relabels everything
outside the current classes as background, and how the disjoint protocol
additionally drops images containing future classes.

Run:  python demos/world_tour.py
"""

import numpy as np

from nestlab.model import Backbone
from nestlab.synthdata import TaskSequence, WorldSpec, build_world, step_view


def label_histogram(labels):
    return {int(c): int(n) for c, n in zip(*np.unique(labels, return_counts=True))}


def main():
    world = build_world(WorldSpec(seed=1))
    seq = TaskSequence()
    identity = Backbone([], world.spec.feature_dim)

    print(f"world: {world.spec.num_classes} classes, "
          f"{len(world.train_x)} train / {len(world.test_x)} test images, "
          f"{world.spec.height}x{world.spec.width} px, d_in={world.spec.feature_dim}")

    # prototype geometry: the mixture classes (7-10) sit close to earlier ones
    protos = world.prototypes
    print("\nnearest earlier prototype per class (cosine):")
    for c in range(2, 11):
        sims = protos[1:c] @ protos[c]
        j = int(np.argmax(sims)) + 1
        tag = " (mixture)" if c in world.spec.mixture_classes else ""
        print(f"  class {c:2d}: closest is class {j} at {sims.max():+.3f}{tag}")

    full = label_histogram(world.train_y)
    print(f"\nfull-label pixel histogram: { {c: full[c] for c in sorted(full)} }")

    # a step's table labels its pixels with head columns; in the default
    # class order, class c takes column c
    print("\noverlapped protocol, per-step training views:")
    for t in range(seq.num_steps):
        view = step_view(seq, world, t, identity)
        hist = label_histogram(view.y)
        print(f"  step {t}: classes {view.classes}, "
              f"{len(view.x)} images, labels present {sorted(hist)}")

    # the same pixels of class 7 exist at step 1; before that they hide as bg
    c7_full = full.get(7, 0)
    c7_step0 = label_histogram(step_view(seq, world, 0, identity).y).get(7, 0)
    c7_step1 = label_histogram(step_view(seq, world, 1, identity).y).get(7, 0)
    print(f"\nbackground shift on class 7: {c7_full} px total, "
          f"{c7_step0} labeled at step 0 (hidden in bg), {c7_step1} at step 1")

    disjoint = TaskSequence(setting="disjoint")
    print("\ndisjoint protocol, retained training images per step:")
    for t in range(disjoint.num_steps):
        view = step_view(disjoint, world, t, identity)
        print(f"  step {t}: {len(view.x)} of {len(world.train_x)} images")


if __name__ == "__main__":
    main()
