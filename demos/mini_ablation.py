"""A small ablation: initialization strategies on the default benchmark.

Runs three classifier-initialization strategies through the full
incremental sequence (one seed, so a couple of minutes) and prints the
per-step mIoU trajectories plus the first-epoch stability signals.

Run:  python demos/mini_ablation.py
"""

from nestlab.synthdata import build_world
from nestlab.trainer import ExperimentConfig, run_experiment, train_base

STRATEGIES = ("background", "random", "nest:similarity:both")


def main():
    configs = {strat: ExperimentConfig(strategy=strat, seed=1) for strat in STRATEGIES}
    # the base step does not depend on the strategy: train it once
    world = build_world(configs[STRATEGIES[0]].world)
    print("training the shared base step ...")
    base = train_base(configs[STRATEGIES[0]], world)
    results = {}
    for strat in STRATEGIES:
        print(f"running {strat} ...")
        results[strat] = run_experiment(configs[strat], world, base)

    print("\nmIoU(all) per step:")
    steps = len(next(iter(results.values())).reports)
    header = "step  " + "".join(f"{s:>24s}" for s in STRATEGIES)
    print(header)
    for t in range(steps):
        row = f"{t:4d}  "
        for strat in STRATEGIES:
            row += f"{results[strat].reports[t].miou_all:24.4f}"
        print(row)

    print("\nfinal new-class mIoU:")
    for strat in STRATEGIES:
        print(f"  {strat:24s} {results[strat].reports[-1].miou_new:.4f}")

    print("\nstability gap at step 1 (first formal epoch):")
    for strat in STRATEGIES:
        e = results[strat].reports[1].epochs[0]
        print(f"  {strat:24s} loss {e.loss_mean:.4f}  feature similarity {e.featsim_mean:.6f}")
    print("\na good initialization starts with a lower loss and disturbs the"
          "\nfrozen-feature similarity less - that is the whole point.")


if __name__ == "__main__":
    main()
