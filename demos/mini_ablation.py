"""A small ablation: initialization strategies on the default benchmark.

Runs three classifier-initialization strategies through the full
incremental sequence from one shared base step (one seed; about 10 s on
a 2-vCPU machine) and prints the per-step mIoU trajectories plus the
first-epoch stability signals.

Run:  python demos/mini_ablation.py
"""

from nestlab.trainer import ExperimentConfig, run_plan

STRATEGIES = ("background", "random", "nest:similarity:both")


def main():
    print(f"running {', '.join(STRATEGIES)} from one shared base step ...")
    results = dict(zip(STRATEGIES, run_plan([ExperimentConfig(strategy=strat, seed=1) for strat in STRATEGIES])))

    print("\nmIoU(all) per step:")
    print("step  " + "".join(f"{s:>24s}" for s in STRATEGIES))
    for t in range(len(results[STRATEGIES[0]].reports)):
        print(f"{t:4d}  " + "".join(f"{results[s].reports[t].miou_all:24.4f}" for s in STRATEGIES))

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
