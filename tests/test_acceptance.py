"""Acceptance gate: exact property suites plus direction/ordering
reproduction on the default S6-1 benchmark (10 classes, 6 base + 1 per
step).  Criteria 7-9 run full experiments and are the slow part of the
suite; their arms are computed once and shared via a session fixture.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from nestlab import verify
from nestlab.synthdata import build_world
from nestlab.trainer import ExperimentConfig, run_experiment, train_base

SEEDS = (1, 2, 3, 4, 5)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


# --- criteria 1-6: property suites -----------------------------------------


def test_criterion_1_decomposition_exactness():
    (name, ok, detail), elapsed = _timed(verify.check_decomposition_exactness, trials=1000)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 1 {name}: {detail} ({elapsed:.2f}s)")
    assert ok, detail
    assert elapsed < 1.0


def test_criterion_2_matrix_init_oracle():
    (name, ok, detail), elapsed = _timed(verify.check_matrix_init_oracle, worlds=50)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 2 {name}: {detail} ({elapsed:.2f}s)")
    assert ok, detail
    assert elapsed < 5.0


def test_criterion_3_gradient_correctness():
    (name, ok, detail), elapsed = _timed(verify.check_gradients, instances=100)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 3 {name}: {detail} ({elapsed:.2f}s)")
    assert ok, detail
    assert elapsed < 30.0


def test_criterion_4_frozen_parameter_contract():
    name, ok, detail = verify.check_frozen_contract()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 4 {name}: {detail}")
    assert ok, detail


def test_criterion_5_weight_align():
    name, ok, detail = verify.check_weight_align()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 5 {name}: {detail}")
    assert ok, detail


def test_criterion_6_cost_formula():
    name, ok, detail = verify.check_cost_formula()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 6 {name}: {detail}")
    assert ok, detail


# --- criteria 7-9: S6-1 benchmark orderings --------------------------------


def _arm_config(strategy, seed):
    return ExperimentConfig(strategy=strategy, seed=seed)


@pytest.fixture(scope="module")
def benchmark_arms():
    """Seed-averaged S6-1 results for every strategy criteria 7-9 need."""
    strategies = (
        "nest:similarity:both",
        "nest:random:both",
        "nest:similarity:importance_only",
        "nest:similarity:projection_only",
        "background",
        "random",
    )
    arms = {}
    start = time.perf_counter()
    # the base step does not depend on the strategy: train it once per seed
    world = build_world(ExperimentConfig().world)
    bases = {seed: train_base(_arm_config(strategies[0], seed), world) for seed in SEEDS}
    for strat in strategies:
        runs = [run_experiment(_arm_config(strat, seed), world, bases[seed]) for seed in SEEDS]
        arms[strat] = {
            "miou_all": float(np.mean([r.reports[-1].miou_all for r in runs])),
            "miou_new": float(np.mean([r.reports[-1].miou_new for r in runs])),
            "first_epoch_loss": float(np.mean([r.reports[1].epochs[0].loss_mean for r in runs])),
            "first_epoch_featsim": float(
                np.mean([r.reports[1].epochs[0].featsim_mean for r in runs])
            ),
        }
    arms["_elapsed"] = time.perf_counter() - start
    return arms


def test_criterion_7_strategy_ordering(benchmark_arms):
    nest_all = benchmark_arms["nest:similarity:both"]["miou_all"]
    back_all = benchmark_arms["background"]["miou_all"]
    rand_all = benchmark_arms["random"]["miou_all"]
    ok = nest_all > back_all + 0.02 and nest_all > rand_all + 0.02
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 7 ordering: "
        f"nest {nest_all:.4f} vs background {back_all:.4f} vs random {rand_all:.4f} "
        f"(margin needed 0.02; arms took {benchmark_arms['_elapsed']:.0f}s)"
    )
    assert nest_all > back_all + 0.02
    assert nest_all > rand_all + 0.02
    assert benchmark_arms["_elapsed"] < 600.0


def test_criterion_8_matrix_init_direction(benchmark_arms):
    sim_new = benchmark_arms["nest:similarity:both"]["miou_new"]
    rnd_new = benchmark_arms["nest:random:both"]["miou_new"]
    sim_all = benchmark_arms["nest:similarity:both"]["miou_all"]
    back_all = benchmark_arms["background"]["miou_all"]
    # full component table, emitted for inspection
    for strat in (
        "nest:similarity:both",
        "nest:similarity:importance_only",
        "nest:similarity:projection_only",
    ):
        a = benchmark_arms[strat]
        print(f"  {strat}: all {a['miou_all']:.4f} new {a['miou_new']:.4f}")
    ok = sim_new > rnd_new and sim_all >= back_all + 0.02
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 8 matrix init: "
        f"similarity new {sim_new:.4f} vs random new {rnd_new:.4f}; "
        f"both-vs-background all {sim_all:.4f} vs {back_all:.4f}"
    )
    assert sim_new > rnd_new
    assert sim_all >= back_all + 0.02


def test_criterion_9_stability_gap(benchmark_arms):
    nest_loss = benchmark_arms["nest:similarity:both"]["first_epoch_loss"]
    back_loss = benchmark_arms["background"]["first_epoch_loss"]
    nest_sim = benchmark_arms["nest:similarity:both"]["first_epoch_featsim"]
    back_sim = benchmark_arms["background"]["first_epoch_featsim"]
    ok = nest_loss < back_loss and nest_sim >= back_sim
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 9 stability gap: "
        f"first-epoch loss {nest_loss:.4f} vs {back_loss:.4f}; "
        f"feature similarity {nest_sim:.6f} vs {back_sim:.6f}"
    )
    assert nest_loss < back_loss
    assert nest_sim >= back_sim


# --- criteria 10-11: CLI behavior ------------------------------------------

_CLI_CONFIG = {
    "world": {"num_classes": 4, "feature_dim": 8, "prototype_rule": "independent",
              "mixture_classes": [], "height": 8, "width": 8,
              "images_per_class": 5, "test_images_per_class": 2, "seed": 2},
    "sequence": {"base_count": 2, "increment": 1},
    "strategy": "nest:similarity:both",
    "pretune": {"epochs": 2, "lr": 0.05, "batch_size": 4},
    "train": {"base_epochs": 6, "base_lr": 0.1, "inc_epochs": 2,
              "inc_lr": 0.01, "batch_size": 4, "seeds": [1]},
    "report": {"run_id": "acc"},
}


def test_criterion_10_end_to_end_determinism(tmp_path):
    from nestlab.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CLI_CONFIG))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", str(cfg), "-o", out_a]) == 0
    assert main(["run", str(cfg), "-o", out_b]) == 0
    identical = True
    for name in ("results.csv", "curves.csv"):
        with open(os.path.join(out_a, name), "rb") as fa, open(
            os.path.join(out_b, name), "rb"
        ) as fb:
            same = fa.read() == fb.read()
            identical &= same
            assert same, f"{name} differs between identical runs"
    print(f"[{'PASS' if identical else 'FAIL'}] criterion 10 determinism: byte-identical CSVs")


def test_criterion_11_verify_command():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "nestlab.cli", "verify"], capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 60.0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 11 verify: exit {proc.returncode} in {elapsed:.1f}s")
    print(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
