"""Workload definitions shared by the runner and the child interpreter.

Importing this module loads no numpy and no nestlab: the runner process
stays light, and thread pins are set before the child imports numpy.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# The six checks that `nestlab verify` prints one `[PASS] <name>:` line for.
VERIFY_CHECKS = (
    "decomposition_exactness",
    "matrix_init_oracle",
    "gradient_correctness",
    "frozen_parameter_contract",
    "weight_align",
    "cost_formula",
)

# Experiment seeds with a stored reference.  The benchmark seed n maps to
# train seed 1 + (n - 1) mod SEED_CYCLE, so seed 1 is the paper's default
# run and every seed the benchmark can be given has a reference to match.
SEED_CYCLE = 10

ABLATE_STRATEGIES = ["background", "two_stage", "nest:similarity:both"]

# Output files of a training workload that must match the reference.
# ablation.csv, written by the cli aggregation, has one row per strategy;
# the other files name the run in each row.
OUTPUT_FILES = {
    "s61_nest": ("results.csv", "curves.csv"),
    "ablate_s61": ("results.csv", "curves.csv", "ablation.csv"),
}

WORKLOADS = ("s61_nest", "ablate_s61", "verify")

# Environment for every child interpreter: one process, one BLAS/OpenMP
# thread, fixed hashing.  Applied before numpy is imported.
PINNED_ENV = {
    "NEST_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def experiment_seed(seed):
    return 1 + (seed - 1) % SEED_CYCLE


def config_for(workload, seed):
    """The JSON config a training workload feeds to `nestlab`, or None."""
    s = experiment_seed(seed)
    if workload == "s61_nest":
        # S6-1 defaults (strategy nest:similarity:both); at seed 1 this
        # resolves to exactly the empty config {}.
        return {"train": {"seeds": [s]}}
    if workload == "ablate_s61":
        return {"strategy": list(ABLATE_STRATEGIES), "train": {"seeds": [s]}}
    return None


def cli_argv(workload, config_path, out_dir):
    if workload == "s61_nest":
        return ["run", config_path, "-o", out_dir]
    if workload == "ablate_s61":
        return ["ablate", config_path, "-o", out_dir]
    return ["verify"]


def experiments(workload, seed):
    """(run_id, strategy) of each experiment of a training workload, in
    output order."""
    s = experiment_seed(seed)
    strategies = ABLATE_STRATEGIES if workload == "ablate_s61" else ["nest:similarity:both"]
    return [(f"run-{strat.replace(':', '_')}-s{s}", strat) for strat in strategies]


def run_ids(workload, seed):
    return [rid for rid, _ in experiments(workload, seed)]


def operations(workload, seed):
    """What one repetition attempts: its experiments, or the verify checks."""
    if workload == "verify":
        return list(VERIFY_CHECKS)
    return run_ids(workload, seed)
