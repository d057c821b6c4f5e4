"""nestlab benchmark runner.

    python3 perfbench/run.py --workload {s61_nest,ablate_s61,verify}
        [--seed N] [--seconds S] [--trace 0|1]

Every repetition runs in a fresh interpreter (perfbench/child.py) with one
process and one BLAS/OpenMP thread.  With --trace 0 the runner first times
SETUP_REPS set-ups alone, then repeats the workload for about --seconds and
reports the medians of the end-to-end metrics.  With --trace 1 it runs the
workload once under the tracer and once without, and reports the per-layer
metrics and the tracing overhead.  Outputs are checked against the digests
in perfbench/reference.json (training workloads) or the six `[PASS]` lines
of `nestlab verify`.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the full record, with the environment stamp and every
repetition, goes to .bench_out/.  See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import SPLITS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 7
DEADLINE_S = 170.0  # a run must end within 180 s
PER_LAYER_FIELDS = ("calls", "s", "self_s", "rows", "repeat_frac")


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_digests(out_dir, workload, seed):
    """sha256 of each output file, and of each experiment's rows in it."""
    exps = workloads.experiments(workload, seed)
    files, runs = {}, {rid: {} for rid, _ in exps}
    for name in workloads.OUTPUT_FILES[workload]:
        path = os.path.join(out_dir, name)
        files[name] = sha256_file(path)
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        for rid, strategy in exps:
            prefix = (strategy if name == "ablation.csv" else rid).encode() + b","
            rows = b"\n".join(line for line in lines if line.startswith(prefix))
            runs[rid][name] = hashlib.sha256(rows).hexdigest()
    return {"files": files, "runs": runs}


def verify_failures(child, checks):
    """The checks without a [PASS] line.  Every check fails when a line is
    missing, or when the verb exits non-zero although every check passed."""
    status = {}
    for line in child["stdout"].splitlines():
        for word in ("PASS", "FAIL"):
            if line.startswith(f"[{word}] "):
                status[line[len(word) + 3 :].split(":", 1)[0]] = word
    if not set(checks) <= set(status):
        return list(checks)
    bad = [name for name in checks if status[name] != "PASS"]
    return bad if bad or child.get("rc") == 0 else list(checks)


def failed_operations(workload, seed, child, out_dir, reference):
    """The operations of one repetition that failed: raised, exited
    non-zero, or produced output that does not match the reference."""
    ops = workloads.operations(workload, seed)
    if child is None:
        return list(ops)
    if workload == "verify":
        return verify_failures(child, ops)
    if child.get("rc") != 0:
        return list(ops)
    ref = reference.get(workload, {}).get(str(workloads.experiment_seed(seed)))
    if ref is None:
        return list(ops)
    try:
        got = output_digests(out_dir, workload, seed)
    except OSError:
        return list(ops)
    if got["files"] == ref["files"]:
        return []
    bad = [rid for rid in ops if got["runs"][rid] != ref["runs"].get(rid)]
    return bad or list(ops)


def run_child(workload, seed, out_dir, deadline, setup_only=False, trace=False):
    """Start one child interpreter and wait for it; returns (record or
    None, seconds the runner waited)."""
    env = dict(os.environ)
    env.update(workloads.PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed), "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)], env=env, cwd=workloads.ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: child timed out after {timeout:.0f}s", file=sys.stderr)
        return None, time.monotonic() - spawned
    waited = time.monotonic() - spawned
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"{workload}: child exited with code {proc.returncode}", file=sys.stderr)
        return None, waited
    return json.loads(proc.stdout.strip().splitlines()[-1]), waited


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def git_commit():
    if not os.path.exists(os.path.join(workloads.ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Run:
    """The repetitions of one benchmark run and their checks."""

    def __init__(self, workload, seed, reference, out_root):
        self.workload, self.seed = workload, seed
        self.reference = reference
        self.out_root = out_root
        self.deadline = time.monotonic() + DEADLINE_S
        self.reps = []
        self.failed_ids = set()
        self.attempted = 0
        self.failed = 0
        self.env = None

    def repetition(self, setup_only=False, trace=False):
        out_dir = os.path.join(self.out_root, f"rep{len(self.reps)}")
        child, waited = run_child(self.workload, self.seed, out_dir, self.deadline, setup_only, trace)
        rec = {"setup_only": setup_only, "trace": trace, "waited_s": waited}
        if child is not None:
            self.env = self.env or child["env"]
            rec.update({k: v for k, v in child.items() if k not in ("env", "stdout")})
        if not setup_only:
            bad = failed_operations(self.workload, self.seed, child, out_dir, self.reference)
            ops = workloads.operations(self.workload, self.seed)
            self.attempted += len(ops)
            self.failed += len(bad)
            self.failed_ids.update(bad)
            rec["failed_ops"] = bad
            if trace and child is not None and not child["restored"]:
                print("tracer left a patched binding behind", file=sys.stderr)
                self.failed_ids.add("tracer-restore")
            if bad:
                if child is not None and child.get("error"):
                    sys.stderr.write(child["error"])
                print(f"{self.workload}: failed {bad}; output kept in {out_dir}", file=sys.stderr)
        if setup_only or not rec.get("failed_ops"):
            shutil.rmtree(out_dir, ignore_errors=True)
        if child is None:
            self.failed_ids.add("child-failed")
        self.reps.append(rec)
        return rec

    def timed(self):
        return [r for r in self.reps if not r["setup_only"] and not r["trace"] and "wall_s" in r]


def end_to_end(run):
    timed = run.timed()
    if not timed:
        return None
    ops = workloads.operations(run.workload, run.seed)
    failed_ops = [op for op in ops if op in run.failed_ids]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in run.reps if "setup_s" in r),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        # add-one share over the workload's distinct operations, so that it
        # is never 0; the raw counts are `attempted` and `failed`
        "fail_frac": (len(failed_ops) + 1) / (len(ops) + 1),
    }


def missing_layer_metrics(names, table):
    """The per-layer metric names that no traced record measures.  A split
    record such as `strategies.initialize_head.two_stage` counts as measured
    when its base function was wrapped, even if that kind never ran."""
    missing = []
    for name in names:
        if name == "trace.overhead_s":
            continue
        key, field = name.rsplit(".", 1)
        base = key.rsplit(".", 1)[0]
        if field not in PER_LAYER_FIELDS or not (key in table or (base in SPLITS and base in table)):
            missing.append(name)
    return missing


def per_layer(names, traced, untraced_wall):
    table = traced["trace"]
    missing = missing_layer_metrics(names, table)
    if missing:
        # a renamed or removed function must not read as 0 calls and 0 s
        raise SystemExit(f"per-layer metrics that no traced function measures: {missing}")
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = traced["wall_s"] - untraced_wall
            continue
        key, field = name.rsplit(".", 1)
        values[name] = table[key][field] if key in table else 0  # a split kind that never ran
    return values


def print_trace_summary(traced):
    rows = sorted(traced["trace"].items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'layer function':52s} {'calls':>8s} {'s':>9s} {'self_s':>9s} {'rows':>10s}")
    for name, st in rows[:25]:
        print(f"{name:52s} {st['calls']:8d} {st['s']:9.3f} {st['self_s']:9.3f} {st['rows']:10d}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench_path = os.path.join(workloads.ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(workloads.SRC, "nestlab", "__init__.py")):
        print(f"no nestlab sources under {workloads.SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(bench_path):
        print(f"missing {bench_path}", file=sys.stderr)
        return 2
    bench = load_json(bench_path)
    reference = load_json(os.path.join(HERE, "reference.json"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root = os.path.join(workloads.OUT, f"{tag}-{os.getpid()}")
    os.makedirs(out_root, exist_ok=True)
    run = Run(args.workload, args.seed, reference, out_root)

    if args.trace:
        traced = run.repetition(trace=True)
        untraced = run.repetition()
        if "trace" not in traced or "wall_s" not in untraced:
            print("traced or untraced repetition produced no timings", file=sys.stderr)
            return 1
        print_trace_summary(traced)
        metrics = per_layer([m["name"] for m in bench["per_layer"]], traced, untraced["wall_s"])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        for _ in range(SETUP_REPS):
            run.repetition(setup_only=True)
        started = time.monotonic()
        while True:
            rec = run.repetition()
            timed = run.timed()
            if not timed or "wall_s" not in rec:
                break
            per_rep = (time.monotonic() - started) / len(timed)
            if time.monotonic() - started + per_rep > args.seconds or time.monotonic() + per_rep > run.deadline:
                break
        metrics = end_to_end(run)
        if metrics is None:
            print("no repetition produced timings", file=sys.stderr)
            return 1
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    correct = not run.failed_ids
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "experiment_seed": workloads.experiment_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(run.env or {}, git_commit=git_commit()),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_operations": sorted(run.failed_ids),
        "metrics": metrics,
        "repetitions": run.reps,
    }
    with open(os.path.join(out_root, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"{args.workload}: {len(run.timed())} timed repetitions, {run.attempted} operations, {run.failed} failed")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
