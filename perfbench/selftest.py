"""Self-test of the benchmark itself (about 80 s).

    python3 perfbench/selftest.py

Checks that:
- the traced counts on s61_nest equal the closed forms of the S6-1 run at
  the commit that defined the benchmark, and on ablate_s61 the base step
  is trained 3 times with repeat_frac 2/3;
- every per-layer metric in BENCHMARK.json names a traced function, and
  a metric of a function that is not traced is reported missing;
- the tracer wraps every `from .x import y` copy and `verify.ALL_CHECKS`,
  puts every binding back (checked by identity, here and in each traced
  child) and leaves the outputs matching the reference;
- two traced runs give identical calls and rows counts;
- one flipped byte in results.csv, curves.csv or ablation.csv, or one
  verify check that does not pass, makes the correctness gate fail; a
  missing verify line fails every check.

The closed forms describe today's call structure.  A change that alters
that structure on purpose (say, sharing the base step across arms) makes
the matching lines fail here while the benchmark runs stay correct.
"""

import os
import shutil
import sys
import time

import workloads
from run import HERE, failed_operations, load_json, missing_layer_metrics, run_child

# s61_nest: 4 steps x (30 pre-tune + 10 formal epochs) x 25 batches of
# unbiased_ce, 60 base epochs x 25 batches of ce, 4 x 10 x 25 formal
# batches, (60 + 4 x 10) epochs of stability tracking, 4 incremental steps.
S61_CLOSED_FORMS = {
    "losses.unbiased_ce": 4 * 30 * 25 + 4 * 10 * 25,
    "losses.ce": 60 * 25,
    "losses.incremental_loss": 4 * 10 * 25,
    "trainer.track_stability": 60 + 4 * 10,
    "trainer.run_step": 4,
}

# Bindings made by `from .x import y`, which a tracer that patches only
# the defining module would miss.
COPIES = [
    ("trainer", name) for name in ("build_world", "step_view", "ce", "incremental_loss", "initialize_head", "cosine_stats")
] + [("nest", "unbiased_ce"), ("strategies", "unbiased_ce"), ("losses", "softmax"), ("nest", "softmax"), ("verify", "softmax")]


def traced(workload, seed=1, keep=False):
    out_dir = os.path.join(workloads.OUT, f"selftest-{workload}-{os.getpid()}")
    child, _ = run_child(workload, seed, out_dir, time.monotonic() + 600, trace=True)
    if child is None:
        raise SystemExit(f"traced {workload} failed to run")
    if not keep:
        shutil.rmtree(out_dir, ignore_errors=True)
    return child, out_dir


def flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([b[0] ^ 0x01]))


def check_bindings(check):
    """In this process: install wraps every copy, uninstall restores each
    by identity."""
    sys.path.insert(0, workloads.SRC)
    from tracer import Tracer

    tracer = Tracer()
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in tracer.modules}
    before = {(mod, attr): vars(mods[mod])[attr] for mod, attr in COPIES}
    before["verify.ALL_CHECKS"] = mods["verify"].ALL_CHECKS
    tracer.install()
    check(all(hasattr(getattr(mods[mod], attr), "_perfbench_name") for mod, attr in COPIES), "every `from .x import y` copy is wrapped")
    check(all(hasattr(fn, "_perfbench_name") for fn in mods["verify"].ALL_CHECKS), "verify.ALL_CHECKS holds wrappers")
    tracer.uninstall()
    after = {(mod, attr): vars(mods[mod])[attr] for mod, attr in COPIES}
    after["verify.ALL_CHECKS"] = mods["verify"].ALL_CHECKS
    check(all(after[k] is before[k] for k in before) and tracer.restored(), "uninstall restores every binding by identity")


def main():
    failures = []

    def check(ok, what):
        print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
        if not ok:
            failures.append(what)

    reference = load_json(os.path.join(HERE, "reference.json"))
    bench = load_json(os.path.join(workloads.ROOT, "BENCHMARK.json"))

    check_bindings(check)

    s61, out_dir = traced("s61_nest", keep=True)
    check(s61["restored"], "s61_nest: tracer restored every binding")
    check(failed_operations("s61_nest", 1, s61, out_dir, reference) == [], "s61_nest: traced output matches the reference")
    for name, want in S61_CLOSED_FORMS.items():
        got = s61["trace"][name]["calls"]
        check(got == want, f"s61_nest: {name} calls {got} == {want}")
    missing = missing_layer_metrics([m["name"] for m in bench["per_layer"]], s61["trace"])
    check(not missing, f"every per-layer metric names a traced function {missing}")
    gone = ["trainer.train_base_step_renamed.calls", "strategies.no_such_function.kind.s"]
    check(missing_layer_metrics(gone, s61["trace"]) == gone, "a metric of a function that is not traced is reported missing")
    for name in ("results.csv", "curves.csv"):
        saved = os.path.join(out_dir, name + ".orig")
        shutil.copyfile(os.path.join(out_dir, name), saved)
        flip_byte(os.path.join(out_dir, name), os.path.getsize(saved) // 2)
        bad = failed_operations("s61_nest", 1, s61, out_dir, reference)
        check(bad == workloads.run_ids("s61_nest", 1), f"one flipped byte in {name} fails the gate: {bad}")
        shutil.move(saved, os.path.join(out_dir, name))
    check(failed_operations("s61_nest", 1, s61, out_dir, reference) == [], "restored outputs pass the gate again")
    shutil.rmtree(out_dir, ignore_errors=True)

    ablate, out_dir = traced("ablate_s61", keep=True)
    check(ablate["restored"], "ablate_s61: tracer restored every binding")
    check(failed_operations("ablate_s61", 1, ablate, out_dir, reference) == [], "ablate_s61: traced output matches the reference")
    path = os.path.join(out_dir, "ablation.csv")
    flip_byte(path, os.path.getsize(path) // 2)
    bad = failed_operations("ablate_s61", 1, ablate, out_dir, reference)
    check(bad != [], f"one flipped byte in ablation.csv fails the gate: {bad}")
    shutil.rmtree(out_dir, ignore_errors=True)
    base = ablate["trace"]["trainer.train_base_step"]
    check(base["calls"] == 3, f"ablate_s61: train_base_step calls {base['calls']} == 3")
    check(abs(base["repeat_frac"] - 2 / 3) < 1e-12, f"ablate_s61: train_base_step repeat_frac {base['repeat_frac']:.4f} == 2/3")
    for kind in ("background", "two_stage", "nest"):
        calls = ablate["trace"].get(f"strategies.initialize_head.{kind}", {}).get("calls")
        check(calls == 4, f"ablate_s61: initialize_head.{kind} calls {calls} == 4")

    first, _ = traced("verify")
    second, _ = traced("verify")
    counts = [{k: (v["calls"], v["rows"]) for k, v in run["trace"].items()} for run in (first, second)]
    check(counts[0] == counts[1], "verify: two traced runs give identical calls and rows")
    check(failed_operations("verify", 1, first, None, reference) == [], "verify: six [PASS] lines pass the gate")
    broken = dict(first, rc=1, stdout=first["stdout"].replace("[PASS] weight_align", "[FAIL] weight_align"))
    check(failed_operations("verify", 1, broken, None, reference) == ["weight_align"], "verify: one [FAIL] line fails that check")
    cut = dict(first, rc=1, stdout=first["stdout"].split("[PASS] weight_align")[0])
    check(failed_operations("verify", 1, cut, None, reference) == list(workloads.VERIFY_CHECKS), "verify: a missing line fails every check")

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
