"""Record the reference output digests of the training workloads.

    python3 perfbench/make_reference.py

Runs each training workload once per experiment seed 1..SEED_CYCLE with
`report.timing` off and stores the sha256 of each file in
workloads.OUTPUT_FILES, whole and per experiment, in
perfbench/reference.json.  It only adds missing seeds and files.  An
existing digest that no longer matches is reported and left as it is: a
changed output is a finding, never a reason to rewrite the reference.
"""

import json
import os
import shutil
import sys
import time

import workloads
from run import HERE, output_digests, run_child

TRAINING = ("s61_nest", "ablate_s61")


def main():
    path = os.path.join(HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path) as fh:
            reference = json.load(fh)
    mismatches = 0
    for workload in TRAINING:
        for seed in range(1, workloads.SEED_CYCLE + 1):
            out_dir = os.path.join(workloads.OUT, f"reference-{workload}-{seed}")
            child, _ = run_child(workload, seed, out_dir, time.monotonic() + 600)
            if child is None or child["rc"] != 0:
                raise SystemExit(f"{workload} seed {seed} failed")
            got = output_digests(out_dir, workload, seed)
            shutil.rmtree(out_dir, ignore_errors=True)
            have = reference.setdefault(workload, {}).get(str(seed))
            if have is None:
                reference[workload][str(seed)] = got
                status = "added"
            elif any(have["files"][name] != digest for name, digest in got["files"].items() if name in have["files"]):
                mismatches += 1
                status = "DIFFERS (kept the stored reference)"
            else:
                new = [name for name in got["files"] if name not in have["files"]]
                for name in new:
                    have["files"][name] = got["files"][name]
                    for rid, digests in got["runs"].items():
                        have["runs"][rid][name] = digests[name]
                status = f"matches, added {', '.join(new)}" if new else "matches"
            print(f"{workload} seed {seed}: results.csv {got['files']['results.csv'][:16]} {status}", flush=True)
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
