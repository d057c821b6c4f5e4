"""Golden outputs: every small ablation under tests/golden/ reproduces
its committed CSVs byte for byte.

The files under tests/golden/ are the reference: a refactor that keeps
behaviour keeps them, and they are never regenerated to absorb a diff.
Each directory there is one case, so none can be left out:
`mixed_strategies` covers all six strategy variants with biases, frozen
old columns, poly decay and the pre-tuned background; `disjoint_nokd`
covers the disjoint protocol without distillation or weight aligning;
`multi_class` adds two classes per step, with biases, weight aligning over
both new columns and the pre-tuned background, for two_stage and the four
nest arms that stack several transforms (both, random init,
importance_only and projection_only).  None has more than 7 head
columns, so `test_s61_run_matches_the_benchmark_digests` also pins the
default S6-1 run (11 columns at its last step) to the benchmark's stored
digests: of the end-to-end runs, it alone reaches the class sums of 8
or more columns and the matmuls of 9 or more columns.  Its CSVs are
rounded to six decimals, and a last-bit change in those sums (their
classes added in another order) leaves both digests as they are, so
`test_kernels_match_row_wise_oracles_bit_for_bit` in
`tests/test_losses.py` holds those bits.

The bytes depend on the float environment as well as on the code: on
numpy's summation order (left to right on a class-major table, pairwise
on a C-ordered row), and on the row counts at which OpenBLAS switches
matmul kernels.  They were written with Python 3.11.7, numpy 2.4.6 and
scipy-openblas 0.3.31, and a mismatch names the versions it ran with.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from nestlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
# the benchmark's seed-1 S6-1 digests, read and never written here
S61_REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference.json"


def _environment():
    """The Python, numpy and BLAS versions of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # numpy < 1.26 has no dict mode
        blas = "unknown BLAS"
    return f"Python {sys.version.split()[0]}, numpy {np.__version__}, {blas}"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()))
def test_golden_outputs(name, tmp_path):
    assert main(["ablate", str(GOLDEN / name / "config.json"), "-o", str(tmp_path)]) == 0
    for fname in ("results.csv", "curves.csv", "ablation.csv"):
        golden = GOLDEN / name / fname
        assert (tmp_path / fname).read_bytes() == golden.read_bytes(), (
            f"{golden} differs, run with {_environment()}; the goldens were written with "
            "Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31"
        )


def test_s61_run_matches_the_benchmark_digests(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{}")
    out = tmp_path / "out"
    assert main(["run", str(config), "-o", str(out)]) == 0
    want = json.loads(S61_REFERENCE.read_text())["s61_nest"]["1"]["files"]
    for fname, digest in sorted(want.items()):
        got = hashlib.sha256((out / fname).read_bytes()).hexdigest()
        assert got == digest, (
            f"S6-1 {fname} has sha256 {got}, not {S61_REFERENCE.name}'s {digest}, run with {_environment()}; "
            "the digests were written with Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31"
        )
