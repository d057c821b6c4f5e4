"""Golden outputs: two small ablations reproduce the committed CSVs byte
for byte.

The files under tests/golden/ are the reference: a refactor that keeps
behaviour keeps them, and they are never regenerated to absorb a diff.
One config covers all six strategy variants with biases, frozen old
columns, poly decay and the pre-tuned background; the other covers the
disjoint protocol without distillation or weight aligning.
"""

from pathlib import Path

import pytest

from nestlab.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["mixed_strategies", "disjoint_nokd"])
def test_golden_outputs(name, tmp_path):
    assert main(["ablate", str(GOLDEN / name / "config.json"), "-o", str(tmp_path)]) == 0
    for fname in ("results.csv", "curves.csv", "ablation.csv"):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname
