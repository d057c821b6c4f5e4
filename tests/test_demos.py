"""Demos: each one imports, and the cheap ones run, so the names they use
still exist."""

import contextlib
import importlib.util
import io
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
# a few seconds each; mini_ablation trains a whole sequence, so it only imports
CHEAP = ("transform_walkthrough", "world_tour")


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    # each demo guards its main, so importing it runs nothing
    assert callable(_load(path).main)


@pytest.mark.parametrize("name", CHEAP)
def test_cheap_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _load(pathlib.Path(__file__).parent.parent / "demos" / f"{name}.py").main()
    assert out.getvalue()
