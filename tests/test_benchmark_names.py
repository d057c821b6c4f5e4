"""Every per-layer metric in BENCHMARK.json names a public nestlab function
or method, so a refactor that renames or moves one fails here, in the
tier-1 suite, and not only in the benchmark's own slow self-test."""

import importlib
import inspect
import json
import os

import pytest

from nestlab import strategies
from nestlab.errors import ConfigError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    return [name for name in names if not name.startswith("trace.")]


def _strategy_kind(text):
    try:
        return strategies.parse_strategy(text).kind
    except ConfigError:
        return None


@pytest.mark.parametrize("name", _per_layer_names())
def test_per_layer_metric_names_a_public_function(name):
    # <module>.<qualname>.<metric>, where the metric is calls, s, self_s,
    # rows or repeat_frac
    module_name, *parts, _metric = name.split(".")
    module = importlib.import_module(f"nestlab.{module_name}")
    obj, qualname = module, []
    while parts and not parts[0].startswith("_") and hasattr(obj, parts[0]):
        obj = getattr(obj, parts[0])
        qualname.append(parts.pop(0))
    assert inspect.isfunction(obj), f"{name}: no public function {module_name}.{'.'.join(qualname)}"
    # defined there under that name, not imported or aliased
    assert (obj.__module__, obj.__qualname__) == (module.__name__, ".".join(qualname)), name
    # what is left splits initialize_head's calls by strategy kind
    if parts:
        assert obj is strategies.initialize_head and len(parts) == 1, name
        assert _strategy_kind(parts[0]) == parts[0], name
