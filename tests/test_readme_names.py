"""Every backticked `<module>.<attr>` that README.md, a `src/nestlab`
module or `tests/test_golden.py` writes and that names a nestlab module
resolves to an attribute of that module, so a refactor that deletes or
renames a function fails here until no document or docstring names it."""

import importlib
import os
import pkgutil
import re

import pytest

import nestlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = {info.name for info in pkgutil.iter_modules(nestlab.__path__)}
# the sources beside README.md whose docstrings and comments name attributes
SOURCES = sorted(f"src/nestlab/{f}" for f in os.listdir(os.path.join(ROOT, "src", "nestlab")) if f.endswith(".py")) + [
    "tests/test_golden.py"
]


def _names(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        text = re.sub(r"^```.*?^```", "", fh.read(), flags=re.S | re.M)  # drop fenced blocks
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        # a dotted name, alone or called: `numerics.softmax`, `trainer.run_plan(...)`
        m = re.fullmatch(r"(\w+)((?:\.\w+)+)(\(.*\))?", " ".join(span.split()))
        if m and m.group(1) in MODULES:
            names.add(m.group(1) + m.group(2))
    return sorted(names)


def _assert_resolves(path, name):
    module_name, *parts = name.split(".")
    obj = importlib.import_module(f"nestlab.{module_name}")
    for i, part in enumerate(parts):
        assert hasattr(obj, part), f"{path} names {name}, but {'.'.join([module_name, *parts[:i]])} has no {part}"
        obj = getattr(obj, part)


def test_readme_names_some_nestlab_attributes():
    assert len(_names("README.md")) >= 10


@pytest.mark.parametrize("name", _names("README.md"))
def test_readme_name_resolves(name):
    _assert_resolves("README.md", name)


@pytest.mark.parametrize("path, name", [(path, name) for path in SOURCES for name in _names(path)])
def test_source_name_resolves(path, name):
    _assert_resolves(path, name)
