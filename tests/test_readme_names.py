"""Every backticked `<module>.<attr>` in README.md that names a nestlab
module resolves to an attribute of that module, so a refactor that
deletes or renames a function fails here until README stops naming it."""

import importlib
import os
import pkgutil
import re

import pytest

import nestlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = {info.name for info in pkgutil.iter_modules(nestlab.__path__)}


def _readme_names():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = re.sub(r"^```.*?^```", "", fh.read(), flags=re.S | re.M)  # drop fenced blocks
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        # a dotted name, alone or called: `numerics.rowsum`, `trainer.run_plan(...)`
        m = re.fullmatch(r"(\w+)((?:\.\w+)+)(\(.*\))?", " ".join(span.split()))
        if m and m.group(1) in MODULES:
            names.add(m.group(1) + m.group(2))
    return sorted(names)


def test_readme_names_some_nestlab_attributes():
    assert len(_readme_names()) >= 10


@pytest.mark.parametrize("name", _readme_names())
def test_readme_name_resolves(name):
    module_name, *parts = name.split(".")
    obj = importlib.import_module(f"nestlab.{module_name}")
    for i, part in enumerate(parts):
        assert hasattr(obj, part), f"README names {name}, but {'.'.join([module_name, *parts[:i]])} has no {part}"
        obj = getattr(obj, part)
