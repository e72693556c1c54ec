"""Every name a module exports resolves, so a stale `__all__` entry fails here
rather than at `from quditbell import *`; and the README's library example,
which uses only exported names, still runs and prints what it promises."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import quditbell

MODULES = ["quditbell"] + [
    f"quditbell.{info.name}" for info in pkgutil.iter_modules(quditbell.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    bound, value = capsys.readouterr().out.split()
    assert bound == "4.0"
    assert value.startswith("5.7458681023")
