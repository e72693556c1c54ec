"""Every name a module exports resolves, so a stale `__all__` entry fails here
rather than at `from quditbell import *`."""

import importlib
import pkgutil

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
