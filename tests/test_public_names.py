"""Every public name resolves: a function deleted but left in an
``__all__`` fails here, and so does ``from iterboot.<module> import *``."""

import importlib
import pkgutil

import pytest

import iterboot

MODULES = ["iterboot"] + [f"iterboot.{m.name}" for m in pkgutil.iter_modules(iterboot.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
