"""The package's public names."""

import importlib
import pkgutil

import pytest

import susyq

MODULES = ["susyq"] + [f"susyq.{m.name}" for m in pkgutil.iter_modules(susyq.__path__)
                       if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a stale entry would make ``from module import *`` raise
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
