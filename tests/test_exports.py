"""Every public name a module exports exists, and none is listed twice."""

import importlib
import pkgutil

import pytest

import nablainv

# __main__ runs the command line when imported
MODULES = ["nablainv"] + [f"nablainv.{info.name}"
                          for info in pkgutil.iter_modules(nablainv.__path__)
                          if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
