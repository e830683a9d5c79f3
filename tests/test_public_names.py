"""Every exported name resolves and no export list repeats a name, so a
deleted function or class cannot linger in an ``__all__``."""

import importlib
import pkgutil

import pytest

import activetest

# __main__ runs the CLI on import
MODULES = ["activetest"] + [f"activetest.{info.name}"
                            for info in pkgutil.iter_modules(activetest.__path__)
                            if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []


def test_submodules_found():
    assert {"activetest.allocation", "activetest.engine", "activetest.rng"} <= set(MODULES)
