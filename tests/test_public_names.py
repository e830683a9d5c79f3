"""Every exported name resolves and no export list repeats a name, so a
deleted function or class cannot linger in an ``__all__``.  Each library
module's ``__all__`` is the one list of its public names, and the package
exports exactly their union."""

import importlib
import pkgutil
import re
from pathlib import Path

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


# the command line, not a library module: the package does not re-export it
NOT_LIBRARY = {"activetest.cli"}
LIBRARY = [name for name in MODULES if name != "activetest" and name not in NOT_LIBRARY]


@pytest.mark.parametrize("name", LIBRARY)
def test_library_module_declares_all(name):
    assert isinstance(importlib.import_module(name).__all__, list)


def test_package_exports_the_union_of_module_lists():
    lists = [importlib.import_module(name).__all__ for name in LIBRARY]
    union = [n for names in lists for n in names]
    assert sorted(n for n in set(union) if union.count(n) > 1) == []
    assert activetest.__all__ == sorted(union)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from activetest import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(activetest.__all__)


def test_readme_public_functions_resolve_from_package():
    # the README's Quick start names the public functions that take values
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme[readme.index("in every public function that takes values"):]
    sentence = sentence[:sentence.index("The error reads")]
    defined = {n for name in LIBRARY for n in vars(importlib.import_module(name))}
    named = set(re.findall(r"`(\w+)`", sentence)) & defined
    assert {"run_method", "bh", "active_values", "xu_query_prob"} <= named
    assert sorted(n for n in named if not hasattr(activetest, n)) == []
    assert named <= set(activetest.__all__)
