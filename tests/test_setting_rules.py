"""Only ``core`` checks a setting: ``check_real`` and ``check_whole`` are the
only code that tests for a real number, ``_whole`` the only code that tests
for a whole one, and ``check_choice`` the only code that refuses a name
outside its choices, so no other module imports ``numbers``, tests
``is_integer()`` or ``int(v) == v``, or spells the choice message."""

import re
from pathlib import Path

import pytest

import activetest

SOURCES = sorted(Path(activetest.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {"core.py", "engine.py", "simulate.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_no_setting_rule_outside_core(path):
    text = path.read_text(encoding="utf-8")
    assert re.findall(r"^\s*import numbers|^\s*from numbers |numbers\.Real", text, re.M) == []
    assert "must be one of" not in text
    assert re.findall(r"is_integer\(|\bint\(([\w.]+)\) *== *\1\b", text) == []
