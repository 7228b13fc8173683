"""The package, its tests, its benchmark and its tools parse as Python 3.10, the oldest version pyproject.toml allows."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
SOURCES = sorted((ROOT / "src" / "singlet_frame").glob("*.py"))
# the test, benchmark and tool scripts run under the same interpreters as the package
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def test_floor_is_the_declared_requires_python():
    declared = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert tuple(map(int, declared.groups())) == FLOOR


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
