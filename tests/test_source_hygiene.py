"""Every name the package imports is used by the module that imports it.

No linter ships with the test dependencies, so this is pyflakes' F401
rule in a few lines of ``ast``: an import binds a name, and some
expression of the module (or its ``__all__``) must read it.  ``from
__future__`` imports, ``*`` imports and import statements carrying
``# noqa: F401`` are exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "singlet_frame").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression of the module reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names re-exported through __all__ are used
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [f"line {lineno}: {name}" for lineno, name in sorted(bound) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        pytest.param("import os\n", ["line 1: os"], id="unused"),
        pytest.param("import os.path\nos.sep\n", [], id="dotted"),
        pytest.param("from a import b as c\nb\n", ["line 1: c"], id="alias"),
        pytest.param("from a import (\n    b,  # noqa: F401\n    c,\n)\n", [], id="noqa"),
        pytest.param("from __future__ import annotations\n", [], id="future"),
        pytest.param("from a import *\n", [], id="star"),
        pytest.param("from a import b\n__all__ = ['b']\n", [], id="all"),
        pytest.param("def f():\n    import json\n    return 1\n", ["line 2: json"], id="local"),
        pytest.param("from a import b, c\nx: c = b\n", [], id="annotation"),
    ],
)
def test_rule_on_small_sources(source, unused):
    assert unused_imports(source) == unused
