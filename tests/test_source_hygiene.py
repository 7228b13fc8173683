"""Every name the package imports is used by the module that imports it,
and every private name a module defines is read somewhere in the package.

No linter ships with the test dependencies, so the first is pyflakes' F401
rule in a few lines of ``ast``: an import binds a name, and some
expression of the module (or its ``__all__``) must read it.  ``from
__future__`` imports and ``*`` imports are exempt.  An import statement
carrying ``# noqa: F401`` may bind a name its module never reads only if
the benchmark's tracer wraps that name on that module (an entry of
``WRAP_POINTS`` in ``perfbench/tracing.py``, read with ``ast``), so a
stale re-export cannot hide behind the mark.  The second is a dead-code
rule: a function, class or assignment at module level whose name starts
with ``_`` (dunder names aside) must be read by some expression,
attribute access or ``from`` import of the package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "singlet_frame").glob("*.py"))


def _assigned(tree, name: str) -> list:
    """The value nodes of every assignment to ``name`` in ``tree``."""
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]


def wrapped_names(source: str) -> dict[str, set[str]]:
    """Module name -> the attributes ``WRAP_POINTS`` in ``source`` wraps on it; each entry starts (module, "name")."""
    wrapped: dict[str, set[str]] = {}
    for value in _assigned(ast.parse(source), "WRAP_POINTS"):
        for entry in value.elts:
            module, attribute = entry.elts[:2]
            wrapped.setdefault(module.id, set()).add(attribute.value)
    return wrapped


WRAPPED = wrapped_names((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))


def unused_imports(source: str, wrapped=frozenset()) -> list[str]:
    """Names bound by an import in ``source`` that no expression of the module reads, in import order.

    A name bound by an import marked ``# noqa: F401`` is left out when it is in ``wrapped``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            if alias.name != "*":
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0], noqa))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for value in _assigned(tree, "__all__"):  # names re-exported through __all__ are used
        used.update(c.value for c in ast.walk(value) if isinstance(c, ast.Constant))
    return [
        f"line {lineno}: {name}" for lineno, name, noqa in sorted(bound)
        if name not in used and not (noqa and name in wrapped)
    ]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level private name of ``sources`` (module name -> source) read nowhere."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{module}: {name}" for name in defined
                if name.startswith("_") and not name.endswith("__") and name not in read
            ]
    return unread


def test_no_unread_private_names():
    assert unread_private_names({path.stem: path.read_text(encoding="utf-8") for path in SOURCES}) == []


@pytest.mark.parametrize(
    "sources, unread",
    [
        pytest.param({"a": "def _f():\n    pass\n"}, ["a: _f"], id="function"),
        pytest.param({"a": "class _C:\n    pass\n_C()\n"}, [], id="read-in-module"),
        pytest.param({"a": "_X = 1\n", "b": "from .a import _X\n"}, [], id="imported"),
        pytest.param({"a": "_X = 1\n", "b": "import a\na._X\n"}, [], id="attribute"),
        pytest.param({"a": "_X, _Y = 1, 2\n_Y\n"}, ["a: _X"], id="tuple-target"),
        pytest.param({"a": "_T: int = 1\n"}, ["a: _T"], id="annotated"),
        pytest.param({"a": "__all__ = []\nPUBLIC = 1\n"}, [], id="dunder-and-public"),
        pytest.param({"a": "def f():\n    _local = 1\n    return 2\n"}, [], id="not-module-level"),
    ],
)
def test_dead_code_rule_on_small_sources(sources, unread):
    assert unread_private_names(sources) == unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8"), WRAPPED.get(path.stem, set())) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        pytest.param("import os\n", ["line 1: os"], id="unused"),
        pytest.param("import os.path\nos.sep\n", [], id="dotted"),
        pytest.param("from a import b as c\nb\n", ["line 1: c"], id="alias"),
        # a noqa mark alone no longer exempts a name: see the wrapped-name cases below
        pytest.param("from a import (\n    b,  # noqa: F401\n    c,\n)\n", ["line 1: b", "line 1: c"], id="noqa"),
        pytest.param("from __future__ import annotations\n", [], id="future"),
        pytest.param("from a import *\n", [], id="star"),
        pytest.param("from a import b\n__all__ = ['b']\n", [], id="all"),
        pytest.param("def f():\n    import json\n    return 1\n", ["line 2: json"], id="local"),
        pytest.param("from a import b, c\nx: c = b\n", [], id="annotation"),
    ],
)
def test_rule_on_small_sources(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize(
    "source, wrapped, unused",
    [
        pytest.param("from a import b  # noqa: F401\n", {"b"}, [], id="wrapped"),
        pytest.param("from a import b  # noqa: F401\n", set(), ["line 1: b"], id="stale"),
        pytest.param("from a import b, c  # noqa: F401\n", {"b"}, ["line 1: c"], id="one-stale"),
        pytest.param("from a import (\n    b,  # noqa: F401\n    c,\n)\n", {"b", "c"}, [], id="multiline"),
        pytest.param("from a import b\n", {"b"}, ["line 1: b"], id="wrapped-unmarked"),
        pytest.param("from a import b  # noqa: F401\nb()\n", set(), [], id="read"),
    ],
)
def test_noqa_rule_on_small_sources(source, wrapped, unused):
    assert unused_imports(source, wrapped) == unused


def test_wrapped_names_on_a_small_source():
    source = "WRAP_POINTS = [\n    (protocol, 'tally', 'x', None),\n    (cli, 'main', 'y', lambda a, k, r: {}),\n" \
             "    (protocol, 'run', 'z', None),\n]\nOTHER = [(bayes, 'f')]\n"
    assert wrapped_names(source) == {"protocol": {"tally", "run"}, "cli": {"main"}}
