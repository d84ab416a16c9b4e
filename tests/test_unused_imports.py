"""Every name a module of the package imports is used in that module.

No linter ships with the test dependencies, so this is the one lint rule
kept as a test: an import left behind by a refactor fails it.  Package
``__init__.py`` re-exports its imports and is not checked; ``__future__``
imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "descent_kit"


def annotations(tree):
    """The annotation expressions of every function and annotated name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            yield from (a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg))
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str):
    """(line, name) of every imported name the module never mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation, such as -> "RingMatrix", mentions its names too
    for note in annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            expr = ast.parse(note.value, mode="eval")
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "\n".join([
        "from __future__ import annotations",
        "from .errors import NotAUnit, ParseError",
        "from .matrices import RingMatrix",
        "import itertools",
        "def f(m: 'RingMatrix'):",
        "    'NotAUnit is named only in this docstring'",
        "    raise ParseError('x')",
    ])
    assert unused_imports(source) == [(2, "NotAUnit"), (4, "itertools")]
