"""Every name a module of the package imports is used in that module,
every helper function of the package is used somewhere in it, every
local a function assigns is read, and only the CLI imports inside
functions, apart from the listed lazy imports.

No linter ships with the test dependencies, so these are the lint rules
kept as tests: an import left behind by a refactor fails the first, a
function left behind by a deleted call fails the second, a value
computed and thrown away fails the third, and an import hidden in a
function body fails the fourth.  ``cli.py`` imports each command's layers
inside that command, so a command loads only what it runs; every other
module imports at its top, but for what ``LAZY_IMPORTS`` lists.  Package
``__init__.py`` re-exports its imports and is not checked for them;
``__future__`` imports are directives, not names.  A helper function is
a private method (its name starts with one underscore; dunder methods
are called by Python), a private module-level function, or a public
module-level function that ``__init__.py`` does not export (its
``_EXPORTS`` table): no caller outside the package reaches it but
through its module.  It is used when some module names it, as a name,
an attribute or an import, outside its own body.  A local is read when
the function, or a function nested in it, loads it; a target that is
never read is spelled ``_``.
"""

import ast
from collections import Counter
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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def is_private(name: str) -> bool:
    return name.startswith("_") and not is_dunder(name)


def exported_names(init_source: str) -> set:
    """The public names the package exports: every name listed in the
    ``_EXPORTS`` table of its ``__init__.py``."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return {name for names in ast.literal_eval(node.value).values() for name in names}


def helper_functions(tree, exported):
    """The private methods of a module, and its module-level functions,
    dunders aside, that the package does not export."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and is_private(item.name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                is_dunder(node.name) or node.name in exported):
            yield node


def mentions(tree) -> Counter:
    """How often each name occurs as a name, an attribute or an import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unused_helper_functions(sources: dict, exported):
    """(module, line, name) of every helper function (``helper_functions``)
    no module mentions outside the function's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((mentions(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for func in helper_functions(tree, exported):
            if everywhere[func.name] - mentions(func)[func.name] <= 0:
                unused.append((module, func.lineno, func.name))
    return sorted(unused)


def test_package_uses_every_private_function():
    """Every helper function: private ones and unexported public ones."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unused_helper_functions(sources, exported_names(sources["__init__.py"])) == []


def test_an_unused_private_function_is_reported():
    sources = {
        "a.py": "\n".join([
            "def _used(x):",
            "    return x",
            "def _left_behind(n):",
            "    return _left_behind(n - 1) if n else 0",
            "class C:",
            "    def __init__(self):",
            "        self._cached = None",
            "    def _helper(self):",
            "        return 1",
            "    def _orphan(self):",
            "        return 2",
        ]),
        "b.py": "\n".join([
            "from .a import _used",
            "def public(c):",
            "    return _used(c._helper())",
        ]),
    }
    assert unused_helper_functions(sources, {"public"}) == [("a.py", 3, "_left_behind"),
                                                            ("a.py", 10, "_orphan")]


def test_an_unexported_function_left_behind_is_reported():
    sources = {
        "__init__.py": "\n".join([
            "_EXPORTS = {'a': ('exported',)}",
            "def __getattr__(name):",
            "    return name",
        ]),
        "a.py": "\n".join([
            "def exported(x):",
            "    return x",
            "def in_span(vectors, target):",
            "    return target in vectors",
            "def rank(rows):",
            "    return len(rows)",
            "class C:",
            "    def public_method(self):",
            "        return 1",
        ]),
        "b.py": "\n".join([
            "from . import a",
            "def inverse(rows):",
            "    return a.rank(rows)",
            "if __name__ == '__main__':",
            "    inverse([])",
        ]),
    }
    exported = exported_names(sources["__init__.py"])
    assert exported == {"exported"}
    assert unused_helper_functions(sources, exported) == [("a.py", 3, "in_span")]


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(func):
    """The nodes of ``func``'s body, not descending into nested scopes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str):
    """(line, name) of every local a function assigns and never reads."""
    unused = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared = {}, set()
        for node in own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        unused += [(line, name) for name, line in stored.items()
                   if name != "_" and name not in read | declared]
    return sorted(unused)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_local_it_assigns(module):
    assert unused_locals((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_local_is_reported():
    source = "\n".join([
        "def f(rows):",
        "    reduced, pivots = rows, []",
        "    kept, _ = rows, []",
        "    total = 0",
        "    for _ in rows:",
        "        total += 1",
        "    count = len(rows)",
        "    def inner():",
        "        return count + len(kept)",
        "    return reduced, inner",
        "def g():",
        "    global seen",
        "    seen = 1",
        "    width = 2",
    ])
    assert unused_locals(source) == [(2, "pivots"), (4, "total"), (14, "width")]


def function_level_imports(source: str):
    """(line, module) of every import inside a function body."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found += [(node.lineno, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((node.lineno, "." * node.level + (node.module or "")))
    return sorted(set(found))


# module -> the modules it may import inside a function: ``fractions``
# loads ``decimal`` and ``numbers`` with it, about 2 ms of each start-up,
# and only a scalar that is not an int needs it
LAZY_IMPORTS = {"scalars.py": {"fractions"}}


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "cli.py"))
def test_module_imports_only_at_its_top(module):
    found = function_level_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert [(line, name) for line, name in found
            if name not in LAZY_IMPORTS.get(module, ())] == []


def test_a_function_level_import_is_reported():
    source = "\n".join([
        "import json",
        "from .errors import ParseError",
        "def f(x):",
        "    from .polynomials import render",
        "    def inner():",
        "        import itertools",
        "        return itertools",
        "    return render(x), inner",
        "class C:",
        "    def g(self):",
        "        from . import linear",
        "        return linear",
    ])
    assert function_level_imports(source) == [(4, ".polynomials"), (6, "itertools"),
                                              (11, ".")]
