"""Every function of the package is reached by a command, or says why not.

The fixtures, the documents under ``tests/documents`` and the seed-1
problem of each ``perfbench/gen.py`` workload are run under every command:
``validate``, ``validate --truncate 2``, ``matrix``, ``descend``,
``descend --audit``, ``adjoint-check`` and ``compose-check``, seven runs
of ``cli.main`` per document in one fresh interpreter under
``sys.setprofile``.  The interpreter is fresh so that what earlier tests
imported or cached does not change what is entered, and the hook is set
before the package is imported, so a function called while a module loads
counts as reached.

Every function and method defined under ``src/descent_kit``, nested
functions and lambdas included, must be entered by some run or be listed
in ``NOT_REACHED`` with one of the ``REASONS``; a listed function must
exist and must not be entered.  Code that only tests and demos use
belongs in the tests (``tests/paper_checks.py``, ``tests/conftest.py``),
not in the package.  The one exception, ``LIBRARY``, is the standard
coefficient algebras that the demos and the README tour build with: each
``LIBRARY`` entry must be named in ``demos/`` or ``README.md``, a nested
function by the function that holds it.  Functions are named by their
dotted path in the module (``module.Class.method``,
``module.function.nested``), read from the source, since ``co_qualname``
is not there before Python 3.11.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import DOCUMENTS, FIXTURES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "descent_kit"
PERFBENCH = ROOT / "perfbench"

COMMANDS = (["validate"], ["validate", "--truncate", "2"], ["matrix"], ["descend"],
            ["descend", "--audit"], ["adjoint-check"], ["compose-check"])

DUNDER = "a dunder: Python calls it on demand, and no command needs this one"
ERROR_PATH = "an error path that valid inputs never take"
ENTRY = "the process entry: the runs here call main in process"
LIBRARY = ("a standard coefficient algebra, or DStructure.difference, that the demos and"
           " the README tour build with")
REASONS = (DUNDER, ERROR_PATH, ENTRY, LIBRARY)

NOT_REACHED = {
    "__init__.__dir__": DUNDER,
    "dalgebra.DCoefficientAlgebra.__eq__": DUNDER,
    "dalgebra.DCoefficientAlgebra.__hash__": DUNDER,
    "dalgebra.DCoefficientAlgebra.__repr__": DUNDER,
    "groebner.GroebnerBasis.__eq__": DUNDER,
    "groebner.GroebnerBasis.__hash__": DUNDER,
    "groebner.GroebnerBasis.__iter__": DUNDER,
    "groebner.GroebnerBasis.__repr__": DUNDER,
    "matrices.RingMatrix.__hash__": DUNDER,
    "matrices.RingMatrix.__repr__": DUNDER,
    "polynomials.DegRevLex.__eq__": DUNDER,
    "polynomials.DegRevLex.__hash__": DUNDER,
    "polynomials.DegRevLex.__repr__": DUNDER,
    "polynomials.Monomial.__reduce__": DUNDER,
    "polynomials.Monomial.__repr__": DUNDER,
    "polynomials.Polynomial.__repr__": DUNDER,
    "presented.PresentedRing.__hash__": DUNDER,
    "presented.PresentedRing.__repr__": DUNDER,
    "scalars.ScalarField.__reduce__": DUNDER,
    "scalars.ScalarField.__repr__": DUNDER,
    "structure.AlgebraElement.__add__": DUNDER,
    "structure.AlgebraElement.__neg__": DUNDER,
    "structure.AlgebraElement.__repr__": DUNDER,
    "structure.AlgebraElement.__sub__": DUNDER,
    "structure.StructureAlgebra.__hash__": DUNDER,
    "structure.StructureAlgebra.__repr__": DUNDER,
    "cli._usage_error": ERROR_PATH,
    "dalgebra._corrected_basis": ERROR_PATH,
    "dalgebra.build_d_algebra.mismatch": ERROR_PATH,
    "errors.CertificateFailure.__init__": ERROR_PATH,
    "errors.CombinatorialBudgetExceeded.__init__": ERROR_PATH,
    "errors.InvalidAlgebra.__init__": ERROR_PATH,
    "errors.NotWellDefined.__init__": ERROR_PATH,
    "errors.StrataMismatch.__init__": ERROR_PATH,
    "cli.run": ENTRY,
    "dalgebra._jets_product": LIBRARY,
    "dalgebra._jets_product.basis_vector": LIBRARY,
    "dalgebra.difference_algebra": LIBRARY,
    "dalgebra.dual_numbers": LIBRARY,
    "dalgebra.dual_numbers_times_field": LIBRARY,
    "dalgebra.product_of_fields": LIBRARY,
    "dalgebra.truncated_jets": LIBRARY,
    "dstructures.DStructure.difference": LIBRARY,
}

# the child: set the hook, import the package, run every command on every
# document, print the (file, first line, name) of every code object entered
TRACER = """
import contextlib, io, json, os, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
from descent_kit.cli import main
documents, commands = json.loads(sys.argv[1]), json.loads(sys.argv[2])
for document in documents:
    for args in commands:
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(args + ["--input", document, "--output", os.devnull])
        assert code in (0, 1, 2), (document, args, code)
sys.setprofile(None)
print(json.dumps(sorted((c.co_filename, c.co_firstlineno, c.co_name) for c in entered)))
"""


def defined_code():
    """(file, first line, code name) -> dotted name of every function,
    method and lambda under the package, and -> None for every class body.
    A decorated definition's code starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, first, child.name)] = (
                    None if isinstance(child, ast.ClassDef) else name)
                visit(child, path, name)
            elif isinstance(child, ast.Lambda):
                found[(path, child.lineno, "<lambda>")] = f"{prefix}.<lambda>"
                visit(child, path, prefix)
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return found


def workload_documents(tmp_path):
    """The fixtures, the documents under ``tests/documents`` and the seed-1
    problem of every perfbench workload, written to ``tmp_path``;
    ``perfbench/`` is only read."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    documents = [str(p) for folder in (FIXTURES, DOCUMENTS)
                 for p in sorted(folder.glob("*.json"))]
    for workload in sorted(gen.FAMILIES):
        path = tmp_path / f"{workload}.json"
        path.write_text(json.dumps(gen.generate(workload, 1), indent=1), encoding="utf-8")
        documents.append(str(path))
    return documents


def entered_functions(documents):
    """The dotted names of the package functions the command runs enter,
    and of every package function."""
    code = defined_code()
    proc = subprocess.run(
        [sys.executable, "-c", TRACER, json.dumps(documents), json.dumps(COMMANDS)],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    entered, unknown = set(), []
    for filename, line, name in json.loads(proc.stdout):
        if Path(filename).resolve().parent != PACKAGE.resolve():
            continue
        key = (str(PACKAGE / Path(filename).name), line, name)
        if key in code:
            entered.add(code[key])
        elif not name.startswith("<"):
            unknown.append(key)
    # every entered code object but module bodies and comprehensions is
    # found in the source, so the names above mean what they say
    assert unknown == []
    return entered - {None}, set(code.values()) - {None}


def test_every_function_is_reached_or_listed(tmp_path):
    entered, defined = entered_functions(workload_documents(tmp_path))
    unlisted = sorted(name for name in defined - entered if name not in NOT_REACHED)
    assert unlisted == [], f"no command enters these, and NOT_REACHED lacks them: {unlisted}"
    assert sorted(set(NOT_REACHED) - defined) == [], "listed, but not in the package"
    assert sorted(set(NOT_REACHED) & entered) == [], "listed, but a command enters them"
    assert sorted(name for name, why in NOT_REACHED.items() if why not in REASONS) == []


def test_every_library_entry_is_named_by_a_demo_or_the_readme():
    """``LIBRARY`` covers only what the demos or the README tour build with.
    An entry is named there without its module (``DStructure.difference``),
    and a nested function by the outermost function that holds it."""
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demos").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    functions = set(defined_code().values())
    unnamed = []
    for entry in sorted(name for name, why in NOT_REACHED.items() if why == LIBRARY):
        parts = entry.split(".")
        outer = next(k for k in range(2, len(parts) + 1) if ".".join(parts[:k]) in functions)
        name = re.escape(".".join(parts[1:outer]))
        if not any(re.search(rf"(?<![\w.]){name}\b", text) for text in texts):
            unnamed.append(entry)
    assert unnamed == [], f"LIBRARY, but named in no demo and not in README.md: {unnamed}"
