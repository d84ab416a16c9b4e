"""Every ``raise`` of the package is hit by a command run, or says why not.

The sibling of ``tests/test_command_reach.py``, one level down: it runs
``cli.main`` in one fresh interpreter on

- the documents of the function reach test (the fixtures, the documents
  under ``tests/documents`` and the seed-1 problem of each
  ``perfbench/gen.py`` workload), under every command of that test;
- the malformed documents of the mutation probe, built as
  ``tests/test_mutation_probe.py`` builds them from ``PROBED``, under
  ``validate``: a document fault is raised while the document is read,
  which every command does first;
- ``CASES``: command lines and edited fixtures that take the error paths
  no fixture and no probe mutant takes.

The child loads the package from source with a recording call put before
each ``raise`` statement, so a ``raise`` counts as hit when it runs, and
no trace function slows the runs.  Every ``raise`` under ``src/descent_kit`` must be
hit or be listed in ``NOT_HIT`` with one of the ``REASONS``; a listed one
must exist and must not be hit.  A ``raise`` that only repeats a check the
problem loader has made is deleted, not listed.  A ``raise`` is named by
module, function and exception class (``problem._names: ParseError``), and
the second and later ones of the same name in one function by their
ordinal (``problem._names: ParseError #2``), so that edits elsewhere in a
module do not rename it.
"""

import ast
import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import pytest

import test_mutation_probe as probe
from descent_kit.cli import main
from conftest import FIXTURES
from test_command_reach import COMMANDS, PACKAGE, workload_documents

CERTIFICATE = "a certificate that correct code never fails"
LIBRARY = "a library-argument check that the problem loader pre-empts"
NO_DOCUMENT = "an error path that no document and no command line can take"
REASONS = (CERTIFICATE, LIBRARY, NO_DOCUMENT)

NOT_HIT = {
    "compose.compose_structures: CarrierMismatch": LIBRARY,
    "compose.compose_towers: CarrierMismatch": LIBRARY,
    "compose.tensor_coefficients: ValueError": LIBRARY,
    "dalgebra._scalar_cells: ValueError": LIBRARY,
    "dalgebra.build_d_algebra: ValueError": LIBRARY,
    "dstructures.DStructure.__init__: ValueError": LIBRARY,
    "dstructures.DStructure.__init__: ValueError #2": LIBRARY,
    "dstructures.DStructure.__init__: ValueError #3": LIBRARY,
    "dstructures.DStructure._image_element: TruncationExceeded": NO_DOCUMENT,
    "dstructures.DStructure.quotient: NotDIdeal": CERTIFICATE,
    "dstructures.DStructure.validate: BaseMismatch": LIBRARY,
    "dstructures.DStructure.validate: BaseMismatch #2": LIBRARY,
    "dstructures.DStructure.validate: BaseMismatch #3": LIBRARY,
    "matrices.RingMatrix.__init__: ValueError": LIBRARY,
    "matrices.RingMatrix.__mul__: ValueError": LIBRARY,
    "matrices.RingMatrix._adjugate_times: ValueError": LIBRARY,
    "matrices.RingMatrix.apply: ValueError": LIBRARY,
    "matrices.RingMatrix.charpoly: ValueError": LIBRARY,
    "matrices.RingMatrix.inverse: ValueError": LIBRARY,
    "polynomials.DegRevLex.__init__: ValueError": LIBRARY,
    "polynomials.DegRevLex.key: ValueError": LIBRARY,
    "polynomials.Monomial.__new__: ValueError": LIBRARY,
    "polynomials.power: ValueError": LIBRARY,
    "presented.PresentedRing.extend: VariableClash": LIBRARY,
    "presented.PresentedRing.unit_inverse: CertificateFailure": CERTIFICATE,
    "presented.PresentedRing.var: ValueError": LIBRARY,
    "scalars.ScalarField.inv: DivisionByZero": LIBRARY,
    "structure.AlgebraElement.__init__: ValueError": LIBRARY,
    "structure.AlgebraElement._check: ValueError": LIBRARY,
    "structure.StructureAlgebra.__init__: ValueError": LIBRARY,
    "structure.StructureAlgebra.__init__: ValueError #2": LIBRARY,
    "structure.StructureAlgebra.base_change: ValueError": LIBRARY,
    "structure.evaluate_poly: KeyError": LIBRARY,
    "structure.evaluate_poly: ValueError": LIBRARY,
    "tower.OperatorTower.__init__: ValueError": LIBRARY,
    "tower.OperatorTower.__init__: ValueError #2": LIBRARY,
    "tower.OperatorTower.__init__: ValueError #3": LIBRARY,
    "tower.OperatorTower.validate: ValueError": LIBRARY,
    "weil.tau_forward: NotAHomomorphism": CERTIFICATE,
    "weil.tau_forward: NotAHomomorphism #2": CERTIFICATE,
    "weil.tau_forward: ValueError": LIBRARY,
    "weil.tau_inverse: NotAHomomorphism": CERTIFICATE,
    "weil.tau_inverse: NotAHomomorphism #2": CERTIFICATE,
    "weil.weil_descend: CertificateFailure": CERTIFICATE,
    "weil_d.descend_d_structure: CarrierMismatch": LIBRARY,
    "weil_d.descend_d_structure: CertificateFailure": CERTIFICATE,
    "weil_d.descend_d_structure: NotADHomomorphism": CERTIFICATE,
    "weil_d.descend_d_structure: ValueError": LIBRARY,
    "weil_d.tau_d_forward: CertificateFailure": CERTIFICATE,
    "weil_d.tau_d_inverse: CertificateFailure": CERTIFICATE,
    "weil_d.tau_d_inverse: NotADHomomorphism": CERTIFICATE,
}

# the fixture whose probe mutants are sent: it has every section but z
PROBED = "unit_pivot.json"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _edited(name, edit):
    """The fixture ``name`` with ``edit`` applied to a copy of it."""
    doc = copy.deepcopy(_fixture(name))
    edit(doc)
    return doc


def _set(path, value):
    """An edit that sets the node at ``path`` (keys and indices) to ``value``."""
    def edit(doc):
        probe._node(doc, path[:-1])[path[-1]] = value
    return edit


def _with_d(basis, products, factors, unit):
    """An edit of differential.json that puts in the coefficient algebra D
    on ``basis`` with the products, factors (idempotent, maximal-ideal
    span) and unit given, with images on B and C that fit its dimension."""
    def edit(doc):
        doc["D"] = {"basis": basis, "products": products, "unit": unit,
                    "factors": [{"idempotent": idem, "maximal_ideal": span}
                                for idem, span in factors]}
        doc["B"]["images"] = {"y": ["y"] * len(basis)}
        doc["C"]["images"] = {"t": ["t"] * len(basis)}
    return edit


def _k_times_k(*factors):
    """D = k x k on its idempotents e1, e2."""
    return _with_d(["e1", "e2"], [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
                   factors, ["1", "1"])


def _jets(exponents, spans):
    """D = k[d]/(d^3) on the basis d^e for e in ``exponents``, one factor
    whose maximal ideal is spanned by d^e for e in ``spans``."""
    def vector(e):
        return ["1" if k == e else "0" for k in exponents]

    products = [[vector(e1 + e2) for e2 in exponents] for e1 in exponents]
    return _with_d([f"d{e}" for e in exponents], products,
                   [(vector(0), [vector(e) for e in spans])], vector(0))


# D faults that the probed mutants do not make: (edit of differential.json,
# error, detail of the report of validate)
D_FAULTS = [
    (_k_times_k((["1", "1"], []), (["0", "1"], [])),
     "BadIdempotents", "factors 1 and 2 are not orthogonal"),
    (_k_times_k((["1", "1"], [])),
     "NotLocalFactor", "factor 1 has residue dimension 2, expected 1"),
    (_k_times_k((["1", "1"], [["0", "1"]])),
     "NotNilpotent", "maximal-ideal element of factor 1 is not nilpotent"),
    # k x k[d]/(d^2) on e1, e2, d, with d given to the first factor
    (_with_d(["e1", "e2", "d"],
             [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
              [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
              [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]]],
             [(["1", "0", "0"], [["0", "0", "1"]]), (["0", "1", "0"], [["0", "0", "1"]])],
             ["1", "1", "0"]),
     "NotLocalFactor", "a maximal-ideal element of factor 1 lies outside the factor"),
    # k x k on 1 and e1: the unit lies in both factors
    (_with_d(["1", "e1"], [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "1"]]],
             [(["1", "-1"], []), (["0", "1"], [])], ["1", "0"]),
     "StrataMismatch", "supplied basis is not stratified: basis element 1 is split across"
                       " factors"),
    (_k_times_k((["0", "1"], []), (["1", "0"], [])),
     "StrataMismatch", "supplied basis is not stratified: factor blocks are out of order"),
    (_jets([1, 0, 2], [1, 2]),
     "StrataMismatch", "supplied basis is not stratified: factor 1 does not start with its"
                       " unit"),
    (_jets([0, 2, 1], [1, 2]),
     "StrataMismatch", "supplied basis is not stratified: stratum 2 of factor 1 does not"
                       " span"),
]


def _many_relations(doc):
    """A with more relations than the Groebner pair budget has pairs for."""
    names = [f"a{k}" for k in range(201)]
    doc["A"] = {"variables": names, "relations": [f"{v}^2" for v in names],
                "images": {v: [v] for v in names}}


def _non_associative(doc):
    """B = A[y, w] with y y = w, w w = y and y w = 0: commutative and unital,
    but (y y) w = y and y (y w) = 0."""
    zero = ["0", "0", "0"]
    doc["B"] = {"basis": ["1", "y", "w"],
                "products": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                             [["0", "1", "0"], ["0", "0", "1"], zero],
                             [["0", "0", "1"], zero, ["0", "1", "0"]]],
                "images": {"y": ["y"], "w": ["w"]}}
    doc["second"]["B_images"] = {"y": ["y"], "w": ["w"]}


GRAMMAR = ["*t", "t t", "+t", "t^u", "t^1/2", "t*^2", "t )", "t +", " "]

# (command line, document or None): the command line is completed with
# --input and --output when a document is given
CASES = [
    (["validate"], None),
    (["--help"], None),
    (["validate", "--input", os.devnull, "--truncate", "x"], None),
    (["validate", "--bogus"], None),
    (["bogus", "--input", os.devnull], None),
    (["validate", "--input", os.devnull, "extra"], None),
    (["validate", "--truncate", "-1"], _fixture("differential.json")),
    (["validate", "--truncate", "20"], _fixture("differential.json")),
    (["adjoint-check", "--budget", "1"], _fixture("adjoint_f2.json")),
    (["adjoint-check"], _edited("introduction.json", lambda doc: doc.pop("z"))),
    (["validate"], _edited("unit_pivot.json", _many_relations)),
    (["validate"], _edited("unit_pivot.json", _non_associative)),
    *((["validate"], _edited("unit_pivot.json", _set(("C", "relations", 0), text)))
      for text in GRAMMAR),
    *((["validate"], _edited("differential.json", edit)) for edit, _, _ in D_FAULTS),
    (["adjoint-check"], _edited("unit_pivot.json", _set(("R", "relations"), []))),
]


# the child: load the package's modules with a call that records (file,
# line) before every raise statement, run every command line, print what
# was recorded
RECORDER = """
import ast, contextlib, importlib.machinery, io, json, sys
hits = set()

class Recording(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):
        tree = ast.parse(self.get_data(self.path))
        for node in ast.walk(tree):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if isinstance(block, list):
                    block[:] = [new for stmt in block for new in (
                        [ast.Expr(ast.Call(ast.Name("__record__", ast.Load()), [
                            ast.Constant(self.path), ast.Constant(stmt.lineno)], []),
                            lineno=stmt.lineno, col_offset=stmt.col_offset), stmt]
                        if isinstance(stmt, ast.Raise) else [stmt])]
        return compile(ast.fix_missing_locations(tree), self.path, "exec")

class Finder(importlib.machinery.PathFinder):
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        spec = super().find_spec(name, path, target)
        if spec is not None and name.split(".")[0] == "descent_kit":
            spec.loader = Recording(name, spec.origin)
        return spec

__builtins__.__record__ = lambda path, line: hits.add((path, line))
sys.meta_path.insert(0, Finder)
from descent_kit.cli import main
for argv in json.load(open(sys.argv[1])):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
print(json.dumps(sorted(hits)))
"""


def defined_raises():
    """(file, first line) -> name of every ``raise`` statement under the
    package."""
    found = {}

    def exception_class(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if exc is None:
            return "re-raise"
        return exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "?")

    def visit(node, path, prefix, counts):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{prefix}.{child.name}", {})
                continue
            if isinstance(child, ast.Raise):
                name = f"{prefix}: {exception_class(child)}"
                counts[name] = counts.get(name, 0) + 1
                if counts[name] > 1:
                    name += f" #{counts[name]}"
                found[(path, child.lineno)] = name
            visit(child, path, prefix, counts)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path.resolve()), path.stem, {})
    return found


def probe_mutants():
    """The mutation probe's documents for the ``PROBED`` fixture, and its
    unreadable files, each a document or the bytes of a file."""
    doc = _fixture(PROBED)
    for path in probe._paths(doc):
        values = probe.BAD_VALUES + (probe.FIELD_VALUES if path == ("field",) else [])
        yield from (probe._replaced(doc, path, value) for value in values)
    yield from (mutant for _, mutant in probe._resized(doc))
    yield from (mutant for _, mutant in probe._removed_keys(doc))
    for path, values in probe._read_strings(doc):
        yield from (probe._replaced(doc, path, value) for value in values)
    yield from (mutant for _, mutant in probe._renamed(doc))
    for prime in probe.BAD_PRIMES:
        yield _edited("differential.json", _set(("field",), {"prime": prime}))
    for kind in ("not-utf-8", "long-integer"):
        yield probe._unreadable(kind)


def command_lines(tmp_path):
    """Every command line the test runs, its documents written to ``tmp_path``."""
    lines = [args + ["--input", document, "--output", os.devnull]
             for document in workload_documents(tmp_path) for args in COMMANDS]

    def written(doc):
        path = tmp_path / f"document{len(lines)}.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        return str(path)

    for mutant in probe_mutants():
        lines.append(["validate", "--input", written(mutant), "--output", os.devnull])
    for args, doc in CASES:
        lines.append(args if doc is None
                     else args + ["--input", written(doc), "--output", os.devnull])
    return lines


def hit_raises(tmp_path):
    """The names of the package's ``raise`` statements that the command
    lines hit, and of all of them."""
    raises = defined_raises()
    runs = tmp_path / "runs.json"
    runs.write_text(json.dumps(command_lines(tmp_path)))
    proc = subprocess.run(
        [sys.executable, "-c", RECORDER, str(runs)],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    hit = {raises[filename, line] for filename, line in map(tuple, json.loads(proc.stdout))}
    return hit, set(raises.values())


def test_every_raise_is_hit_or_listed(tmp_path):
    hit, defined = hit_raises(tmp_path)
    unlisted = sorted(name for name in defined - hit if name not in NOT_HIT)
    assert unlisted == [], f"no command line hits these, and NOT_HIT lacks them: {unlisted}"
    assert sorted(set(NOT_HIT) - defined) == [], "listed, but not in the package"
    assert sorted(set(NOT_HIT) & hit) == [], "listed, but a command line hits them"
    assert sorted(name for name, why in NOT_HIT.items() if why not in REASONS) == []


@pytest.mark.parametrize("edit, error, detail", D_FAULTS, ids=[d for _, _, d in D_FAULTS])
def test_a_d_fault_is_reported_in_full(edit, error, detail, tmp_path):
    source, report = tmp_path / "problem.json", tmp_path / "report.json"
    source.write_text(json.dumps(_edited("differential.json", edit)))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["validate", "--input", str(source), "--output", str(report)])
    assert (code, json.loads(report.read_text())) == (
        1, {"status": "error", "error": error, "detail": detail})
