"""JSON-node mutation probe: a malformed document never escapes as a traceback.

For every fixture, each JSON node in turn (the whole document included) is
replaced by each value of a fixed set of bad values, and the field node
also by a word-sized prime.  Every JSON array is also shortened and
lengthened by one element (a copy of its last, or "0"), and D is given a
unit one coordinate too short and one too long.  Every command
(``COMMANDS``) must run in process on every such document and end with
exit code 0, 1 or 2 and a JSON report.

Each idempotent and maximal-ideal vector of D (and of the second block's
D) is also made one coordinate shorter and one longer: every command must
then exit 1 with a ``ParseError`` such as ``D.factors[0].idempotent needs
2 coordinates``.

Each required key of each fixture is also removed in turn: every command
must then exit 1 with a ``ParseError`` whose detail begins with the key's
JSON path, such as ``D.factors[0].idempotent must be a JSON array``.  And
every command must exit 1 with a ``ParseError`` naming ``field.prime`` when
the field's prime is not a prime below 2^63 given as a JSON integer or a
decimal string (``BAD_PRIMES``), and with a ``ParseError`` whose detail
begins ``invalid JSON`` on a file that ``json.load`` cannot read: one with a
byte that is not UTF-8, and one whose field prime has more digits than
Python converts (``UNREADABLE``).

Each string that is read as a term (a relation, an image, a B product or
a coordinate of z, in the first structure set and in the second) or as a
scalar of D is replaced in turn by a bad one (``BAD_STRINGS``): an unknown
variable, a syntax error and, over GF(3), a denominator that vanishes
mod 3.  Each name list is given a repeated name
or a name that is already a variable of the ring it extends.  Every command
must then exit 1 with a ``ParseError`` whose detail begins with the JSON
path of the string, such as ``C.images.t[0]: `` or ``C.generators[1] ``.
So must relations of A or R that generate the unit ideal, with
``A.relations generate the unit ideal``.
"""

import contextlib
import copy
import io
import json
import sys

import pytest

from descent_kit.cli import main
from conftest import FIXTURES

BAD_VALUES = [None, 0, -1, 1.5, "", "x", "1/0", [], {}, True, "(("]
FIELD_VALUES = [{"prime": 2**61 - 1}]
BAD_PRIMES = [0, "0", 1, True, 4, -7, "abc", 2**63, str(2**63), 2**64 + 13]
STATUS = {0: "ok", 1: "error", 2: "obstruction"}
COMMANDS = (["validate"], ["matrix"], ["descend"], ["descend", "--audit"], ["adjoint-check"],
            ["compose-check"])


def _paths(node, prefix=()):
    """The path of every node, in document order, the root first."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


def _json_path(path):
    """``("C", "images", "t", 0)`` written as ``C.images.t[0]``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    _node(doc, path[:-1])[path[-1]] = value
    return doc


def _reports(doc, tmp_path, raw=None):
    """(command, exit code, report) of every command run in process on ``doc``,
    or on the file contents ``raw`` when they are given."""
    source, report = tmp_path / "mutant.json", tmp_path / "report.json"
    source.write_bytes(json.dumps(doc).encode() if raw is None else raw)
    for command in COMMANDS:
        report.unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(command + ["--input", str(source), "--output", str(report)])
        yield command, code, json.loads(report.read_text())


def _assert_reports(docs, tmp_path):
    """Run every command on each (label, document): a JSON report whose
    status matches the exit code, and never a traceback.  Every report of
    ``validate`` and every error or obstruction report has a status; a
    success report of another command has none."""
    for label, doc in docs:
        for command, code, report in _reports(doc, tmp_path):
            assert code in STATUS, (label, command)
            if command[0] == "validate" or code:
                status = report["status"]
            else:
                status = report.get("status", STATUS[0])
            assert status == STATUS[code], (label, command)


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_every_node_mutation_gives_a_report(fixture, tmp_path):
    doc = json.loads((FIXTURES / fixture).read_text())
    _assert_reports((
        ((path, value), _replaced(doc, path, value))
        for path in list(_paths(doc))
        for value in BAD_VALUES + (FIELD_VALUES if path == ("field",) else [])
    ), tmp_path)


def _resized(doc):
    """(label, document) for every array of ``doc`` one element shorter and
    one longer, and for D's unit one coordinate shorter and one longer."""
    for path in _paths(doc):
        node = _node(doc, path)
        if isinstance(node, list):
            if node:
                yield (path, "shorter"), _replaced(doc, path, node[:-1])
            yield (path, "longer"), _replaced(doc, path, node + [node[-1] if node else "0"])
    basis = doc["D"]["basis"]
    unit = doc["D"].get("unit", ["1"] + ["0"] * (len(basis) - 1))
    for label, resized in (("shorter", unit[:-1]), ("longer", unit + ["0"])):
        mutant = copy.deepcopy(doc)
        mutant["D"]["unit"] = resized
        yield ("D.unit", label), mutant


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_every_array_length_mutation_gives_a_report(fixture, tmp_path):
    _assert_reports(_resized(json.loads((FIXTURES / fixture).read_text())), tmp_path)


def _resized_factor_vectors(doc):
    """(JSON path, dimension of D, document) for every idempotent and
    maximal-ideal vector of D, and of the second block's D, one coordinate
    shorter and one longer."""
    for prefix in (("D",), ("second", "D")):
        if prefix[0] not in doc:
            continue
        d = _node(doc, prefix)
        for n, factor in enumerate(d["factors"]):
            paths = [prefix + ("factors", n, "idempotent")]
            paths += [prefix + ("factors", n, "maximal_ideal", m)
                      for m in range(len(factor.get("maximal_ideal", [])))]
            for path in paths:
                vector = _node(doc, path)
                for resized in (vector[:-1], vector + ["0"]):
                    yield _json_path(path), len(d["basis"]), _replaced(doc, path, resized)


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_a_factor_vector_of_the_wrong_length_is_named_by_its_path(fixture, tmp_path):
    for path, dim, mutant in _resized_factor_vectors(
            json.loads((FIXTURES / fixture).read_text())):
        for command, code, report in _reports(mutant, tmp_path):
            assert (code, report["status"], report["error"]) == (1, "error", "ParseError"), command
            assert report["detail"] == f"{path} needs {dim} coordinates", (command, report)


def _removed_keys(doc):
    """(JSON path, document) for every required key of ``doc`` removed in
    turn: the field, D, B and their basis and products, D's factors and
    each factor's idempotent, and the second block's D with its own."""
    def coefficient_keys(prefix, d):
        return [prefix, *(prefix + (key,) for key in ("basis", "products", "factors")),
                *(prefix + ("factors", n, "idempotent") for n in range(len(d["factors"])))]

    paths = [("field",), ("B",), ("B", "basis"), ("B", "products")]
    paths += coefficient_keys(("D",), doc["D"])
    if "second" in doc:
        paths += coefficient_keys(("second", "D"), doc["second"]["D"])
    for path in paths:
        mutant = copy.deepcopy(doc)
        del _node(mutant, path[:-1])[path[-1]]
        yield _json_path(path), mutant


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_a_missing_required_key_is_named_by_its_path(fixture, tmp_path):
    for path, mutant in _removed_keys(json.loads((FIXTURES / fixture).read_text())):
        for command, code, report in _reports(mutant, tmp_path):
            assert (code, report["status"], report["error"]) == (1, "error", "ParseError"), command
            assert report["detail"].startswith(f"{path} must be "), (command, report)


@pytest.mark.parametrize("prime", BAD_PRIMES, ids=repr)
def test_a_field_prime_that_is_not_a_word_sized_prime_is_named(prime, tmp_path):
    doc = json.loads((FIXTURES / "differential.json").read_text())
    doc["field"] = {"prime": prime}
    for command, code, report in _reports(doc, tmp_path):
        assert (code, report["status"], report["error"]) == (1, "error", "ParseError"), command
        assert report["detail"].startswith("field.prime must be "), (command, report)


def _unreadable(kind):
    """differential.json made unreadable to ``json.load``."""
    text = (FIXTURES / "differential.json").read_text()
    if kind == "not-utf-8":
        return text.encode().replace(b'"', b'"\xff', 1)
    doc = json.loads(text)
    doc["field"] = {"prime": "PRIME"}
    digits = sys.get_int_max_str_digits() + 1
    return json.dumps(doc).replace('"PRIME"', "7" * digits).encode()


# Python before 3.10.7 reads integers of any length
LIMITED = hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits() > 0
UNREADABLE = [
    "not-utf-8",
    pytest.param("long-integer", marks=pytest.mark.skipif(
        not LIMITED, reason="no limit on the digits of an integer")),
]


@pytest.mark.parametrize("kind", UNREADABLE)
def test_a_file_json_cannot_read_is_a_parse_error(kind, tmp_path):
    for command, code, report in _reports(None, tmp_path, _unreadable(kind)):
        assert (code, report["status"], report["error"]) == (1, "error", "ParseError"), command
        assert report["detail"].startswith("invalid JSON"), (command, report)


# an unknown variable (for a scalar of D, a bad literal) and a syntax error
BAD_STRINGS = ["zz", "1 +"]
NAME_KEYS = {"variables", "generators", "basis"}


def _read_strings(doc):
    """(path, bad values) for every string of ``doc`` read as a term or as a
    scalar of D: every string outside ``field`` and the name lists."""
    gf3 = doc["field"] == {"prime": 3}
    for path in _paths(doc):
        if (isinstance(_node(doc, path), str) and "field" not in path
                and not NAME_KEYS & set(path)):
            # over GF(3) a denominator that vanishes mod 3; the term grammar
            # reads the scalar before it checks the variable
            vanishing = ["1/3" if "D" in path else "1/3*zz"] if gf3 else []
            yield path, BAD_STRINGS + vanishing


def _assert_named(path, mutant, tmp_path, separator):
    """Every command exits 1 on ``mutant`` with a ParseError whose detail
    begins with ``path`` and ``separator``."""
    for command, code, report in _reports(mutant, tmp_path):
        assert (code, report["status"], report["error"]) == (1, "error", "ParseError"), \
            (path, command, report)
        assert report["detail"].startswith(path + separator), (command, report)


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_a_bad_term_or_scalar_is_named_by_its_path(fixture, tmp_path):
    doc = json.loads((FIXTURES / fixture).read_text())
    strings = list(_read_strings(doc))
    assert any("B" in path for path, _ in strings)
    for path, values in strings:
        for value in values:
            _assert_named(_json_path(path), _replaced(doc, path, value), tmp_path, ": ")


def _renamed(doc):
    """(JSON path of the bad name, document) for unit_pivot.json with a name
    list that repeats a name or takes one of the ring it extends: A's
    variable a, B's label y, C's generator t and R's variable u.  R's
    variables may not take B's labels either, since R (x) B is flattened
    on both."""
    cases = [
        ("A", "variables", ["a", "a"], 1), ("R", "variables", ["u", "u"], 1),
        ("R", "variables", ["a"], 0), ("R", "variables", ["y"], 0),
        ("B", "basis", ["1", "a"], 1),
        ("B", "basis", ["1", "y", "y"], 2), ("C", "generators", ["t", "t"], 1),
        ("C", "generators", ["y"], 0), ("C", "generators", ["a"], 0),
    ]
    for section, key, names, bad in cases:
        yield _json_path((section, key, bad)), _replaced(doc, (section, key), names)


def test_a_repeated_name_is_named_by_its_path(tmp_path):
    for path, mutant in _renamed(json.loads((FIXTURES / "unit_pivot.json").read_text())):
        _assert_named(path, mutant, tmp_path, " ")


@pytest.mark.parametrize("section, relations", [
    ("A", ["-1"]), ("A", ["a", "a - 1"]), ("R", ["-1"]), ("R", ["u", "u - 1"]),
])
def test_relations_that_generate_one_are_named_by_their_path(section, relations, tmp_path):
    """A and R may not be the zero ring: relations that generate the unit
    ideal, one constant or two that generate 1 together, are refused where
    they are read."""
    doc = json.loads((FIXTURES / "unit_pivot.json").read_text())
    mutant = _replaced(doc, (section, "relations"), relations)
    _assert_named(f"{section}.relations", mutant, tmp_path, " generate the unit ideal")
