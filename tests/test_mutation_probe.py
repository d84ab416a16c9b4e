"""JSON-node mutation probe: a malformed document never escapes as a traceback.

For every fixture, each JSON node in turn (the whole document included) is
replaced by each value of a fixed set of bad values, and the field node
also by a word-sized prime.  Every JSON array is also shortened and
lengthened by one element (a copy of its last, or "0"), and D is given a
unit one coordinate too short and one too long.  Every command
(``COMMANDS``) must run in process on every such document and end with
exit code 0, 1 or 2 and a JSON report.

Each required key of each fixture is also removed in turn: every command
must then exit 1 with a ``ParseError`` whose detail begins with the key's
JSON path, such as ``D.factors[0].idempotent must be a JSON array``.  And
every command must exit 1 with a ``ParseError`` naming ``field.prime`` when
the field's prime is not a prime below 2^63 given as a JSON integer or a
decimal string (``BAD_PRIMES``).
"""

import contextlib
import copy
import io
import json

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


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _reports(doc, tmp_path):
    """(command, exit code, report) of every command run in process on ``doc``."""
    source, report = tmp_path / "mutant.json", tmp_path / "report.json"
    source.write_text(json.dumps(doc))
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
        node = doc
        for key in path:
            node = node[key]
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
        node = mutant
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        yield text[1:], mutant


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
