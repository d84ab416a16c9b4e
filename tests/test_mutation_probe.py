"""JSON-node mutation probe: a malformed document never escapes as a traceback.

For every fixture, each JSON node in turn (the whole document included) is
replaced by each value of a fixed set of bad values, and the field node
also by a word-sized prime.  Every JSON array is also shortened and
lengthened by one element (a copy of its last, or "0"), and D is given a
unit one coordinate too short and one too long.  ``validate`` must run in
process on every such document and end with exit code 0, 1 or 2 and a
JSON report.
"""

import copy
import json

import pytest

from descent_kit.cli import main
from conftest import FIXTURES

BAD_VALUES = [None, 0, -1, 1.5, "", "x", "1/0", [], {}, True, "(("]
FIELD_VALUES = [{"prime": 2**61 - 1}]
STATUS = {0: "ok", 1: "error", 2: "obstruction"}


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


def _assert_reports(docs, tmp_path):
    """``validate`` each (label, document) in process: a JSON report whose
    status matches the exit code, and never a traceback."""
    source, report = tmp_path / "mutant.json", tmp_path / "report.json"
    for label, doc in docs:
        source.write_text(json.dumps(doc))
        report.unlink(missing_ok=True)
        code = main(["validate", "--input", str(source), "--output", str(report)])
        assert code in STATUS, label
        assert json.loads(report.read_text())["status"] == STATUS[code], label


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
