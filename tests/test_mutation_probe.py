"""JSON-node mutation probe: a malformed document never escapes as a traceback.

For every fixture, each JSON node in turn (the whole document included) is
replaced by each value of a fixed set of bad values, and the field node
also by a word-sized prime.  ``validate`` must run in process on every
such document and end with exit code 0, 1 or 2 and a JSON report.
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


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_every_node_mutation_gives_a_report(fixture, tmp_path):
    doc = json.loads((FIXTURES / fixture).read_text())
    source, report = tmp_path / "mutant.json", tmp_path / "report.json"
    for path in list(_paths(doc)):
        values = BAD_VALUES + (FIELD_VALUES if path == ("field",) else [])
        for value in values:
            source.write_text(json.dumps(_replaced(doc, path, value)))
            report.unlink(missing_ok=True)
            code = main(["validate", "--input", str(source), "--output", str(report)])
            assert code in STATUS, (path, value)
            assert json.loads(report.read_text())["status"] == STATUS[code], (path, value)
