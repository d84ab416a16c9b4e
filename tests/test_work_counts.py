"""Work counts: each object is checked once, each descent ideal and descent
matrix is built once per command.

Counters are wrapped around the validators, ``groebner.buchberger`` and
``RingMatrix.inverse`` for one CLI invocation at a time.
"""

import contextlib
import io
import sys
from collections import Counter

import pytest

from descent_kit import groebner
from descent_kit.cli import main
from descent_kit.dstructures import DStructure
from descent_kit.matrices import RingMatrix
from descent_kit.structure import StructureAlgebra
from conftest import FIXTURES

COMMANDS = (
    ["validate"], ["matrix"], ["descend"], ["descend", "--audit"],
    ["adjoint-check"], ["compose-check"],
)


def run_cli(args, tmp_path):
    with contextlib.redirect_stderr(io.StringIO()):
        return main(args + ["--output", str(tmp_path / "report.json")])


def count_validations(monkeypatch):
    """Per object, the validate() calls that ran the checks.

    A call that finds the certificate already stored on the object does no
    checking and is not counted.
    """
    runs = Counter()
    alive = []  # keeps every counted object alive, so ids stay distinct
    for cls in (StructureAlgebra, DStructure):
        def counted(self, _original=cls.validate):
            checks_run = getattr(self, "_certificates", None) is None
            result = _original(self)
            if checks_run:
                alive.append(self)
                runs[id(self)] += 1
            return result

        monkeypatch.setattr(cls, "validate", counted)
    return runs


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_each_object_is_validated_once(fixture, command, tmp_path, monkeypatch):
    runs = count_validations(monkeypatch)
    run_cli(command + ["--input", str(FIXTURES / fixture)], tmp_path)
    assert runs and max(runs.values()) == 1


@pytest.mark.parametrize("fixture", [
    "adjoint_f2.json", "compose_difference.json", "differential.json",
    "frobenius_square.json",
])
def test_descent_ideal_groebner_basis_is_computed_once(fixture, tmp_path, monkeypatch):
    inside = [0]
    calls = [0]
    original = groebner.buchberger

    def counted_buchberger(*args, **kwargs):
        if inside[0]:
            calls[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("descent_kit") and getattr(module, "buchberger", None) is original:
            monkeypatch.setattr(module, "buchberger", counted_buchberger)
    for method in ("is_d_ideal", "quotient"):
        def tracked(self, ideal_gens, _original=getattr(DStructure, method)):
            inside[0] += 1
            try:
                return _original(self, ideal_gens)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(DStructure, method, tracked)
    assert run_cli(["descend", "--input", str(FIXTURES / fixture)], tmp_path) == 0
    assert calls[0] == 1


def test_obstruction_inverts_the_matrix_once(tmp_path, monkeypatch):
    calls = [0]
    original = RingMatrix.inverse

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(RingMatrix, "inverse", counted)
    code = run_cli(["descend", "--input", str(FIXTURES / "introduction.json")], tmp_path)
    assert (code, calls[0]) == (2, 1)
