"""Whoever makes a value reduces it: every entry that a ``RingMatrix``, a
``DStructure`` or an ``AlgebraElement`` holds, and every argument of
``PresentedRing.render``, is a normal form in its ring.

The three constructors keep the entries they are given and ``render``
renders its argument as given, so a producer that forgets to reduce would
make two equal values compare unequal or render two ways.  This guard
wraps the four entry points and records every entry that differs from its
normal form in its ring (a matrix's ring, a structure's carrier, an
element's base ring), with the function that made the value; a
structure's entries include the images it takes from its base.  It runs
the seven command lines of the function reach test over the same
documents: the fixtures, ``tests/documents`` (``reducible_variables.json``
names variables that reduce to others, and
``relations_kill_base_variables.json`` has relations that send variables
of the layer below to 0) and the seed-1 problem of every
``perfbench/gen.py`` workload.
"""

import contextlib
import io
import sys

from descent_kit import GF, Polynomial, parse_polynomial
from descent_kit.cli import main
from descent_kit.dstructures import DStructure
from descent_kit.matrices import RingMatrix
from descent_kit.presented import PresentedRing
from descent_kit.structure import AlgebraElement
from test_command_reach import COMMANDS, workload_documents


def _guard(monkeypatch, faults):
    """Wrap the four entry points; each entry a made value holds, or
    ``render`` is handed, that is not its own normal form is appended to
    ``faults`` as (entry point, calling function)."""

    def check(ring, entries, where):
        for e in entries:
            if ring.nf(e) != e:
                faults.append((where, sys._getframe(2).f_code.co_name))

    matrix_init = RingMatrix.__init__
    structure_init = DStructure.__init__
    element_init = AlgebraElement.__init__
    render = PresentedRing.render

    def matrix(self, ring, rows):
        matrix_init(self, ring, rows)
        check(ring, (e for row in self.rows for e in row), "RingMatrix")

    def structure(self, carrier, coeff, images, base=None):
        structure_init(self, carrier, coeff, images, base)
        check(carrier, (c for vec in self.images.values() if vec is not None for c in vec),
              "DStructure")

    def element(self, algebra, coords):
        element_init(self, algebra, coords)
        check(algebra.base, self.coords, "AlgebraElement")

    def rendered(self, p):
        check(self, (p,), "PresentedRing.render")
        return render(self, p)

    monkeypatch.setattr(RingMatrix, "__init__", matrix)
    monkeypatch.setattr(DStructure, "__init__", structure)
    monkeypatch.setattr(AlgebraElement, "__init__", element)
    monkeypatch.setattr(PresentedRing, "render", rendered)


def test_every_value_is_made_from_normal_forms(monkeypatch, tmp_path):
    faults = []
    _guard(monkeypatch, faults)
    for document in workload_documents(tmp_path):
        for command in COMMANDS:
            with contextlib.redirect_stderr(io.StringIO()):
                main(command + ["--input", document, "--output", str(tmp_path / "report.json")])
    assert sorted(set(faults)) == []


def test_a_ring_keeps_the_normal_forms_its_leading_monomials_allow():
    """``keeps`` answers whether every normal form of the smaller ring is one
    of the larger ring: here, whether each monomial of the smaller ring's
    staircase is its own normal form in the larger one."""
    field = GF(2)

    def ring(variables, *relations):
        return PresentedRing.make(field, variables,
                                  [parse_polynomial(text, field) for text in relations])

    a = ring(("a", "c"), "a^2", "c^2")
    pairs = [
        (a, a, True),
        (a.extend(("u",), [parse_polynomial("u^2 + a*u", field)]), a, True),
        # c - a leads with a: a is normal in A and reduces to c here
        (a.extend((), [parse_polynomial("c - a", field)]), a, False),
        # a*c is normal in A and 0 here
        (ring(("a", "c", "u"), "a^2", "c^2", "a*c", "u^2"), a, False),
        # the zero ring reduces every nonzero normal form to 0
        (ring(("a", "c"), "a + 1", "a"), a, False),
    ]
    for big, small, keeps in pairs:
        assert big.keeps(small) is keeps
        staircase = [Polynomial(field, {m: field.one}) for m in small.staircase()]
        assert all(big.nf(m) == m for m in staircase) is keeps
