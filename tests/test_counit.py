"""The counit of the adjunction is an operator homomorphism, on every field.

Weil descent W is left adjoint to R -> R (x)_A B in D-algebras, and the
counit eps_R: W(R (x) B) -> R is tau^-1 of the identity of R (x) B.  With
B's first basis element 1, it sends the copy U(1) of each variable u of R
to u, every other copy U(m) to 0, and A's variables to themselves.  The
unit is certified by every descent (``unit_is_operator_hom``); this checks
the counit, with no enumeration, so over QQ and on targets too large for
``adjoint-check`` too.

For a document with an R, ``tensor_document`` writes R (x)_A B as a
problem document: its C has R's variables, renamed, with R's relations
and R's images.  It is descended through ``cli.main``, and the descended
presentation is read off the report.  Then, modulo R's relations:

- eps kills every descended relation;
- eps is an operator map: eps of the k-th image of U(m) is the k-th image
  of u when m = 1 and 0 otherwise, and eps of the k-th image of a variable
  a of A is a's own k-th image.

R's ring is presented here from the document's text, not by the loader.
A document whose descent is an obstruction (exit 2) has no counit to
check; it must be one for R (x) B and for C alike, since the matrix is the
tower's.
"""

import contextlib
import io
import json

import pytest

from descent_kit import (
    GF, QQ, DegRevLex, Monomial, Polynomial, PresentedRing, parse_polynomial, render,
)
from descent_kit.cli import main
from conftest import DOCUMENTS, FIXTURES
from test_random_documents import random_document
from test_scaled_golden import GEN


def _field(doc):
    field = doc["field"]
    return QQ if field == "rationals" else GF(field["prime"])


def _renamed(text, field, names):
    """The term ``text`` with its variables renamed by ``names``, as text."""
    poly = parse_polynomial(text, field)
    renamed = Polynomial(field, {
        Monomial({names.get(v, v): e for v, e in m.exps.items()}): c
        for m, c in poly.terms.items()})
    return render(renamed, DegRevLex(tuple(sorted(renamed.variables()))))


def tensor_document(doc):
    """``doc`` with C replaced by R (x)_A B, and the renaming of R's
    variables it used."""
    field = _field(doc)
    r = doc["R"]
    taken = set(doc["A"]["variables"]) | set(doc["B"]["basis"])
    names = {}
    for v in r["variables"]:
        name = f"U_{v}"
        while name in taken:
            name += "_"
        names[v] = name
        taken.add(name)
    out = {key: value for key, value in doc.items() if key not in ("R", "second", "z")}
    out["C"] = {
        "generators": [names[v] for v in r["variables"]],
        "relations": [_renamed(text, field, names) for text in r["relations"]],
        "images": {names[v]: [_renamed(text, field, names) for text in vec]
                   for v, vec in r["images"].items()},
    }
    return out, names


def _descend(doc, tmp_path):
    source, target = tmp_path / "problem.json", tmp_path / "report.json"
    source.write_text(json.dumps(doc))
    target.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["descend", "--input", str(source), "--output", str(target)])
    return code, json.loads(target.read_text())


def _counit_image(m, u, zero):
    """eps(U(m)): u for the copy at B's basis element 1, and 0 otherwise."""
    return u if m == 1 else zero


def counit_failures(doc, tmp_path, copy_image=_counit_image):
    """The checks the counit of ``doc``'s R fails, as (check, what) pairs,
    or None when the descent is an obstruction.  ``copy_image(m, u, 0)`` is
    the image of U(m)."""
    field = _field(doc)
    tensor, names = tensor_document(doc)
    code, report = _descend(tensor, tmp_path)
    assert code in (0, 2), report
    if code == 2:
        assert _descend(doc, tmp_path)[0] == 2
        return None
    a, r = doc["A"], doc["R"]

    def parsed(text):
        return parse_polynomial(text, field)

    ring = PresentedRing.make(field, tuple(a["variables"]) + tuple(r["variables"]),
                              [parsed(text) for text in a["relations"] + r["relations"]])
    presentation = report["presentation"]
    copies = {}  # copy name -> (m, variable of R)
    for v in r["variables"]:
        for name in presentation["variables"]:
            if name.startswith(names[v] + "("):
                copies[name] = int(name[len(names[v]) + 1:-1]), v
    counit = {name: copy_image(m, Polynomial.variable(field, v), ring.zero)
              for name, (m, v) in copies.items()}

    def eps(text):
        return parsed(text).substitute(counit)

    failures = [("kills", rel) for rel in presentation["relations"]
                if not ring.is_zero(eps(rel))]
    for name, vec in presentation["images"].items():
        if name in copies:
            m, v = copies[name]
            expected = [_counit_image(m, parsed(text), ring.zero) for text in r["images"][v]]
        else:
            expected = [parsed(text) for text in a["images"][name]]
        failures += [("intertwines", f"{name}[{k}]")
                     for k, (text, want) in enumerate(zip(vec, expected))
                     if not ring.equal(eps(text), want)]
    return failures


def _with_square_zero_r(doc):
    """``doc`` with R = A[u]/(u^2) and u -> u + u d, D = k[d]/(d^l) on the
    basis 1, d, ..., d^(l-1); over D = k that is u -> u."""
    doc = {key: value for key, value in doc.items() if key != "R"}
    taken = set(doc["A"]["variables"]) | set(doc["B"]["basis"])
    u = next(name for name in ("u", "u_", "u__") if name not in taken)
    dim = len(doc["D"]["basis"])
    doc["R"] = {"variables": [u], "relations": [f"{u}^2"],
                "images": {u: [u] + [u] * (dim > 1) + ["0"] * (dim - 2)}}
    return doc


def _fixture(path):
    return json.loads(path.read_text())


WITH_R = sorted(p for folder in (FIXTURES, DOCUMENTS) for p in folder.glob("*.json")
                if "R" in _fixture(p))
# documents over QQ and GF(101), and the other fixtures, given the square-zero R
GIVEN_R = {
    **{p.name: (lambda p=p: _fixture(p))
       for p in sorted(FIXTURES.glob("*.json")) if "R" not in _fixture(p)},
    **{f"{workload} seed 1": (lambda w=workload: GEN.generate(w, 1))
       for workload in ("qq-differential", "gfp-relations", "nilpotent-obstruction")},
    "gfp-relations r = 2": lambda: GEN.generate("gfp-relations", 1, r=2),
}


def test_the_documents_with_an_r_are_the_six():
    assert len(WITH_R) == 6


@pytest.mark.parametrize("path", WITH_R, ids=lambda p: p.name)
def test_counit_of_a_document_with_an_r(path, tmp_path):
    assert counit_failures(_fixture(path), tmp_path) == []


@pytest.mark.parametrize("seed", range(GEN.VARIANTS))
@pytest.mark.parametrize("k", (2, 3, 5))
def test_counit_of_the_hom_enumeration_workload(seed, k, tmp_path):
    doc = GEN.generate("gf2-hom-enumeration", seed, k=k)
    assert counit_failures(doc, tmp_path) == []


@pytest.mark.parametrize("seed", range(16))
def test_counit_of_a_random_document(seed, tmp_path):
    failures = counit_failures(random_document(seed), tmp_path)
    assert failures is None or failures == []


@pytest.mark.parametrize("name", sorted(GIVEN_R))
def test_counit_of_a_square_zero_test_algebra(name, tmp_path):
    doc = _with_square_zero_r(GIVEN_R[name]())
    failures = counit_failures(doc, tmp_path)
    if name in ("introduction.json", "nilpotent-obstruction seed 1"):
        assert failures is None  # the descent matrix is not invertible
    else:
        assert failures == []


def test_a_wrong_counit_fails(tmp_path):
    """Sending U(2) to u, not to 0, fails at the first image."""
    doc = _fixture(FIXTURES / "adjoint_f2.json")
    failures = counit_failures(doc, tmp_path, lambda m, u, zero: u if m <= 2 else zero)
    assert failures and failures[0][0] == "intertwines"
