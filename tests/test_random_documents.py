"""Random valid problem documents through every command.

``random_document`` renders a tower drawn by ``conftest.random_tower``,
with a target algebra C, a test algebra R and a ``second`` structure set,
as a problem document.  Its base ring A is one of

- k itself;
- k[a]/(a^2 - a), with e(a) = (1 - a) (x) 1;
- k[a]/(a^2 - 2) over GF(7), with e(a) = a (x) 1 or -a (x) 1;
- k[a] with no relations, with e(a) = a (x) 1 or (a + 1) (x) 1;
- k[a, c]/(a^2, c - a), whose variable a reduces to c, with e(a) = e(c) =
  a (x) 1 or -a (x) 1.

The loader hands B's images to the tower as they are written, so these
documents send bases and base structures that no fixture has through it.  Every command
runs on each document in process:

- a run exits 0 or 2, or 1 only for a budget or for ``adjoint-check``
  refusing an infinite field or target;
- ``validate`` reads ok;
- when ``descend`` exits 0, ``descend --audit`` reads ``ok: true`` and its
  other keys equal ``descend``'s report;
- two values of ``PYTHONHASHSEED`` give the same report bytes.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from descent_kit import GF, QQ, DStructure, PresentedRing
from descent_kit.cli import main
from conftest import COEFF_BUILDERS, dense_table, monogenic_algebra, random_tower

SRC = Path(__file__).resolve().parent.parent / "src"
# name -> (fields to draw from, variables of A, relations of A, images of
# each variable under sigma)
BASES = {
    "k": ((QQ, GF(2), GF(5)), [], [], None),
    "idempotent": ((QQ, GF(3)), ["a"], ["a^2 - a"], ["1 - a"]),
    "root_of_2": ((GF(7),), ["a"], ["a^2 - 2"], ["a", "-a"]),
    "free": ((QQ, GF(5)), ["a"], [], ["a", "a + 1"]),
    "reducible": ((QQ, GF(2)), ["a", "c"], ["a^2", "c - a"], ["a", "-a"]),
}
# the errors a valid document may meet: a budget, under any command
BUDGETS = {"ResourceLimit", "CombinatorialBudgetExceeded"}
COMMANDS = (["validate"], ["matrix"], ["descend"], ["descend", "--audit"],
            ["adjoint-check"], ["compose-check"])


def _scalars(field, vector):
    return [field.render(c) for c in vector]


def coefficient_document(coeff):
    """The JSON block of a coefficient algebra D."""
    field = coeff.field
    return {
        "basis": list(coeff.algebra.labels),
        "products": [[_scalars(field, cell) for cell in row]
                     for row in dense_table(field, coeff.cells)],
        "unit": _scalars(field, coeff.unit),
        "factors": [{"idempotent": _scalars(field, idem),
                     "maximal_ideal": [_scalars(field, v) for v in span]}
                    for idem, span in coeff.factors],
    }


def _structure_set(a_ring, algebra, sigma, kind, rng):
    """(D, A's images, the tower) of one structure set on A and B: D drawn
    from ``COEFF_BUILDERS``, e(a) = sigma(a) (x) 1, and f drawn by
    ``random_tower`` to extend e; every variable of A has the one image
    sigma(a)."""
    field = a_ring.field
    coeff = COEFF_BUILDERS[rng.choice(sorted(COEFF_BUILDERS))](field)
    images = {}
    if sigma is not None:
        image = a_ring.el(rng.choice(sigma))
        images = {v: tuple(image.scale(u) for u in coeff.unit) for v in a_ring.variables}
    e = DStructure(a_ring, coeff, images)
    tower = random_tower(field, coeff, kind, rng, algebra=algebra, e=e)
    a_images = {v: [a_ring.render(p) for p in vec] for v, vec in images.items()}
    return coefficient_document(coeff), a_images, tower


def _rendered(tower, variables):
    """f's images of ``variables`` as term strings."""
    return {v: [tower.flat_b.render(p) for p in tower.f.images[v]] for v in variables}


def _ideal_images(coeff, rng, name, extra):
    """Images of ``name`` whose coordinates are multiples of it, so that
    they respect a relation name^2 or name^3 (a free name takes any)."""
    factors = ["1", "2", "-1"] + extra
    return {name: [f"{rng.choice(factors)}*{name}" if rng.random() < 0.8 else "0"
                   for _ in range(coeff.dim)]}


def random_document(seed):
    """A valid problem document with every section.  z, the element that
    ``adjoint-check`` reads when the descent matrix is not invertible, is
    any element of D(B)."""
    rng = random.Random(seed)
    fields, variables, relations, sigma = BASES[rng.choice(sorted(BASES))]
    field = rng.choice(fields)
    a_ring = PresentedRing.make(field, variables,
                                [PresentedRing.make(field, variables).el(r)
                                 for r in relations])
    kind = rng.choice(("nil2", "split", "nil3"))
    algebra = monogenic_algebra(a_ring, kind)
    labels = list(algebra.labels[1:])
    sets = [_structure_set(a_ring, algebra, sigma, kind, rng) for _ in range(2)]
    base_factors = ["a"] if variables else []
    c_relations = rng.choice(([], ["t^2"]))
    c_images = [_ideal_images(tower.coeff, rng, "t", base_factors + labels)
                for _, _, tower in sets]
    basis = [algebra.basis_el(i) for i in range(algebra.rank)]
    products = [[[a_ring.render(c) for c in (x * y).coords] for y in basis] for x in basis]
    (d1, a1, t1), (d2, a2, t2) = sets
    return {
        "field": "rationals" if field == QQ else {"prime": field.characteristic},
        "D": d1,
        "A": {"variables": variables, "relations": relations, "images": a1},
        "B": {"basis": list(algebra.labels), "products": products,
              "images": _rendered(t1, labels)},
        "C": {"generators": ["t"], "relations": c_relations, "images": c_images[0]},
        "R": {"variables": ["u"], "relations": [rng.choice(("u^2", "u^3"))],
              "images": _ideal_images(t1.coeff, rng, "u", base_factors)},
        "z": [rng.choice(["0", "1"] + base_factors + labels) for _ in range(t1.coeff.dim)],
        "second": {"D": d2, "A_images": a2, "B_images": _rendered(t2, labels),
                   "C_images": c_images[1]},
    }


@pytest.mark.parametrize("seed", range(16))
def test_a_random_valid_document_runs_every_command(seed, tmp_path):
    doc = random_document(seed)
    source, target = tmp_path / "problem.json", tmp_path / "report.json"
    source.write_text(json.dumps(doc))
    runs = {}
    for command in COMMANDS:
        target.unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(command + ["--input", str(source), "--output", str(target)])
        report = json.loads(target.read_text())
        if code == 1:
            allowed = BUDGETS | ({"NotFiniteDimensional"} if command == ["adjoint-check"]
                                 else set())
            assert report["error"] in allowed, (command, report)
        else:
            assert code in (0, 2), (command, report)
        runs[" ".join(command)] = code, report
    assert runs["validate"][0] == 0 and runs["validate"][1]["status"] == "ok"
    code, descended = runs["descend"]
    if code == 0:
        audit_code, audited = runs["descend --audit"]
        assert audit_code == 0 and audited.pop("audit")["ok"] is True
        assert audited == descended


# runs every command on each document named on the command line, in this
# one interpreter, and prints the SHA-256 of all the reports' bytes
CHILD = """
import contextlib, hashlib, io, sys
from descent_kit.cli import main
digest = hashlib.sha256()
for source in sys.argv[1:]:
    for command in COMMANDS:
        with contextlib.redirect_stderr(io.StringIO()):
            main(command + ["--input", source, "--output", source + ".report"])
        with open(source + ".report", "rb") as report:
            digest.update(report.read())
print(digest.hexdigest())
"""


def test_two_hash_seeds_give_the_same_reports(tmp_path):
    """Every report on the first eight documents, in a fresh interpreter
    under two values of ``PYTHONHASHSEED``, has the same bytes."""
    sources = []
    for seed in range(8):
        sources.append(str(tmp_path / f"problem-{seed}.json"))
        (tmp_path / f"problem-{seed}.json").write_text(json.dumps(random_document(seed)))
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (str(SRC),
                                                            os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c", f"COMMANDS = {COMMANDS!r}" + CHILD, *sources],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
