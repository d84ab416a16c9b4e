"""Work counts: each object is checked once, each descent ideal and descent
matrix is built once per command, a normal form never recomputes a
leading term the basis already holds, evaluation in a structure algebra
multiplies only what it must, the audit's Cramer solve runs one
characteristic polynomial for all generators, and the Hom-set audit gates
each map once and evaluates each relation once per assignment; each matrix
runs Berkowitz at most once.

Counters are wrapped around the validators, ``groebner.buchberger``,
``groebner.normal_form``, ``DegRevLex.leading``,
``descent_matrix.assemble_matrix``, ``RingMatrix.inverse``,
``RingMatrix.charpoly``, ``descend_d_structure``, ``rederive_images``,
``StructureAlgebra.multiply_coords`` and ``StructureAlgebra.base_change``,
for one CLI invocation or one evaluation at a time.
"""

import contextlib
import io
import json
import sys
from collections import Counter

import pytest

from descent_kit import (
    GF, QQ, OperatorTower, PresentedBAlgebra, PresentedRing, cli, compose, descent_matrix,
    difference_algebra, groebner, homs, matrices, parse_polynomial, problem_from_file,
    truncated_jets, weil, weil_d, weil_descend,
)
from descent_kit.cli import main
from descent_kit.dstructures import DStructure
from descent_kit.matrices import RingMatrix
from descent_kit.polynomials import DegRevLex
from descent_kit.structure import AlgebraElement, StructureAlgebra, evaluate_poly
from conftest import FIXTURES, dual_basis_algebra
from test_scaled_golden import GEN

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


def count_buchberger_runs(monkeypatch):
    """Record every ``buchberger`` and ``buchberger_extended`` run as a pair
    (nonzero inputs as a frozenset, the reduced basis it returned)."""
    runs = []
    for original in (groebner.buchberger, groebner.buchberger_extended):
        def counted(*args, _original=original, **kwargs):
            gens = list(args[0] if args else kwargs["gens"])
            out = _original(gens, *args[1:], **kwargs)
            basis = out if isinstance(out, groebner.GroebnerBasis) else out[0]
            runs.append((frozenset(g for g in gens if not g.is_zero()), basis))
            return out

        for name, module in list(sys.modules.items()):
            if name.startswith("descent_kit") and getattr(
                    module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    return runs


@pytest.mark.parametrize("fixture", [
    "adjoint_f2.json", "compose_difference.json", "differential.json",
    "frobenius_square.json",
])
def test_descent_ideal_groebner_basis_is_computed_once(fixture, tmp_path, monkeypatch):
    """Over the whole ``descend`` command exactly one Groebner run returns
    the basis of the descended ring from inputs that hold the descent
    ideal: the classical descent builds that ring, and the quotient
    structure is checked against the same ring."""
    runs = count_buchberger_runs(monkeypatch)
    results = []
    original = weil.weil_descend

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("descent_kit") and getattr(module, "weil_descend", None) is original:
            monkeypatch.setattr(module, "weil_descend", recorded)
    assert run_cli(["descend", "--input", str(FIXTURES / fixture)], tmp_path) == 0
    assert len(results) == 1
    ideal = frozenset(g for g in results[0].ideal_generators if not g.is_zero())
    descended = results[0].descended.relations
    assert sum(ideal <= inputs and basis == descended for inputs, basis in runs) == 1


@pytest.mark.parametrize("fixture", [
    "adjoint_f2.json", "compose_difference.json", "differential.json",
    "frobenius_square.json",
])
def test_audit_d_ideal_check_runs_its_own_groebner_basis(fixture, tmp_path, monkeypatch):
    """``descend --audit`` re-checks closure of the descent ideal with a
    Groebner run of its own, not with a ring the main route built."""
    runs = count_buchberger_runs(monkeypatch)
    inside = []  # Groebner runs during each is_d_ideal call
    original = DStructure.is_d_ideal

    def tracked(*args, **kwargs):
        before = len(runs)
        try:
            return original(*args, **kwargs)
        finally:
            inside.append(len(runs) - before)

    monkeypatch.setattr(DStructure, "is_d_ideal", tracked)
    assert run_cli(["descend", "--audit", "--input", str(FIXTURES / fixture)], tmp_path) == 0
    assert inside == [1]


# Groebner runs (buchberger and buchberger_extended) per fixture and command.
# None of them is over B's labels: a validated table is its own basis.
BUCHBERGER_RUNS = {
    "adjoint_f2.json": {
        "validate": 5, "matrix": 5, "descend": 7, "descend --audit": 8,
        "adjoint-check": 7, "compose-check": 5,
    },
    "compose_difference.json": {
        "validate": 4, "matrix": 4, "descend": 5, "descend --audit": 6,
        "adjoint-check": 4, "compose-check": 7,
    },
    "differential.json": {
        "validate": 3, "matrix": 3, "descend": 4, "descend --audit": 5,
        "adjoint-check": 3, "compose-check": 3,
    },
    "frobenius_square.json": {
        "validate": 3, "matrix": 3, "descend": 4, "descend --audit": 5,
        "adjoint-check": 3, "compose-check": 3,
    },
    "introduction.json": {
        "validate": 3, "matrix": 5, "descend": 3, "descend --audit": 3,
        "adjoint-check": 3, "compose-check": 3,
    },
}


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("fixture", sorted(BUCHBERGER_RUNS))
def test_groebner_runs_per_command(fixture, command, tmp_path, monkeypatch):
    """Each ring, base change and descent is built once per command: rings
    come back from ``extend`` for the same extension, a unit's inverse needs
    no Groebner run when its normal form is a constant, and compose-check
    shares one classical descent among its descents."""
    runs = count_buchberger_runs(monkeypatch)
    run_cli(command + ["--input", str(FIXTURES / fixture)], tmp_path)
    assert len(runs) == BUCHBERGER_RUNS[fixture][" ".join(command)]


def test_obstruction_inverts_the_matrix_once(tmp_path, monkeypatch):
    calls = [0]
    original = RingMatrix.inverse

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(RingMatrix, "inverse", counted)
    code = run_cli(["descend", "--input", str(FIXTURES / "introduction.json")], tmp_path)
    assert (code, calls[0]) == (2, 1)


@pytest.mark.parametrize("fixture", [
    "adjoint_f2.json", "compose_difference.json", "differential.json",
    "frobenius_square.json",
])
def test_audit_solve_runs_one_characteristic_polynomial(fixture, tmp_path, monkeypatch):
    """descend --audit re-derives every generator image from one Berkowitz
    characteristic polynomial and never touches the elimination route."""
    inside = [0]
    counts = Counter()
    original_rederive = weil_d.rederive_images

    def tracked_rederive(result):
        inside[0] += 1
        try:
            return original_rederive(result)
        finally:
            inside[0] -= 1

    for method in ("charpoly", "inverse"):
        def counted(self, _original=getattr(RingMatrix, method), _name=method):
            if inside[0]:
                counts[_name] += 1
            return _original(self)

        monkeypatch.setattr(RingMatrix, method, counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("descent_kit") and getattr(
                module, "rederive_images", None) is original_rederive:
            monkeypatch.setattr(module, "rederive_images", tracked_rederive)
    code = run_cli(["descend", "--audit", "--input", str(FIXTURES / fixture)], tmp_path)
    assert code == 0
    assert (counts["charpoly"], counts["inverse"]) == (1, 0)


def test_normal_form_never_rescans_leading_terms(tmp_path, monkeypatch):
    """A basis carries its leading terms, so a reduction needs no
    ``DegRevLex.leading`` call: the basis's are stored, and the reduced
    polynomial's is taken from the reduction's own working dict."""
    inside = [0]
    counts = Counter()
    original_nf = groebner.normal_form
    original_leading = DegRevLex.leading

    def counted_normal_form(*args, **kwargs):
        inside[0] += 1
        counts["normal_form"] += 1
        try:
            return original_nf(*args, **kwargs)
        finally:
            inside[0] -= 1

    def counted_leading(self, poly):
        if inside[0]:
            counts["leading"] += 1
        return original_leading(self, poly)

    for name, module in list(sys.modules.items()):
        if name.startswith("descent_kit") and getattr(module, "normal_form", None) is original_nf:
            monkeypatch.setattr(module, "normal_form", counted_normal_form)
    monkeypatch.setattr(DegRevLex, "leading", counted_leading)
    assert run_cli(["descend", "--input", str(FIXTURES / "differential.json")], tmp_path) == 0
    assert counts["normal_form"] > 0
    assert counts["leading"] == 0


def test_compose_check_descends_the_loaded_structure(tmp_path, monkeypatch):
    """compose-check hands the validated structure of the problem to the
    first descent instead of rebuilding it from the raw images."""
    loaded, descended = [], []
    original_load = cli.problem_from_file
    original_descend = compose.descend_d_structure

    def load(path):
        loaded.append(original_load(path))
        return loaded[-1]

    def descend(*args, **kwargs):
        descended.append(args[1] if len(args) > 1 else kwargs["g_structure"])
        return original_descend(*args, **kwargs)

    monkeypatch.setattr(cli, "problem_from_file", load)
    monkeypatch.setattr(compose, "descend_d_structure", descend)
    code = run_cli(["compose-check", "--input", str(FIXTURES / "compose_difference.json")],
                   tmp_path)
    assert code == 0
    assert descended[0] is loaded[0].g_structure


def test_compose_check_composes_each_tower_once(tmp_path, monkeypatch):
    """compose-check on compose_difference.json composes two towers, each
    once: f2 o f1, the composite tower of theta (gamma reindexes it along
    the swap rather than composing again), and f1 o f2, the tower of the
    difference-case monoid law."""
    calls = [0]
    original = compose.compose_towers

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(compose, "compose_towers", counted)
    code = run_cli(["compose-check", "--input", str(FIXTURES / "compose_difference.json")],
                   tmp_path)
    assert code == 0
    assert calls[0] == 2


def count_multiplications(monkeypatch):
    calls = [0]
    original = StructureAlgebra.multiply_coords

    def counted(self, x, y):
        calls[0] += 1
        return original(self, x, y)

    monkeypatch.setattr(StructureAlgebra, "multiply_coords", counted)
    return calls


def test_evaluation_shares_powers(monkeypatch):
    """x^2*y + x^2 + y over a rank-2 algebra: x^2 once (one squaring), then
    x^2 * y; coefficients scale coordinates and y^1 is y itself."""
    ring = PresentedRing.make(QQ, ("a",), [PresentedRing.make(QQ, ("a",), []).el("a^2 - 3")])
    algebra = dual_basis_algebra(ring)
    env = {"x": algebra.element([ring.el("a"), ring.one]),
           "y": algebra.element([ring.one, ring.el("2*a")])}
    p = PresentedRing.make(QQ, ("x", "y"), []).el("x^2*y + x^2 + y")
    calls = count_multiplications(monkeypatch)
    evaluate_poly(p, env, algebra)
    assert calls[0] == 2


def test_power_multiplies_only_what_it_needs(monkeypatch):
    ring = PresentedRing.base_field(QQ)
    algebra = dual_basis_algebra(ring)
    el = algebra.element([ring.constant(2), ring.one])
    calls = count_multiplications(monkeypatch)
    assert el**1 is el
    assert calls[0] == 0
    assert (el**0).coords == algebra.one_el().coords
    assert calls[0] == 0
    el**4
    assert calls[0] == 2


def test_operator_images_are_wrapped_as_normalized(monkeypatch):
    """DStructure normalizes its images once, at construction; applying it
    builds no element through the normalizing constructor."""
    g = problem_from_file(FIXTURES / "differential.json").g_structure
    x = g.carrier.one
    for v in g.carrier.variables:
        x = x * g.carrier.var(v)
    x = g.carrier.nf(x + g.carrier.one)
    calls = [0]
    original = AlgebraElement.__init__

    def counted(self, algebra, coords):
        calls[0] += 1
        original(self, algebra, coords)

    monkeypatch.setattr(AlgebraElement, "__init__", counted)
    image = g.apply(x)
    assert calls[0] == 0
    assert all(g.carrier.nf(c) == c for c in image.coords)


def test_structure_constants_reduce_only_nonzero_entries(monkeypatch):
    """A dense table handed to the StructureAlgebra constructor is mostly
    zeros (36 nonzero cells of the 9 x 9 x 9 table of jets3 (x) jets3), and
    a zero is its own normal form: no zero reaches ``PresentedRing.nf``."""
    left, right = truncated_jets(QQ, 3), truncated_jets(QQ, 3)
    calls = Counter()
    original = PresentedRing.nf

    def counted(self, p):
        calls["zero" if p.is_zero() else "nonzero"] += 1
        return original(self, p)

    monkeypatch.setattr(PresentedRing, "nf", counted)
    cc = compose.tensor_coefficients(left, right)
    assert calls["zero"] == 0 and calls["nonzero"] > 0
    assert sum(len(cell) for row in cc.product.cells for cell in row) == 36


def test_unit_map_evaluation_builds_one_base_change(monkeypatch):
    """evaluate_under_unit puts the tensor algebra and every generator's unit
    image on one base change of B, so their algebras are the same object."""
    field = GF(2)
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    tower = OperatorTower(
        DStructure.identity(a, difference_algebra(field)), b, difference_algebra(field),
        [[b.basis_el(0)], [b.basis_el(1)]],
    )
    result = weil_descend(PresentedBAlgebra(tower, ("s", "t")))
    flat = parse_polynomial("s*t + t^2 + s", field)
    units = result.unit_map()
    expected = units["s"] * units["t"] + units["t"] ** 2 + units["s"]
    calls = [0]
    original = StructureAlgebra.base_change

    def counted(self, ring):
        calls[0] += 1
        return original(self, ring)

    monkeypatch.setattr(StructureAlgebra, "base_change", counted)
    image = result.evaluate_under_unit(flat)
    assert calls[0] == 1
    assert image.coords == expected.coords


def test_adjoint_check_gates_each_map_once(tmp_path, monkeypatch):
    """adjoint-check on adjoint_f2.json: ``tau_d_forward`` runs once per
    downstairs algebra map, and ``enumerate_homs`` evaluates each relation
    at most p^(dim k) times, k the number of free variables it mentions."""
    enumerations = []  # (source, target, pinned variables, maps returned)
    evaluations = Counter()  # (enumeration, relation) -> evaluations
    forward = [0]
    original_enumerate = homs.enumerate_homs
    original_evaluate = homs._evaluate
    original_forward = homs.tau_d_forward

    def enumerate_counted(source, target, fixed=None, *args, **kwargs):
        out = original_enumerate(source, target, fixed, *args, **kwargs)
        enumerations.append((source, target, set(fixed or ()), out))
        return out

    def evaluate_counted(rel, *args):
        evaluations[len(enumerations), rel] += 1
        return original_evaluate(rel, *args)

    def forward_counted(*args):
        forward[0] += 1
        return original_forward(*args)

    monkeypatch.setattr(homs, "enumerate_homs", enumerate_counted)
    monkeypatch.setattr(homs, "_evaluate", evaluate_counted)
    monkeypatch.setattr(homs, "tau_d_forward", forward_counted)
    code = run_cli(["adjoint-check", "--input", str(FIXTURES / "adjoint_f2.json")], tmp_path)
    assert code == 0
    assert len(enumerations) == 2
    downstairs = enumerations[0][3]
    assert downstairs and forward[0] == len(downstairs)
    assert sum(evaluations.values()) > 0
    for index, (source, target, pinned, _) in enumerate(enumerations):
        p, dim = target.field.characteristic, len(target.staircase())
        for rel in source.relations.generators:
            k = len(rel.variables() - pinned)
            assert evaluations[index, rel] <= p ** (dim * k)


def count_matrix_work(monkeypatch):
    """[descent matrices assembled, ``RingMatrix.inverse`` calls]."""
    calls = [0, 0]
    assemble, inverse = descent_matrix.assemble_matrix, RingMatrix.inverse

    def assemble_counted(*args):
        calls[0] += 1
        return assemble(*args)

    def inverse_counted(self):
        calls[1] += 1
        return inverse(self)

    monkeypatch.setattr(descent_matrix, "assemble_matrix", assemble_counted)
    monkeypatch.setattr(RingMatrix, "inverse", inverse_counted)
    return calls


@pytest.mark.parametrize("fixture", ["adjoint_f2.json", "introduction.json"])
def test_adjoint_check_builds_the_descent_matrix_once(fixture, tmp_path, monkeypatch):
    """The matrix adjoint-check classifies is the one its descent (audit
    path) or its obstruction evidence (non-invertible path) uses."""
    calls = count_matrix_work(monkeypatch)
    assert run_cli(["adjoint-check", "--input", str(FIXTURES / fixture)], tmp_path) == 0
    assert calls[0] == 1


# (descent matrices assembled, RingMatrix.inverse calls) per command: a
# command that needs the tower's matrix builds and decides it once;
# ``matrix`` also inverts the one associated endomorphism matrix of each
# fixture twice (equivalences (i) and (ii)); compose-check descends over
# six towers on the fixtures with a second structure block, each law over
# its own: t1, t2, the composite t12 (theta), t12 reindexed along the swap
# (gamma), f1 o f2 (the difference-case monoid law) and the identity tower;
# it fails on a missing second structure block elsewhere
MATRIX_WORK = {
    "validate": (0, 0), "matrix": (1, 3), "descend": (1, 1), "descend --audit": (1, 1),
    "adjoint-check": (1, 1), "compose-check": (0, 0),
}


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_descent_matrix_work_per_command(fixture, command, tmp_path, monkeypatch):
    calls = count_matrix_work(monkeypatch)
    run_cli(command + ["--input", str(FIXTURES / fixture)], tmp_path)
    expected = MATRIX_WORK[" ".join(command)]
    if command == ["compose-check"] and "second" in json.loads((FIXTURES / fixture).read_text()):
        expected = (6, 6)
    assert tuple(calls) == expected


# Berkowitz runs per command (validate, matrix, descend, descend --audit,
# adjoint-check, compose-check) on each seed-1 benchmark workload: one per
# matrix.  ``matrix`` runs one on each associated endomorphism matrix, whose
# clauses (i) (on a stall), (iii) and (iv) share it; on nilpotent-obstruction
# the descent matrix's fallback inverse and the clause (ii) product matrix
# run one each as well.
BERKOWITZ_RUNS = {
    "gf2-hom-enumeration": (0, 1, 0, 1, 0, 1),
    "gfp-relations": (0, 1, 0, 1, 0, 1),
    "nilpotent-obstruction": (0, 3, 1, 1, 1, 1),
    "qq-differential": (0, 1, 0, 1, 0, 1),
}


@pytest.mark.parametrize("workload", sorted(BERKOWITZ_RUNS))
def test_berkowitz_runs_once_per_matrix(workload, tmp_path, monkeypatch):
    calls = [0]
    original = RingMatrix.charpoly

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(RingMatrix, "charpoly", counted)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(GEN.generate(workload, 1)), encoding="utf-8")
    runs = []
    for command in COMMANDS:
        calls[0] = 0
        run_cli(command + ["--input", str(problem)], tmp_path)
        runs.append(calls[0])
    assert tuple(runs) == BERKOWITZ_RUNS[workload]


def test_berkowitz_normalizes_each_sum_once(monkeypatch):
    """One Berkowitz run on an n x n matrix takes one normal form per sum:
    at step r, (r - 1)(r - 2) for the powers of the leading minor on the
    column (none for r <= 2), max(1, r - 1) for the dot products and
    r + 1 for the Toeplitz product, so 3 + 4 + 8 + 14 = 29 for n = 4."""
    ring = PresentedRing.make(QQ, ("a",), [])
    rows = [[ring.el(f"{i + 2 * j} + a^{(i * j) % 3}") for j in range(4)] for i in range(4)]
    calls = [0]
    original = matrices._nf_sum

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    matrix = RingMatrix(ring, rows)
    monkeypatch.setattr(matrices, "_nf_sum", counted)
    matrix.charpoly()
    assert calls[0] == 29
