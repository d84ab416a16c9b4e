"""Homomorphism enumeration, the adjunction audit, and obstruction evidence."""

import pytest

from descent_kit import (
    GF,
    QQ,
    DDescentResult,
    DStructure,
    OperatorTower,
    PresentedBAlgebra,
    PresentedRing,
    adjoint_evidence,
    adjunction_audit,
    descend_d_structure,
    difference_algebra,
    enumerate_homs,
    parse_polynomial,
    problem_from_file,
)
from descent_kit.errors import CombinatorialBudgetExceeded, NotFiniteDimensional
from conftest import FIXTURES, dual_basis_algebra, target_elements, zero_el

F2 = GF(2)


def f2_tower(f_eps="eps"):
    a = PresentedRing.base_field(F2)
    b = dual_basis_algebra(a)
    d = difference_algebra(F2)
    image = b.flat_ring().el(f_eps)
    return OperatorTower(DStructure.identity(a, d), b, {"eps": (image,)})


def test_target_elements_deterministic_and_complete():
    r = PresentedRing.make(F2, ("u",), [parse_polynomial("u^2", F2)])
    els = target_elements(r)
    assert len(els) == 4
    assert [r.render(e) for e in els] == ["0", "u", "1", "u + 1"]


def test_enumerate_homs_counts():
    # W(C) = F2[t1,t2]/(t1^2) -> F2[u]/(u^2): 2 choices x 4 choices
    source = PresentedRing.make(
        F2, ("t1", "t2"), [parse_polynomial("t1^2", F2)]
    )
    target = PresentedRing.make(F2, ("u",), [parse_polynomial("u^2", F2)])
    homs = enumerate_homs(source, target)
    assert len(homs) == 8
    # t1 images must square to zero
    for phi in homs:
        assert target.is_zero(target.nf(phi["t1"] * phi["t1"]))
    # one-point case
    k = PresentedRing.base_field(F2)
    assert len(enumerate_homs(k, k)) == 1


def test_enumerate_homs_upstairs_count():
    """C = B[t]/(t^2) -> R (x) B over B: the 8 square-zero elements."""
    tower = f2_tower()
    r = PresentedRing.make(F2, ("u",), [parse_polynomial("u^2", F2)])
    ext = tower.algebra.base_change(r)
    flat = ext.flat_ring()
    source = tower.flat_b.extend(("t",), [parse_polynomial("t^2", F2)])
    fixed = {v: parse_polynomial(v, F2) for v in tower.flat_b.variables}
    homs = enumerate_homs(source, flat, fixed)
    assert len(homs) == 8
    for phi in homs:
        # square-zero images have zero constant term in characteristic 2
        assert flat.nf(phi["t"]).constant_value() == F2.zero


def test_enumeration_guards():
    with pytest.raises(NotFiniteDimensional):
        enumerate_homs(
            PresentedRing.make(QQ, ("x",), []), PresentedRing.base_field(QQ)
        )
    big_source = PresentedRing.make(F2, ("x1", "x2", "x3", "x4", "x5"), [])
    big_target = PresentedRing.make(
        F2, ("u", "v"), [parse_polynomial(t, F2) for t in ("u^2", "v^2")]
    )
    with pytest.raises(CombinatorialBudgetExceeded):
        enumerate_homs(big_source, big_target, budget=1000)


def test_adjunction_audit_on_criterion_instance():
    tower = f2_tower()
    c = PresentedBAlgebra(tower, ("t",), [parse_polynomial("t^2", F2)])
    res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t", F2),)}))
    r = PresentedRing.make(F2, ("u",), [parse_polynomial("u^2", F2)])
    u = DStructure.identity(r, tower.coeff)
    report = adjunction_audit(res, u)
    assert report["downstairs_count"] == 8
    assert report["upstairs_count"] == 8
    assert report["ok"]


def test_the_default_budget_takes_exactly_2_to_the_20_candidates():
    """n free variables over the target k are 2^n candidates over GF(2):
    the default budget takes n = 20 and refuses n = 21.  The source is the
    zero ring, so its relation 1 fails before any candidate is tried."""
    target = PresentedRing.base_field(F2)
    for n in (20, 21):
        names = tuple(f"t{i}" for i in range(n))
        source = PresentedRing.make(F2, names, [parse_polynomial("1", F2)])
        if n == 20:
            assert enumerate_homs(source, target) == []
        else:
            with pytest.raises(CombinatorialBudgetExceeded):
                enumerate_homs(source, target)


def test_a_wrong_descent_reads_as_an_unmatched_map():
    """The audit of split_base.json with the descended structure replaced by
    the identity on W(C), over the same base: the wrong gate admits maps
    whose image under tau is no operator map, and the audit reads them as
    images outside the gated upstairs set, not as a failed certificate."""
    problem = problem_from_file(FIXTURES / "split_base.json")
    result = descend_d_structure(problem.c, problem.g_structure)
    structure = result.structure
    ring, base = structure.carrier, structure.base
    identity = DStructure.identity(ring, structure.coeff).images
    wrong = DStructure(ring, structure.coeff,
                       {v: identity[v] for v in ring.variables if v not in base.images},
                       base=base)
    wrong_result = DDescentResult(result.c, result.classical, wrong, result.pre_structure,
                                  result.matrix, result.c_structure, result.certificates)
    report = adjunction_audit(wrong_result, problem.u)
    assert report["downstairs_count"] == 16 and report["upstairs_count"] == 8
    assert report["forward_lands_in_gated_set"] is False
    assert report["ok"] is False
    assert adjunction_audit(result, problem.u)["ok"] is True


def test_adjunction_audit_with_frobenius_structures():
    """Same instance but with the squaring structure on both sides."""
    tower = f2_tower()
    c = PresentedBAlgebra(tower, ("t",))
    res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t^2", F2),)}))
    r = PresentedRing.make(F2, ("u",), [parse_polynomial("u^2", F2)])
    u = DStructure.difference(r, {"u": r.zero})  # u -> u^2 = 0 in R
    report = adjunction_audit(res, u)
    assert report["counts_equal"] and report["ok"]


def test_adjoint_evidence_reports():
    tower = f2_tower()  # placeholder to exercise both fields below
    # the projection structure over QQ: the inconsistent system
    a = PresentedRing.base_field(QQ)
    b = dual_basis_algebra(a)
    d = difference_algebra(QQ)
    tower_q = OperatorTower(DStructure.identity(a, d), b, {"eps": (b.flat_ring().zero,)})
    report = adjoint_evidence(tower_q, [b.basis_el(1)])
    assert report["system_rhs"] == ["0", "1"]
    assert report["system_matrix"] == [["1", "0"], ["0", "0"]]
    assert report["solvable"] is False
    # z = 0: trivially solvable by the zero vector
    report0 = adjoint_evidence(tower_q, [zero_el(b)])
    assert report0["solvable"] is True and report0["solution"] == ["0", "0"]
    # z = 1 (x) 1: the first coordinate line is hit
    report1 = adjoint_evidence(tower_q, [b.basis_el(0)])
    assert report1["solvable"] is True
