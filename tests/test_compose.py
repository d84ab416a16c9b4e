"""Composition of structures, the swap, commutation, and their descents."""

import pytest

from descent_kit import (
    GF,
    QQ,
    DStructure,
    OperatorTower,
    PresentedBAlgebra,
    PresentedRing,
    StructureAlgebra,
    check_tensor_associated_endos,
    commutes,
    compose_descent_check,
    compose_structures,
    difference_algebra,
    dual_numbers,
    gamma_swap,
    product_of_fields,
    tensor_coefficients,
    tensor_compose_check,
    truncated_jets,
)
from descent_kit.errors import CarrierMismatch
from conftest import dual_basis_algebra


def test_product_coefficients_pass_validation():
    for field in (QQ, GF(5), GF(2)):
        for left, right in (
            (dual_numbers(field), dual_numbers(field)),
            (truncated_jets(field, 3), dual_numbers(field)),
            (product_of_fields(field, 2), dual_numbers(field)),
            (difference_algebra(field), truncated_jets(field, 3)),
        ):
            cc = tensor_coefficients(left, right)
            assert cc.product.dim == left.dim * right.dim
            assert cc.product.factor_count == left.factor_count * right.factor_count
            # stratum of a pair is the sum of strata
            for idx, (a, b) in enumerate(cc.index_pair):
                assert (
                    cc.product.stratum_of[idx]
                    == left.stratum_of[a] + right.stratum_of[b]
                )


def test_difference_difference_composition_is_plain_composition():
    ring = PresentedRing.make(QQ, ("x",), [])
    dk = difference_algebra(QQ)
    s1 = DStructure.difference(ring, {"x": ring.el("x^2")})
    s2 = DStructure.difference(ring, {"x": ring.el("x+1")})
    comp = compose_structures(s1, s2)
    assert comp.coefficients.product.dim == 1
    # the composite applies e1 first, then e2: s2(s1(x)) = s2(x)^2 = (x+1)^2
    assert ring.equal(comp.structure.images["x"][0], ring.el("x^2+2*x+1"))


def test_identity_second_factor_reindexes():
    ring = PresentedRing.make(QQ, ("x",), [])
    dd = dual_numbers(QQ)
    e1 = DStructure(ring, dd, {"x": (ring.el("x"), ring.el("x^2"))})
    e2 = DStructure.identity(ring, difference_algebra(QQ))
    comp = compose_structures(e1, e2)
    for idx, (q, p) in enumerate(comp.coefficients.index_pair):
        assert ring.equal(comp.structure.images["x"][idx], e1.images["x"][p])


def test_composite_coordinates_endo_then_derivation():
    # D1 = k (sigma), D2 = dual numbers (id, delta): composite = (sigma, delta o sigma)
    ring = PresentedRing.make(QQ, ("x",), [])
    sig = DStructure.difference(ring, {"x": ring.el("x+1")})
    delta = DStructure(ring, dual_numbers(QQ), {"x": (ring.var("x"), ring.one)})
    comp = compose_structures(sig, delta)
    vals = {ring.render(c) for c in comp.structure.images["x"]}
    # sigma(x) = x+1 and delta(sigma(x)) = 1
    assert vals == {"x + 1", "1"}


def test_gamma_swap_is_involution():
    ring = PresentedRing.make(QQ, ("x",), [])
    sig = DStructure.difference(ring, {"x": ring.el("x+1")})
    delta = DStructure(ring, dual_numbers(QQ), {"x": (ring.var("x"), ring.el("x^2"))})
    comp = compose_structures(sig, delta)
    back = gamma_swap(gamma_swap(comp))
    for a, b in zip(back.structure.images["x"], comp.structure.images["x"]):
        assert ring.equal(a, b)
    # degenerate case: k (x) k is a no-op
    s2 = DStructure.difference(ring, {"x": ring.el("x^2")})
    comp2 = compose_structures(sig, s2)
    sw2 = gamma_swap(comp2)
    assert ring.equal(
        sw2.structure.images["x"][0], comp2.structure.images["x"][0]
    )


def test_commutes_examples():
    ring = PresentedRing.make(QQ, ("x",), [])
    sig = DStructure.difference(ring, {"x": ring.el("x+1")})
    assert commutes(sig, sig)
    delta = DStructure(ring, dual_numbers(QQ), {"x": (ring.var("x"), ring.one)})
    assert commutes(sig, delta)
    sq = DStructure.difference(ring, {"x": ring.el("x^2")})
    assert not commutes(sq, delta)
    with pytest.raises(CarrierMismatch):
        commutes(sig, DStructure.difference(PresentedRing.make(QQ, ("y",), []),
                                            {"y": PresentedRing.make(QQ, ("y",), []).el("y")}))


def _f2_tower():
    field = GF(2)
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    return OperatorTower(
        DStructure.identity(a, d), b, d, [[b.basis_el(0)], [b.basis_el(1)]]
    )


def test_difference_difference_descent_compatibility():
    t1, t2 = _f2_tower(), _f2_tower()
    c1 = PresentedBAlgebra(t1, ("t",))
    flat = c1.flat_ring
    report = compose_descent_check(
        c1, {"t": (flat.el("t^2"),)}, t2, {"t": (flat.el("t+eps"),)}
    )
    assert report["ok"]
    assert report["theta_compatible"]
    assert report["gamma_compatible"]
    assert report["difference_monoid_law"]
    assert report["identity_descends_to_identity"]
    assert report["composite_endomorphisms_invertible"]


def test_commuting_pair_descends_to_commuting_pair():
    a = PresentedRing.base_field(QQ)
    by = StructureAlgebra(
        a, ("1", "y"),
        [[[a.one, a.zero], [a.zero, a.one]], [[a.zero, a.one], [a.zero, a.zero]]],
    )
    dk, dd = difference_algebra(QQ), dual_numbers(QQ)
    tw_sigma = OperatorTower(
        DStructure.identity(a, dk), by, dk, [[by.basis_el(0)], [by.basis_el(1)]]
    )
    tw_delta = OperatorTower(
        DStructure.identity(a, dd), by, dd,
        [[by.basis_el(0), by.zero_el()], [by.basis_el(1), by.zero_el()]],
    )
    c = PresentedBAlgebra(tw_sigma, ("x",))
    flat = c.flat_ring
    report = compose_descent_check(
        c, {"x": (flat.el("x+1"),)}, tw_delta, {"x": (flat.el("x"), flat.el("1"))}
    )
    assert report["ok"]
    assert report["inputs_commute"] and report["descents_commute"]


def test_self_commuting_structures_stay_commuting():
    """Endomorphism-only and endomorphism+derivation self-commutation."""
    # (m, n) = (2, 0): two commuting endomorphisms as one k^2-structure
    t_pair = _f2_tower()
    field = GF(2)
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d2 = product_of_fields(field, 2)
    tw = OperatorTower(
        DStructure.identity(a, d2), b, d2,
        [[b.basis_el(0), b.basis_el(0)], [b.basis_el(1), b.basis_el(1)]],
    )
    c = PresentedBAlgebra(tw, ("t",))
    flat = c.flat_ring
    g = {"t": (flat.el("t+1"), flat.el("t+eps"))}
    g_struct = c.structure(g)
    from descent_kit import descend_d_structure
    if commutes(g_struct, g_struct):
        res = descend_d_structure(c, c.structure(g))
        assert commutes(res.structure, res.structure)
    # (m, n) = (1, 1): the commuting sigma/delta pair over QQ via dual x k
    # handled coordinatewise in test_commuting_pair_descends_to_commuting_pair


def test_tensor_compose_difference_case():
    s = PresentedRing.make(QQ, ("s",), [])
    t = PresentedRing.make(QQ, ("t",), [])
    f1 = DStructure.difference(s, {"s": s.el("s^2")})
    g1 = DStructure.difference(t, {"t": t.el("t+1")})
    f2 = DStructure.difference(s, {"s": s.el("s+1")})
    g2 = DStructure.difference(t, {"t": t.el("t^2")})
    assert tensor_compose_check(f1, f2, g1, g2)["ok"]


def test_tensor_compose_dual_numbers_case():
    s = PresentedRing.make(QQ, ("s",), [])
    t = PresentedRing.make(QQ, ("t",), [])
    dd = dual_numbers(QQ)
    f1 = DStructure(s, dd, {"s": (s.var("s"), s.el("s^2"))})
    g1 = DStructure(t, dd, {"t": (t.var("t"), t.one)})
    f2 = DStructure(s, dd, {"s": (s.var("s"), s.one)})
    g2 = DStructure(t, dd, {"t": (t.var("t"), t.el("t"))})
    assert tensor_compose_check(f1, f2, g1, g2)["ok"]


def test_tensor_compose_identity_case():
    s = PresentedRing.make(QQ, ("s",), [])
    t = PresentedRing.make(QQ, ("t",), [])
    dd = dual_numbers(QQ)
    ids = DStructure.identity(s, dd)
    idt = DStructure.identity(t, dd)
    assert tensor_compose_check(ids, ids, idt, idt)["ok"]


def test_tensor_associated_endomorphisms_factorwise():
    s = PresentedRing.make(QQ, ("s",), [])
    t = PresentedRing.make(QQ, ("t",), [])
    dd = dual_numbers(QQ)
    f = DStructure(s, dd, {"s": (s.el("s"), s.el("s^2"))})
    g = DStructure(t, dd, {"t": (t.el("t"), t.one)})
    assert check_tensor_associated_endos(f, g)
    dk = difference_algebra(GF(5))
    s5 = PresentedRing.make(GF(5), ("s",), [])
    t5 = PresentedRing.make(GF(5), ("t",), [])
    f5 = DStructure.difference(s5, {"s": s5.el("s^2")})
    g5 = DStructure.difference(t5, {"t": t5.el("t+1")})
    assert check_tensor_associated_endos(f5, g5)
    d2 = product_of_fields(QQ, 2)
    fp = DStructure(s, d2, {"s": (s.el("s+1"), s.el("s^2"))})
    gp = DStructure(t, d2, {"t": (t.el("t"), t.el("t^3"))})
    assert check_tensor_associated_endos(fp, gp)
