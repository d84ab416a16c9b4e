"""Composition of structures, the swap, commutation, and their descents."""

import pytest

from descent_kit import (
    GF,
    QQ,
    DDescentResult,
    DStructure,
    OperatorTower,
    PresentedBAlgebra,
    PresentedRing,
    StructureAlgebra,
    commutes,
    compose_descent_check,
    compose_structures,
    difference_algebra,
    dual_numbers,
    gamma_swap,
    product_of_fields,
    tensor_coefficients,
    truncated_jets,
)
from descent_kit import compose
from descent_kit.errors import CarrierMismatch
from conftest import dual_basis_algebra
from paper_checks import check_tensor_associated_endos, tensor_compose_check


def pair_coefficients(e1, e2):
    """D2 (x) D1 and D1 (x) D2 for a structure e1 over D1 and e2 over D2."""
    return tensor_coefficients(e2.coeff, e1.coeff), tensor_coefficients(e1.coeff, e2.coeff)


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
    cc = tensor_coefficients(dk, dk)
    assert cc.product.dim == 1
    comp = compose_structures(s1, s2, cc)
    # the composite applies e1 first, then e2: s2(s1(x)) = s2(x)^2 = (x+1)^2
    assert ring.equal(comp.images["x"][0], ring.el("x^2+2*x+1"))


def test_identity_second_factor_reindexes():
    ring = PresentedRing.make(QQ, ("x",), [])
    dd = dual_numbers(QQ)
    e1 = DStructure(ring, dd, {"x": (ring.el("x"), ring.el("x^2"))})
    e2 = DStructure.identity(ring, difference_algebra(QQ))
    cc, _ = pair_coefficients(e1, e2)
    comp = compose_structures(e1, e2, cc)
    for idx, (q, p) in enumerate(cc.index_pair):
        assert ring.equal(comp.images["x"][idx], e1.images["x"][p])


def test_composite_coordinates_endo_then_derivation():
    # D1 = k (sigma), D2 = dual numbers (id, delta): composite = (sigma, delta o sigma)
    ring = PresentedRing.make(QQ, ("x",), [])
    sig = DStructure.difference(ring, {"x": ring.el("x+1")})
    delta = DStructure(ring, dual_numbers(QQ), {"x": (ring.var("x"), ring.one)})
    comp = compose_structures(sig, delta, pair_coefficients(sig, delta)[0])
    vals = {ring.render(c) for c in comp.images["x"]}
    # sigma(x) = x+1 and delta(sigma(x)) = 1
    assert vals == {"x + 1", "1"}


def test_gamma_swap_is_involution():
    ring = PresentedRing.make(QQ, ("x",), [])
    sig = DStructure.difference(ring, {"x": ring.el("x+1")})
    delta = DStructure(ring, dual_numbers(QQ), {"x": (ring.var("x"), ring.el("x^2"))})
    cc, cc_swapped = pair_coefficients(sig, delta)
    comp = compose_structures(sig, delta, cc)
    back = gamma_swap(gamma_swap(comp, cc, cc_swapped), cc_swapped, cc)
    for a, b in zip(back.images["x"], comp.images["x"]):
        assert ring.equal(a, b)
    # degenerate case: k (x) k is a no-op
    s2 = DStructure.difference(ring, {"x": ring.el("x^2")})
    cc2, cc2_swapped = pair_coefficients(sig, s2)
    comp2 = compose_structures(sig, s2, cc2)
    sw2 = gamma_swap(comp2, cc2, cc2_swapped)
    assert ring.equal(sw2.images["x"][0], comp2.images["x"][0])


def test_commutes_examples():
    ring = PresentedRing.make(QQ, ("x",), [])
    sig = DStructure.difference(ring, {"x": ring.el("x+1")})
    assert commutes(sig, sig, *pair_coefficients(sig, sig))
    delta = DStructure(ring, dual_numbers(QQ), {"x": (ring.var("x"), ring.one)})
    assert commutes(sig, delta, *pair_coefficients(sig, delta))
    sq = DStructure.difference(ring, {"x": ring.el("x^2")})
    assert not commutes(sq, delta, *pair_coefficients(sq, delta))
    y_ring = PresentedRing.make(QQ, ("y",), [])
    other = DStructure.difference(y_ring, {"y": y_ring.el("y")})
    with pytest.raises(CarrierMismatch):
        commutes(sig, other, *pair_coefficients(sig, other))


def _f2_tower():
    field = GF(2)
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    return OperatorTower(
        DStructure.identity(a, d), b, d, [[b.basis_el(0)], [b.basis_el(1)]]
    )


def _f2_difference_check():
    """compose-check on the F_2 difference pair t -> t^2, t -> t + eps."""
    t1, t2 = _f2_tower(), _f2_tower()
    c1 = PresentedBAlgebra(t1, ("t",))
    flat = c1.flat_ring
    c2 = PresentedBAlgebra(t2, ("t",))
    return compose_descent_check(
        c1, c1.structure({"t": (flat.el("t^2"),)}), c2, c2.structure({"t": (flat.el("t+eps"),)})
    )


def test_difference_difference_descent_compatibility():
    report = _f2_difference_check()
    assert report["ok"]
    assert report["theta_compatible"]
    assert report["gamma_compatible"]
    assert report["difference_monoid_law"]
    assert report["identity_descends_to_identity"]
    assert report["composite_endomorphisms_invertible"]


def _shifted(result):
    """``result`` with its descended structure moved at one copy variable:
    every coordinate of the first generator copy gains 1."""
    structure = result.structure
    name = result.classical.copy_names[result.c.generators[0]][0]
    images = dict(structure.images)
    images[name] = tuple(c + structure.carrier.one for c in images[name])
    wrong = DStructure(structure.carrier, structure.coeff, images, base=structure.base)
    return DDescentResult(result.c, result.classical, wrong, result.pre_structure,
                          result.matrix, result.c_structure, result.certificates)


def _difference_check_with_one_wrong_descent(monkeypatch, is_wrong):
    """``_f2_difference_check`` with the descent that
    ``is_wrong(c, g_structure, seen)`` picks out handed back moved; ``seen``
    lists the towers of the descents that ran before it."""
    real = compose.descend_d_structure
    seen = []

    def descend(c, g_structure, classical=None):
        result = real(c, g_structure, classical)
        wrong = is_wrong(c, g_structure, seen)
        seen.append(c.tower)
        return _shifted(result) if wrong else result

    monkeypatch.setattr(compose, "descend_d_structure", descend)
    return _f2_difference_check()


def test_a_wrong_composite_descent_breaks_the_monoid_law(monkeypatch):
    # only the descent of g1 o g2 reuses a tower, the swapped one
    report = _difference_check_with_one_wrong_descent(
        monkeypatch, lambda c, g, seen: any(c.tower is t for t in seen))
    assert report["difference_monoid_law"] is False
    assert report["identity_descends_to_identity"] and not report["ok"]


def test_a_wrong_identity_descent_is_reported(monkeypatch):
    def is_identity(c, g_structure, seen):
        return all(g_structure.images[gen] == (c.flat_ring.var(gen),) for gen in c.generators)

    report = _difference_check_with_one_wrong_descent(monkeypatch, is_identity)
    assert report["identity_descends_to_identity"] is False
    assert report["difference_monoid_law"] and not report["ok"]


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
    c_delta = PresentedBAlgebra(tw_delta, ("x",))
    report = compose_descent_check(
        c, c.structure({"x": (flat.el("x+1"),)}), c_delta,
        c_delta.structure({"x": (flat.el("x"), flat.el("1"))}),
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
    cc = pair_coefficients(g_struct, g_struct)
    if commutes(g_struct, g_struct, *cc):
        res = descend_d_structure(c, c.structure(g))
        assert commutes(res.structure, res.structure, *cc)
    # (m, n) = (1, 1): the commuting sigma/delta pair over QQ via dual x k
    # handled coordinatewise in test_commuting_pair_descends_to_commuting_pair


def test_tensor_compose_difference_case():
    s = PresentedRing.make(QQ, ("s",), [])
    t = PresentedRing.make(QQ, ("t",), [])
    f1 = DStructure.difference(s, {"s": s.el("s^2")})
    g1 = DStructure.difference(t, {"t": t.el("t+1")})
    f2 = DStructure.difference(s, {"s": s.el("s+1")})
    g2 = DStructure.difference(t, {"t": t.el("t^2")})
    assert tensor_compose_check(f1, f2, g1, g2, ())["ok"]


def test_tensor_compose_dual_numbers_case():
    s = PresentedRing.make(QQ, ("s",), [])
    t = PresentedRing.make(QQ, ("t",), [])
    dd = dual_numbers(QQ)
    f1 = DStructure(s, dd, {"s": (s.var("s"), s.el("s^2"))})
    g1 = DStructure(t, dd, {"t": (t.var("t"), t.one)})
    f2 = DStructure(s, dd, {"s": (s.var("s"), s.one)})
    g2 = DStructure(t, dd, {"t": (t.var("t"), t.el("t"))})
    assert tensor_compose_check(f1, f2, g1, g2, ())["ok"]


def test_tensor_compose_identity_case():
    s = PresentedRing.make(QQ, ("s",), [])
    t = PresentedRing.make(QQ, ("t",), [])
    dd = dual_numbers(QQ)
    ids = DStructure.identity(s, dd)
    idt = DStructure.identity(t, dd)
    assert tensor_compose_check(ids, ids, idt, idt, ())["ok"]


def test_tensor_associated_endomorphisms_factorwise():
    s = PresentedRing.make(QQ, ("s",), [])
    t = PresentedRing.make(QQ, ("t",), [])
    dd = dual_numbers(QQ)
    f = DStructure(s, dd, {"s": (s.el("s"), s.el("s^2"))})
    g = DStructure(t, dd, {"t": (t.el("t"), t.one)})
    assert check_tensor_associated_endos(f, g, ())
    dk = difference_algebra(GF(5))
    s5 = PresentedRing.make(GF(5), ("s",), [])
    t5 = PresentedRing.make(GF(5), ("t",), [])
    f5 = DStructure.difference(s5, {"s": s5.el("s^2")})
    g5 = DStructure.difference(t5, {"t": t5.el("t+1")})
    assert check_tensor_associated_endos(f5, g5, ())
    d2 = product_of_fields(QQ, 2)
    fp = DStructure(s, d2, {"s": (s.el("s+1"), s.el("s^2"))})
    gp = DStructure(t, d2, {"t": (t.el("t"), t.el("t^3"))})
    assert check_tensor_associated_endos(fp, gp, ())
