"""Classical descent: presentations, the unit map, both bijection directions."""

import pytest

from descent_kit import (
    GF,
    DStructure,
    OperatorTower,
    PresentedBAlgebra,
    PresentedRing,
    descend_d_structure,
    difference_algebra,
    parse_polynomial,
    product_of_fields,
    tau_forward,
    tau_inverse,
    weil_descend,
)
from descent_kit.errors import NotAHomomorphism
from conftest import dual_basis_algebra, target_elements
from paper_checks import descend_morphism, descended_endomorphisms_check


@pytest.fixture
def f2_tower():
    field = GF(2)
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    return OperatorTower(DStructure.identity(a, d), b, {"eps": (b.flat_ring().var("eps"),)})


def test_free_algebra_descends_to_polynomials(f2_tower):
    c = PresentedBAlgebra(f2_tower, ("t",))
    res = weil_descend(c)
    assert res.descended.variables == ("t(1)", "t(2)")
    assert len(res.descended.relations.generators) == 0
    unit = res.unit_map()["t"]
    assert [res.descended.render(x) for x in unit.coords] == ["t(1)", "t(2)"]


def test_square_zero_relation(f2_tower):
    c = PresentedBAlgebra(
        f2_tower, ("t",), [parse_polynomial("t^2", GF(2))]
    )
    res = weil_descend(c)
    assert [str(g) for g in res.descended.relations.generators] == ["t(1)^2"]


def test_collapsing_relation(f2_tower):
    c = PresentedBAlgebra(f2_tower, ("t",), [parse_polynomial("t", GF(2))])
    res = weil_descend(c)
    rendered = {str(g) for g in res.descended.relations.generators}
    assert rendered == {"t(1)", "t(2)"}
    assert len(res.descended.staircase()) == 1


def test_unit_map_kills_relations_in_tensor(f2_tower):
    c = PresentedBAlgebra(f2_tower, ("t",), [parse_polynomial("t^2+t", GF(2))])
    res = weil_descend(c)
    image = res.evaluate_under_unit(parse_polynomial("t^2+t", GF(2)))
    assert image.is_zero()


def test_descend_morphism_examples(f2_tower):
    c = PresentedBAlgebra(f2_tower, ("t",))
    res = weil_descend(c)
    flat = c.flat_ring
    # identity
    ident = descend_morphism({"t": flat.el("t")}, res, res)
    assert str(ident["t(1)"]) == "t(1)" and str(ident["t(2)"]) == "t(2)"
    # frobenius-style square: injective upstairs, not injective downstairs
    rho = descend_morphism({"t": flat.el("t^2")}, res, res)
    assert str(rho["t(1)"]) == "t(1)^2"
    assert rho["t(2)"].is_zero()
    # shift by 1
    shift = descend_morphism({"t": flat.el("t+1")}, res, res)
    assert str(shift["t(1)"]) == "t(1) + 1"
    assert str(shift["t(2)"]) == "t(2)"


def test_descend_morphism_functorial(f2_tower):
    c = PresentedBAlgebra(f2_tower, ("t",))
    res = weil_descend(c)
    flat = c.flat_ring
    ring = res.descended

    h1 = {"t": flat.el("t^2")}
    h2 = {"t": flat.el("t+eps")}
    w1 = descend_morphism(h1, res, res)
    w2 = descend_morphism(h2, res, res)
    # (h1 o h2)(t) = h1(t+eps) = t^2 + eps; as generator images the inner
    # map's image is substituted into by the outer map's images
    composed_upstairs = {"t": flat.nf(h2["t"].substitute({"t": h1["t"]}))}
    assert flat.equal(composed_upstairs["t"], flat.el("t^2+eps"))
    w12 = descend_morphism(composed_upstairs, res, res)
    for name in ("t(1)", "t(2)"):
        assert ring.equal(w12[name], ring.nf(w2[name].substitute(w1)))
    # identity descends to the identity
    ident = descend_morphism({"t": flat.el("t")}, res, res)
    assert str(ident["t(1)"]) == "t(1)"


def test_zero_generator_algebra_descends_to_base(f2_tower):
    c = PresentedBAlgebra(f2_tower, ())
    res = weil_descend(c)
    assert res.descended.variables == ()
    # the one structure map: tau of the empty image set
    phi = tau_forward({}, res.descended, res)
    assert phi == {}


def test_naturality_square(f2_tower):
    """F(W(h)) after the unit map equals the unit map after h."""
    c = PresentedBAlgebra(f2_tower, ("t",))
    res = weil_descend(c)
    flat = c.flat_ring
    for image_text in ("t^2", "t+eps", "t+1"):
        h = {"t": flat.el(image_text)}
        w_h = descend_morphism(h, res, res)
        # right-hand route: push h(t) through the unit map of C'
        rhs = res.evaluate_under_unit(h["t"])
        # left-hand route: apply W(h) to the coordinates of the unit image
        unit = res.unit_map()["t"]
        ext = res.tensor_algebra()
        lhs = ext.element([res.descended.nf(coord.substitute(w_h)) for coord in unit.coords])
        assert lhs.coords == rhs.coords


def test_tau_forward_identity_is_unit_map(f2_tower):
    c = PresentedBAlgebra(f2_tower, ("t",), [parse_polynomial("t^2", GF(2))])
    res = weil_descend(c)
    ring = res.descended
    phi = {name: ring.var(name) for name in ("t(1)", "t(2)")}
    psi = tau_forward(phi, ring, res)
    assert psi["t"].coords == res.unit_map()["t"].coords


def test_tau_forward_respects_relations(f2_tower):
    c = PresentedBAlgebra(f2_tower, ("t",), [parse_polynomial("t^2", GF(2))])
    res = weil_descend(c)
    r = PresentedRing.make(GF(2), ("u",), [parse_polynomial("u^2", GF(2))])
    psi = tau_forward({"t(1)": r.var("u"), "t(2)": r.zero}, r, res)
    ext = res.tensor_algebra(r)
    assert (psi["t"] * psi["t"]).is_zero()
    with pytest.raises(NotAHomomorphism):
        tau_forward({"t(1)": r.one, "t(2)": r.zero}, r, res)


def test_tau_inverse_extracts_coordinates(f2_tower):
    c = PresentedBAlgebra(f2_tower, ("t",), [parse_polynomial("t^2", GF(2))])
    res = weil_descend(c)
    r = PresentedRing.make(GF(2), ("u",), [parse_polynomial("u^2", GF(2))])
    ext = res.tensor_algebra(r)
    psi = {"t": ext.element([r.var("u"), r.zero])}
    phi = tau_inverse(psi, r, res)
    assert phi["t(1)"] == r.var("u") and phi["t(2)"].is_zero()
    # psi = unit map recovers the identity
    ring = res.descended
    psi_unit = {"t": res.unit_map()["t"]}
    phi_id = tau_inverse(psi_unit, ring, res)
    assert str(phi_id["t(1)"]) == "t(1)" and str(phi_id["t(2)"]) == "t(2)"


def test_tau_round_trips_on_every_hom(f2_tower):
    """Bijectivity at desk scale: forward then inverse is the identity on
    every B-algebra homomorphism C -> R (x) B."""
    c = PresentedBAlgebra(f2_tower, ("t",), [parse_polynomial("t^2", GF(2))])
    res = weil_descend(c)
    r = PresentedRing.make(GF(2), ("u",), [parse_polynomial("u^2", GF(2))])
    ext = res.tensor_algebra(r)
    count = 0
    for x1 in target_elements(r):
        for x2 in target_elements(r):
            psi = {"t": ext.element([x1, x2])}
            if not (psi["t"] * psi["t"]).is_zero():
                continue
            phi = tau_inverse(psi, r, res)
            back = tau_forward(phi, r, res)
            assert back["t"].coords == psi["t"].coords
            count += 1
    assert count == 8


def test_one_classical_descent_serves_every_tower_on_the_same_algebra(f2_tower):
    """W(C) depends on C as a B-algebra only: handed to the descent of C over
    another tower on the same B, with another D, it is used as it is, and
    that descent keeps the C it descended."""
    field = GF(2)
    rel = [parse_polynomial("t^2+t", field)]
    c1 = PresentedBAlgebra(f2_tower, ("t",), rel)
    res1 = descend_d_structure(c1, c1.structure({"t": (c1.flat_ring.var("t"),)}))
    b = f2_tower.algebra
    d2 = product_of_fields(field, 2)
    a = b.base
    tower2 = OperatorTower(DStructure.identity(a, d2), b,
                           DStructure.identity(b.flat_ring(), d2).images)
    c2 = PresentedBAlgebra(tower2, ("t",), rel)
    g2 = c2.structure({"t": DStructure.identity(c2.flat_ring, d2).images["t"]})
    res2 = descend_d_structure(c2, g2, res1.classical)
    assert res2.classical is res1.classical
    assert res2.c is c2
    report = descended_endomorphisms_check(res2)
    assert [entry["factor"] for entry in report["factors"]] == [1, 2] and report["ok"]
    assert weil_descend(c2).descended is res1.classical.descended
    c3 = PresentedBAlgebra(tower2, ("t",), [parse_polynomial("t^2", field)])
    g3 = c3.structure({"t": DStructure.identity(c3.flat_ring, d2).images["t"]})
    with pytest.raises(ValueError, match="the classical descent belongs to a different algebra"):
        descend_d_structure(c3, g3, res1.classical)
