"""Composition of structures, the swap, commutation, and their descents."""

import json
import random

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
    associated_matrix,
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
from descent_kit.cli import main
from descent_kit.errors import CarrierMismatch
from conftest import (BASE_RELATIONS, COEFF_BUILDERS, FIXTURES, dual_basis_algebra,
                      label_images, monogenic_algebra, random_tower, scaled, zero_el)
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
    return OperatorTower(DStructure.identity(a, d), b, {"eps": (b.flat_ring().var("eps"),)})


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
    # the monoid law descends g1 o g2 over f1 o f2, the tower that
    # compose_towers(t2, t1, .) builds; seen[0] and seen[1] are t1 and t2
    real = compose.compose_towers
    built = []

    def compose_towers(first, second, cc):
        tower = real(first, second, cc)
        built.append((first, second, tower))
        return tower

    def over_f1_after_f2(c, g_structure, seen):
        return any(c.tower is tower and first is seen[1] and second is seen[0]
                   for first, second, tower in built)

    monkeypatch.setattr(compose, "compose_towers", compose_towers)
    report = _difference_check_with_one_wrong_descent(monkeypatch, over_f1_after_f2)
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
    y = by.flat_ring().var("y")
    tw_sigma = OperatorTower(DStructure.identity(a, dk), by, {"y": (y,)})
    tw_delta = OperatorTower(DStructure.identity(a, dd), by, {"y": (y, by.flat_ring().zero)})
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
    tw = OperatorTower(DStructure.identity(a, d2), b,
                       DStructure.identity(b.flat_ring(), d2).images)
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


# gamma over the swapped composite tower: two towers that do not commute,
# so f1 o f2 is not the swapped composite tower f2 o f1 reindexed

def test_gamma_holds_on_a_non_commuting_unit_pivot_pair(tmp_path):
    # a -> 2*a on A and y -> y on B against the first set's a -> a, y -> y + a*y
    problem = json.loads((FIXTURES / "unit_pivot.json").read_text())
    problem["second"]["A_images"] = {"a": ["2*a"]}
    problem["second"]["B_images"] = {"y": ["y"]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "report.json"
    assert main(["compose-check", "--input", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["inputs_commute"] is False
    assert report["theta_compatible"] and report["gamma_compatible"] and report["ok"]


def _dual_numbers_tower(algebra, w_image, w2_image):
    """(QQ, id) <= (B = QQ[w]/(w^3), f) over the dual numbers, f given on
    the labels w, w^2 as (sigma, delta) pairs of elements of B; validated."""
    dd = dual_numbers(QQ)
    tower = OperatorTower(DStructure.identity(algebra.base, dd), algebra,
                          label_images(algebra, [w_image, w2_image]))
    tower.validate()
    return tower


def test_gamma_holds_on_non_commuting_dual_number_towers():
    algebra = monogenic_algebra(PresentedRing.base_field(QQ), "nil3")
    w, w2, zero = algebra.basis_el(1), algebra.basis_el(2), zero_el(algebra)
    four = algebra.base.constant(4)
    # f1: sigma = id, delta(w) = w^2, so w^2 -> (w^2, 0);
    # f2: sigma(w) = 2 w, delta(w) = w, so w^2 -> (4 w^2, 4 w^2)
    t1 = _dual_numbers_tower(algebra, (w, w2), (w2, zero))
    t2 = _dual_numbers_tower(algebra, (scaled(w, algebra.base.constant(2)), w),
                             (scaled(w2, four), scaled(w2, four)))
    c1, c2 = PresentedBAlgebra(t1, ("x",)), PresentedBAlgebra(t2, ("x",))
    flat = c1.flat_ring
    g = {"x": (flat.var("x"), flat.zero)}
    cc, cc_swapped = pair_coefficients(t1.e, t2.e)
    # the swap permutes the four basis pairs
    assert [cc.pair_index[(q, p)] for p, q in cc_swapped.index_pair] != [0, 1, 2, 3]
    report = compose_descent_check(c1, c1.structure(g), c2, c2.structure(g))
    assert report["inputs_commute"] is False
    assert report["theta_compatible"] and report["gamma_compatible"] and report["ok"]


# (D1, D2) for the randomized compose checks: difference and derivation
# cases, and pairs of coefficient algebras of dimension 2 or 3 each
COEFF_PAIRS = [("difference", "dual"), ("dual", "difference"), ("dual", "dual"),
               ("dual", "pair_of_fields"), ("jets3", "dual"), ("dual_times_field", "difference")]
IMAGE_TERMS = ["0", "x", "x + 1", "2*x", "w*x", "x^2", "x + w"]


def _random_images(c, rng):
    """Random operator images of x on C = B[x], one term per coordinate of D,
    each times 1, or times a when A is k[a]/(relation)."""
    flat = c.flat_ring
    factors = ["1", *c.tower.base_ring.variables]
    return {"x": tuple(flat.mul(flat.el(rng.choice(IMAGE_TERMS)), flat.el(rng.choice(factors)))
                       for _ in range(c.tower.coeff.dim))}


def test_theta_and_gamma_hold_on_random_tower_pairs():
    """120 draws of two towers on one module algebra, A = k or k[a]/(relation);
    every draw whose two descent matrices are invertible is checked."""
    rng = random.Random(30)
    checked, both_wide, non_commuting = 0, 0, 0
    for field in (QQ, GF(5)):
        for names in COEFF_PAIRS:
            for _ in range(10):
                kind = rng.choice(("nil2", "split", "nil3"))
                base_relation = rng.choice((None, *BASE_RELATIONS))
                d1, d2 = (COEFF_BUILDERS[name](field) for name in names)
                t1 = random_tower(field, d1, kind, rng, base_relation)
                t2 = random_tower(field, d2, kind, rng, algebra=t1.algebra)
                if associated_matrix(t1).inverse is None or associated_matrix(t2).inverse is None:
                    continue
                c1, c2 = PresentedBAlgebra(t1, ("x",)), PresentedBAlgebra(t2, ("x",))
                report = compose_descent_check(c1, c1.structure(_random_images(c1, rng)),
                                               c2, c2.structure(_random_images(c2, rng)))
                assert report["theta_compatible"] and report["gamma_compatible"], (
                    field, names, kind, base_relation)
                checked += 1
                both_wide += d1.dim >= 2 and d2.dim >= 2
                non_commuting += not report["inputs_commute"]
    assert checked >= 25 and both_wide >= 10 and non_commuting >= 20
