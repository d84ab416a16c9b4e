"""Descent of operator structures: the pipeline, its certificates, the gates."""

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
    descend_d_structure,
    difference_algebra,
    dual_numbers,
    parse_polynomial,
    rederive_images,
    verify_d_hom,
    weil_descend,
)
from descent_kit import dalgebra, weil_d
from descent_kit.errors import NonInvertibleMatrix, NotADHomomorphism
from conftest import COEFF_BUILDERS, dual_basis_algebra, random_tower
from paper_checks import (
    descend_morphism, descended_endomorphisms_check, tau_d_forward, tau_d_inverse,
)


def f2_identity_tower():
    field = GF(2)
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    return OperatorTower(DStructure.identity(a, d), b, {"eps": (b.flat_ring().var("eps"),)})


def differential_tower():
    a = PresentedRing.base_field(QQ)
    b = StructureAlgebra(
        a, ("1", "y"),
        [[[a.one, a.zero], [a.zero, a.one]], [[a.zero, a.one], [a.zero, a.zero]]],
    )
    d = dual_numbers(QQ)
    y = b.flat_ring().var("y")
    return OperatorTower(DStructure.identity(a, d), b, {"y": (y, y)})


def test_frobenius_square_descends(rng):
    tower = f2_identity_tower()
    c = PresentedBAlgebra(tower, ("t",))
    res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t^2", GF(2)),)}))
    ring = res.descended
    assert ring.render(res.structure.images["t(1)"][0]) == "t(1)^2"
    assert res.structure.images["t(2)"][0].is_zero()
    # same answer through the plain morphism descent (the map is B-algebraic)
    classical = weil_descend(c)
    w_rho = descend_morphism({"t": c.flat_ring.el("t^2")}, classical, classical)
    assert ring.equal(w_rho["t(1)"], res.structure.images["t(1)"][0])
    assert ring.equal(w_rho["t(2)"], res.structure.images["t(2)"][0])
    # injectivity is not preserved: t(2) -> 0 collapses a variable
    assert descended_endomorphisms_check(res)["ok"]


def test_endomorphism_check_reuses_the_classical_descent(monkeypatch):
    """Each factor's difference subtower keeps B, so the check descends it
    over the W(C) the result already holds and computes no other."""
    tower = f2_identity_tower()
    c = PresentedBAlgebra(tower, ("t",))
    res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t^2", GF(2)),)}))
    calls = [0]
    real = weil_d.weil_descend

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(weil_d, "weil_descend", counted)
    assert descended_endomorphisms_check(res)["ok"]
    assert calls[0] == 0


def test_endomorphism_check_builds_one_difference_algebra(monkeypatch):
    """Every associated endomorphism and every difference subtower of the
    QQ differential example lives over the one D = k the check builds, so
    it builds at most that one."""
    tower = differential_tower()
    c = PresentedBAlgebra(tower, ("t",))
    res = descend_d_structure(
        c, c.structure({"t": (parse_polynomial("t", QQ), parse_polynomial("t^2", QQ))})
    )
    calls = [0]
    real = dalgebra.build_d_algebra

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(dalgebra, "build_d_algebra", counted)
    assert descended_endomorphisms_check(res)["ok"]
    assert calls[0] <= 1


def test_projection_structure_obstructs():
    field = QQ
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    tower = OperatorTower(DStructure.identity(a, d), b, {"eps": (b.flat_ring().zero,)})
    c = PresentedBAlgebra(tower, ("x",))
    with pytest.raises(NonInvertibleMatrix) as err:
        descend_d_structure(c, c.structure({"x": (c.flat_ring.el("eps"),)}))
    assert err.value.witness == "column 2 has no nonzero pivot after elimination"
    assert err.value.matrix == [["1", "0"], ["0", "0"]]


def test_differential_instance():
    tower = differential_tower()
    c = PresentedBAlgebra(tower, ("t",))
    res = descend_d_structure(
        c, c.structure({"t": (parse_polynomial("t", QQ), parse_polynomial("t^2", QQ))})
    )
    ring = res.descended
    images = res.structure.images
    assert ring.render(images["t(1)"][0]) == "t(1)"
    assert ring.render(images["t(2)"][0]) == "t(2)"
    assert ring.render(images["t(1)"][1]) == "t(1)^2"
    assert ring.render(images["t(2)"][1]) == "2*t(1)*t(2) - t(2)"

    # Leibniz rule holds for the coordinate-2 operator on random pairs
    rng = random.Random(23)
    pool = ["t(1)", "t(2)", "t(1)*t(2)", "t(1)^2+1", "t(2)^2-t(1)", "3*t(1)-t(2)"]
    for _ in range(20):
        p, q = ring.el(rng.choice(pool)), ring.el(rng.choice(pool))
        lhs = res.structure.coordinate_op(2, ring.nf(p * q))
        rhs = ring.nf(
            res.structure.coordinate_op(2, p) * q + p * res.structure.coordinate_op(2, q)
        )
        assert ring.equal(lhs, rhs)

    # associated endomorphism of the descent is the identity
    rep = descended_endomorphisms_check(res)
    assert rep["ok"] and rep["factors"][0]["identity_descends_to_identity"]

    # a descended structure whose associated endomorphism moves t(1) fails both
    images = dict(res.structure.images)
    images["t(1)"] = (ring.el("t(1) + 1"), images["t(1)"][1])
    wrong = DStructure(ring, res.structure.coeff, images, base=res.structure.base)
    rep = descended_endomorphisms_check(DDescentResult(
        res.c, res.classical, wrong, res.pre_structure, res.matrix, res.c_structure,
        res.certificates))
    assert rep["factors"] == [{"factor": 1, "difference_descent_matches": False,
                               "identity_descends_to_identity": False}]
    assert not rep["ok"]


def test_independent_linear_solve_oracle():
    """Generic fraction Gaussian elimination on the 4x4 system reproduces the
    descended differential images."""
    from fractions import Fraction

    tower = differential_tower()
    c = PresentedBAlgebra(tower, ("t",))
    res = descend_d_structure(
        c, c.structure({"t": (parse_polynomial("t", QQ), parse_polynomial("t^2", QQ))})
    )
    ring = res.descended

    # solve M v = rhs over Q coefficient-wise per monomial, entirely separate
    # from the package's matrix code
    m_rows = [
        [Fraction(e.constant_value()) if e.is_constant() else None for e in row]
        for row in res.matrix.matrix.rows
    ]
    assert all(x is not None for row in m_rows for x in row)
    rhs = []
    g_struct = res.c_structure
    for j in range(2):
        image = res.classical.evaluate_under_unit(g_struct.images["t"][j])
        for i in range(2):
            rhs.append(image.coords[i])
    # rhs entries are polynomials; solve the scalar system per monomial
    monomials = sorted({m for p in rhs for m in p.terms}, key=ring.order.key)
    solution = [dict() for _ in range(4)]
    for mono in monomials:
        column = [Fraction(p.terms.get(mono, Fraction(0))) for p in rhs]
        # gaussian elimination on a copy of m_rows
        a = [row[:] + [column[idx]] for idx, row in enumerate(m_rows)]
        n = 4
        for col in range(n):
            piv = next(r for r in range(col, n) if a[r][col] != 0)
            a[col], a[piv] = a[piv], a[col]
            scale = a[col][col]
            a[col] = [x / scale for x in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        for idx in range(n):
            if a[idx][n]:
                solution[idx][mono] = a[idx][n]
    from descent_kit import Polynomial

    expected = {
        (name, j): res.structure.images[name][j]
        for name in ("t(1)", "t(2)")
        for j in range(2)
    }
    for j in range(2):
        for i, name in enumerate(("t(1)", "t(2)")):
            # entry (i, j) of a flattened vector sits at j r + i
            got = Polynomial(QQ, solution[j * res.matrix.r + i])
            assert ring.equal(got, expected[(name, j)])


def test_verify_d_hom_gates():
    tower = f2_identity_tower()
    c = PresentedBAlgebra(tower, ("t",))
    res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t^2", GF(2)),)}))
    unit_images = {"t": res.classical.unit_map()["t"]}
    assert verify_d_hom(
        unit_images, res.c_structure, res.structure, res.matrix, res.classical
    )
    # perturb the structure downstairs: no longer an operator homomorphism
    ring = res.descended
    wrong = DStructure(
        ring, tower.coeff,
        {"t(1)": (ring.el("t(1)^2+t(2)"),), "t(2)": (ring.zero,)},
    )
    assert not verify_d_hom(unit_images, res.c_structure, wrong, res.matrix, res.classical)


def test_introduction_candidate_fails_for_every_target_structure():
    """The inconsistent 2x2 system: no structure on the classical descent
    makes the unit map an operator homomorphism when f is the projection."""
    field = QQ
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    tower = OperatorTower(DStructure.identity(a, d), b, {"eps": (b.flat_ring().zero,)})
    c = PresentedBAlgebra(tower, ("x",))
    g_struct = c.structure({"x": (c.flat_ring.el("eps"),)})
    classical = weil_descend(c)
    matrix = associated_matrix(tower)
    ring = classical.descended
    unit_images = {"x": classical.unit_map()["x"]}
    for image in (ring.var("x(1)"), ring.var("x(2)"), ring.one, ring.zero):
        candidate = DStructure(
            ring, d, {"x(1)": (image,), "x(2)": (ring.el("x(2)"),)}
        )
        assert not verify_d_hom(unit_images, g_struct, candidate, matrix, classical)


def test_degenerate_rank_one_descent():
    """B = A: descent is the identity and every algebra map passes the gate."""
    field = GF(2)
    a = PresentedRing.base_field(field)
    b = StructureAlgebra(a, ("1",), [[[a.one]]])
    d = difference_algebra(field)
    tower = OperatorTower(DStructure.identity(a, d), b, {})
    c = PresentedBAlgebra(tower, ("t",))
    res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t^2", field),)}))
    assert res.descended.variables == ("t(1)",)
    assert res.descended.render(res.structure.images["t(1)"][0]) == "t(1)^2"


def test_rederivation_matches_on_random_towers(rng):
    """Uniqueness: the Cramer re-derivation reproduces the images exactly."""
    for field in (QQ, GF(5)):
        for name in ("dual", "pair_of_fields"):
            coeff = COEFF_BUILDERS[name](field)
            tower = None
            for _ in range(20):
                cand = random_tower(field, coeff, "split", rng)
                if associated_matrix(cand).inverse is not None:
                    tower = cand
                    break
            assert tower is not None
            c = PresentedBAlgebra(tower, ("t",), [parse_polynomial("t^2", field)])
            flat = c.flat_ring
            images = {
                "t": tuple(flat.el("t").scale(coeff.unit[k]) for k in range(coeff.dim))
            }
            res = descend_d_structure(c, c.structure(images))
            red = rederive_images(res)
            ring = res.descended
            for name2, vec in red.items():
                for aa, bb in zip(vec, res.structure.images[name2]):
                    assert ring.equal(aa, bb)


def test_tau_d_gates_and_roundtrip():
    tower = f2_identity_tower()
    c = PresentedBAlgebra(tower, ("t",), [parse_polynomial("t^2", GF(2))])
    res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t", GF(2)),)}))
    field = GF(2)
    r = PresentedRing.make(field, ("u",), [parse_polynomial("u^2", field)])
    u = DStructure.identity(r, tower.coeff)
    ring = res.descended
    phi = {"t(1)": r.var("u"), "t(2)": r.zero}
    psi = tau_d_forward(phi, u, res)
    back = tau_d_inverse(psi, u, res)
    assert back["t(1)"] == r.var("u") and back["t(2)"].is_zero()
    # identity on the descent passes, and the image is the unit map
    phi_id = {name: ring.var(name) for name in ring.variables}
    psi_id = tau_d_forward(phi_id, res.structure, res)
    assert psi_id["t"].coords == res.classical.unit_map()["t"].coords
    # with a different structure on R the same phi fails the gate
    shifted = DStructure.difference(r, {"u": r.zero})
    with pytest.raises(NotADHomomorphism):
        tau_d_forward({"t(1)": r.var("u"), "t(2)": r.zero}, shifted, res)


def test_certificates_on_fixture_set(rng):
    """Every successful descent carries a fully green certificate trail."""
    runs = []
    tower = f2_identity_tower()
    c = PresentedBAlgebra(tower, ("t",))
    runs.append(descend_d_structure(c, c.structure({"t": (parse_polynomial("t^2", GF(2)),)})))
    c_diff = PresentedBAlgebra(differential_tower(), ("t",))
    runs.append(
        descend_d_structure(
            c_diff,
            c_diff.structure({"t": (parse_polynomial("t", QQ), parse_polynomial("t^2", QQ))}),
        )
    )
    for res in runs:
        assert all(cert["ok"] for cert in res.certificates)
        checks = {cert["check"] for cert in res.certificates}
        assert "descent_ideal_closed" in checks
        assert "unit_is_operator_hom" in checks
        assert "uniqueness" in checks
        red = rederive_images(res)
        ring = res.descended
        for name, vec in red.items():
            for aa, bb in zip(vec, res.structure.images[name]):
                assert ring.equal(aa, bb)
