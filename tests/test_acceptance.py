"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each criterion prints a single PASS/FAIL line (run with -s or -v to see
them).  All comparisons are exact; the time limits are the stated budgets.
"""

import contextlib
import json
import random
import time

import pytest

from descent_kit import (
    GF,
    QQ,
    DStructure,
    OperatorTower,
    Polynomial,
    PresentedBAlgebra,
    PresentedRing,
    StructureAlgebra,
    adjoint_evidence,
    adjunction_audit,
    associated_matrix,
    compose_descent_check,
    descend_d_structure,
    difference_algebra,
    dual_numbers,
    dual_numbers_times_field,
    parse_polynomial,
    product_of_fields,
    rederive_images,
    truncated_jets,
    verify_d_hom,
    weil_descend,
)
from descent_kit.cli import main as cli_main
from descent_kit.errors import NonInvertibleMatrix, NotAUnit
from conftest import (FIXTURES, dual_basis_algebra, endo_images, endo_matrix, field_inverse,
                      random_tower, scaled)
from paper_checks import (
    change_of_basis_check,
    check_tensor_associated_endos,
    descend_morphism,
    tensor_compose_check,
)


@contextlib.contextmanager
def criterion(number, label, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL (too slow)"
    print(f"ACCEPTANCE {number} ({label}): {status} ({elapsed:.2f}s < {limit_seconds}s)")
    assert elapsed < limit_seconds


def _projection_tower(field):
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    return OperatorTower(DStructure.identity(a, d), b, {"eps": (b.flat_ring().zero,)})


def _identity_tower(field):
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    return OperatorTower(DStructure.identity(a, d), b, {"eps": (b.flat_ring().var("eps"),)})


def _differential_tower():
    a = PresentedRing.base_field(QQ)
    b = StructureAlgebra(
        a, ("1", "y"),
        [[[a.one, a.zero], [a.zero, a.one]], [[a.zero, a.one], [a.zero, a.zero]]],
    )
    d = dual_numbers(QQ)
    y = b.flat_ring().var("y")
    return OperatorTower(DStructure.identity(a, d), b, {"y": (y, y)})


def test_criterion_1_introduction_counterexample(tmp_path):
    with criterion(1, "introduction counterexample", 1.0):
        out = tmp_path / "matrix.json"
        code = cli_main(["matrix", "--input", str(FIXTURES / "introduction.json"),
                         "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["matrix"] == [["1", "0"], ["0", "0"]]

        out2 = tmp_path / "descend.json"
        code = cli_main(["descend", "--input", str(FIXTURES / "introduction.json"),
                         "--output", str(out2)])
        assert code == 2
        report2 = json.loads(out2.read_text())
        assert report2["error"] == "NonInvertibleMatrix"

        tower = _projection_tower(QQ)
        c = PresentedBAlgebra(tower, ("x",))
        with pytest.raises(NonInvertibleMatrix):
            descend_d_structure(c, c.structure({"x": (c.flat_ring.el("eps"),)}))


def test_criterion_2_frobenius_example():
    with criterion(2, "squaring structure over GF(2)", 1.0):
        field = GF(2)
        tower = _identity_tower(field)
        c = PresentedBAlgebra(tower, ("t",))
        res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t^2", field),)}))
        ring = res.descended
        assert ring.render(res.structure.images["t(1)"][0]) == "t(1)^2"
        assert res.structure.images["t(2)"][0].is_zero()
        classical = weil_descend(c)
        w_rho = descend_morphism({"t": c.flat_ring.el("t^2")}, classical, classical)
        assert ring.equal(w_rho["t(1)"], res.structure.images["t(1)"][0])
        assert ring.equal(w_rho["t(2)"], res.structure.images["t(2)"][0])


def test_criterion_3_twist_matrix_over_polynomial_ring():
    with criterion(3, "non-unit twist over K[x]", 1.0):
        kx = PresentedRing.make(QQ, ("x",), [])
        b = dual_basis_algebra(kx)
        m = endo_matrix(b, [b.basis_el(0), scaled(b.basis_el(1), kx.var("x"))])
        assert m.render() == [["1", "0"], ["0", "x"]]
        with pytest.raises(NotAUnit):
            kx.unit_inverse(m.det())
        with pytest.raises(NonInvertibleMatrix):
            m.inverse()


def test_criterion_4_invertibility_theorem_randomized():
    with criterion(4, "matrix invertible iff endomorphism matrices are", 30.0):
        rng = random.Random(52901)
        builders = (
            dual_numbers,
            lambda f: product_of_fields(f, 2),
            lambda f: truncated_jets(f, 3),
            dual_numbers_times_field,
        )
        checked = mismatches = invertible = 0
        for field in (QQ, GF(5)):
            for build in builders:
                coeff = build(field)
                for kind in ("nil2", "split", "nil3"):
                    for _ in range(3):
                        tower = random_tower(field, coeff, kind, rng)
                        dm = associated_matrix(tower)
                        endos_ok = all(
                            endo_matrix(
                                tower.algebra, endo_images(tower, i)
                            ).is_invertible()
                            for i in range(coeff.factor_count)
                        )
                        if (dm.invertible == "yes") != endos_ok:
                            mismatches += 1
                        checked += 1
                        invertible += dm.invertible == "yes"
        assert checked >= 50
        assert mismatches == 0
        assert 0 < invertible < checked  # both outcomes genuinely sampled


def test_criterion_5_basis_change_invariance():
    with criterion(5, "coefficient basis change conjugates the matrix", 30.0):
        rng = random.Random(77004)
        builders = (
            dual_numbers,
            lambda f: product_of_fields(f, 2),
            lambda f: truncated_jets(f, 3),
            dual_numbers_times_field,
        )
        checked = 0
        for field in (QQ, GF(5)):
            for build in builders:
                coeff = build(field)
                for kind in ("nil2", "split"):
                    for _ in range(2):
                        tower = random_tower(field, coeff, kind, rng)
                        while True:
                            x = [
                                [field.normalize(rng.randrange(5) - 2)
                                 for _ in range(coeff.dim)]
                                for _ in range(coeff.dim)
                            ]
                            if field_inverse(field, x) is not None:
                                break
                        assert change_of_basis_check(tower, x)
                        checked += 1
        assert checked >= 25


def test_criterion_6_adjunction_bijection_oracle():
    with criterion(6, "Hom-set bijection on the GF(2) instance", 5.0):
        field = GF(2)
        tower = _identity_tower(field)
        c = PresentedBAlgebra(tower, ("t",), [parse_polynomial("t^2", field)])
        res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t", field),)}))
        r = PresentedRing.make(field, ("u",), [parse_polynomial("u^2", field)])
        u = DStructure.identity(r, tower.coeff)
        report = adjunction_audit(res, u)
        assert report["downstairs_count"] == 8
        assert report["upstairs_count"] == 8
        assert report["ok"]


def test_criterion_7_differential_instance():
    with criterion(7, "differential descent with independent solve", 2.0):
        from fractions import Fraction

        tower = _differential_tower()
        c = PresentedBAlgebra(tower, ("t",))
        res = descend_d_structure(
            c, c.structure({"t": (parse_polynomial("t", QQ), parse_polynomial("t^2", QQ))})
        )
        ring = res.descended
        images = res.structure.images
        assert ring.render(images["t(1)"][1]) == "t(1)^2"
        assert ring.render(images["t(2)"][1]) == "2*t(1)*t(2) - t(2)"

        # independent 4x4 fraction Gaussian solve, monomial by monomial
        m_rows = [
            [Fraction(e.constant_value()) for e in row]
            for row in res.matrix.matrix.rows
        ]
        rhs = []
        for j in range(2):
            img = res.classical.evaluate_under_unit(res.c_structure.images["t"][j])
            rhs.extend(img.coords[:2])
        monomials = sorted({m for p in rhs for m in p.terms}, key=ring.order.key)
        solved = [dict() for _ in range(4)]
        for mono in monomials:
            a = [row[:] + [Fraction(p.terms.get(mono, 0))]
                 for row, p in zip(m_rows, rhs)]
            for col in range(4):
                piv = next(r for r in range(col, 4) if a[r][col] != 0)
                a[col], a[piv] = a[piv], a[col]
                a[col] = [x / a[col][col] for x in a[col]]
                for r in range(4):
                    if r != col and a[r][col] != 0:
                        f = a[r][col]
                        a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            for idx in range(4):
                if a[idx][4]:
                    solved[idx][mono] = a[idx][4]
        for j in range(2):
            for i, name in enumerate(("t(1)", "t(2)")):
                # entry (i, j) of a flattened vector sits at j r + i
                oracle = Polynomial(QQ, solved[j * res.matrix.r + i])
                assert ring.equal(oracle, images[name][j])

        # Leibniz on 20 random pairs
        rng = random.Random(5150)
        pool = ["t(1)", "t(2)", "t(1)*t(2)", "t(1)^2+1", "t(2)^2-t(1)",
                "3*t(1)-t(2)", "t(1)^3", "t(2)+2"]
        for _ in range(20):
            p, q = ring.el(rng.choice(pool)), ring.el(rng.choice(pool))
            lhs = res.structure.coordinate_op(2, ring.nf(p * q))
            rhs2 = ring.nf(res.structure.coordinate_op(2, p) * q
                           + p * res.structure.coordinate_op(2, q))
            assert ring.equal(lhs, rhs2)


def test_criterion_8_certificate_suite():
    with criterion(8, "certificates on every successful descent", 30.0):
        fixture_runs = []

        field = GF(2)
        tower = _identity_tower(field)
        c = PresentedBAlgebra(tower, ("t",))
        fixture_runs.append(
            (c, descend_d_structure(c, c.structure({"t": (parse_polynomial("t^2", field),)})))
        )
        c2 = PresentedBAlgebra(tower, ("t",), [parse_polynomial("t^2", field)])
        fixture_runs.append(
            (c2, descend_d_structure(c2, c2.structure({"t": (parse_polynomial("t", field),)})))
        )
        c3 = PresentedBAlgebra(_differential_tower(), ("t",))
        fixture_runs.append(
            (c3, descend_d_structure(
                c3, c3.structure({"t": (parse_polynomial("t", QQ), parse_polynomial("t^2", QQ))})
            ))
        )
        for c_alg, res in fixture_runs:
            # descent ideal closed under the pre-quotient structure
            gens = [g for g in res.classical.ideal_generators if not g.is_zero()]
            assert res.pre_structure.is_d_ideal(gens)
            # unit map is an operator homomorphism
            unit_images = {g: res.classical.unit_map()[g] for g in c_alg.generators}
            assert verify_d_hom(
                unit_images, res.c_structure, res.structure, res.matrix, res.classical
            )
            # uniqueness: independent Cramer re-derivation agrees exactly
            red = rederive_images(res)
            ring = res.descended
            for name, vec in red.items():
                for a, b in zip(vec, res.structure.images[name]):
                    assert ring.equal(a, b)
            assert all(cert["ok"] for cert in res.certificates)


def test_criterion_9_composition_suite():
    with criterion(9, "composition and commutation survive descent", 10.0):
        # difference-difference fixture over GF(2)
        field = GF(2)
        t1, t2 = _identity_tower(field), _identity_tower(field)
        c1 = PresentedBAlgebra(t1, ("t",))
        flat = c1.flat_ring
        c2 = PresentedBAlgebra(t2, ("t",))
        report = compose_descent_check(
            c1, c1.structure({"t": (flat.el("t^2"),)}),
            c2, c2.structure({"t": (flat.el("t+eps"),)}),
        )
        assert report["ok"]
        assert report["difference_monoid_law"]
        assert report["identity_descends_to_identity"]

        # commuting endomorphism/derivation pair over QQ
        a = PresentedRing.base_field(QQ)
        by = StructureAlgebra(
            a, ("1", "y"),
            [[[a.one, a.zero], [a.zero, a.one]],
             [[a.zero, a.one], [a.zero, a.zero]]],
        )
        dk, dd = difference_algebra(QQ), dual_numbers(QQ)
        y = by.flat_ring().var("y")
        tw_sigma = OperatorTower(DStructure.identity(a, dk), by, {"y": (y,)})
        tw_delta = OperatorTower(DStructure.identity(a, dd), by, {"y": (y, by.flat_ring().zero)})
        c = PresentedBAlgebra(tw_sigma, ("x",))
        flat2 = c.flat_ring
        c_delta = PresentedBAlgebra(tw_delta, ("x",))
        report2 = compose_descent_check(
            c, c.structure({"x": (flat2.el("x+1"),)}), c_delta,
            c_delta.structure({"x": (flat2.el("x"), flat2.el("1"))}),
        )
        assert report2["ok"]
        assert report2["inputs_commute"] and report2["descents_commute"]

        # tensor compatibility of composition
        s = PresentedRing.make(QQ, ("s",), [])
        t = PresentedRing.make(QQ, ("t",), [])
        f1 = DStructure.difference(s, {"s": s.el("s^2")})
        g1 = DStructure.difference(t, {"t": t.el("t+1")})
        f2 = DStructure.difference(s, {"s": s.el("s+1")})
        g2 = DStructure.difference(t, {"t": t.el("t^2")})
        assert tensor_compose_check(f1, f2, g1, g2, ())["ok"]
        fd = DStructure(s, dual_numbers(QQ), {"s": (s.var("s"), s.el("s^2"))})
        gd = DStructure(t, dual_numbers(QQ), {"t": (t.var("t"), t.one)})
        fd2 = DStructure(s, dual_numbers(QQ), {"s": (s.var("s"), s.one)})
        gd2 = DStructure(t, dual_numbers(QQ), {"t": (t.var("t"), t.el("t"))})
        assert tensor_compose_check(fd, fd2, gd, gd2, ())["ok"]

        # associated endomorphisms of tensor structures act factorwise
        assert check_tensor_associated_endos(fd, gd, ())
        assert check_tensor_associated_endos(f1, g1, ())


def test_criterion_10_adjoint_evidence():
    with criterion(10, "unsolvable unit system as obstruction evidence", 1.0):
        tower = _projection_tower(QQ)
        b = tower.algebra
        report = adjoint_evidence(tower, [b.basis_el(1)])
        assert report["system_rhs"] == ["0", "1"]
        assert report["system_matrix"] == [["1", "0"], ["0", "0"]]
        assert report["solvable"] is False
