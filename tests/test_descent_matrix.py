"""Endomorphism and structure matrices: assembly, inversion, invariance."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from descent_kit import (
    GF,
    QQ,
    DescentMatrix,
    DStructure,
    OperatorTower,
    PresentedRing,
    RingMatrix,
    StructureAlgebra,
    associated_matrix,
    change_of_basis_check,
    difference_algebra,
    dual_numbers,
    endo_matrix,
    invertibility_equivalences,
    tensor_coefficients,
)
from descent_kit import linear
from descent_kit.errors import NonInvertibleMatrix, SingularBasisChange
from conftest import (BASE_RELATIONS, COEFF_BUILDERS, dense_table, dual_basis_algebra,
                      random_tower)


def block(dm, m, j):
    """Block (m, j), 0-based, sliced out of the assembled matrix."""
    r = dm.r
    rows = dm.matrix.rows[m * r:(m + 1) * r]
    return RingMatrix(dm.matrix.ring, [row[j * r:(j + 1) * r] for row in rows])


def assert_defining_formula(tower, dm):
    """Every block of the assembled matrix equals its defining formula,
    (M_mj)_ni = sum_k a_jkm lambda_n(f_k(b_i)), summed over a dense table."""
    ring, r, l = tower.base_ring, tower.rank, tower.coeff.dim
    a = dense_table(ring.field, tower.coeff.cells)
    for m, j, n, i in itertools.product(range(l), range(l), range(r), range(r)):
        acc = ring.zero
        for k in range(l):
            acc = acc + tower.lambda_f(n, k, i).scale(a[j][k][m])
        assert ring.equal(block(dm, m, j).rows[n][i], acc)


def _dual_tower(field, f_on_eps):
    """(A, id) <= (B = A[eps]/(eps^2), f) in the difference case."""
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    e = DStructure.identity(a, d)
    images = {"1": [b.basis_el(0)], "eps": [f_on_eps(b)]}
    return OperatorTower(e, b, d, [images["1"], images["eps"]])


def test_projection_endomorphism_matrix():
    tower = _dual_tower(QQ, lambda b: b.zero_el())  # tau(eps) = 0
    m = endo_matrix(tower.algebra, tower.endo_images(0))
    assert m.render() == [["1", "0"], ["0", "0"]]


def test_twist_endomorphism_matrix_over_polynomial_ring():
    kx = PresentedRing.make(QQ, ("x",), [])
    b = dual_basis_algebra(kx)
    images = [b.basis_el(0), b.basis_el(1).scale(kx.var("x"))]
    m = endo_matrix(b, images)
    assert m.render() == [["1", "0"], ["0", "x"]]
    with pytest.raises(NonInvertibleMatrix) as err:
        m.inverse()
    assert "x" in str(err.value)


def test_identity_endomorphism_matrix():
    a = PresentedRing.base_field(QQ)
    b = dual_basis_algebra(a)
    m = endo_matrix(b, [b.basis_el(0), b.basis_el(1)])
    assert m == RingMatrix.identity(a, 2)


def test_associated_matrix_difference_case():
    tower = _dual_tower(QQ, lambda b: b.zero_el())
    dm = associated_matrix(tower)
    assert dm.render() == [["1", "0"], ["0", "0"]]
    assert (dm.inverse, dm.invertible) == (None, "no")
    assert dm.witness == "column 2 has no nonzero pivot after elimination"
    assert associated_matrix(tower) is dm


def test_associated_matrix_differential_case():
    # D = dual numbers, B = Q[y]/(y^2), f = id + delta(y)=y: M = [[I,0],[Delta,I]]
    a = PresentedRing.base_field(QQ)
    b = StructureAlgebra(
        a, ("1", "y"),
        [[[a.one, a.zero], [a.zero, a.one]], [[a.zero, a.one], [a.zero, a.zero]]],
    )
    d = dual_numbers(QQ)
    e = DStructure.identity(a, d)
    tower = OperatorTower(
        e, b, d, [[b.basis_el(0), b.zero_el()], [b.basis_el(1), b.basis_el(1)]]
    )
    dm = associated_matrix(tower)
    assert dm.render() == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "1", "0", "1"],
    ]
    assert_defining_formula(tower, dm)
    inv = dm.inverse
    assert dm.invertible == "yes" and dm.witness is None
    assert inv.render() == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "-1", "0", "1"],
    ]
    assert dm.matrix * inv == RingMatrix.identity(a, 4)
    assert inv * dm.matrix == RingMatrix.identity(a, 4)


@pytest.mark.parametrize("field", (QQ, GF(5)), ids=str)
@pytest.mark.parametrize("name", sorted(COEFF_BUILDERS))
def test_assembly_follows_the_defining_formula(name, field, rng):
    """The sparse assembly agrees with the dense defining formula on random
    towers over every standard coefficient algebra."""
    coeff = COEFF_BUILDERS[name](field)
    for kind in ("nil2", "split", "nil3"):
        tower = random_tower(field, coeff, kind, rng)
        assert_defining_formula(tower, associated_matrix(tower))


def test_identity_structure_gives_identity_matrix():
    field = GF(5)
    a = PresentedRing.base_field(field)
    b = dual_basis_algebra(a)
    d = difference_algebra(field)
    tower = OperatorTower(
        DStructure.identity(a, d), b, d, [[b.basis_el(0)], [b.basis_el(1)]]
    )
    dm = associated_matrix(tower)
    assert dm.matrix == RingMatrix.identity(a, 2)
    assert dm.inverse == RingMatrix.identity(a, 2)


def test_block_lower_triangular_in_stratified_basis(rng):
    """The shape ``associated_matrix`` no longer re-checks: zero blocks above
    the diagonal and the associated endomorphism matrices on it, for every
    standard coefficient algebra and one tensor product of two."""
    for field in (QQ, GF(5)):
        builders = [COEFF_BUILDERS[name](field) for name in sorted(COEFF_BUILDERS)]
        builders.append(tensor_coefficients(dual_numbers(field),
                                            COEFF_BUILDERS["pair_of_fields"](field)).product)
        for coeff, kind in itertools.product(builders, ("nil2", "split", "nil3")):
            tower = random_tower(field, coeff, kind, rng)
            dm = associated_matrix(tower)
            zero = RingMatrix(tower.base_ring, [[tower.base_ring.zero] * dm.r] * dm.r)
            for m in range(dm.l):
                for j in range(dm.l):
                    if m < j:
                        assert block(dm, m, j) == zero
            for j in range(dm.l):
                factor = coeff.factor_of[j]
                assert block(dm, j, j) == endo_matrix(
                    tower.algebra, tower.endo_images(factor)
                )


def test_invertibility_theorem_randomized(rng):
    """Matrix invertible iff every associated endomorphism matrix is.

    At least 50 randomized valid structures over QQ and GF(5), across the
    four standard coefficient algebras and three module-algebra families.
    """
    checked = 0
    mismatches = 0
    for field in (QQ, GF(5)):
        for name in ("dual", "pair_of_fields", "jets3", "dual_times_field"):
            coeff = COEFF_BUILDERS[name](field)
            for kind in ("nil2", "split", "nil3"):
                for _ in range(3):
                    tower = random_tower(field, coeff, kind, rng)
                    dm = associated_matrix(tower)
                    endos_ok = all(
                        endo_matrix(tower.algebra, tower.endo_images(factor)).is_invertible()
                        for factor in range(coeff.factor_count)
                    )
                    if (dm.invertible == "yes") != endos_ok:
                        mismatches += 1
                    if dm.invertible == "yes":
                        n = dm.r * dm.l
                        assert dm.matrix * dm.inverse == RingMatrix.identity(
                            tower.base_ring, n
                        )
                        assert dm.inverse * dm.matrix == RingMatrix.identity(
                            tower.base_ring, n
                        )
                    checked += 1
    assert checked >= 50
    assert mismatches == 0


def _random_invertible(field, size, rng):
    while True:
        rows = [
            [field.normalize(rng.randrange(5) - 2) for _ in range(size)]
            for _ in range(size)
        ]
        if linear.inverse(field, rows) is not None:
            return rows


def test_change_of_basis_invariance_randomized(rng):
    """Conjugation by the inflated change of basis, 25+ random instances."""
    checked = 0
    for field in (QQ, GF(5)):
        for name in ("dual", "pair_of_fields", "jets3", "dual_times_field"):
            coeff = COEFF_BUILDERS[name](field)
            for kind in ("nil2", "split"):
                for _ in range(2):
                    tower = random_tower(field, coeff, kind, rng)
                    x = _random_invertible(field, coeff.dim, rng)
                    assert change_of_basis_check(tower, x)
                    checked += 1
    assert checked >= 25


def test_change_of_basis_identity_and_dual_example(rng):
    tower = _dual_tower(QQ, lambda b: b.basis_el(1))
    # X = identity
    assert change_of_basis_check(tower, [[QQ.one]])
    # dual-number coefficients with eta = {1, 1+eps}
    coeff = dual_numbers(QQ)
    towerd = random_tower(QQ, coeff, "nil2", rng)
    x = [[QQ.one, QQ.one], [QQ.zero, QQ.one]]
    assert change_of_basis_check(towerd, x)
    with pytest.raises(SingularBasisChange):
        change_of_basis_check(towerd, [[QQ.one, QQ.one], [QQ.one, QQ.one]])


def test_invertibility_equivalences_examples():
    tower = _dual_tower(QQ, lambda b: b.zero_el())
    report = invertibility_equivalences(tower.algebra, tower.endo_images(0))
    assert report["all_agree"] and not report["matrix_invertible_given_basis"]

    a = PresentedRing.base_field(QQ)
    b = dual_basis_algebra(a)
    report_id = invertibility_equivalences(b, [b.basis_el(0), b.basis_el(1)])
    assert report_id["all_agree"] and report_id["matrix_invertible_given_basis"]

    kx = PresentedRing.make(QQ, ("x",), [])
    bx = dual_basis_algebra(kx)
    report_x = invertibility_equivalences(
        bx, [bx.basis_el(0), bx.basis_el(1).scale(kx.var("x"))]
    )
    assert report_x["all_agree"] and not report_x["sigma_of_basis_is_basis"]


def test_invertibility_equivalences_random_agreement(rng):
    for field in (QQ, GF(5)):
        coeff = difference_algebra(field)
        for kind in ("nil2", "split", "nil3"):
            for _ in range(4):
                tower = random_tower(field, coeff, kind, rng)
                report = invertibility_equivalences(tower.algebra, tower.endo_images(0))
                assert report["all_agree"]


def test_bijectivity_matches_matrix_over_field_base():
    """Over A = k[i]/(i^2+1) with conjugation on A: the matrix of sigma is
    invertible exactly when sigma is bijective as a k-linear map on B."""
    a = PresentedRing.make(QQ, ("i",), [PresentedRing.make(QQ, ("i",), []).el("i^2+1")])
    b = dual_basis_algebra(a, label="y")
    conj = {"i": a.el("-i")}

    def k_linear_rank(sigma_a_images, sigma_b_images):
        a_basis = a.staircase()
        rows = []
        for s in a_basis:
            from descent_kit import Polynomial
            s_poly = Polynomial(a.field, {s: a.field.one})
            sigma_s = a.nf(s_poly.substitute({v: conj[v] for v in conj}))
            for idx in range(b.rank):
                image = sigma_b_images[idx].scale(sigma_s)
                row = []
                for coord in image.coords:
                    row.extend(a.coordinates(coord, a_basis))
                rows.append(row)
        return linear.rank(a.field, rows)

    dim = len(a.staircase()) * b.rank
    bij = [b.basis_el(0), b.basis_el(1).scale(a.var("i"))]  # sigma(y) = i y
    assert endo_matrix(b, bij).is_invertible()
    assert k_linear_rank(conj, bij) == dim

    nonbij = [b.basis_el(0), b.zero_el()]  # sigma(y) = 0
    assert not endo_matrix(b, nonbij).is_invertible()
    assert k_linear_rank(conj, nonbij) < dim


EXTENSION_RELATIONS = ["u^2", "u^2 - 1", "u*v - 1", "v^3 + u", "u^2 + v^2 - 2"]
VECTOR_ENTRIES = ["0", "1", "u", "v", "2*u*v - 1", "u^3 + v", "v^2 - u^2", "u*v^2"]


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([QQ, GF(5)]), coeff=st.sampled_from(sorted(COEFF_BUILDERS)),
       kind=st.sampled_from(["nil2", "split", "nil3"]), seed=st.integers(0, 2**16),
       base_relation=st.sampled_from((None, *BASE_RELATIONS)), data=st.data())
def test_matrix_over_a_applies_in_any_extension(field, coeff, kind, seed, base_relation, data):
    """The matrix over A acts on vectors over R, an extension of A by new
    variables and relations, exactly as the old lift route did: the same
    rows rebuilt as a RingMatrix over R (kept here as the reference).  A is
    k or k[a]/(base_relation); over the latter R's relations may tie u to
    a."""
    tower = random_tower(field, COEFF_BUILDERS[coeff](field), kind, random.Random(seed),
                         base_relation)
    pool = EXTENSION_RELATIONS + ([] if base_relation is None else ["u - a", "a*u - 1"])
    relations = data.draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
    a_ring = tower.base_ring
    free = a_ring.extend(("u", "v"))
    ring = a_ring.extend(("u", "v"), [free.el(rel) for rel in relations])
    dm = associated_matrix(tower)
    n = dm.matrix.nrows
    vectors = [[ring.el(data.draw(st.sampled_from(VECTOR_ENTRIES))) for _ in range(n)]
               for _ in range(2)]
    for matrix in (dm.matrix, dm.inverse):
        if matrix is None:
            continue
        lifted = RingMatrix(ring, matrix.rows)
        for vector in vectors:
            assert matrix.apply(vector, ring) == lifted.apply(vector)
    if dm.inverse is not None:
        assert dm.matrix.solve_cramer(vectors, ring) == RingMatrix(
            ring, dm.matrix.rows).solve_cramer(vectors)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([QQ, GF(5)]), a_relation=st.sampled_from(["a^2 - 2", "a^3"]),
       relations=st.lists(st.sampled_from(["u - a", "a*u - 1", "v^2 - a", "u*v + a^2"]),
                          max_size=2, unique=True),
       data=st.data())
def test_matrix_over_a_with_relations_applies_in_any_extension(field, a_relation, relations,
                                                               data):
    """Over A with a relation, and R relating its new variables to A's, the
    R-normal form of M v does not depend on re-normalizing M's entries in R,
    and the A-inverse of det(M) serves as its R-inverse."""
    free_a = PresentedRing.make(field, ("a",), [])
    a_ring = PresentedRing.make(field, ("a",), [free_a.el(a_relation)])
    free = a_ring.extend(("u", "v"))
    ring = a_ring.extend(("u", "v"), [free.el(rel) for rel in relations])
    pick = st.sampled_from(["0", "1", "2", "a", "a^2 + 1", "1 - a"])
    m = RingMatrix(a_ring, [[a_ring.el(data.draw(pick)) for _ in range(2)] for _ in range(2)])
    vectors = [[ring.el(data.draw(st.sampled_from(VECTOR_ENTRIES + ["a*u", "a^2*v"])))
                for _ in range(2)] for _ in range(2)]
    lifted = RingMatrix(ring, m.rows)
    for vector in vectors:
        assert m.apply(vector, ring) == lifted.apply(vector)
    if a_ring.is_unit(m.det()):
        assert m.solve_cramer(vectors, ring) == lifted.solve_cramer(vectors)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 6), l=st.integers(1, 6))
def test_pack_and_unpack_follow_position(r, l):
    """pack puts blocks[j][i] at position j r + i; unpack reads entry (i, j)
    of every j back for each i."""
    ring = PresentedRing.base_field(QQ)
    dm = DescentMatrix(r, l, RingMatrix.identity(ring, r * l))
    vector = dm.pack([[(i, j) for i in range(r)] for j in range(l)])
    assert len(vector) == r * l
    # entry (i, j), both 0-based, sits at position j r + i
    assert all(vector[j * r + i] == (i, j) for i in range(r) for j in range(l))
    assert dm.unpack(vector) == [tuple((i, j) for j in range(l)) for i in range(r)]
