"""Coefficient algebras: factor data validation, strata, projections.

The residue projections are read at the factor units; ``reference_projections``
keeps the linear solve that used to compute them, as an oracle.  The
references below keep what the jets family and the constant-fact rule
replaced:

- ``reference_difference_algebra`` and ``reference_dual_numbers`` are the
  literal tables ``difference_algebra`` and ``dual_numbers`` were built
  from before they became the jets of length 1 and 2;
- ``reference_constant_facts`` is the nested loop that checked the
  stratified-constant facts at the end of ``build_d_algebra``, over the
  dense table (``conftest.dense_table``) that the sparse cells replaced.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from descent_kit import (
    GF,
    QQ,
    PresentedRing,
    StructureAlgebra,
    build_d_algebra,
    difference_algebra,
    dual_numbers,
    dual_numbers_times_field,
    product_of_fields,
    tensor_coefficients,
    truncated_jets,
)
from descent_kit import dalgebra, linear
from descent_kit.errors import (
    BadIdempotents,
    NotLocalFactor,
    NotNilpotent,
    StrataMismatch,
)
from conftest import COEFF_BUILDERS, dense_table, random_tower, sparse_cells


def reference_projections(d):
    """The residue projections by the linear solve ``build_d_algebra`` used
    to run: pi_i(x) is the coefficient of the factor unit in u_i * x modulo
    the span of the maximal ideal."""
    field = d.field
    l = d.dim
    basis_vectors = [
        [field.one if q == p else field.zero for q in range(l)] for p in range(l)
    ]
    projections = []
    for i, (idem, m_span) in enumerate(d.factors):
        cols = [list(idem)] + [list(v) for v in m_span]
        mat = [list(col) for col in zip(*cols)]
        pi = []
        for q in range(l):
            target = linear.vec_mul(field, d.cells, list(idem), basis_vectors[q])
            sol = linear.solve(field, mat, target)
            if sol is None:
                raise NotLocalFactor(
                    f"factor {i + 1}: unit and maximal ideal do not span the factor"
                )
            pi.append(sol[0])
        projections.append(tuple(pi))
    return tuple(projections)


def unit_coordinates(d):
    """The projections as the unit-coordinate reading gives them."""
    field = d.field
    return tuple(
        tuple(field.one if q == unit else field.zero for q in range(d.dim))
        for unit in d.factor_units
    )


def test_dual_numbers_strata():
    d = dual_numbers(QQ)
    assert d.strata == (((0,), (1,)),)
    assert d.factor_of == (0, 0)
    assert d.stratum_of == (0, 1)
    assert d.unit == (QQ.one, QQ.zero)


def test_two_copies_of_k():
    d = product_of_fields(QQ, 2)
    assert d.strata == (((0,),), ((1,),))
    assert d.factor_units == (0, 1)
    assert reference_projections(d) == ((QQ.one, QQ.zero), (QQ.zero, QQ.one))
    assert d.unit == (QQ.one, QQ.one)


def test_dual_numbers_times_field():
    d = dual_numbers_times_field(GF(2))
    assert d.strata == (((0,), (1,)), ((2,),))
    assert d.factor_of == (0, 0, 1)


def test_truncated_jets_strata():
    d = truncated_jets(QQ, 3)
    assert d.strata == (((0,), (1,), (2,)),)
    assert d.stratum_of == (0, 1, 2)


def test_difference_case_is_degenerate():
    d = difference_algebra(GF(5))
    assert d.dim == 1 and d.factor_count == 1
    assert d.factor_units == (0,)
    assert reference_projections(d) == ((GF(5).one,),)


def test_projection_recovers_unit_coefficient():
    d = dual_numbers_times_field(QQ)
    # pi_1 of e1, eps, e3 = 1, 0, 0 ; pi_2 = 0, 0, 1
    assert d.factor_units == (0, 2)
    assert reference_projections(d)[0] == (QQ.one, QQ.zero, QQ.zero)
    assert reference_projections(d)[1] == (QQ.zero, QQ.zero, QQ.one)


def _dual_algebra(field):
    kk = PresentedRing.base_field(field)
    z, o = kk.zero, kk.one
    return StructureAlgebra(kk, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])


def test_bad_idempotents():
    alg = _dual_algebra(QQ)
    with pytest.raises(BadIdempotents):
        build_d_algebra(alg, [((QQ.one, QQ.zero), ()), ((QQ.zero, QQ.one), ())])
    with pytest.raises(BadIdempotents):
        build_d_algebra(alg, [((QQ.one, QQ.one), ((QQ.zero, QQ.one),))])


def test_not_nilpotent():
    alg = _dual_algebra(QQ)
    with pytest.raises(NotNilpotent):
        build_d_algebra(alg, [((QQ.one, QQ.zero), ((QQ.one, QQ.one),))])


def test_not_local_factor():
    # k^2 with one declared factor covering everything has residue dim 2
    kk = PresentedRing.base_field(QQ)
    z, o = kk.zero, kk.one
    alg = StructureAlgebra(
        kk, ("e1", "e2"),
        [[[o, z], [z, z]], [[z, z], [z, o]]],
        unit_coords=[o, o],
    )
    with pytest.raises(NotLocalFactor):
        build_d_algebra(alg, [((QQ.one, QQ.one), ())])


def test_strata_mismatch_reports_corrected_basis():
    # dual numbers with the basis listed as (eps, 1): not stratified
    kk = PresentedRing.base_field(QQ)
    z, o = kk.zero, kk.one
    alg = StructureAlgebra(
        kk, ("eps", "one_"), [[[z, z], [o, z]], [[o, z], [z, o]]], unit_coords=[z, o]
    )
    with pytest.raises(StrataMismatch) as err:
        build_d_algebra(alg, [((QQ.zero, QQ.one), ((QQ.one, QQ.zero),))])
    assert err.value.corrected_basis == [(QQ.zero, QQ.one), (QQ.one, QQ.zero)]


@pytest.mark.parametrize("name", sorted(COEFF_BUILDERS))
def test_valid_algebra_builds_no_corrected_basis(name, monkeypatch):
    """The corrected basis is computed only for the StrataMismatch that
    carries it, never for a D that validates."""
    def refuse(*args):
        raise AssertionError("corrected basis built for a valid D")

    monkeypatch.setattr(dalgebra, "_corrected_basis", refuse)
    left = COEFF_BUILDERS[name](QQ)
    tensor_coefficients(left, dual_numbers(QQ))


def test_stratified_constant_facts_hold():
    for build in (dual_numbers, lambda f: product_of_fields(f, 3),
                  lambda f: truncated_jets(f, 4), dual_numbers_times_field):
        for field in (QQ, GF(5)):
            d = build(field)
            l = d.dim
            a = dense_table(field, d.cells)
            for j in range(l):
                for k in range(l):
                    for m in range(l):
                        same = d.factor_of[j] == d.factor_of[k] == d.factor_of[m]
                        val = a[j][k][m]
                        if not same:
                            assert field.is_zero(val)
                        else:
                            p = d.stratum_of[k]
                            if m < j or (m == j and p > 0):
                                assert field.is_zero(val)
                            elif m == j and p == 0:
                                assert val == field.one


def reference_difference_algebra(field):
    kk = PresentedRing.base_field(field)
    alg = StructureAlgebra(kk, ("1",), [[[kk.one]]])
    return build_d_algebra(alg, [((field.one,), ())])


def reference_dual_numbers(field):
    kk = PresentedRing.base_field(field)
    z, o = kk.zero, kk.one
    alg = StructureAlgebra(kk, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])
    one, zero = field.one, field.zero
    return build_d_algebra(alg, [((one, zero), ((zero, one),))])


@pytest.mark.parametrize("field", (QQ, GF(2), GF(7)), ids=str)
@pytest.mark.parametrize("build, reference", [
    (difference_algebra, reference_difference_algebra),
    (dual_numbers, reference_dual_numbers),
], ids=["difference", "dual"])
def test_jets_delegations_equal_the_literal_tables(build, reference, field):
    d, ref = build(field), reference(field)
    assert d == ref and hash(d) == hash(ref)
    assert d.labels() == ref.labels()
    assert d.algebra.table == ref.algebra.table and d.cells == ref.cells
    assert d.unit == ref.unit and d.factor_units == ref.factor_units
    assert d.factors == ref.factors and d.factor_of == ref.factor_of
    assert d.strata == ref.strata and d.stratum_of == ref.stratum_of
    assert d.certificates == ref.certificates


def reference_constant_facts(field, constants, factor_of, stratum_of):
    """The first failing reason of the old nested loop, or None."""
    l = len(constants)
    for j in range(l):
        for k in range(l):
            for m in range(l):
                same = factor_of[j] == factor_of[k] == factor_of[m]
                val = constants[j][k][m]
                if not same:
                    expected_zero = True
                else:
                    p = stratum_of[k]
                    if m < j:
                        expected_zero = True
                    elif m == j:
                        if p > 0:
                            expected_zero = True
                        else:
                            if not val == field.one:
                                return f"product constant ({j + 1},{k + 1},{m + 1}) should be 1"
                            continue
                    else:
                        continue
                if expected_zero and not field.is_zero(val):
                    return f"product constant ({j + 1},{k + 1},{m + 1}) should vanish"
    return None


FIELDS = (QQ, GF(2), GF(5))


def standard_or_product(name, other, field):
    """A standard algebra, or its tensor product with another one."""
    d = COEFF_BUILDERS[name](field)
    return d if other is None else tensor_coefficients(d, COEFF_BUILDERS[other](field)).product


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(COEFF_BUILDERS)),
       other=st.none() | st.sampled_from(sorted(COEFF_BUILDERS)),
       field=st.sampled_from(FIELDS), data=st.data())
def test_constant_fact_rule_matches_the_nested_loop(name, other, field, data):
    """Both rules accept the algebra as built; with one constant moved by a
    nonzero amount, both report the same first (j, k, m) and the same text."""
    d = standard_or_product(name, other, field)
    facts = (d.factor_of, d.stratum_of)
    assert dalgebra._constant_fact_failure(field, d.cells, *facts) is None
    assert reference_constant_facts(field, dense_table(field, d.cells), *facts) is None
    l = d.dim
    j, k, m = (data.draw(st.integers(0, l - 1)) for _ in range(3))
    shift = field.normalize(data.draw(st.integers(1, field.characteristic - 1 if field.characteristic else 5)))
    perturbed = dense_table(field, d.cells)
    perturbed[j][k][m] = field.add(perturbed[j][k][m], shift)
    new = dalgebra._constant_fact_failure(field, sparse_cells(field, perturbed), *facts)
    assert new == reference_constant_facts(field, perturbed, *facts)


@pytest.mark.parametrize("entry, text", [
    ((0, 0, 0), "product constant (1,1,1) should be 1"),
    ((1, 0, 0), "product constant (2,1,1) should vanish"),
])
def test_a_broken_constant_fact_is_a_strata_mismatch(entry, text, monkeypatch):
    """build_d_algebra raises each constant-fact text, with the corrected
    basis riding along, when the rule is handed dual numbers with one
    constant moved."""
    real = dalgebra._constant_fact_failure

    def moved(field, cells, factor_of, stratum_of):
        constants = dense_table(field, cells)
        j, k, m = entry
        constants[j][k][m] = field.add(constants[j][k][m], field.one)
        return real(field, sparse_cells(field, constants), factor_of, stratum_of)

    monkeypatch.setattr(dalgebra, "_constant_fact_failure", moved)
    with pytest.raises(StrataMismatch) as err:
        dual_numbers(QQ)
    assert str(err.value) == f"supplied basis is not stratified: {text}"
    assert err.value.corrected_basis == [(QQ.one, QQ.zero), (QQ.zero, QQ.one)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(COEFF_BUILDERS))
def test_unit_coordinate_is_the_residue_projection(name, field):
    d = COEFF_BUILDERS[name](field)
    assert unit_coordinates(d) == reference_projections(d)


@settings(max_examples=40, deadline=None)
@given(left=st.sampled_from(sorted(COEFF_BUILDERS)),
       right=st.sampled_from(sorted(COEFF_BUILDERS)),
       field=st.sampled_from(FIELDS))
def test_unit_coordinate_is_the_projection_of_tensor_products(left, right, field):
    product = tensor_coefficients(COEFF_BUILDERS[left](field),
                                  COEFF_BUILDERS[right](field)).product
    assert unit_coordinates(product) == reference_projections(product)


def scaled_jets(field):
    """k[eps]/(eps^3) on the basis 1, eps, 2 eps^2, so that eps * eps is
    1/2 of the third basis element: a constant other than 0 and 1.  Needs
    a field of characteristic other than 2."""
    kk = PresentedRing.base_field(field)
    z, o, half = kk.zero, kk.one, kk.constant(Fraction(1, 2))
    alg = StructureAlgebra(kk, ("1", "eps", "eps2"), [
        [[o, z, z], [z, o, z], [z, z, o]],
        [[z, o, z], [z, z, half], [z, z, z]],
        [[z, z, o], [z, z, z], [z, z, z]],
    ])
    one, zero = field.one, field.zero
    return build_d_algebra(alg, [((one, zero, zero), ((zero, one, zero), (zero, zero, one)))])


TENSOR_FACTORS = dict(COEFF_BUILDERS, scaled_jets=scaled_jets)


@settings(max_examples=60, deadline=None)
@given(left=st.sampled_from(sorted(TENSOR_FACTORS)),
       right=st.sampled_from(sorted(TENSOR_FACTORS)),
       field=st.sampled_from(FIELDS))
def test_tensor_cells_follow_the_kronecker_rule(left, right, field):
    """The product's cells hold c_{(a1,b1),(a2,b2),(a3,b3)} =
    a^L_{a1a2a3} a^R_{b1b2b3} for every triple of basis pairs, each cell
    its nonzero constants with m ascending."""
    assume(field.characteristic != 2 or "scaled_jets" not in (left, right))
    lhs, rhs = TENSOR_FACTORS[left](field), TENSOR_FACTORS[right](field)
    cc = tensor_coefficients(lhs, rhs)
    a_l, a_r = dense_table(field, lhs.cells), dense_table(field, rhs.cells)
    got = dense_table(field, cc.product.cells)
    pairs = list(enumerate(cc.index_pair))
    for (x, (a1, b1)), (y, (a2, b2)), (z, (a3, b3)) in itertools.product(pairs, repeat=3):
        assert got[x][y][z] == field.mul(a_l[a1][a2][a3], a_r[b1][b2][b3])
    for row in cc.product.cells:
        for cell in row:
            assert [m for m, _ in cell] == sorted({m for m, _ in cell})
            assert all(not field.is_zero(c) for _, c in cell)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(COEFF_BUILDERS)), field=st.sampled_from((QQ, GF(5))),
       kind=st.sampled_from(("nil2", "split", "nil3")), seed=st.integers(0, 10**6))
def test_associated_endomorphisms_match_the_projection_sums(name, field, kind, seed):
    """sigma_i = sum_k pi_i[k] f_k, with pi_i from the reference solve, on
    the basis of B and on the generators of a structure on B's flat ring."""
    d = COEFF_BUILDERS[name](field)
    tower = random_tower(field, d, kind, random.Random(seed))
    ring = tower.base_ring
    structure = tower.f_flat
    for factor, pi in enumerate(reference_projections(d)):
        expected = []
        for i in range(tower.rank):
            acc = tower.algebra.zero_el()
            for k, c in enumerate(pi):
                if not field.is_zero(c):
                    acc = acc + tower.f_images[i][k].scale(ring.constant(c))
            expected.append(acc.coords)
        assert [el.coords for el in tower.endo_images(factor)] == expected
        carrier = structure.carrier
        images = structure.associated_images(factor)
        for v in carrier.variables:
            acc = carrier.zero
            for k, c in enumerate(pi):
                if not field.is_zero(c):
                    acc = acc + structure.images[v][k].scale(c)
            assert images[v] == carrier.nf(acc)
