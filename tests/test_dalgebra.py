"""Coefficient algebras: factor data validation, strata, projections.

The residue projections are read at the factor units; ``reference_projections``
keeps the linear solve that used to compute them, as an oracle.  The
references below keep what the jets family and the m-adic filtration
replaced:

- ``reference_difference_algebra`` and ``reference_dual_numbers`` are the
  literal tables ``difference_algebra`` and ``dual_numbers`` were built
  from before they became the jets of length 1 and 2;
  ``reference_product_of_fields``, ``reference_truncated_jets`` and
  ``reference_dual_numbers_times_field`` are the hand-built tables those
  three builders held before they became products of truncated jets;
- ``reference_constant_facts`` is the nested loop that checked the
  stratified-constant facts at the end of ``build_d_algebra``, over the
  dense table (``conftest.dense_table``) that the sparse cells replaced;
  the facts now follow from the stratification and are not checked;
- ``reference_not_nilpotent`` is the repeated-squaring pass that tested
  each spanning element for nilpotency before the filtration was built;
- ``reference_strata`` is the loop that placed each basis vector in its
  stratum by one span test per level, before the strata were read off
  the tails of each factor's block.
"""

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from descent_kit import (
    GF,
    QQ,
    PresentedRing,
    StructureAlgebra,
    associated_matrix,
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
    DescentKitError,
    NotLocalFactor,
    NotNilpotent,
    StrataMismatch,
)
from conftest import (COEFF_BUILDERS, coordinate_rows, dense_table, endo_matrix, field_inverse,
                      random_tower, scaled, sparse_cells, zero_el)
from paper_checks import associated_images


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


def reference_product_of_fields(field, copies):
    kk = PresentedRing.base_field(field)
    z, o = kk.zero, kk.one
    labels = tuple(f"e{i + 1}" for i in range(copies))
    constants = [
        [[o if (i == j and m == i) else z for m in range(copies)] for j in range(copies)]
        for i in range(copies)
    ]
    alg = StructureAlgebra(kk, labels, constants, unit_coords=[o] * copies)
    one, zero = field.one, field.zero
    factors = []
    for i in range(copies):
        idem = tuple(one if q == i else zero for q in range(copies))
        factors.append((idem, ()))
    return build_d_algebra(alg, factors)


def reference_truncated_jets(field, length):
    kk = PresentedRing.base_field(field)
    z, o = kk.zero, kk.one
    labels = ("1",) + tuple(f"eps{'' if i == 1 else i}" for i in range(1, length))
    constants = [
        [[o if m == i + j else z for m in range(length)] for j in range(length)]
        for i in range(length)
    ]
    alg = StructureAlgebra(kk, labels, constants)
    one, zero = field.one, field.zero
    span = tuple(
        tuple(one if q == i else zero for q in range(length)) for i in range(1, length)
    )
    return build_d_algebra(alg, [((one,) + (zero,) * (length - 1), span)])


def reference_dual_numbers_times_field(field):
    kk = PresentedRing.base_field(field)
    z, o = kk.zero, kk.one
    labels = ("e1", "eps", "e3")
    zero3 = [z, z, z]
    constants = [
        [[o, z, z], [z, o, z], list(zero3)],
        [[z, o, z], list(zero3), list(zero3)],
        [list(zero3), list(zero3), [z, z, o]],
    ]
    alg = StructureAlgebra(kk, labels, constants, unit_coords=[o, z, o])
    one, zero = field.one, field.zero
    return build_d_algebra(
        alg,
        [
            ((one, zero, zero), ((zero, one, zero),)),
            ((zero, zero, one), ()),
        ],
    )


JETS_REFERENCES = [
    ("difference", difference_algebra, reference_difference_algebra),
    ("dual", dual_numbers, reference_dual_numbers),
    ("dual-times-field", dual_numbers_times_field, reference_dual_numbers_times_field),
] + [
    (f"fields-{l}", functools.partial(product_of_fields, copies=l),
     functools.partial(reference_product_of_fields, copies=l))
    for l in range(1, 6)
] + [
    (f"jets-{l}", functools.partial(truncated_jets, length=l),
     functools.partial(reference_truncated_jets, length=l))
    for l in range(1, 6)
]


@pytest.mark.parametrize("field", (QQ, GF(2), GF(7)), ids=str)
@pytest.mark.parametrize("build, reference", [case[1:] for case in JETS_REFERENCES],
                         ids=[case[0] for case in JETS_REFERENCES])
def test_jets_delegations_equal_the_literal_tables(build, reference, field):
    d, ref = build(field), reference(field)
    assert d == ref and hash(d) == hash(ref)
    assert d != truncated_jets(field, d.dim + 1) and d != d.algebra
    assert d.algebra.labels == ref.algebra.labels
    assert d.algebra.table == ref.algebra.table and d.cells == ref.cells
    assert d.algebra.unit_coords == ref.algebra.unit_coords
    assert d.unit == ref.unit and d.factor_units == ref.factor_units
    assert d.factors == ref.factors and d.factor_of == ref.factor_of
    assert d.strata == ref.strata and d.stratum_of == ref.stratum_of


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


def presented(d, constants=None, change=None):
    """(algebra, factor data, dense table) of D rebuilt from the dense
    table ``constants`` (D's own by default) on a new basis: row i of
    ``change`` is b'_i on D's basis (the identity by default)."""
    field, l = d.field, d.dim
    constants = dense_table(field, d.cells) if constants is None else constants
    change = linear.identity(field, l) if change is None else change
    inverse = field_inverse(field, change)

    def coords(v):
        """v, given on D's basis, on the new one."""
        return [field.normalize(sum((v[p] * inverse[p][i] for p in range(l)), field.zero))
                for i in range(l)]

    table = [[coords([sum((x[p] * y[q] * constants[p][q][m]
                           for p in range(l) for q in range(l)), field.zero)
                      for m in range(l)])
              for y in change] for x in change]
    kk = PresentedRing.base_field(field)
    algebra = StructureAlgebra(kk, [f"b{i + 1}" for i in range(l)],
                               [[[kk.constant(c) for c in cell] for cell in row] for row in table],
                               unit_coords=[kk.constant(c) for c in coords(d.unit)])
    factors = [(tuple(coords(idem)), tuple(tuple(coords(v)) for v in span))
               for idem, span in d.factors]
    return algebra, factors, table


def governed_by_a_constant_fact(d, j, k, m):
    """Does a stratified-constant fact fix a_jkm: a product across factors,
    or a component at or below eps_j?"""
    return not d.factor_of[j] == d.factor_of[k] == d.factor_of[m] or m <= j


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(COEFF_BUILDERS)),
       other=st.none() | st.sampled_from(sorted(COEFF_BUILDERS)),
       field=st.sampled_from(FIELDS + (GF(3),)), partner=st.booleans(), data=st.data())
def test_a_broken_constant_fact_is_rejected(name, other, field, partner, data):
    """With one constant a_jkm that a stratified-constant fact fixes moved
    by a nonzero amount (and a_kjm with it, when ``partner``), the nested
    loop finds a broken fact and ``build_d_algebra`` rejects the table."""
    d = standard_or_product(name, other, field)
    facts = (d.factor_of, d.stratum_of)
    constants = dense_table(field, d.cells)
    assert reference_constant_facts(field, constants, *facts) is None
    l = d.dim
    governed = [(j, k, m) for j, k, m in itertools.product(range(l), repeat=3)
                if governed_by_a_constant_fact(d, j, k, m)]
    j, k, m = data.draw(st.sampled_from(governed))
    top = field.characteristic - 1 if field.characteristic else 5
    shift = field.normalize(data.draw(st.integers(1, top)))
    for a, b in {(j, k), (k, j)} if partner else {(j, k)}:
        constants[a][b][m] = field.add(constants[a][b][m], shift)
    assert reference_constant_facts(field, constants, *facts) is not None
    algebra, factors, _ = presented(d, constants)
    with pytest.raises(DescentKitError):
        build_d_algebra(algebra, factors)


def reference_not_nilpotent(field, cells, vectors):
    """The old nilpotency pass: is some vector still nonzero after squaring
    it until the exponent passes the algebra's dimension?"""
    l = len(cells)
    for v in vectors:
        w = list(v)
        e = 1
        while e <= l:
            w = linear.vec_mul(field, cells, w, w)
            e *= 2
        if any(not field.is_zero(x) for x in w):
            return True
    return False


def reference_in_span(field, vectors, target):
    """Is target a linear combination of the given vectors?"""
    if not vectors:
        return all(field.is_zero(x) for x in target)
    return linear.solve(field, [list(row) for row in zip(*vectors)], list(target)) is not None


def reference_levels(field, cells, idem, m_span):
    """Bases of m^0 (the factor), m, m^2, ... up to the last nonzero power;
    the span must be nilpotent."""
    l = len(cells)

    def span_basis(vectors):
        reduced = linear.rref(field, vectors)[0] if vectors else []
        return [row for row in reduced if any(not field.is_zero(x) for x in row)]

    basis = [[field.one if q == p else field.zero for q in range(l)] for p in range(l)]
    levels = [span_basis([linear.vec_mul(field, cells, list(idem), b) for b in basis])]
    current = span_basis([list(v) for v in m_span])
    while current:
        levels.append(current)
        current = span_basis([linear.vec_mul(field, cells, list(x), v)
                              for x in m_span for v in current])
    return levels


def reference_strata(field, cells, factors):
    """The old stratification of ``build_d_algebra``: (factor_of,
    stratum_of, strata), each basis vector's stratum found by one span
    test per level, or the StrataMismatch it raised."""
    l = len(cells)
    basis = [[field.one if q == p else field.zero for q in range(l)] for p in range(l)]
    level_spaces = [reference_levels(field, cells, idem, span) for idem, span in factors]
    unit_vectors = [list(idem) for idem, _ in factors]

    def mismatch(reason):
        return StrataMismatch(f"supplied basis is not stratified: {reason}",
                              dalgebra._corrected_basis(field, unit_vectors, level_spaces))

    factor_of = []
    for q in range(l):
        homes = [i for i, (idem, _) in enumerate(factors)
                 if linear.vec_mul(field, cells, list(idem), basis[q]) == basis[q]]
        if not homes:
            raise mismatch(f"basis element {q + 1} is split across factors")
        factor_of.append(homes[0])
    if factor_of != sorted(factor_of):
        raise mismatch("factor blocks are out of order")
    stratum_of = [None] * l
    strata = []
    for i, levels in enumerate(level_spaces):
        block = [q for q in range(l) if factor_of[q] == i]
        if not block:
            raise mismatch(f"factor {i + 1} has no basis elements")
        if basis[block[0]] != unit_vectors[i]:
            raise mismatch(f"factor {i + 1} does not start with its unit")
        per_level = [[] for _ in levels]
        for q in block:
            level = 0
            for j in range(1, len(levels)):
                if not reference_in_span(field, levels[j], basis[q]):
                    break
                level = j
            stratum_of[q] = level
            per_level[level].append(q)
        if [q for lev in per_level for q in lev] != block:
            raise mismatch(f"strata of factor {i + 1} are out of order")
        if per_level[0] != [block[0]]:
            raise mismatch(f"stratum 0 of factor {i + 1} is not the unit alone")
        for j in range(1, len(levels)):
            above = levels[j + 1] if j + 1 < len(levels) else []
            rows = [list(x) for x in above] + [basis[q] for q in per_level[j]]
            if linear.rank(field, rows) != len(levels[j]):
                raise mismatch(f"stratum {j} of factor {i + 1} does not span")
        strata.append(tuple(tuple(lev) for lev in per_level))
    return tuple(factor_of), tuple(stratum_of), tuple(strata)


# the per-vector loop's texts that the tails' rank test words as the first
# stratum whose tail does not span, in the same factor
RETIRED_TEXTS = re.compile(r"(.*: )(?:strata of factor (\d+) are out of order"
                           r"|stratum 0 of factor (\d+) is not the unit alone)")


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(COEFF_BUILDERS)),
       other=st.none() | st.sampled_from(sorted(COEFF_BUILDERS)),
       field=st.sampled_from(FIELDS), data=st.data())
def test_a_changed_basis_is_judged_as_the_reference_loop_judges_it(name, other, field, data):
    """On a permuted basis, or one with up to two rows b'_i += c b'_j added
    after the permutation, ``build_d_algebra`` accepts exactly when the
    per-vector loop does, with the same strata, and otherwise raises the
    same StrataMismatch with the same corrected basis.  The texts agree
    but for the two that the loop alone could reach (``RETIRED_TEXTS``);
    a permuted basis reaches only the first."""
    d = standard_or_product(name, other, field)
    l = d.dim
    order = data.draw(st.permutations(range(l)))
    change = [[field.one if q == p else field.zero for q in range(l)] for p in order]
    if l > 1:
        pairs = st.tuples(*2 * [st.integers(0, l - 1)]).filter(lambda ij: ij[0] != ij[1])
        for i, j in data.draw(st.lists(pairs, max_size=2)):
            c = field.normalize(data.draw(st.sampled_from([1, -1, 2])))
            change[i] = [field.add(x, field.mul(c, y)) for x, y in zip(change[i], change[j])]
    algebra, factors, table = presented(d, change=change)
    try:
        expected = reference_strata(field, sparse_cells(field, table), factors)
    except StrataMismatch as exc:
        with pytest.raises(StrataMismatch) as err:
            build_d_algebra(algebra, factors)
        assert err.value.corrected_basis == exc.corrected_basis
        retired = RETIRED_TEXTS.fullmatch(str(exc))
        if retired:
            factor = retired[2] or retired[3]
            new_text = rf"stratum \d+ of factor {factor} does not span"
            assert re.fullmatch(re.escape(retired[1]) + new_text, str(err.value))
        else:
            assert str(err.value) == str(exc)
    else:
        got = build_d_algebra(algebra, factors)
        assert (got.factor_of, got.stratum_of, got.strata) == expected


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(COEFF_BUILDERS)),
       other=st.none() | st.sampled_from(sorted(COEFF_BUILDERS)),
       field=st.sampled_from(FIELDS), nil=st.booleans(), data=st.data())
def test_not_nilpotent_exactly_when_the_reference_finds_an_element(name, other, field, nil,
                                                                   data):
    """Spanning vectors drawn inside one factor (with a zero unit
    coordinate when ``nil``) replace its maximal-ideal span: NotNilpotent
    comes exactly when repeated squaring finds a non-nilpotent one."""
    d = standard_or_product(name, other, field)
    i = data.draw(st.integers(0, d.factor_count - 1))
    unit = d.factor_units[i]
    scalar = st.sampled_from([0, 1, -1, 2]).map(field.normalize)
    vectors = [
        tuple(field.zero if d.factor_of[q] != i or (nil and q == unit) else data.draw(scalar)
              for q in range(d.dim))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    factors = list(d.factors)
    factors[i] = (factors[i][0], tuple(vectors))
    try:
        build_d_algebra(d.algebra, factors)
    except NotNilpotent as exc:
        assert reference_not_nilpotent(field, d.cells, vectors)
        assert str(exc) == f"maximal-ideal element of factor {i + 1} is not nilpotent"
    except (NotLocalFactor, StrataMismatch):
        assert not reference_not_nilpotent(field, d.cells, vectors)
    else:
        assert not reference_not_nilpotent(field, d.cells, vectors)


def test_a_second_element_outside_m_is_a_strata_mismatch():
    """Dual numbers on the basis 1, v = 1 + eps: the tail after the unit is
    not in m, so stratum 1 does not span.  The per-vector loop put v in
    stratum 0 and said so; the corrected basis is the same."""
    kk = PresentedRing.base_field(QQ)
    z, o, t = kk.zero, kk.one, kk.constant(2)
    # v^2 = 1 + 2 eps = 2 v - 1
    alg = StructureAlgebra(kk, ("1", "v"), [[[o, z], [z, o]], [[z, o], [-o, t]]])
    factors = [((QQ.one, QQ.zero), ((-QQ.one, QQ.one),))]
    with pytest.raises(StrataMismatch) as err:
        build_d_algebra(alg, factors)
    with pytest.raises(StrataMismatch) as ref:
        reference_strata(QQ, dalgebra._scalar_cells(alg), factors)
    assert str(err.value) == "supplied basis is not stratified: stratum 1 of factor 1 does not span"
    assert str(ref.value) == ("supplied basis is not stratified: "
                              "stratum 0 of factor 1 is not the unit alone")
    assert err.value.corrected_basis == ref.value.corrected_basis == [(QQ.one, QQ.zero),
                                                                      (QQ.one, -QQ.one)]


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
    structure = tower.f
    rows = coordinate_rows(tower)
    dm = associated_matrix(tower)
    for factor, pi in enumerate(reference_projections(d)):
        expected = []
        for i in range(tower.rank):
            acc = zero_el(tower.algebra)
            for k, c in enumerate(pi):
                if not field.is_zero(c):
                    acc = acc + scaled(rows[i][k], ring.constant(c))
            expected.append(acc)
        assert dm.diagonal_block(d.factor_units[factor]) == endo_matrix(tower.algebra, expected)
        carrier = structure.carrier
        images = associated_images(structure, factor)
        for v in carrier.variables:
            acc = carrier.zero
            for k, c in enumerate(pi):
                if not field.is_zero(c):
                    acc = acc + structure.images[v][k].scale(c)
            assert images[v] == carrier.nf(acc)
