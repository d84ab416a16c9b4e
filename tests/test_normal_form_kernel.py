"""The normal-form kernel against the plain reduction loop it replaced.

``reference_reduce`` rescans the leading term of every basis element at
each step and builds a new polynomial for every subtraction.  The kernel in
``groebner._reduce_full`` follows the same strategy (leading term first,
first basis element whose leading monomial divides it), so on any basis,
Groebner or not, it must return the same remainder and the same cofactors.
"""

from fractions import Fraction

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from descent_kit import (
    GF,
    QQ,
    DegRevLex,
    Monomial,
    Polynomial,
    buchberger,
    buchberger_extended,
    normal_form,
)
from descent_kit.errors import ResourceLimit
from descent_kit.groebner import _reduce_full
from conftest import reduce_extended

ORDER = DegRevLex(("x", "y", "z"))
ORDER2 = DegRevLex(("x", "y"))
FIELDS = (QQ, GF(7), GF(101))


def reference_reduce(p, cof, basis, basis_cofs, order):
    """Fully reduce p modulo basis; returns (remainder, cofactors)."""
    field = p.field
    remainder = Polynomial.zero(field)
    track = cof is not None
    while not p.is_zero():
        lm, lc = order.leading(p)
        hit = None
        for gi, g in enumerate(basis):
            glm, glc = order.leading(g)
            if glm.divides(lm):
                hit = (gi, g, glm, glc)
                break
        if hit is None:
            t = Polynomial(field, {lm: lc})
            remainder = remainder + t
            p = p - t
            continue
        gi, g, glm, glc = hit
        q = lm.divide(glm)
        factor = field.div(lc, glc)
        p = p - g.term_mul(q, factor)
        if track:
            cof = [
                c - gc.term_mul(q, factor)
                for c, gc in zip(cof, basis_cofs[gi])
            ]
    return remainder, cof


def polys(field, variables, max_exp=3, max_terms=4):
    term = st.tuples(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
        *(st.integers(min_value=0, max_value=max_exp) for _ in variables),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda terms: Polynomial(field, {
            Monomial(dict(zip(variables, exps))): Fraction(num, den)
            for num, den, *exps in terms
        })
    )


@st.composite
def reduction_inputs(draw, tracked):
    """(p, cof, basis, basis_cofs) over one field; the basis is arbitrary."""
    field = draw(st.sampled_from(FIELDS))
    any_poly = polys(field, ORDER.variables)
    nonzero = any_poly.filter(lambda g: not g.is_zero())
    p = draw(any_poly)
    basis = draw(st.lists(nonzero, max_size=3))
    if not tracked:
        return p, None, basis, None
    width = draw(st.integers(min_value=1, max_value=3))
    vector = st.lists(polys(field, ORDER.variables, 2, 2), min_size=width, max_size=width)
    cof = draw(vector)
    basis_cofs = [draw(vector) for _ in basis]
    return p, cof, basis, basis_cofs


def kernel(p, cof, basis, basis_cofs, order):
    leads = [order.leading(g) for g in basis]
    return _reduce_full(p, cof, basis, leads, basis_cofs, order)


@settings(max_examples=150, deadline=None)
@given(reduction_inputs(tracked=False))
def test_kernel_matches_reference_untracked(inputs):
    p, _, basis, _ = inputs
    expected, _ = reference_reduce(p, None, basis, None, ORDER)
    got, cof = kernel(p, None, basis, None, ORDER)
    assert got == expected
    assert cof is None


@settings(max_examples=150, deadline=None)
@given(reduction_inputs(tracked=True))
def test_kernel_matches_reference_tracked(inputs):
    p, cof, basis, basis_cofs = inputs
    expected = reference_reduce(p, cof, basis, basis_cofs, ORDER)
    got = kernel(p, cof, basis, basis_cofs, ORDER)
    assert got == expected


def test_kernel_leaves_its_inputs_alone():
    field = QQ
    x, y = Polynomial.variable(field, "x"), Polynomial.variable(field, "y")
    p = x * x * y + x + y
    basis = [x * y - Polynomial.constant(field, 1)]
    basis_cofs = [[Polynomial.constant(field, 1)]]
    cof = [x]
    before = (dict(p.terms), dict(basis[0].terms), dict(cof[0].terms))
    kernel(p, cof, basis, basis_cofs, ORDER)
    assert before == (p.terms, basis[0].terms, cof[0].terms)


@st.composite
def groebner_inputs(draw):
    """Generators of a small ideal and a polynomial to reduce modulo it."""
    field = draw(st.sampled_from(FIELDS))
    gens = draw(st.lists(polys(field, ORDER2.variables, 2, 3), min_size=1, max_size=3))
    p = draw(polys(field, ORDER2.variables, 4, 5))
    return gens, p


@settings(max_examples=60, deadline=None)
@given(groebner_inputs())
def test_kernel_matches_reference_on_groebner_bases(inputs):
    gens, p = inputs
    try:
        gb = buchberger(gens, ORDER2, budget=300)
        gb_ext, cofs = buchberger_extended(gens, ORDER2, budget=300)
    except ResourceLimit:
        reject()
    for basis in (gb, gb_ext):
        assert basis.leads == tuple(ORDER2.leading(g) for g in basis.generators)
    expected, _ = reference_reduce(p, None, gb.generators, None, ORDER2)
    assert normal_form(p, gb) == expected

    zero = [Polynomial.zero(p.field) for _ in gens]
    expected = reference_reduce(p, zero, gb_ext.generators, cofs, ORDER2)
    got = _reduce_full(p, zero, gb_ext.generators, gb_ext.leads, cofs, ORDER2)
    assert got == expected

    remainder, quotients = reduce_extended(p, gb)
    assert remainder == normal_form(p, gb)
    total = remainder
    for q, g in zip(quotients, gb.generators):
        total = total + q * g
    assert total == p


@settings(max_examples=60, deadline=None)
@given(groebner_inputs())
def test_reduced_input_comes_back_as_it_is(inputs):
    """A polynomial with no term divisible by a leading monomial is its own
    normal form: ``normal_form`` returns the very object, as the reference
    would compute it; any other input is reduced into a new polynomial."""
    gens, p = inputs
    try:
        gb = buchberger(gens, ORDER2, budget=300)
    except ResourceLimit:
        reject()
    reduced = normal_form(p, gb)
    for q in (reduced, Polynomial.zero(p.field), p):
        expected, _ = reference_reduce(q, None, gb.generators, None, ORDER2)
        got = normal_form(q, gb)
        assert got == expected
        irreducible = not any(lm.divides(m) for m in q.terms for lm, _ in gb.leads)
        assert (got is q) == irreducible
    assert normal_form(reduced, gb) is reduced


def test_monic_basis_reduction_takes_no_inverse(monkeypatch):
    """Every basis ``buchberger`` returns is monic, so a reduction step takes
    the leading coefficient as its factor; steps and quotients are those of
    the reference, which divides."""
    from descent_kit.scalars import ScalarField

    for field in FIELDS:
        x, y = Polynomial.variable(field, "x"), Polynomial.variable(field, "y")
        three = Polynomial.constant(field, 3)
        gb = buchberger([x * x * three - y, x * y * three + x], ORDER2)
        assert all(lc == field.one for _, lc in gb.leads)
        p = x * x * x * y * three + x * y * y + y * y * y + three
        calls = [0]
        original = ScalarField.inv

        def counted(self, a, _original=original):
            calls[0] += 1
            return _original(self, a)

        monkeypatch.setattr(ScalarField, "inv", counted)
        remainder, quotients = reduce_extended(p, gb)
        got = normal_form(p, gb)
        monkeypatch.setattr(ScalarField, "inv", original)
        assert calls[0] == 0
        expected, _ = reference_reduce(p, None, gb.generators, None, ORDER2)
        assert remainder == got == expected
        total = remainder
        for q, g in zip(quotients, gb.generators):
            total = total + q * g
        assert total == p


# Variable sequences of rings that share names with ORDER and with each
# other: monomials of every ring draw their mask bits from one table, so
# the bits of one ring are interleaved with those of the others.
SHARED_ORDERS = (
    DegRevLex(("y", "w", "x")),
    DegRevLex(("z", "t1", "x", "y")),
    DegRevLex(("b", "z", "w")),
)


@st.composite
def shared_name_inputs(draw):
    """(order, p, cof, basis, basis_cofs, gens) over one of SHARED_ORDERS,
    after a reduction in an unrelated ring that shares some of its names."""
    order, other = draw(st.sampled_from(SHARED_ORDERS)), draw(st.sampled_from(SHARED_ORDERS))
    field = draw(st.sampled_from(FIELDS))
    noise = draw(st.lists(polys(field, other.variables, 3, 3), min_size=1, max_size=3))
    kernel(noise[0], None, [g for g in noise[1:] if not g.is_zero()], None, other)
    any_poly = polys(field, order.variables)
    p = draw(any_poly)
    basis = draw(st.lists(any_poly.filter(lambda g: not g.is_zero()), max_size=3))
    width = draw(st.integers(min_value=1, max_value=2))
    vector = st.lists(polys(field, order.variables, 2, 2), min_size=width, max_size=width)
    cof = draw(vector)
    basis_cofs = [draw(vector) for _ in basis]
    # generators of an ideal in two of the order's variables, small enough
    # for Buchberger to stay cheap
    gens = draw(st.lists(polys(field, order.variables[:2], 2, 3), min_size=1, max_size=3))
    return order, p, cof, basis, basis_cofs, gens


@settings(max_examples=100, deadline=None)
@given(shared_name_inputs())
def test_kernel_matches_reference_with_names_shared_across_rings(inputs):
    order, p, cof, basis, basis_cofs, _ = inputs
    expected, _ = reference_reduce(p, None, basis, None, order)
    assert kernel(p, None, basis, None, order) == (expected, None)
    assert kernel(p, cof, basis, basis_cofs, order) == reference_reduce(
        p, cof, basis, basis_cofs, order)


@settings(max_examples=60, deadline=None)
@given(shared_name_inputs())
def test_normal_form_matches_reference_with_names_shared_across_rings(inputs):
    order, p, _, _, _, gens = inputs
    try:
        gb = buchberger(gens, order, budget=300)
        gb_ext, cofs = buchberger_extended(gens, order, budget=300)
    except ResourceLimit:
        reject()
    expected, _ = reference_reduce(p, None, gb.generators, None, order)
    assert normal_form(p, gb) == expected
    zero = [Polynomial.zero(p.field) for _ in gens]
    assert _reduce_full(p, zero, gb_ext.generators, gb_ext.leads, cofs, order) == (
        reference_reduce(p, zero, gb_ext.generators, cofs, order))
    remainder, quotients = reduce_extended(p, gb)
    assert remainder == expected
    total = remainder
    for q, g in zip(quotients, gb.generators):
        total = total + q * g
    assert total == p
