"""Buchberger from a known prefix against a full run, and the single-cofactor
unit inverse against the full cofactor run it replaced.

A prefix that is already a Groebner basis in the old variables stays one
when new variables are appended at the end of the order, so skipping the
S-pairs inside it must give the same reduced basis.  With a known prefix
the cofactors run over the inputs after it, modulo the prefix's ideal.
When nothing nonzero follows the prefix, the prefix itself is the reduced
basis, and an empty input gives the empty basis: the strategies below
draw such inputs too, and ``full_run`` (pairs and interreduction over
every input) is the reference for a prefix with only zeros after it.
``reference_unit_inverse`` is the former ``PresentedRing.unit_inverse``:
a cofactor-tracked run over every input, with no constant shortcut.
"""

from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from descent_kit import (
    GF,
    QQ,
    DegRevLex,
    Monomial,
    Polynomial,
    PresentedRing,
    buchberger,
    buchberger_extended,
    normal_form,
)
from descent_kit import groebner
from descent_kit.errors import NotAUnit, ResourceLimit

OLD = ("x", "y")
NEW = ("z",)
FIELDS = (QQ, GF(7), GF(101))
BUDGET = 400


def polys(field, variables, max_exp=2, max_terms=3):
    term = st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=1, max_value=3),
        *(st.integers(min_value=0, max_value=max_exp) for _ in variables),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda terms: Polynomial(field, {
            Monomial(dict(zip(variables, exps))): Fraction(num, den)
            for num, den, *exps in terms
        })
    )


@st.composite
def prefix_and_extra(draw):
    """(field, prefix basis in the old variables, extra generators over all).

    The prefix may be empty, and the extra generators may be none at all or
    zeros only: the prefix is then the whole basis, and an empty prefix
    with no extra generator is the empty input.
    """
    field = draw(st.sampled_from(FIELDS))
    seeds = draw(st.lists(polys(field, OLD), max_size=3))
    extra = draw(st.one_of(
        st.lists(polys(field, OLD + NEW), min_size=1, max_size=3),
        st.lists(st.just(Polynomial.zero(field)), max_size=2),
    ))
    try:
        prefix = buchberger(seeds, DegRevLex(OLD), BUDGET)
    except ResourceLimit:
        reject()
    return field, prefix.generators, extra


def reference_unit_inverse(ring, a):
    a = ring.nf(a)
    inputs = list(ring.relations.generators) + [a]
    gb, cofs = buchberger_extended(inputs, ring.order, BUDGET)
    for g, vec in zip(gb.generators, cofs):
        if g.is_constant() and not g.is_zero():
            return ring.nf(vec[-1].scale(ring.field.inv(g.constant_value())))
    raise NotAUnit(ring.render(a))


@settings(max_examples=80, deadline=None)
@given(prefix_and_extra())
def test_known_prefix_gives_the_full_reduced_basis(case):
    _, prefix, extra = case
    order = DegRevLex(OLD + NEW)
    gens = list(prefix) + extra
    try:
        full = buchberger(gens, order, BUDGET)
        known = buchberger(gens, order, BUDGET, known=len(prefix))
    except ResourceLimit:
        reject()
    assert known.generators == full.generators


@settings(max_examples=80, deadline=None)
@given(prefix_and_extra())
def test_known_prefix_cofactors_hold_modulo_the_prefix(case):
    field, prefix, extra = case
    order = DegRevLex(OLD + NEW)
    gens = list(prefix) + extra
    try:
        full, _ = buchberger_extended(gens, order, BUDGET)
        known, cofs = buchberger_extended(gens, order, BUDGET, known=len(prefix))
    except ResourceLimit:
        reject()
    assert known.generators == full.generators
    prefix_gb = buchberger(prefix, order)
    for g, vec in zip(known.generators, cofs):
        assert len(vec) == len(extra)
        combination = Polynomial.zero(field)
        for c, e in zip(vec, extra):
            combination = combination + c * e
        assert normal_form(g - combination, prefix_gb).is_zero()


def full_run(gens, order, track):
    """Buchberger's pairs and interreduction over every input, no prefix."""
    basis, cofs, leads = groebner._buchberger_core(list(gens), order, BUDGET, track)
    return groebner._interreduce(basis, cofs, leads, order, track)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_prefix_only_and_empty_inputs_form_no_pairs(field, monkeypatch):
    """With no nonzero input after the known prefix the prefix is returned
    as the basis: no pair is formed and nothing is interreduced."""
    free = PresentedRing.make(field, OLD, [])
    prefix = buchberger([free.el("x^2 - y"), free.el("x*y")], DegRevLex(OLD)).generators
    order = DegRevLex(OLD + NEW)
    expected = full_run(prefix, order, track=False)[0]

    def forbidden(*args, **kwargs):
        raise AssertionError("Buchberger ran on a prefix-only input")

    monkeypatch.setattr(groebner, "_buchberger_core", forbidden)
    monkeypatch.setattr(groebner, "_interreduce", forbidden)
    zero = Polynomial.zero(field)
    for extra in ([], [zero], [zero, zero]):
        gens = list(prefix) + extra
        gb = buchberger(gens, order, known=len(prefix))
        assert list(gb.generators) == expected == list(prefix)
        assert gb.leads == tuple(order.leading(g) for g in prefix)
        gb, cofs = buchberger_extended(gens, order, known=len(prefix))
        assert list(gb.generators) == expected
        assert cofs == [tuple(zero for _ in extra)] * len(prefix)
    for gens in ([], [zero]):
        assert buchberger(gens, order).generators == ()
        gb, cofs = buchberger_extended(gens, order)
        assert gb.generators == () and cofs == []


@st.composite
def ring_and_element(draw):
    field = draw(st.sampled_from(FIELDS))
    relations = draw(st.lists(polys(field, OLD), max_size=3))
    constant = st.integers(min_value=1, max_value=9).map(
        lambda n: Polynomial.constant(field, n))
    a = draw(st.one_of(polys(field, OLD, max_terms=3), constant))
    return field, relations, a


@settings(max_examples=80, deadline=None)
@given(ring_and_element())
def test_unit_inverse_matches_the_full_cofactor_run(case):
    field, relations, a = case
    try:
        ring = PresentedRing(field, buchberger(relations, DegRevLex(OLD), BUDGET))
        expected = reference_unit_inverse(ring, a)
    except ResourceLimit:
        reject()
    except NotAUnit:
        expected = None
    try:
        got = ring.unit_inverse(a)
    except NotAUnit:
        got = None
    assert got == expected
    if got is not None:
        assert ring.equal(a * got, ring.one)
