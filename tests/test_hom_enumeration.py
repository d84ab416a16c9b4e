"""``enumerate_homs`` against the substitution loop it replaced.

``reference_enumerate_homs`` substitutes every relation into every
candidate and reduces the result modulo the target's relations.  The
enumeration in ``homs`` works in staircase coordinates, evaluates each
relation once per assignment of the free variables it mentions and prunes
partial assignments, so on any source and target it must return the same
maps, in the same order, with the same images, and refuse the same
budgets with the same text.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descent_kit import GF, Monomial, Polynomial, PresentedRing, enumerate_homs
from descent_kit.errors import CombinatorialBudgetExceeded
from descent_kit.homs import DEFAULT_BUDGET
from conftest import target_elements

FIELDS = (GF(2), GF(3), GF(5))
SOURCE_VARS = ("x1", "x2", "x3")
MAX_CANDIDATES = 400


def reference_enumerate_homs(source, target, fixed=None, budget=DEFAULT_BUDGET):
    """Every assignment of the free variables, each relation substituted."""
    fixed = dict(fixed or {})
    p = target.field.characteristic
    basis = target.staircase()
    free = [v for v in source.variables if v not in fixed]
    candidates = (p ** len(basis)) ** len(free)
    if candidates > budget:
        raise CombinatorialBudgetExceeded(candidates, budget)
    elements = target_elements(target)
    relations = source.relations.generators
    out = []
    for images in itertools.product(elements, repeat=len(free)):
        env = dict(fixed)
        env.update(zip(free, images))
        if all(target.is_zero(rel.substitute(env)) for rel in relations):
            out.append({v: target.nf(env[v]) for v in source.variables})
    return out


def poly(field, terms):
    """A polynomial from (coefficient, {variable: exponent}) pairs."""
    return Polynomial(field, [(Monomial(exps), c) for c, exps in terms])


@st.composite
def targets(draw, field):
    """A finite-dimensional target over ``field``, the zero ring included."""
    kind = draw(st.sampled_from(("zero", "field", "power", "quadratic", "two")))
    a, b = draw(st.integers(0, field.characteristic - 1)), draw(st.integers(0, 4))
    if kind == "zero":
        return PresentedRing.make(field, ("u",), [poly(field, [(1, {})])])
    if kind == "field":
        return PresentedRing.base_field(field)
    if kind == "power":
        e = draw(st.integers(1, 3))
        return PresentedRing.make(field, ("u",), [poly(field, [(1, {"u": e})])])
    if kind == "quadratic":
        # u^2 - a u - b: a field, a product of fields or dual numbers
        return PresentedRing.make(
            field, ("u",), [poly(field, [(1, {"u": 2}), (-a, {"u": 1}), (-b, {})])])
    return PresentedRing.make(field, ("u", "v"), [
        poly(field, [(1, {"u": 2}), (-a, {"v": 1})]),
        poly(field, [(1, {"v": 2})]),
        poly(field, [(1, {"u": 1, "v": 1})]),
    ])


@st.composite
def small_polys(draw, field, variables):
    """Up to three terms of degree at most 3 in a subset of ``variables``."""
    used = draw(st.lists(st.sampled_from(variables), unique=True, max_size=len(variables)))
    terms = draw(st.lists(
        st.tuples(
            st.integers(1, field.characteristic - 1),
            st.fixed_dictionaries({v: st.integers(0, 3) for v in used}),
        ),
        max_size=3,
    ))
    return poly(field, terms)


@st.composite
def enumeration_inputs(draw):
    """(source, target, fixed) with at most MAX_CANDIDATES candidates."""
    field = draw(st.sampled_from(FIELDS))
    target = draw(targets(field))
    n = draw(st.integers(1, len(SOURCE_VARS)))
    variables = SOURCE_VARS[:n]
    relations = draw(st.lists(small_polys(field, variables), max_size=3))
    source = PresentedRing.make(field, variables, relations)
    pinned = draw(st.lists(st.sampled_from(variables), unique=True))
    fixed = {v: draw(small_polys(field, target.variables)) if target.variables
             else poly(field, [(draw(st.integers(0, 4)), {})]) for v in pinned}
    size = field.characteristic ** len(target.staircase())
    free = [v for v in variables if v not in fixed]
    while free and size ** len(free) > MAX_CANDIDATES:
        v = free.pop()
        fixed[v] = target_elements(target)[-1]
    return source, target, fixed


@settings(max_examples=120, deadline=None)
@given(enumeration_inputs())
def test_enumeration_matches_reference(inputs):
    source, target, fixed = inputs
    expected = reference_enumerate_homs(source, target, fixed)
    got = enumerate_homs(source, target, fixed)
    assert got == expected
    assert [list(phi) for phi in got] == [list(phi) for phi in expected]


@settings(max_examples=40, deadline=None)
@given(enumeration_inputs(), st.integers(0, 3))
def test_budget_refusal_matches_reference(inputs, short):
    source, target, fixed = inputs
    free = [v for v in source.variables if v not in fixed]
    candidates = (target.field.characteristic ** len(target.staircase())) ** len(free)
    budget = candidates - 1 - short
    with pytest.raises(CombinatorialBudgetExceeded) as expected:
        reference_enumerate_homs(source, target, fixed, budget)
    with pytest.raises(CombinatorialBudgetExceeded) as got:
        enumerate_homs(source, target, fixed, budget)
    assert str(got.value) == str(expected.value)
    assert (got.value.candidates, got.value.budget) == (candidates, budget)


def test_zero_target_accepts_the_one_assignment():
    field = GF(3)
    zero = PresentedRing.make(field, ("u",), [poly(field, [(1, {})])])
    assert zero.staircase() == []
    source = PresentedRing.make(field, ("x1", "x2"), [poly(field, [(1, {"x1": 1}), (1, {})])])
    homs = enumerate_homs(source, zero, {"x2": poly(field, [(2, {"u": 1})])})
    assert homs == [{"x1": zero.zero, "x2": zero.zero}]
    assert homs == reference_enumerate_homs(source, zero, {"x2": poly(field, [(2, {"u": 1})])})


def test_relation_on_pinned_variables_alone_decides_everything():
    """x1^2 with x1 pinned to u: it fails in k[u]/(u^3), so nothing is
    returned, and holds in k[u]/(u^2), where x2 then ranges freely."""
    field = GF(2)
    source = PresentedRing.make(field, ("x1", "x2"), [poly(field, [(1, {"x1": 2})])])
    fixed = {"x1": poly(field, [(1, {"u": 1})])}
    cube = PresentedRing.make(field, ("u",), [poly(field, [(1, {"u": 3})])])
    square = PresentedRing.make(field, ("u",), [poly(field, [(1, {"u": 2})])])
    assert enumerate_homs(source, cube, fixed) == []
    homs = enumerate_homs(source, square, fixed)
    assert [square.render(phi["x2"]) for phi in homs] == ["0", "u", "1", "u + 1"]
    assert homs == reference_enumerate_homs(source, square, fixed)


def test_relation_on_a_subset_of_the_free_variables():
    """x1*x3 mentions the first and last of three free variables; x2 is
    unconstrained, and the order is still itertools.product order."""
    field = GF(2)
    source = PresentedRing.make(field, SOURCE_VARS, [poly(field, [(1, {"x1": 1, "x3": 1})])])
    target = PresentedRing.make(field, ("u",), [poly(field, [(1, {"u": 2})])])
    homs = enumerate_homs(source, target)
    assert homs == reference_enumerate_homs(source, target)
    assert len(homs) == 4 * sum(
        target.is_zero(a * b) for a in target_elements(target) for b in target_elements(target)
    )
