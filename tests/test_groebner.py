"""Groebner bases: worked examples, determinism, the membership oracle."""

import random

import pytest

from descent_kit import (
    GF,
    QQ,
    DegRevLex,
    Monomial,
    Polynomial,
    buchberger,
    buchberger_extended,
    normal_form,
    parse_polynomial,
    render,
    staircase,
)
from descent_kit.errors import NotFiniteDimensional, ResourceLimit
from conftest import reduce_extended

F2 = GF(2)


def p(text, field=QQ):
    return parse_polynomial(text, field)


def total_degree(poly):
    return max((m.degree for m in poly.terms), default=0)


def test_two_monomials_over_f2():
    o = DegRevLex(("t1", "t2"))
    gb = buchberger([p("t1^2", F2), p("t1*t2", F2)], o)
    assert {render(g, o) for g in gb.generators} == {"t1^2", "t1*t2"}


def test_empty_ideal():
    gb = buchberger([], DegRevLex(("x",)))
    assert len(gb.generators) == 0


def test_ideal_containing_one():
    gb = buchberger([p("x-1"), p("x")], DegRevLex(("x",)))
    assert [render(g, gb.order) for g in gb.generators] == ["1"]


def test_normal_form_examples():
    o = DegRevLex(("t1", "t2"))
    gb = buchberger([p("t1^2", F2)], o)
    assert render(normal_form(p("t1^3 + t2", F2), gb), o) == "t2"
    assert normal_form(p("t1^2", F2), gb).is_zero()
    ox = DegRevLex(("x",))
    gbx = buchberger([p("x^2-2")], ox)
    assert render(normal_form(p("x^2"), gbx), ox) == "2"


def test_ideal_equal_is_set_equality():
    o = DegRevLex(("x", "y"))
    g1 = buchberger([p("x^2"), p("x*y")], o)
    g2 = buchberger([p("x*y"), p("x^2")], o)
    assert g1 == g2
    assert buchberger([p("x")], o) != buchberger([p("x^2")], o)
    assert buchberger([p("x-1"), p("y-1")], o) == buchberger([p("y-1"), p("x-1")], o)


def test_normal_form_idempotent_and_multiplicative():
    o = DegRevLex(("x", "y"))
    gb = buchberger([p("x^2-y"), p("x*y-x")], o)
    a, b = p("x^3+y"), p("x*y^2-1")

    def nf(z):
        return normal_form(z, gb)

    assert nf(nf(a)) == nf(a)
    assert nf(a * b) == nf(nf(a) * nf(b))
    assert nf(a + b) == nf(nf(a) + nf(b))


def test_determinism():
    o = DegRevLex(("x", "y", "z"))
    gens = [p("x*y - z"), p("y*z - x"), p("x*z - y")]
    g1 = buchberger(list(gens), o)
    g2 = buchberger(list(gens), o)
    assert g1.generators == g2.generators


def test_pair_budget():
    o = DegRevLex(("x", "y", "z"))
    gens = [p("x*y - z"), p("y*z - x"), p("x*z - y")]
    with pytest.raises(ResourceLimit):
        buchberger(gens, o, budget=1)


def test_staircase_and_infinite_dimension():
    ox = DegRevLex(("x",))
    st = staircase(buchberger([p("x^2-2")], ox))
    assert [str(m) for m in st] == ["1", "x"]
    with pytest.raises(NotFiniteDimensional):
        staircase(buchberger([p("x*y")], DegRevLex(("x", "y"))))
    assert staircase(buchberger([p("x-1"), p("x")], ox)) == []


def test_extended_cofactors_express_basis_over_inputs():
    o = DegRevLex(("x", "y"))
    gens = [p("x^2 - y"), p("x*y - x")]
    gb, cofs = buchberger_extended(gens, o)
    for g, vec in zip(gb.generators, cofs):
        acc = Polynomial.zero(QQ)
        for c, gen in zip(vec, gens):
            acc = acc + c * gen
        assert acc == g


def test_reduce_extended_representation():
    o = DegRevLex(("x",))
    gb = buchberger([p("x^2-2")], o)
    target = p("x^3 + x")
    r, qs = reduce_extended(target, gb)
    acc = r
    for c, g in zip(qs, gb.generators):
        acc = acc + c * g
    assert acc == target


def _oracle_membership(target, gens, order, degree_bound, field):
    """Ideal membership within a degree bound via exhaustive linear algebra."""
    from descent_kit.linear import solve

    variables = order.variables
    monoms = [Monomial({})]
    frontier = [Monomial({})]
    while frontier:
        new = []
        for m in frontier:
            for v in variables:
                cand = m.mul(Monomial({v: 1}))
                if cand.degree <= degree_bound and cand not in monoms:
                    monoms.append(cand)
                    new.append(cand)
        frontier = new
    products = []
    for g in gens:
        for m in monoms:
            prod = g.term_mul(m, field.one)
            if total_degree(prod) <= degree_bound:
                products.append(prod)
    all_monoms = sorted(
        {mm for prod in products for mm in prod.terms} | set(target.terms),
        key=order.key,
    )
    idx = {m: i for i, m in enumerate(all_monoms)}

    def vec(poly):
        out = [field.zero] * len(all_monoms)
        for m, c in poly.terms.items():
            out[idx[m]] = c
        return out

    # target is in the span exactly when the system with the products as
    # columns has a solution
    columns = [vec(prod) for prod in products]
    return solve(field, [list(row) for row in zip(*columns)], vec(target)) is not None


def test_membership_agrees_with_linear_algebra_oracle():
    rng = random.Random(1341)
    order = DegRevLex(("x", "y"))
    pool = ["x^2-y", "x*y-1", "y^2", "x^2+x", "y^3-x", "x*y+y"]
    for field in (QQ, GF(5)):
        for _ in range(12):
            gens = [p(t, field) for t in rng.sample(pool, 2)]
            gb = buchberger(gens, order)
            target = p(rng.choice(pool), field) * p(rng.choice(["x", "y", "1"]), field)
            nf = normal_form(target, gb)
            bound = total_degree(target) + max(total_degree(g) for g in gens) + 4
            oracle = _oracle_membership(target, gens, order, bound, field)
            if oracle:
                # bounded-degree membership must imply a zero normal form
                assert nf.is_zero()
            if nf.is_zero():
                # certify membership constructively through the cofactors
                gb_ext, cofs = buchberger_extended(gens, order)
                r, qs = reduce_extended(target, gb_ext)
                assert r.is_zero()
                acc = Polynomial.zero(field)
                for q, (g, vec) in zip(qs, zip(gb_ext.generators, cofs)):
                    for c, gen in zip(vec, gens):
                        acc = acc + q * c * gen
                assert acc == target
            else:
                assert not oracle
