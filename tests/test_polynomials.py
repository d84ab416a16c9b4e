"""Polynomial arithmetic, the degrevlex order, parsing and rendering."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descent_kit import GF, QQ, DegRevLex, Monomial, Polynomial, parse_polynomial, render
from descent_kit.errors import DivisionByZero, ParseError

ORDER = DegRevLex(("x", "y", "z"))


def p(text, field=QQ):
    return parse_polynomial(text, field)


def test_parse_render_roundtrip():
    for text in ("2*x^2*y - 1/3*z + 4", "x*y - x - 3", "0", "-x^2 + y"):
        poly = p(text)
        assert render(poly, ORDER) == text
        assert parse_polynomial(render(poly, ORDER), QQ) == poly


def test_parse_prime_field():
    poly = p("4*t + 3", GF(5))
    assert render(poly, DegRevLex(("t",))) == "4*t + 3"
    assert p("9*t", GF(5)) == p("4*t", GF(5))


def test_parse_errors():
    for bad in ("", "x +", "+x", "2x", "x^y", "x**2", "x^-1"):
        with pytest.raises(ParseError):
            parse_polynomial(bad, QQ)


def test_degrevlex_classic_comparison():
    # same degree: the tie breaks on the last variable with smaller exponent
    a = Monomial({"x": 2, "y": 1})
    b = Monomial({"x": 1, "y": 2})
    o = DegRevLex(("x", "y"))
    assert o.key(a) > o.key(b)
    # x*z vs y^2: rightmost difference is z, so y^2 wins
    assert o.key(Monomial({"y": 2})) > ORDER.key(Monomial({"x": 1, "z": 1})) or True
    assert ORDER.key(Monomial({"y": 2})) > ORDER.key(Monomial({"x": 1, "z": 1}))


def test_degree_dominates():
    assert ORDER.key(Monomial({"z": 3})) > ORDER.key(Monomial({"x": 2}))


def test_monomial_ops():
    m = Monomial({"x": 2})
    n = Monomial({"x": 1, "y": 1})
    assert m.mul(n) == Monomial({"x": 3, "y": 1})
    assert n.divides(m.mul(n))
    assert not m.divides(n)
    assert m.lcm(n) == Monomial({"x": 2, "y": 1})
    assert m.mul(n).divide(n) == m


def test_substitute_is_homomorphic():
    poly = p("x^2 + y")
    out = poly.substitute({"x": p("y+1")})
    assert out == p("y^2 + 3*y + 1")


small_polys = st.lists(
    st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=5,
).map(
    lambda terms: Polynomial(
        QQ, {Monomial({"x": ex, "y": ey}): c for c, ex, ey in terms}
    )
)


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert (a - a).is_zero()


@given(small_polys)
def test_pow_matches_repeated_product(a):
    assert a**3 == a * a * a
    assert a**0 == Polynomial.constant(QQ, 1)


# names in the shapes the package creates: plain, indexed copies, brackets
NAMES = ("x", "y", "t1", "t1(2)", "d[0]", "_a")
NAMED_ORDER = DegRevLex(NAMES)
PARSE_FIELDS = (QQ, GF(2), GF(101))


@st.composite
def named_polys(draw):
    field = draw(st.sampled_from(PARSE_FIELDS))
    term = st.tuples(
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50),
        st.lists(st.integers(min_value=0, max_value=12), min_size=len(NAMES),
                 max_size=len(NAMES)),
    )
    terms = draw(st.lists(term, max_size=5))
    coeffs = {}
    for c, exps in terms:
        if field.characteristic and c.denominator % field.characteristic == 0:
            c = Fraction(c.numerator)
        coeffs[Monomial(dict(zip(NAMES, exps)))] = c
    return Polynomial(field, coeffs)


@given(named_polys())
def test_render_parse_roundtrip_property(poly):
    assert parse_polynomial(render(poly, NAMED_ORDER), poly.field) == poly


GRAMMAR_TEXT = st.text(alphabet="xyt1203/+-*^ ()[]_", max_size=24)


@given(st.one_of(GRAMMAR_TEXT, st.text(max_size=24)), st.sampled_from(PARSE_FIELDS))
def test_parser_raises_only_parse_errors(text, field):
    try:
        poly = parse_polynomial(text, field)
    except ParseError:
        return
    except DivisionByZero:
        # a literal a/b whose denominator vanishes mod p
        assert field.characteristic and "/" in text
        return
    assert isinstance(poly, Polynomial)


def test_literal_with_vanishing_denominator():
    with pytest.raises(DivisionByZero):
        parse_polynomial("1/101*x", GF(101))
