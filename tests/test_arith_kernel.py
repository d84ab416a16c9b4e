"""The exact-arithmetic kernel against the code it replaced.

``reference_add_multiple`` is the method-call loop (``field.add`` and
``field.mul`` per term); the ``reference_*`` monomial operations work on
name->exponent dicts and build their result through the checking
constructor; ``reference_key`` is the order key computed afresh.  Over QQ
(ints and Fractions mixed), GF(2), GF(7) and GF(101) the kernel must give
the same values, and over QQ every scalar it returns is an int or a
Fraction, never a float.  ``EagerFractions`` is the scalar field as it
was before ``fractions`` was loaded lazily: every literal and every
rational inverse went through ``Fraction``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descent_kit import GF, QQ, DegRevLex, Monomial, Polynomial
from descent_kit.errors import DivisionByZero, ParseError
from descent_kit.linear import vec_mul
from descent_kit.polynomials import ONE, add_multiple
from conftest import sparse_cells

FIELDS = (QQ, GF(2), GF(7), GF(101))
VARIABLES = ("x", "y", "z")


def reference_add_multiple(terms, p_terms, c, field, m=None):
    zero, add, mul = field.zero, field.add, field.mul
    if m is not None and not m.degree:
        m = None
    for pm, pc in p_terms.items():
        if m is not None:
            pm = reference_mul(pm, m)
        s = add(terms.get(pm, zero), mul(pc, c))
        if s:
            terms[pm] = s
        else:
            terms.pop(pm, None)


def reference_mul(a, b):
    exps = dict(a.exps)
    for v, e in b.exps.items():
        exps[v] = exps.get(v, 0) + e
    return Monomial(exps)


def reference_divides(a, b):
    return all(b.exps.get(v, 0) >= e for v, e in a.exps.items())


def reference_divide(a, b):
    exps = dict(a.exps)
    for v, e in b.exps.items():
        exps[v] = exps.get(v, 0) - e
    return Monomial(exps)


def reference_lcm(a, b):
    exps = dict(a.exps)
    for v, e in b.exps.items():
        exps[v] = max(exps.get(v, 0), e)
    return Monomial(exps)


def reference_key(order, m):
    vec = [m.exps.get(v, 0) for v in order.variables]
    return (sum(vec), tuple(-e for e in reversed(vec)))


def is_qq_scalar(c):
    return type(c) is int or type(c) is Fraction


def assert_canonical(m):
    """The fields of a monomial agree with the checking constructor's."""
    expected = Monomial(m.exps)
    assert m == expected and hash(m) == hash(expected)
    assert list(m.exps.items()) == list(expected.exps.items())
    assert m.degree == expected.degree
    assert all(e > 0 for e in m.exps.values())


monomials = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in VARIABLES)).map(
    lambda exps: Monomial(dict(zip(VARIABLES, exps))))


def qq_values():
    """Integers, integral Fractions and proper Fractions."""
    return st.one_of(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20).map(Fraction),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )


def scalars(field):
    if field.characteristic:
        return st.integers(min_value=0, max_value=field.characteristic - 1)
    return qq_values()


@st.composite
def term_dicts(draw, field, max_terms=5):
    """A term dict of canonical nonzero scalars (ints and Fractions mixed
    over QQ, as sums and products may leave them)."""
    out = {}
    for m, c in draw(st.lists(st.tuples(monomials, scalars(field)), max_size=max_terms)):
        if c:
            out[m] = c
    return out


@st.composite
def add_multiple_inputs(draw):
    field = draw(st.sampled_from(FIELDS))
    terms = draw(term_dicts(field))
    p_terms = draw(term_dicts(field))
    c = draw(scalars(field))
    m = draw(st.one_of(st.none(), st.just(ONE), monomials))
    return field, terms, p_terms, c, m


@settings(max_examples=300, deadline=None)
@given(add_multiple_inputs())
def test_add_multiple_matches_the_method_call_loop(inputs):
    field, terms, p_terms, c, m = inputs
    expected = dict(terms)
    reference_add_multiple(expected, p_terms, c, field, m)
    got = dict(terms)
    add_multiple(got, p_terms, c, field, m)
    assert got == expected
    assert all(v for v in got.values())
    for mono in got:
        assert_canonical(mono)
    if field.characteristic:
        assert all(type(v) is int and 0 <= v < field.characteristic for v in got.values())
    else:
        assert all(is_qq_scalar(v) for v in got.values())


@settings(max_examples=300, deadline=None)
@given(monomials, monomials)
def test_monomial_operations_match_the_dict_references(a, b):
    product = a.mul(b)
    assert product == reference_mul(a, b)
    assert_canonical(product)
    lcm = a.lcm(b)
    assert lcm == reference_lcm(a, b)
    assert_canonical(lcm)
    assert a.divides(b) == reference_divides(a, b)
    assert a.divides(product) and b.divides(product)
    quotient = product.divide(b)
    assert quotient == reference_divide(product, b) == a
    assert_canonical(quotient)
    assert_canonical(lcm.divide(a))


def test_multiplying_by_the_unit_monomial_returns_the_other_operand():
    m = Monomial({"x": 2, "z": 1})
    assert m.mul(ONE) is m
    assert ONE.mul(m) is m
    assert m.divide(ONE) == m and m.divide(m) == ONE
    assert not Monomial({"x": 1, "y": 1, "z": 1}).divides(Monomial({"x": 5}))


@settings(max_examples=200, deadline=None)
@given(st.lists(monomials, max_size=12))
def test_key_memo_matches_fresh_keys(ms):
    order = DegRevLex(VARIABLES)
    for m in ms + ms:
        assert order.key_memo[m] == reference_key(order, m) == order.key(m)


def test_order_keys_are_computed_once_per_monomial(monkeypatch):
    calls = []
    original = DegRevLex.key

    def counted(self, m):
        calls.append(m)
        return original(self, m)

    monkeypatch.setattr(DegRevLex, "key", counted)
    order = DegRevLex(VARIABLES)
    x, y = Polynomial.variable(QQ, "x"), Polynomial.variable(QQ, "y")
    poly = (x + y) ** 3
    for _ in range(3):
        order.leading(poly)
        order.sorted_terms(poly)
    assert sorted(map(repr, calls)) == sorted(map(repr, poly.terms))
    with pytest.raises(ValueError, match="outside order"):
        order.key_memo[Monomial({"w": 1})]
    assert Monomial({"w": 1}) not in order.key_memo


# -- scalars ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(qq_values(), qq_values())
def test_qq_arithmetic_stays_exact(a, b):
    a, b = QQ.normalize(a), QQ.normalize(b)
    for value in (a, b):
        assert is_qq_scalar(value)
        assert type(value) is int or value.denominator != 1
    results = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a), QQ.mul(a, QQ.mul(a, a))]
    if b:
        inverse = QQ.inv(b)
        results += [inverse, QQ.div(a, b), QQ.mul(inverse, inverse)]
        assert type(inverse) is int or inverse.denominator != 1
        assert inverse == Fraction(1) / Fraction(b)
    for value in results:
        assert is_qq_scalar(value)


@pytest.mark.parametrize("value", [0, 5, -3, Fraction(4, 2), Fraction(-9, 3), True, "7", 2.0])
def test_qq_normalize_gives_ints_for_integral_values(value):
    got = QQ.normalize(value)
    assert type(got) is int
    assert got == Fraction(value)


@pytest.mark.parametrize("value", [Fraction(1, 3), "5/2", 0.5, Fraction(-7, 4)])
def test_qq_normalize_keeps_proper_fractions_exact(value):
    got = QQ.normalize(value)
    assert type(got) is Fraction and got == Fraction(value)


def test_qq_inverses_of_units_of_the_integers_are_ints():
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(1)) is int
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert type(QQ.normalize(Fraction(4, 2))) is int and QQ.normalize(Fraction(4, 2)) == 2
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int


def test_integral_fractions_and_ints_are_interchangeable_in_term_dicts():
    m = Monomial({"x": 1})
    a = Polynomial.from_terms(QQ, {m: 2, ONE: Fraction(1, 2)})
    b = Polynomial.from_terms(QQ, {m: Fraction(2), ONE: Fraction(1, 2)})
    assert a == b and hash(a) == hash(b)
    assert QQ.render(Fraction(2)) == QQ.render(2) == "2"
    assert QQ.render(QQ.normalize(Fraction(-6, 4))) == "-3/2"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS[1:]), st.integers(min_value=-500, max_value=500))
def test_prime_field_scalars_are_residues(field, n):
    a = field.normalize(n)
    assert type(a) is int and 0 <= a < field.characteristic
    if a:
        assert field.mul(a, field.inv(a)) == 1


class EagerFractions:
    """``parse``, ``normalize``, ``inv`` and ``div`` of one field, each
    through ``Fraction`` whatever the value."""

    def __init__(self, field):
        self.p = field.characteristic

    def normalize(self, value):
        p = self.p
        if p:
            if type(value) is int:
                return value % p
            if isinstance(value, Fraction):
                if value.denominator % p == 0:
                    raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
                return (value.numerator * pow(value.denominator, -1, p)) % p
            return int(value) % p
        if type(value) is int:
            return value
        if not isinstance(value, Fraction):
            value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        if self.p:
            return pow(a, -1, self.p)
        q = Fraction(1) / a
        return q.numerator if q.denominator == 1 else q

    def div(self, a, b):
        c = self.inv(b)
        return (a * c) % self.p if self.p else a * c

    def parse(self, text):
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                num, den = int(num), int(den)
            else:
                num, den = int(text), 1
        except ValueError:
            raise ParseError(
                f"bad scalar literal {text!r}: expected an integer or num/den") from None
        if den == 0:
            raise ParseError(f"bad scalar literal {text!r}: zero denominator")
        return self.normalize(Fraction(num, den))


def outcome(call, *args):
    """The type and value of what ``call`` returns, or the type and text of
    what it raises."""
    try:
        value = call(*args)
    except (ParseError, DivisionByZero) as exc:
        return type(exc), str(exc)
    return type(value), value


SCALAR_FIELDS = (QQ, GF(2), GF(3), GF(7), GF(101))
small = st.integers(-60, 60)
literals = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.tuples(small, small).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    st.tuples(small, small).map(lambda nd: f" {nd[0]} / {nd[1]} "),
    st.text(alphabet="0123456789/-+_ .x", max_size=8),
)
values = st.one_of(st.integers(-10**20, 10**20), st.fractions(max_denominator=50),
                   st.floats(allow_nan=False, allow_infinity=False, width=32))


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(SCALAR_FIELDS), text=literals, value=values, a=values, b=values)
def test_scalars_match_the_eager_fraction_reference(field, text, value, a, b):
    """Value and type agree with the reference: an int stays an int, and a
    Fraction is made exactly where the reference makes one."""
    eager = EagerFractions(field)
    assert outcome(field.parse, text) == outcome(eager.parse, text)
    assert outcome(field.normalize, value) == outcome(eager.normalize, value)
    try:
        a, b = eager.normalize(a), eager.normalize(b)
    except DivisionByZero:
        return
    assert outcome(field.inv, b) == outcome(eager.inv, b)
    assert outcome(field.div, a, b) == outcome(eager.div, a, b)


# -- structure-constant products ---------------------------------------------------


def reference_vec_mul(field, constants, x, y):
    """The method-call loop ``linear.vec_mul`` ran before its arithmetic went
    inline and its table went sparse: a dense table, one ``field.is_zero``
    per scalar, ``field.add``/``field.mul``.  The kernel is handed the same
    table as (m, c) cells."""
    l = len(x)
    out = [field.zero] * l
    for i in range(l):
        if field.is_zero(x[i]):
            continue
        for j in range(l):
            if field.is_zero(y[j]):
                continue
            c = field.mul(x[i], y[j])
            row = constants[i][j]
            for m in range(l):
                if not field.is_zero(row[m]):
                    out[m] = field.add(out[m], field.mul(c, row[m]))
    return out


@st.composite
def vec_mul_inputs(draw):
    """A table of mostly zero structure constants and two vectors, over
    GF(2), GF(3), GF(101) or QQ (ints and Fractions mixed)."""
    field = draw(st.sampled_from((GF(2), GF(3), GF(101), QQ)))
    l = draw(st.integers(min_value=1, max_value=4))
    value = st.one_of(st.just(field.zero), st.just(field.zero), scalars(field)).map(
        field.normalize)
    flat = draw(st.lists(value, min_size=l**3 + 2 * l, max_size=l**3 + 2 * l))
    constants = [[flat[(i * l + j) * l:(i * l + j + 1) * l] for j in range(l)]
                 for i in range(l)]
    return field, constants, flat[l**3:l**3 + l], flat[l**3 + l:]


@settings(max_examples=100, deadline=None)
@given(vec_mul_inputs())
def test_vec_mul_matches_the_method_call_loop(inputs):
    field, constants, x, y = inputs
    got = vec_mul(field, sparse_cells(field, constants), x, y)
    assert got == reference_vec_mul(field, constants, x, y)
    if field.characteristic:
        assert all(type(v) is int and 0 <= v < field.characteristic for v in got)
    else:
        assert all(is_qq_scalar(v) for v in got)
