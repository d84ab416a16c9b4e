"""The interned monomial kernel against the dict-based class it replaced.

``ReferenceMonomial`` is the earlier ``Monomial``: a name->exponent dict
compared and hashed by its sorted key, with no interning, no mask and no
product slot.  Over variable sets that overlap across rings (so the bits of
the process-wide mask table are shared between them), every operation must
agree with it, equal exponent maps must give the same object on every route
that makes a monomial, and a mask must never reject a true divisor.
"""

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from descent_kit import GF, QQ, DegRevLex, Monomial, Polynomial, parse_polynomial
from descent_kit.polynomials import ONE, add_multiple


class ReferenceMonomial:
    """A power product, stored as a name->exponent map with no zero entries."""

    __slots__ = ("exps", "degree", "_key", "_hash")

    def __init__(self, exps=()):
        if isinstance(exps, dict):
            items = exps.items()
        else:
            items = exps
        key = tuple(sorted((v, e) for v, e in items if e != 0))
        for v, e in key:
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
        self.exps = dict(key)
        self.degree = sum(self.exps.values())
        self._key = key
        self._hash = hash(key)

    def __eq__(self, other):
        return isinstance(other, ReferenceMonomial) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self._key:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self._key)

    def mul(self, other):
        exps = dict(self.exps)
        for v, e in other.exps.items():
            exps[v] = exps.get(v, 0) + e
        return ReferenceMonomial(exps)

    def divides(self, other):
        if self.degree > other.degree:
            return False
        return all(other.exps.get(v, 0) >= e for v, e in self.exps.items())

    def divide(self, other):
        exps = dict(self.exps)
        for v, e in other.exps.items():
            exps[v] = exps[v] - e
        return ReferenceMonomial(exps)

    def lcm(self, other):
        exps = dict(self.exps)
        for v, e in other.exps.items():
            exps[v] = max(exps.get(v, 0), e)
        return ReferenceMonomial(exps)


def reference_key(order, m):
    """DegRevLex's order key of a reference monomial."""
    vec = [m.exps.get(v, 0) for v in order.variables]
    return (m.degree, tuple(-e for e in reversed(vec)))


# Variable sets of unrelated rings; each shares names with another, so the
# mask bits of one ring are interleaved with those of the others.
RINGS = (
    ("x", "y", "z"),
    ("a", "x", "t1"),
    ("y", "t1", "w", "b"),
    ("z", "a", "y1", "y2", "x"),
)


@st.composite
def exponent_maps(draw, variables=None, max_exp=3):
    if variables is None:
        variables = draw(st.sampled_from(RINGS))
    exps = draw(st.lists(st.integers(min_value=0, max_value=max_exp),
                         min_size=len(variables), max_size=len(variables)))
    return dict(zip(variables, exps))


@st.composite
def pairs(draw):
    """Two exponent maps over one ring, or over two rings sharing names."""
    first = draw(st.sampled_from(RINGS))
    second = draw(st.one_of(st.just(first), st.sampled_from(RINGS)))
    return draw(exponent_maps(first)), draw(exponent_maps(second))


def both(exps):
    return Monomial(exps), ReferenceMonomial(exps)


def same_monomial(m, ref):
    """m is the interned monomial of ref's exponent map, with a right mask."""
    assert m is Monomial(ref.exps)
    assert m.exps == ref.exps and list(m.exps) == list(ref.exps)
    assert m.degree == ref.degree
    assert repr(m) == repr(ref)
    bits = 0
    for v in m.exps:
        bits |= Monomial({v: 1}).mask
    assert m.mask == bits


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_operations_match_the_dict_reference(maps):
    (a, ra), (b, rb) = both(maps[0]), both(maps[1])
    same_monomial(a, ra)
    same_monomial(a.mul(b), ra.mul(rb))
    same_monomial(a.lcm(b), ra.lcm(rb))
    assert a.divides(b) == ra.divides(rb)
    assert b.divides(a) == rb.divides(ra)
    if rb.divides(ra):
        same_monomial(a.divide(b), ra.divide(rb))
    product = a.mul(b)
    assert product.divide(b) is a and product.divide(a) is b
    assert a.mul(b) is product and b.mul(a) is product


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.lists(exponent_maps(), max_size=6))
def test_order_keys_match_the_dict_reference(variables, maps):
    order = DegRevLex(variables)
    for exps in maps:
        exps = {v: e for v, e in exps.items() if v in variables}
        m, ref = both(exps)
        assert order.key(m) == reference_key(order, ref) == order.key_memo[m]


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_a_mask_never_rejects_a_true_divisor(maps):
    (a, ra), (b, rb) = both(maps[0]), both(maps[1])
    product = a.mul(b)
    for d, m in ((a, product), (b, product), (a, a.lcm(b)), (ONE, a)):
        assert not d.mask & ~m.mask
        assert d.divides(m)
    if rb.divides(ra):
        assert not b.mask & ~a.mask


@settings(max_examples=100, deadline=None)
@given(exponent_maps(max_exp=2))
def test_every_route_gives_the_same_object(exps):
    m = Monomial(exps)
    assert Monomial(dict(reversed(list(exps.items())))) is m
    assert Monomial(list(exps.items())) is m
    assert Monomial(tuple((v, e) for v, e in exps.items() if e)) is m
    assert Monomial(dict(exps, q9=0)) is m
    assert m.mul(ONE) is m and ONE.mul(m) is m and m.divide(ONE) is m
    assert m.divide(m) is ONE
    assert m.lcm(m) is m and m.lcm(ONE) is m
    split = {v: e // 2 for v, e in exps.items()}
    half = Monomial(split)
    rest = Monomial({v: e - split[v] for v, e in exps.items()})
    assert half.mul(rest) is m and rest.mul(half) is m
    assert m.divide(half) is rest

    text = "*".join(f"{v}^{e}" for v, e in exps.items() if e) or "1"
    (parsed,) = parse_polynomial(text, QQ).terms
    assert parsed is m

    # substitute: the kept variables of a term, and a renaming back and forth
    field = GF(7)
    poly = Polynomial(field, {m: 3})
    (kept,) = poly.substitute({"unused": Polynomial.variable(field, "x")}).terms
    assert kept is m
    renamed = poly.substitute({v: Polynomial.variable(field, v + "_r") for v in m.exps})
    back = renamed.substitute({v + "_r": Polynomial.variable(field, v) for v in m.exps})
    assert list(back.terms) == [m]


@settings(max_examples=100, deadline=None)
@given(exponent_maps())
def test_copies_and_pickles_are_the_object_itself(exps):
    m = Monomial(exps)
    assert copy.copy(m) is m
    assert copy.deepcopy(m) is m
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(m, protocol)) is m
    terms = {m: 2, Monomial({"x": 1, "q8": 1}): 1}
    assert all(a is b for a, b in zip(copy.deepcopy(terms), terms))
    assert all(a is b for a, b in zip(pickle.loads(pickle.dumps(terms)), terms))


def test_one_stays_the_unit():
    assert Monomial() is ONE and Monomial({}) is ONE and Monomial({"x": 0}) is ONE
    assert ONE.degree == 0 and ONE.mask == 0 and ONE.is_one() and repr(ONE) == "1"
    x = Monomial({"x": 1})
    assert x.mul(ONE) is x and ONE.mul(x) is x and x.divide(x) is ONE
    assert ONE.divides(x) and not x.divides(ONE)
    assert copy.deepcopy(ONE) is ONE and pickle.loads(pickle.dumps(ONE)) is ONE


def test_each_name_has_a_bit_of_its_own():
    """Coprime leading monomials are found by their masks alone, so the
    bits must tell every pair of names apart."""
    names = sorted({v for ring in RINGS for v in ring})
    bits = [Monomial({v: 1}).mask for v in names]
    assert all(b and not b & (b - 1) for b in bits)
    assert len(set(bits)) == len(bits)


def test_monomials_compare_by_identity():
    x2 = Monomial({"x": 2})
    assert x2 == Monomial([("x", 2)]) and x2 != Monomial({"x": 1})
    assert x2 != ReferenceMonomial({"x": 2}) and x2 != "x^2"
    assert {x2: 1}[Monomial({"x": 2})] == 1


# -- sums of polynomials -----------------------------------------------------------


def reference_add(p, q):
    """The method-call loop ``Polynomial.__add__`` used before it went through
    ``add_multiple``."""
    fld = p.field
    out = dict(p.terms)
    for m, c in q.terms.items():
        s = fld.add(out.get(m, fld.zero), c)
        if fld.is_zero(s):
            out.pop(m, None)
        else:
            out[m] = s
    return out


FIELDS = (QQ, GF(2), GF(3), GF(101))


@st.composite
def polynomial_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    variables = draw(st.sampled_from(RINGS))
    if field.characteristic:
        coeff = st.integers(min_value=0, max_value=field.characteristic - 1)
    else:
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    term = st.tuples(exponent_maps(variables, 2), coeff)

    def poly(terms):
        return Polynomial(field, {Monomial(e): c for e, c in terms})

    p = draw(st.lists(term, max_size=5).map(poly))
    q = draw(st.one_of(st.lists(term, max_size=5).map(poly), st.just(p)))
    return p, q


@settings(max_examples=150, deadline=None)
@given(polynomial_pairs())
def test_sums_and_differences_match_the_method_call_loop(polys):
    """Values and term order both: a sum's term dict is built in the order
    the old loop built it."""
    p, q = polys
    for got, expected in ((p + q, reference_add(p, q)), (p - q, reference_add(p, -q))):
        assert list(got.terms.items()) == list(expected.items())
    before = dict(p.terms)
    p + q, p - q
    assert p.terms == before


def test_product_slot_is_read_by_add_multiple():
    field = GF(5)
    x, y = Monomial({"x": 1}), Monomial({"y": 2})
    terms = {}
    add_multiple(terms, {y: 1, ONE: 2}, 3, field, x)
    assert x._products[y] is x.mul(y) is Monomial({"x": 1, "y": 2})
    assert terms == {x.mul(y): 3, x: 1}
