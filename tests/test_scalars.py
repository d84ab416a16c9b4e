"""Field arithmetic: exactness, canonical forms, unit certificates, one
field object per characteristic."""

import copy
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descent_kit import GF, QQ, PresentedRing, ScalarField
from descent_kit.errors import DivisionByZero, NotAUnit
from descent_kit import scalars
from descent_kit.scalars import _is_prime

F5 = GF(5)


def test_div_exact_rational():
    assert QQ.div(1, 3) == Fraction(1, 3)


def test_mul_mod_five():
    assert F5.mul(2, 3) == 1


def test_add_rationals():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.div(1, 0)
    with pytest.raises(DivisionByZero):
        F5.inv(F5.zero)


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2**63 + 9)
    # GF(0) is not the rationals: QQ is ScalarField(0)
    for p in (0, 1, -7):
        with pytest.raises(ValueError):
            GF(p)


def test_one_field_per_characteristic():
    assert GF(7) is GF(7) and ScalarField(7) is GF(7)
    assert ScalarField(0) is QQ and ScalarField() is QQ
    assert GF(7) is not GF(11)
    for field in (QQ, GF(7), GF(2**61 - 1)):
        assert copy.copy(field) is field
        assert copy.deepcopy(field) is field
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(field, protocol)) is field
    # a polynomial copied or unpickled keeps the one field, so it stays equal
    p = PresentedRing.make(F5, ("x",)).el("x^2 + 2")
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p


def test_a_known_characteristic_is_not_tested_again(monkeypatch):
    GF(13)
    calls = []
    monkeypatch.setattr(scalars, "_is_prime", lambda n: calls.append(n) or True)
    assert GF(13).characteristic == 13
    assert calls == []


def _is_prime_by_trial_division(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@given(st.integers(min_value=-10, max_value=10**6))
def test_primality_matches_trial_division(n):
    assert _is_prime(n) == _is_prime_by_trial_division(n)


@pytest.mark.parametrize("n", [
    3215031751,            # strong pseudoprime to bases 2, 3, 5, 7
    2152302898747,         # ... to bases 2 through 11
    3474749660383,         # ... to bases 2 through 13
    341550071728321,       # ... to bases 2 through 17
    3825123056546413051,   # ... to bases 2 through 23
    (2**31 - 1) * (2**32 - 5),  # two word-sized prime factors
])
def test_strong_pseudoprimes_are_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError):
        GF(n)


@pytest.mark.parametrize("p", [2**61 - 1, 9223372036854775783])
def test_word_sized_prime_is_accepted_quickly(p):
    started = time.perf_counter()
    field = GF(p)
    assert time.perf_counter() - started < 1
    assert field.characteristic == p
    assert field.mul(field.inv(field.normalize(3)), 3) == 1


def test_residues_canonical():
    assert F5.normalize(-1) == 4
    assert F5.normalize(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5


rationals = st.fractions(max_denominator=10**4)
residues = st.integers(min_value=0, max_value=4)


@given(rationals, rationals)
def test_rational_field_axioms(a, b):
    a, b = QQ.normalize(a), QQ.normalize(b)
    assert QQ.add(a, b) == QQ.add(b, a)
    assert QQ.mul(a, b) == QQ.mul(b, a)
    if not QQ.is_zero(b):
        assert QQ.mul(QQ.mul(a, b), QQ.inv(b)) == a


@given(residues, residues)
def test_prime_field_axioms(a, b):
    assert F5.add(a, b) == F5.add(b, a)
    assert F5.mul(a, b) == F5.mul(b, a)
    if not F5.is_zero(b):
        assert F5.mul(F5.mul(a, b), F5.inv(b)) == a


# ----- unit certificates in presented rings -----


def test_unit_inverse_square_root_of_two():
    ring = PresentedRing.make(QQ, ("x",), [PresentedRing.make(QQ, ("x",), []).el("x^2-2")])
    inv = ring.unit_inverse(ring.var("x"))
    assert ring.render(inv) == "1/2*x"
    assert ring.equal(ring.var("x") * inv, ring.one)


def test_polynomial_variable_is_not_a_unit():
    ring = PresentedRing.make(QQ, ("x",), [])
    with pytest.raises(NotAUnit):
        ring.unit_inverse(ring.var("x"))


def test_one_is_its_own_inverse():
    for ring in (
        PresentedRing.base_field(QQ),
        PresentedRing.make(F5, ("y",), []),
    ):
        assert ring.unit_inverse(ring.one) == ring.one


def test_unit_certificate_verifies():
    ring = PresentedRing.make(F5, ("x",), [PresentedRing.make(F5, ("x",), []).el("x^3-2")])
    a = ring.el("x+1")
    inv = ring.unit_inverse(a)
    assert ring.equal(a * inv, ring.one)
    # x^2+1 vanishes at the root 3 of x^3-2, so it is a zero divisor
    with pytest.raises(NotAUnit):
        ring.unit_inverse(ring.el("x^2+1"))
