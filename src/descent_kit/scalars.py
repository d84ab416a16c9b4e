"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values.  Over the rationals a scalar is an ``int``
while it is integral and a ``Fraction`` otherwise; ``Fraction(2) == 2`` and
the two hash alike, so term dicts, equality and rendering do not care which
one a sum or product happens to keep.  Over a prime field a scalar is a
canonical residue, an int in ``[0, p)``.  The field object supplies all
arithmetic so that no floating point can sneak in anywhere.

``fractions`` (which loads ``decimal`` and ``numbers``) is imported only
on the paths that meet a value other than an int: a literal or an inverse
that is not integral, or a value handed to ``normalize`` that is not an
int.  A run whose scalars are all integers, every run over GF(p) among
them, never loads it.
"""

from __future__ import annotations

from .errors import DivisionByZero, ParseError

_WORD_BOUND = 2**63


# Miller-Rabin with the primes up to 37 as bases decides primality exactly
# for every n < 3.18 * 10**23 (Sorenson and Webster, Math. Comp. 2017),
# far above the word bound on p.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_FIELDS = {}  # characteristic -> its one ScalarField


class ScalarField:
    """The base field k: characteristic 0 means QQ, a prime p means GF(p).

    There is one field per characteristic: the constructor (and so ``GF``,
    copies and unpickling) returns the object kept in ``_FIELDS``, checking
    p only the first time, so fields compare and hash by identity, as
    ``Monomial`` does.  ``zero`` and ``one`` are the canonical constants,
    set once here.
    """

    __slots__ = ("characteristic", "zero", "one")

    def __new__(cls, characteristic: int = 0):
        field = _FIELDS.get(characteristic)
        if field is None:
            if characteristic:
                if characteristic >= _WORD_BOUND:
                    raise ValueError("prime fields are restricted to word-sized p")
                if not _is_prime(characteristic):
                    raise ValueError(
                        f"characteristic must be 0 or a prime, got {characteristic}")
            field = object.__new__(cls)
            field.characteristic = characteristic
            field.zero = field.normalize(0)
            field.one = field.normalize(1)
            _FIELDS[characteristic] = field
        return field

    def __reduce__(self):
        return ScalarField, (self.characteristic,)

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"

    # -- canonical values ----------------------------------------------------

    def normalize(self, value):
        """Coerce an int/Fraction into canonical form for this field.

        An int is reduced mod p, or over QQ returned as it is.  Over QQ an
        integral Fraction becomes its numerator, and any other value goes
        through ``Fraction(value)``.
        """
        p = self.characteristic
        if type(value) is int:
            return value % p if p else value
        from fractions import Fraction

        if p:
            if isinstance(value, Fraction):
                if value.denominator % p == 0:
                    raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
                return (value.numerator * pow(value.denominator, -1, p)) % p
            return int(value) % p
        if not isinstance(value, Fraction):
            value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def is_zero(self, a) -> bool:
        return not a

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

    def neg(self, a):
        p = self.characteristic
        return (-a) % p if p else -a

    def mul(self, a, b):
        p = self.characteristic
        return (a * b) % p if p else a * b

    def inv(self, a):
        """1/a; over QQ an int when the inverse is integral, as the units
        1 and -1 of the integers are, and otherwise taken in Fraction (1/a
        on an int would be a float)."""
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        p = self.characteristic
        if p:
            return pow(a, -1, p)
        if a == 1 or a == -1:
            return int(a)
        from fractions import Fraction

        q = Fraction(1) / a
        return q.numerator if q.denominator == 1 else q

    def unit_inverse(self, a):
        """1/a: in a field every nonzero scalar is a unit."""
        return self.inv(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- text form -----------------------------------------------------------

    def parse(self, text: str):
        """Parse a scalar literal: an integer or ``num/den``."""
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                num, den = int(num), int(den)
                if den and not num % den:
                    value = num // den
                else:
                    from fractions import Fraction

                    value = Fraction(num, den)
            else:
                value = int(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar literal {text!r}: {exc}") from None
        return self.normalize(value)

    def render(self, a) -> str:
        """Canonical decimal rendering; residues print as their value in [0, p)."""
        if self.characteristic:
            return str(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"


QQ = ScalarField(0)


def GF(p: int) -> ScalarField:
    """The prime field of p elements; QQ is ``ScalarField(0)``, not GF(0)."""
    if p < 2:
        raise ValueError(f"characteristic must be a prime, got {p}")
    return ScalarField(p)
