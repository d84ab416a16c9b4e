"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values: ``Fraction`` over the rationals, canonical
residues (ints in ``[0, p)``) over a prime field.  The field object supplies
all arithmetic so that no floating point can sneak in anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, ParseError

_WORD_BOUND = 2**63


def _is_prime(n: int) -> bool:
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


class ScalarField:
    """The base field k: characteristic 0 means QQ, a prime p means GF(p)."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        if characteristic:
            if characteristic >= _WORD_BOUND:
                raise ValueError("prime fields are restricted to word-sized p")
            if not _is_prime(characteristic):
                raise ValueError(f"characteristic must be 0 or a prime, got {characteristic}")
        self.characteristic = characteristic

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime_field"

    def __eq__(self, other):
        return isinstance(other, ScalarField) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("ScalarField", self.characteristic))

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"

    # -- canonical values ----------------------------------------------------

    def normalize(self, value):
        """Coerce an int/Fraction into canonical form for this field."""
        p = self.characteristic
        if p:
            if isinstance(value, Fraction):
                if value.denominator % p == 0:
                    raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
                return (value.numerator * pow(value.denominator, -1, p)) % p
            return int(value) % p
        if isinstance(value, Fraction):
            return value
        return Fraction(value)

    @property
    def zero(self):
        return self.normalize(0)

    @property
    def one(self):
        return self.normalize(1)

    def is_zero(self, a) -> bool:
        return a == self.zero

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
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        p = self.characteristic
        return pow(a, -1, p) if p else 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        p = self.characteristic
        if n < 0:
            return self.pow(self.inv(a), -n)
        return pow(a, n, p) if p else a**n

    # -- text form -----------------------------------------------------------

    def parse(self, text: str):
        """Parse a scalar literal: an integer or ``num/den``."""
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(text))
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


def scalar_arith(op: str, field: ScalarField, a, b):
    """Four-function scalar arithmetic with explicit field checking."""
    a = field.normalize(a)
    b = field.normalize(b)
    if op == "add":
        return field.add(a, b)
    if op == "sub":
        return field.sub(a, b)
    if op == "mul":
        return field.mul(a, b)
    if op == "div":
        return field.div(a, b)
    raise ValueError(f"unknown op {op!r}")


QQ = ScalarField(0)


def GF(p: int) -> ScalarField:
    return ScalarField(p)
