"""Differential tests against SymPy (test-only dependency).

On seeded random small ideals over QQ and GF(p), the reduced grevlex basis
from ``buchberger`` must equal ``sympy.groebner(..., order="grevlex")``
with the generators in the order of our ``DegRevLex`` variables, and
``normal_form`` must equal SymPy's remainder modulo that basis.  On seeded
random small matrices over QQ[x, y] and GF(101)[x, y], the Berkowitz
``RingMatrix.det`` must equal SymPy's determinant.
"""

import random
from fractions import Fraction

import pytest

from descent_kit import (
    GF, QQ, DegRevLex, Monomial, Polynomial, PresentedRing, buchberger, normal_form,
)
from descent_kit.matrices import RingMatrix

sympy = pytest.importorskip("sympy")

VARIABLES = ("x", "y", "z")


def random_poly(rng, field, variables, terms, degree):
    out = {}
    for _ in range(terms):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(variables))] += 1
        out[Monomial(dict(zip(variables, exps)))] = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    return Polynomial(field, out)


def to_sympy(poly, symbols):
    expr = sympy.Integer(0)
    for m, c in poly.terms.items():
        if isinstance(c, Fraction):
            term = sympy.Rational(c.numerator, c.denominator)
        else:
            term = sympy.Integer(c)
        for v, sym in symbols.items():
            term *= sym ** m.exps.get(v, 0)
        expr += term
    return expr


def from_sympy(sym_poly, field, variables):
    out = {}
    for exps, c in sym_poly.terms():
        if field.characteristic:
            value = int(c) % field.characteristic
        else:
            value = Fraction(int(c.p), int(c.q))
        out[Monomial(dict(zip(variables, exps)))] = value
    return Polynomial(field, out)


def domain_options(field):
    if field.characteristic:
        return {"modulus": field.characteristic}
    return {"domain": sympy.QQ}


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=repr)
@pytest.mark.parametrize("seed", range(10))
def test_reduced_basis_and_normal_form_match_sympy(field, seed):
    rng = random.Random(seed * 1009 + field.characteristic)
    variables = VARIABLES[: rng.choice([2, 3])]
    order = DegRevLex(variables)
    symbols = {v: sympy.Symbol(v) for v in variables}
    gens = [random_poly(rng, field, variables, rng.randint(1, 3), 3)
            for _ in range(rng.randint(1, 3))]
    gens = [g for g in gens if not g.is_zero()] or [Polynomial.variable(field, "x")]

    ours = buchberger(gens, order)
    theirs = sympy.groebner([to_sympy(g, symbols) for g in gens], *symbols.values(),
                            order="grevlex", **domain_options(field))
    assert set(ours.generators) == {
        from_sympy(sym_poly, field, variables) for sym_poly in theirs.polys
    }

    for _ in range(3):
        target = random_poly(rng, field, variables, rng.randint(1, 5), 5)
        _, remainder = theirs.reduce(to_sympy(target, symbols))
        expected = from_sympy(
            sympy.Poly(remainder, *symbols.values(), **domain_options(field)),
            field, variables,
        )
        assert normal_form(target, ours) == expected


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
@pytest.mark.parametrize("seed", range(10))
def test_determinant_matches_sympy(field, seed):
    rng = random.Random(seed * 7919 + field.characteristic)
    variables = VARIABLES[:2]
    ring = PresentedRing.make(field, variables)
    symbols = {v: sympy.Symbol(v) for v in variables}
    n = rng.randint(1, 4)
    rows = [[random_poly(rng, field, variables, rng.randint(0, 2), 2) for _ in range(n)]
            for _ in range(n)]
    ours = RingMatrix(ring, rows).det()
    theirs = sympy.Matrix([[to_sympy(e, symbols) for e in row] for row in rows]).det()
    expected = from_sympy(
        sympy.Poly(sympy.expand(theirs), *symbols.values(), **domain_options(field)),
        field, variables,
    )
    assert ours == expected
