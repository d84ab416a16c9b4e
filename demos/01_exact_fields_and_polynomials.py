"""Exact scalars and sparse polynomials.

Everything in this library is exact: rationals are arbitrary-precision
fractions, prime-field residues are canonical integers, and polynomials
are sparse maps from power products to scalars.
"""

from descent_kit import GF, QQ, DegRevLex, parse_polynomial, render

print("== exact scalar arithmetic ==")
print("1/3 over the rationals:", QQ.div(1, 3))
print("2*3 over GF(5):        ", GF(5).mul(2, 3))
print("1/2 + 1/3:             ", QQ.add(QQ.parse("1/2"), QQ.parse("1/3")))

print()
print("== polynomials and the degrevlex order ==")
order = DegRevLex(("x", "y", "z"))
p = parse_polynomial("2*x^2*y - 1/3*z + 4", QQ)
q = parse_polynomial("x*y + z", QQ)
print("p        =", render(p, order))
print("q        =", render(q, order))
print("p*q      =", render(p * q, order))
print("p^2      =", render(p**2, order))
print("p(x->y+1)=", render(p.substitute({"x": parse_polynomial("y+1", QQ)}), order))

print()
print("Terms always render in decreasing degrevlex order, so every")
print("printed polynomial is a canonical form that re-parses to itself.")
roundtrip = parse_polynomial(render(p, order), QQ)
print("round-trip equal:", roundtrip == p)
