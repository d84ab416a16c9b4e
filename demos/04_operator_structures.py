"""Free-operator structures: one homomorphism, many flavours of operator.

A structure on a ring R is an algebra map e: R -> R (x) D into a
finite-dimensional coefficient algebra D.  Coordinatizing e over a basis
of D recovers the familiar operators: endomorphisms for D = k^l, a
derivation twisted by an endomorphism for the dual numbers, truncated
higher derivations for jet algebras.
"""

import sys
from pathlib import Path

# the paper's proposition checks live with the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from descent_kit import (
    QQ, GF, DStructure, PresentedRing,
    dual_numbers, product_of_fields,
    truncated_operator_polynomials,
)
from descent_kit.errors import TruncationExceeded
from paper_checks import associated_endomorphisms

print("== the dual numbers give a twisted derivation ==")
ring = PresentedRing.make(QQ, ("t",), [])
dd = dual_numbers(QQ)
e = DStructure(ring, dd, {"t": (ring.var("t"), ring.el("t^2"))})
e.validate()
print("sigma(t) =", ring.render(e.coordinate_op(1, ring.var("t"))))
print("delta(t) =", ring.render(e.coordinate_op(2, ring.var("t"))))
p, q = ring.el("t+1"), ring.el("t^2")
print("delta(p*q)               =", ring.render(e.coordinate_op(2, ring.nf(p * q))))
print("delta(p)*q + p*delta(q)  =",
      ring.render(ring.nf(e.coordinate_op(2, p) * q + p * e.coordinate_op(2, q))))

print()
print("== words compose coordinate operators ==")
print("delta(delta(t)), the word '22':",
      ring.render(e.coordinate_op(2, e.coordinate_op(2, ring.var("t")))))

print()
print("== k^2 gives two independent endomorphisms ==")
f5 = GF(5)
r5 = PresentedRing.make(f5, ("x",), [])
e2 = DStructure(r5, product_of_fields(f5, 2), {"x": (r5.el("x^2"), r5.el("x+1"))})
sigmas = associated_endomorphisms(e2)
print("sigma_1(x) =", r5.render(sigmas[0].images["x"][0]))
print("sigma_2(x) =", r5.render(sigmas[1].images["x"][0]))

print()
print("== structures must respect the presentation ==")
nil = PresentedRing.make(QQ, ("s",), [PresentedRing.make(QQ, ("s",), []).el("s^2")])
ok = DStructure.difference(nil, {"s": nil.el("2*s")})
ok.validate()
print("s -> 2s on Q[s]/(s^2) is well defined")
try:
    DStructure.difference(nil, {"s": nil.one}).validate()
except Exception as err:
    print("s -> 1 is rejected:", err)

print()
print("== quotients by operator-stable ideals ==")
sigma = DStructure.difference(ring, {"t": ring.el("t^2")})
print("(t) is stable under t -> t^2:", sigma.is_d_ideal([ring.var("t")]))
quot = sigma.quotient([ring.var("t")])
print("induced image of t in the quotient:", quot.carrier.render(quot.images["t"][0]))

print()
print("== a finite window of the free operator polynomial algebra ==")
base = DStructure.identity(PresentedRing.base_field(QQ), dd)
window = truncated_operator_polynomials(base, ["t"], 1)
print("depth-1 window variables:", window.carrier.variables)
print("e(t) coordinates:", [window.carrier.render(c) for c in window.images["t"]])
try:
    window.coordinate_op(1, window.coordinate_op(1, window.carrier.var("t")))
except TruncationExceeded as err:
    print("depth exceeded:", err)
