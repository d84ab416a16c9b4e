"""Composing operator families, swapping them, and descending composites.

Two structures on the same carrier compose into a structure over the
tensor product of their coefficient algebras; a swap isomorphism
reindexes the pair coordinates.  Composition, identities, and
commutation are all preserved by descent, checked here on instances.
"""

from descent_kit import (
    GF, QQ, DStructure, OperatorTower, PresentedBAlgebra, PresentedRing,
    StructureAlgebra, commutes, compose_descent_check, compose_structures,
    difference_algebra, dual_numbers, gamma_swap, tensor_coefficients,
)

print("== composing an endomorphism with a derivation ==")
ring = PresentedRing.make(QQ, ("x",), [])
sigma = DStructure.difference(ring, {"x": ring.el("x+1")})
delta = DStructure(ring, dual_numbers(QQ), {"x": (ring.var("x"), ring.one)})
# the composite's coefficients are D2 (x) D1; the swap goes to D1 (x) D2
cc = tensor_coefficients(delta.coeff, sigma.coeff)
cc_swapped = tensor_coefficients(sigma.coeff, delta.coeff)
comp = compose_structures(sigma, delta, cc)
print("pair basis:", cc.index_pair)
print("composite images of x:", [ring.render(c) for c in comp.images["x"]])
swapped = gamma_swap(comp, cc, cc_swapped)
print("after the swap:", [ring.render(c) for c in swapped.images["x"]])
print("swap twice returns the original:",
      gamma_swap(swapped, cc_swapped, cc).agrees_with(comp, ring.variables))

print()
print("== commutation is operator-wise commutation ==")
print("shift and d/dx commute:        ", commutes(sigma, delta, cc, cc_swapped))
squaring = DStructure.difference(ring, {"x": ring.el("x^2")})
print("squaring and d/dx commute:     ", commutes(squaring, delta, cc, cc_swapped))

print()
print("== the product coefficient algebra inherits its stratification ==")
dual2 = tensor_coefficients(dual_numbers(QQ), dual_numbers(QQ))
print("dual (x) dual strata:", dual2.product.strata)

print()
print("== composites descend to composites ==")
field = GF(2)
A = PresentedRing.base_field(field)
z, o = A.zero, A.one
B = StructureAlgebra(A, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])
dk = difference_algebra(field)
mk_tower = lambda: OperatorTower(DStructure.identity(A, dk), B,
                                 {"eps": (B.flat_ring().var("eps"),)})
c = PresentedBAlgebra(mk_tower(), ("t",))
flat = c.flat_ring
c2 = PresentedBAlgebra(mk_tower(), ("t",))
report = compose_descent_check(
    c, c.structure({"t": (flat.el("t^2"),)}), c2, c2.structure({"t": (flat.el("t+eps"),)})
)
for key, value in sorted(report.items()):
    print(f"  {key}: {value}")
