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
comp = compose_structures(sigma, delta)
print("pair basis:", comp.coefficients.index_pair)
print("composite images of x:",
      [ring.render(c) for c in comp.structure.images["x"]])
swapped = gamma_swap(comp)
print("after the swap:",
      [ring.render(c) for c in swapped.structure.images["x"]])
print("swap twice returns the original:",
      all(ring.equal(a, b) for a, b in
          zip(gamma_swap(swapped).structure.images["x"], comp.structure.images["x"])))

print()
print("== commutation is operator-wise commutation ==")
print("shift and d/dx commute:        ", commutes(sigma, delta))
squaring = DStructure.difference(ring, {"x": ring.el("x^2")})
print("squaring and d/dx commute:     ", commutes(squaring, delta))

print()
print("== the product coefficient algebra inherits its stratification ==")
cc = tensor_coefficients(dual_numbers(QQ), dual_numbers(QQ))
print("dual (x) dual strata:", cc.product.strata)

print()
print("== composites descend to composites ==")
field = GF(2)
A = PresentedRing.base_field(field)
z, o = A.zero, A.one
B = StructureAlgebra(A, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])
dk = difference_algebra(field)
mk_tower = lambda: OperatorTower(DStructure.identity(A, dk), B, dk,
                                 [[B.basis_el(0)], [B.basis_el(1)]])
c = PresentedBAlgebra(mk_tower(), ("t",))
flat = c.flat_ring
c2 = PresentedBAlgebra(mk_tower(), ("t",))
report = compose_descent_check(
    c, c.structure({"t": (flat.el("t^2"),)}), c2, c2.structure({"t": (flat.el("t+eps"),)})
)
for key, value in sorted(report.items()):
    print(f"  {key}: {value}")
