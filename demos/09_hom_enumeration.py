"""Counting homomorphisms over a finite field: the bijection, made finite.

Over GF(p) with finite-dimensional targets, both Hom sets of the descent
correspondence can be enumerated outright, turning the adjunction into an
exhaustively checkable statement; when the matrix is singular, a concrete
unsolvable linear system certifies that no descent can exist.
"""

from descent_kit import (
    GF, QQ, DStructure, OperatorTower, PresentedBAlgebra, PresentedRing,
    StructureAlgebra, adjoint_evidence, adjunction_audit, descend_d_structure,
    difference_algebra, enumerate_homs, parse_polynomial,
)

field = GF(2)
A = PresentedRing.base_field(field)
z, o = A.zero, A.one
B = StructureAlgebra(A, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])
dk = difference_algebra(field)
tower = OperatorTower(DStructure.identity(A, dk), B, {"eps": (B.flat_ring().var("eps"),)})

print("== enumerating algebra maps ==")
source = PresentedRing.make(field, ("t1", "t2"), [parse_polynomial("t1^2", field)])
target = PresentedRing.make(field, ("u",), [parse_polynomial("u^2", field)])
homs = enumerate_homs(source, target)
print(f"maps GF(2)[t1,t2]/(t1^2) -> GF(2)[u]/(u^2): {len(homs)}")
for phi in homs:
    print("   t1 ->", target.render(phi["t1"]), "| t2 ->", target.render(phi["t2"]))

print()
print("== the full adjunction audit ==")
c = PresentedBAlgebra(tower, ("t",), [parse_polynomial("t^2", field)])
res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t", field),)}))
u = DStructure.identity(target, tower.coeff)
report = adjunction_audit(res, u)
for key, value in sorted(report.items()):
    print(f"  {key}: {value}")

print()
print("== obstruction evidence when no descent exists ==")
Aq = PresentedRing.base_field(QQ)
Bq = StructureAlgebra(Aq, ("1", "eps"),
                      [[[Aq.one, Aq.zero], [Aq.zero, Aq.one]],
                       [[Aq.zero, Aq.one], [Aq.zero, Aq.zero]]])
dq = difference_algebra(QQ)
tau_tower = OperatorTower(DStructure.identity(Aq, dq), Bq, {"eps": (Bq.flat_ring().zero,)})
evidence = adjoint_evidence(tau_tower, [Bq.basis_el(1)])
print("for the structure x -> eps, the unit would force")
print("   ", evidence["system_rhs"], "=", evidence["system_matrix"], "* x_bar")
print("solvable over the base:", evidence["solvable"])
