"""Classical Weil restriction of a finitely presented algebra.

Each generator x splits into coordinates x(1)..x(r) along the module
basis; relations push through the unit map x -> sum_i x(i) b_i and their
coordinates generate the descent ideal.  Algebra maps downstairs
correspond exactly to module-algebra maps upstairs.
"""

import sys
from pathlib import Path

# the paper's proposition checks live with the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from descent_kit import (
    GF, DStructure, OperatorTower, PresentedBAlgebra, PresentedRing,
    StructureAlgebra, difference_algebra, parse_polynomial,
    tau_forward, tau_inverse, weil_descend,
)
from paper_checks import descend_morphism

field = GF(2)
A = PresentedRing.base_field(field)
z, o = A.zero, A.one
B = StructureAlgebra(A, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])
dk = difference_algebra(field)
tower = OperatorTower(DStructure.identity(A, dk), B, {"eps": (B.flat_ring().var("eps"),)})

print("== a free algebra descends to a polynomial ring ==")
c_free = PresentedBAlgebra(tower, ("t",))
res_free = weil_descend(c_free)
print("W(B[t]) =", res_free.descended)
print("unit map: t ->", res_free.unit_map()["t"])

print()
print("== relations become coordinate relations ==")
c = PresentedBAlgebra(tower, ("t",), [parse_polynomial("t^2", field)])
res = weil_descend(c)
print("W(B[t]/(t^2)) =", res.descended)
print("descent ideal generators:",
      [str(g) for g in res.descended.relations.generators])
print("   (the cross coordinate vanishes because eps^2 = 0 in characteristic 2)")

print()
print("== morphisms descend too ==")
flat = c_free.flat_ring
w_rho = descend_morphism({"t": flat.el("t^2")}, res_free, res_free)
print("t -> t^2 descends to:",
      {name: str(img) for name, img in w_rho.items()})
print("   injectivity upstairs is lost: the second coordinate maps to zero")

print()
print("== the Hom-set bijection, concretely ==")
R = PresentedRing.make(field, ("u",), [parse_polynomial("u^2", field)])
phi = {"t(1)": R.var("u"), "t(2)": R.zero}
psi = tau_forward(phi, R, res)
print("phi: t(1)->u, t(2)->0 corresponds to psi(t) =", psi["t"])
back = tau_inverse(psi, R, res)
print("and coordinate extraction recovers phi:",
      {k: R.render(v) for k, v in back.items()})
