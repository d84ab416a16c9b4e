"""Free finite algebras given by structure constants.

The module algebra of a descent problem is a free module of finite rank
over its base ring with multiplication given by structure constants
b_i b_j = sum_m c_ijm b_m.  Validation checks commutativity, the unit
law, and associativity; elements are coordinate vectors.
"""

import sys
from pathlib import Path

# the paper's proposition checks live with the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from descent_kit import QQ, GF, PresentedRing, StructureAlgebra
from descent_kit.errors import InvalidAlgebra
from paper_checks import reconstruct, tensor_presented

A = PresentedRing.base_field(QQ)
z, o = A.zero, A.one

print("== the dual numbers A[eps]/(eps^2) as a structure algebra ==")
B = StructureAlgebra(A, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])
print("axioms:", [c["axiom"] for c in B.validate()])
x = B.element([o, o])  # 1 + eps
print("(1+eps)^2 =", x * x)

f2 = PresentedRing.base_field(GF(2))
B2 = StructureAlgebra(f2, ("1", "eps"),
                      [[[f2.one, f2.zero], [f2.zero, f2.one]],
                       [[f2.zero, f2.one], [f2.zero, f2.zero]]])
y = B2.element([f2.one, f2.one])
print("over GF(2), (1+eps)^2 =", y * y, " (characteristic 2 kills the cross term)")

print()
print("== a broken algebra is rejected with the offending identity ==")
bad = StructureAlgebra(
    A, ("1", "p", "q"),
    [
        [[o, z, z], [z, o, z], [z, z, o]],
        [[z, o, z], [z, z, o], [o, z, z]],   # p*q perturbed from 0 to 1
        [[z, z, o], [o, z, z], [z, z, z]],
    ],
)
try:
    bad.validate()
except InvalidAlgebra as err:
    print("rejected:", err)

print()
print("== flattening and coordinates ==")
flat = B.flat_ring()
print("flat presentation:", flat)
el = B.coordinatize(flat.el("3 + 2*eps"))
print("coordinates of 3 + 2*eps:", el)
print("round trip:", B.coordinatize(reconstruct(B, el)).coords == el.coords)

print()
print("== tensor products of presentations ==")
S = PresentedRing.make(GF(2), ("x",), [PresentedRing.make(GF(2), ("x",), []).el("x^2")])
T = PresentedRing.make(GF(2), ("y",), [PresentedRing.make(GF(2), ("y",), []).el("y^2")])
ST, _, _ = tensor_presented(S, T, ())
print("GF(2)[x]/(x^2) (x) GF(2)[y]/(y^2) has dimension", len(ST.staircase()))
