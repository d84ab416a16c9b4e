"""The matrix attached to a structure, and why invertibility matters.

For a free finite module algebra B over A with a structure f, the
rl x rl matrix with blocks sum_k a_jkm lambda_n(f_k(b_i)) controls
everything: descent exists exactly when it is invertible, and in the
stratified coefficient basis it is block lower triangular with the
associated endomorphism matrices on the diagonal: ``diagonal_block``
reads each one off.
"""

import sys
from pathlib import Path

# the paper's proposition checks live with the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from descent_kit import (
    QQ, DStructure, OperatorTower, PresentedRing, StructureAlgebra,
    associated_matrix, difference_algebra, dual_numbers, invertibility_equivalences,
)
from paper_checks import change_of_basis_check

A = PresentedRing.base_field(QQ)
z, o = A.zero, A.one
B = StructureAlgebra(A, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])

print("== the projection structure is obstructed ==")
dk = difference_algebra(QQ)
tau_tower = OperatorTower(DStructure.identity(A, dk), B, {"eps": (B.flat_ring().zero,)})
dm = associated_matrix(tau_tower)
print("matrix:", dm.render())
print("invertible:", dm.invertible, "| witness:", dm.witness)
print("equivalences report:", invertibility_equivalences(dm.diagonal_block(0)))

print()
print("== a non-unit determinant over K[x] ==")
kx = PresentedRing.make(QQ, ("x",), [])
bx = StructureAlgebra(kx, ("1", "eps"),
                      [[[kx.one, kx.zero], [kx.zero, kx.one]],
                       [[kx.zero, kx.one], [kx.zero, kx.zero]]])
x_tower = OperatorTower(DStructure.identity(kx, dk), bx, {"eps": (bx.flat_ring().el("x*eps"),)})
m = associated_matrix(x_tower).diagonal_block(0)
print("matrix of p+q*eps -> p+x*q*eps:", m.render())
print("determinant:", kx.render(m.det()), " -> not a unit, so not invertible")

print()
print("== the differential 4x4 block structure ==")
By = StructureAlgebra(A, ("1", "y"), [[[o, z], [z, o]], [[z, o], [z, z]]])
dd = dual_numbers(QQ)
y = By.flat_ring().var("y")  # f(y) = y (x) 1 + y (x) eps: sigma = id, delta(y) = y
tower = OperatorTower(DStructure.identity(A, dd), By, {"y": (y, y)})
dmd = associated_matrix(tower)
for row in dmd.render():
    print("  ", row)
print("inverse:")
for row in dmd.inverse.render():
    print("  ", row)

print()
print("== invariance under a change of coefficient basis ==")
x_change = [[QQ.one, QQ.one], [QQ.zero, QQ.one]]  # eta = {1, 1+eps}
print("M^eta == inflated conjugation:",
      change_of_basis_check(tower, x_change))
