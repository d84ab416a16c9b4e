"""Descending an operator structure through the Weil restriction.

The coordinates of the descended operators solve a linear system over the
base ring whose matrix is the one attached to (B, f); with the inverse in
hand, the images of the copy variables are forced, the descent ideal is
certified stable, and the unit map is certified an operator map.
"""

import sys
from pathlib import Path

# the paper's proposition checks live with the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from descent_kit import (
    GF, QQ, DStructure, OperatorTower, PresentedBAlgebra, PresentedRing,
    StructureAlgebra, descend_d_structure, difference_algebra, dual_numbers,
    parse_polynomial, rederive_images,
)
from descent_kit.errors import NonInvertibleMatrix
from paper_checks import descended_endomorphisms_check

print("== the squaring endomorphism over GF(2) ==")
field = GF(2)
A = PresentedRing.base_field(field)
z, o = A.zero, A.one
B = StructureAlgebra(A, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])
dk = difference_algebra(field)
tower = OperatorTower(DStructure.identity(A, dk), B, {"eps": (B.flat_ring().var("eps"),)})
c = PresentedBAlgebra(tower, ("t",))
res = descend_d_structure(c, c.structure({"t": (parse_polynomial("t^2", field),)}))
ring = res.descended
print("descended images:     t(1) ->", ring.render(res.structure.images["t(1)"][0]),
      "| t(2) ->", ring.render(res.structure.images["t(2)"][0]))
print("certificates:", [(cert["check"], cert["ok"]) for cert in res.certificates])

print()
print("== the obstruction, when the matrix is singular ==")
Aq = PresentedRing.base_field(QQ)
Bq = StructureAlgebra(Aq, ("1", "eps"),
                      [[[Aq.one, Aq.zero], [Aq.zero, Aq.one]],
                       [[Aq.zero, Aq.one], [Aq.zero, Aq.zero]]])
dq = difference_algebra(QQ)
tau_tower = OperatorTower(DStructure.identity(Aq, dq), Bq, {"eps": (Bq.flat_ring().zero,)})
c_bad = PresentedBAlgebra(tau_tower, ("x",))
try:
    descend_d_structure(c_bad, c_bad.structure({"x": (c_bad.flat_ring.el("eps"),)}))
except NonInvertibleMatrix as err:
    print("descent aborts:", err)

print()
print("== a differential structure: derivation images twist through M^-1 ==")
By = StructureAlgebra(Aq, ("1", "y"),
                      [[[Aq.one, Aq.zero], [Aq.zero, Aq.one]],
                       [[Aq.zero, Aq.one], [Aq.zero, Aq.zero]]])
dd = dual_numbers(QQ)
y = By.flat_ring().var("y")  # f(y) = y (x) 1 + y (x) eps: sigma = id, delta(y) = y
tower_d = OperatorTower(DStructure.identity(Aq, dd), By, {"y": (y, y)})
cd = PresentedBAlgebra(tower_d, ("t",))
res_d = descend_d_structure(
    cd, cd.structure({"t": (parse_polynomial("t", QQ), parse_polynomial("t^2", QQ))})
)
rd = res_d.descended
print("delta^W(t(1)) =", rd.render(res_d.structure.images["t(1)"][1]))
print("delta^W(t(2)) =", rd.render(res_d.structure.images["t(2)"][1]))
print("re-derived independently via Cramer:",
      {name: [rd.render(v) for v in vec] for name, vec in rederive_images(res_d).items()})

print()
print("== descended associated endomorphisms match difference descents ==")
print(descended_endomorphisms_check(res_d))
