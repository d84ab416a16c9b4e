"""Weil descent of operator structures.

The pipeline, for a validated structure g = c.structure(images) on C:
invert the matrix of (B, f); classically descend C; read the operator
images of the copy variables off the inverse matrix applied to the
coordinates of the unit image of each generator image; present the
quotient by the descent ideal once, certifying against it that the ideal
is closed under the pre-quotient structure; induce the quotient structure;
and certify the unit map is an operator homomorphism.  Uniqueness is
forced at the generator level because the matrix is invertible, and that
is recorded as a certificate.
"""

from __future__ import annotations

from .descent_matrix import DescentMatrix, associated_matrix, invert_descent_matrix
from .dstructures import DStructure
from .errors import CarrierMismatch, NotADHomomorphism
from .polynomials import Polynomial
from .presented import PresentedRing
from .tower import PresentedBAlgebra
from .weil import WeilDescentResult, tau_forward, tau_inverse, weil_descend


class DDescentResult:
    """Everything a descent produced, plus its certificate trail."""

    __slots__ = ("classical", "structure", "pre_structure", "matrix", "c_structure", "certificates")

    def __init__(self, classical, structure, pre_structure, matrix, c_structure, certificates):
        self.classical = classical
        self.structure = structure
        self.pre_structure = pre_structure
        self.matrix = matrix
        self.c_structure = c_structure
        self.certificates = certificates

    @property
    def descended(self) -> PresentedRing:
        return self.classical.descended


def _unit_coordinate_vector(result: WeilDescentResult, g_structure: DStructure, gen: str,
                            ring: PresentedRing, matrix: DescentMatrix):
    """The vector (lambda_i of unit image of g_j(gen)) in the (i, j) layout."""
    r, l = matrix.r, matrix.l
    vec = [None] * (r * l)
    images = g_structure.images[gen]
    for j in range(l):
        coords = result.evaluate_under_unit(images[j], ring).coords
        for i in range(r):
            vec[matrix.position(i, j)] = ring.nf(coords[i])
    return vec


def verify_d_hom(psi_images: dict, g_structure: DStructure, u_structure: DStructure,
                 matrix: DescentMatrix, result: WeilDescentResult) -> bool:
    """Check the coordinate identity that makes a B-algebra map an operator map.

    For every generator c of C the vector (lambda_i psi(g_j(c))) must equal
    M applied to (u_j lambda_i psi(c)).  Checking generators suffices since
    both sides assemble into algebra homomorphisms into D(R (x) B).
    """
    target = u_structure.carrier
    r, l = matrix.r, matrix.l
    lifted = matrix.lift(target)
    ext = result.tensor_algebra(target)
    for gen in result.source.generators:
        lhs = [None] * (r * l)
        for j in range(l):
            image_j = g_structure.images[gen][j]
            coords = ext.coordinatize(image_j, {
                x: psi_images[x] for x in result.source.generators
            }).coords
            for i in range(r):
                lhs[matrix.position(i, j)] = target.nf(coords[i])
        rhs_in = [None] * (r * l)
        for j in range(l):
            for i in range(r):
                rhs_in[matrix.position(i, j)] = u_structure.coordinate_op(
                    j + 1, psi_images[gen].coords[i]
                )
        rhs = lifted.apply(rhs_in)
        for a, b in zip(lhs, rhs):
            if not target.equal(a, b):
                return False
    return True


def descend_d_structure(c: PresentedBAlgebra, g_structure: DStructure) -> DDescentResult:
    """Full descent pipeline for (C, g) over the tower's (A, e) <= (B, f).

    ``g_structure`` is ``c.structure(images)``, built from the operator
    coordinates of each generator.  Raises NonInvertibleMatrix when the
    matrix of (B, f) is singular: that is the obstruction to descent.
    """
    tower = c.tower
    if g_structure.carrier != c.flat_ring:
        raise CarrierMismatch("the structure to descend does not live on C")
    certificates = [{"check": f"target_structure_{d['check']}", "ok": True}
                    for d in g_structure.validate()]

    matrix = associated_matrix(tower)
    invert_descent_matrix(matrix)
    certificates.append({"check": "matrix_invertible", "ok": True})

    classical = weil_descend(c)
    certificates.append({"check": "classical_descent", "ok": True})

    # operator images of the copy variables on the pre-quotient ring
    pre_ring = classical.pre_ring
    inverse_pre = matrix.lift_inverse(pre_ring)
    r, l = matrix.r, matrix.l
    pre_images = {v: tower.e.images[v] for v in tower.base_ring.variables}
    for gen in c.generators:
        vec = _unit_coordinate_vector(classical, g_structure, gen, pre_ring, matrix)
        solved = inverse_pre.apply(vec)
        for i, name in enumerate(classical.copy_names[gen]):
            pre_images[name] = tuple(solved[matrix.position(i, j)] for j in range(l))
    # well defined because e is: pre_ring only adds free copy variables to A
    pre_structure = DStructure(pre_ring, tower.coeff, pre_images, base=tower.e)

    # quotient checks that the descent ideal is closed under the pre-quotient
    # structure; for valid inputs this cannot fail, so NotDIdeal is diagnostic
    ideal_gens = [g for g in classical.ideal_generators if not g.is_zero()]
    structure = pre_structure.quotient(ideal_gens)
    certificates.append({"check": "descent_ideal_closed", "ok": True})
    if structure.carrier != classical.descended:
        raise AssertionError("quotient carrier does not match the descended presentation")
    certificates.append({"check": "quotient_structure", "ok": True})

    unit_images = {g: classical.unit_image(g) for g in c.generators}
    if not verify_d_hom(unit_images, g_structure, structure, matrix, classical):
        raise NotADHomomorphism("unit map fails the operator-homomorphism identity")
    certificates.append({"check": "unit_is_operator_hom", "ok": True})

    certificates.append({
        "check": "uniqueness",
        "ok": True,
        "note": "generator images are forced: the matrix is invertible, so the"
                " coordinate identity determines them uniquely",
    })
    return DDescentResult(classical, structure, pre_structure, matrix, g_structure, certificates)


def rederive_images(result: DDescentResult) -> dict:
    """Re-derive the descended generator images by an independent solve.

    Solves the coordinate identity with Cramer's rule instead of the stored
    inverse; exact agreement witnesses uniqueness.
    """
    classical = result.classical
    matrix = result.matrix
    ring = classical.descended
    lifted = matrix.lift(ring)
    out = {}
    for gen in classical.source.generators:
        vec = _unit_coordinate_vector(classical, result.c_structure, gen, ring, matrix)
        solved = lifted.solve_cramer(vec)
        for i, name in enumerate(classical.copy_names[gen]):
            out[name] = tuple(
                ring.nf(solved[matrix.position(i, j)]) for j in range(matrix.l)
            )
    return out


def tau_d_forward(phi_images: dict, u_structure: DStructure, result: DDescentResult) -> dict:
    """tau restricted to operator homomorphisms, with gates on both sides."""
    ring = u_structure.carrier
    # gate: phi must intertwine the descended structure with u
    env = dict(phi_images)
    for v in result.classical.source.tower.base_ring.variables:
        env.setdefault(v, Polynomial.variable(ring.field, v))
    for name in result.descended.variables:
        images = result.structure.images[name]
        for j in range(u_structure.coeff.dim):
            lhs = u_structure.coordinate_op(j + 1, ring.nf(env[name]))
            rhs = ring.nf(images[j].substitute(env))
            if not ring.equal(lhs, rhs):
                raise NotADHomomorphism(
                    f"phi does not intertwine coordinate {j + 1} at {name}"
                )
    psi = tau_forward(phi_images, ring, result.classical)
    if not verify_d_hom(psi, result.c_structure, u_structure, result.matrix, result.classical):
        raise AssertionError("forward image fails the operator gate")
    return psi


def tau_d_inverse(psi_images: dict, u_structure: DStructure, result: DDescentResult) -> dict:
    """Inverse direction of the restricted bijection."""
    ring = u_structure.carrier
    if not verify_d_hom(psi_images, result.c_structure, u_structure, result.matrix,
                        result.classical):
        raise NotADHomomorphism("psi fails the coordinate identity")
    phi = tau_inverse(psi_images, ring, result.classical)
    env = dict(phi)
    for v in result.classical.source.tower.base_ring.variables:
        env.setdefault(v, Polynomial.variable(ring.field, v))
    for name in result.descended.variables:
        images = result.structure.images[name]
        for j in range(u_structure.coeff.dim):
            lhs = u_structure.coordinate_op(j + 1, ring.nf(env[name]))
            rhs = ring.nf(images[j].substitute(env))
            if not ring.equal(lhs, rhs):
                raise AssertionError("extracted map fails the operator gate")
    return phi


def descended_endomorphisms_check(result: DDescentResult) -> dict:
    """Factorwise: descending the associated endomorphism of (C, g) equals
    taking the associated endomorphism of the descended structure."""
    c = result.classical.source
    tower = c.tower
    report = {"factors": [], "ok": True}
    rho = result.structure.associated_endomorphisms()
    for factor in range(tower.coeff.factor_count):
        sub = tower.difference_subtower(factor)
        sub_c = PresentedBAlgebra(sub, c.generators, c.relations_flat)
        eta_images = {
            gen: (result.c_structure.associated_images(factor)[gen],)
            for gen in c.generators
        }
        sub_result = descend_d_structure(sub_c, sub_c.structure(eta_images))
        agree = True
        for gen in c.generators:
            for name in result.classical.copy_names[gen]:
                lhs = sub_result.structure.images[name][0]
                rhs = rho[factor].images[name][0]
                if not result.descended.equal(lhs, rhs):
                    agree = False
        # trivial associated endomorphism descends to the identity
        identity_in = all(
            result.c_structure.carrier.equal(
                result.c_structure.associated_images(factor)[v],
                Polynomial.variable(result.c_structure.carrier.field, v),
            )
            for v in result.c_structure.carrier.variables
        )
        identity_out = all(
            result.descended.equal(
                rho[factor].images[name][0],
                Polynomial.variable(result.descended.field, name),
            )
            for name in result.descended.variables
        )
        entry = {"factor": factor + 1, "difference_descent_matches": agree}
        if identity_in:
            entry["identity_descends_to_identity"] = identity_out
            agree = agree and identity_out
        report["factors"].append(entry)
        report["ok"] = report["ok"] and agree
    return report
