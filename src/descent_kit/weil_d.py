"""Weil descent of operator structures.

The pipeline, for a validated structure g = c.structure(images) on C:
take the matrix of (B, f), which the tower builds and decides once, and
stop with the obstruction when it is not invertible; classically descend
C; read the operator images of the copy variables off the inverse matrix
applied to the coordinates of the unit image of each generator image;
present the quotient by the descent ideal once, certifying against it
that the ideal is closed under the pre-quotient structure; induce the
quotient structure; and certify the unit map is an operator
homomorphism.  Uniqueness is forced at the generator level because the
matrix is invertible, and that is recorded as a certificate.

The matrix and its inverse stay over A: each product hands the ring its
vectors live in (the pre-quotient ring, W(C), a test algebra R) to
``RingMatrix.apply`` or ``solve_cramer``.  W(C) is tower-free, so a
classical descent handed in is used as it is, and ``DDescentResult``
keeps the C it descended.

The two Hom sets of the adjunction have one operator gate each:
``verify_d_hom`` for a B-algebra map C -> R (x) B, ``intertwines`` for an
algebra map W(C) -> R.  The bijection between them is the classical one,
``weil.tau_forward`` and ``weil.tau_inverse``.
"""

from __future__ import annotations

from .descent_matrix import DescentMatrix, associated_matrix
from .dstructures import DStructure
from .errors import CarrierMismatch, CertificateFailure, NonInvertibleMatrix, NotADHomomorphism
from .presented import PresentedRing
from .tower import PresentedBAlgebra
from .weil import WeilDescentResult, weil_descend


class DDescentResult:
    """Everything a descent produced, plus its certificate trail."""

    __slots__ = ("c", "classical", "structure", "pre_structure", "matrix", "c_structure",
                 "certificates")

    def __init__(self, c, classical, structure, pre_structure, matrix, c_structure,
                 certificates):
        self.c = c
        self.classical = classical
        self.structure = structure
        self.pre_structure = pre_structure
        self.matrix = matrix
        self.c_structure = c_structure
        self.certificates = certificates

    @property
    def descended(self) -> PresentedRing:
        return self.classical.descended


def _image_vector(result: WeilDescentResult, g_structure: DStructure, gen: str,
                  substitution: dict, ring: PresentedRing):
    """The (i, j) vector (lambda_i of g_j(gen)), with C's generators sent by
    ``substitution`` into ``ring`` (x) B: the unit map, or a map psi."""
    ext = result.tensor_algebra(ring)
    return DescentMatrix.pack(
        [ext.coordinatize(image, substitution).coords for image in g_structure.images[gen]]
    )


def verify_d_hom(psi_images: dict, g_structure: DStructure, u_structure: DStructure,
                 matrix: DescentMatrix, result: WeilDescentResult) -> bool:
    """Check the coordinate identity that makes a B-algebra map an operator map.

    For every generator c of C the vector (lambda_i psi(g_j(c))) must equal
    M applied to (u_j lambda_i psi(c)).  Checking generators suffices since
    both sides assemble into algebra homomorphisms into D(R (x) B).
    """
    target = u_structure.carrier
    psi = {x: psi_images[x] for x in result.generators}
    for gen in result.generators:
        lhs = _image_vector(result, g_structure, gen, psi, target)
        rhs = matrix.matrix.apply(matrix.pack(
            [[u_structure.coordinate_op(j, c) for c in psi[gen].coords]
             for j in range(1, matrix.l + 1)]
        ), target)
        if not all(target.equal(a, b) for a, b in zip(lhs, rhs)):
            return False
    return True


def descend_d_structure(c: PresentedBAlgebra, g_structure: DStructure,
                        classical: WeilDescentResult = None) -> DDescentResult:
    """Full descent pipeline for (C, g) over the tower's (A, e) <= (B, f).

    ``g_structure`` is ``c.structure(images)``, built from the operator
    coordinates of each generator.  ``classical`` may hand in the classical
    descent W(C) computed for another structure on the same C over the same
    module algebra B, and is then used as it is (ValueError when it belongs
    to another algebra); by default it is computed here.  The descent
    matrix is the tower's own (``associated_matrix``).  Raises
    NonInvertibleMatrix, with the witness and the rendered matrix, when the
    matrix of (B, f) is not invertible: that is the obstruction to descent.
    """
    tower = c.tower
    if g_structure.carrier != c.flat_ring:
        raise CarrierMismatch("the structure to descend does not live on C")
    certificates = [{"check": f"target_structure_{d['check']}", "ok": True}
                    for d in g_structure.validate()]

    matrix = associated_matrix(tower)
    if matrix.inverse is None:
        raise NonInvertibleMatrix(matrix.witness, matrix.render())
    certificates.append({"check": "matrix_invertible", "ok": True})

    if classical is None:
        classical = weil_descend(c)
    elif (c.tower.algebra != classical.algebra or c.generators != classical.generators
          or c.relations_flat != classical.relations_flat):
        raise ValueError("the classical descent belongs to a different algebra")
    certificates.append({"check": "classical_descent", "ok": True})

    # operator images of the copy variables on the pre-quotient ring
    pre_ring = classical.pre_ring
    units_pre = classical.unit_map(pre_ring)
    pre_images = {}
    for gen in c.generators:
        vec = _image_vector(classical, g_structure, gen, units_pre, pre_ring)
        solved = matrix.inverse.apply(vec, pre_ring)
        pre_images.update(zip(classical.copy_names[gen], matrix.unpack(solved)))
    # well defined because e is: pre_ring only adds free copy variables to A
    pre_structure = DStructure(pre_ring, tower.coeff, pre_images, base=tower.e)

    # quotient checks that the descent ideal is closed under the pre-quotient
    # structure; for valid inputs this cannot fail, so NotDIdeal is diagnostic
    ideal_gens = [g for g in classical.ideal_generators if not g.is_zero()]
    structure = pre_structure.quotient(ideal_gens)
    certificates.append({"check": "descent_ideal_closed", "ok": True})
    if structure.carrier != classical.descended:
        raise CertificateFailure(
            "quotient_structure", "quotient carrier does not match the descended presentation"
        )
    certificates.append({"check": "quotient_structure", "ok": True})

    if not verify_d_hom(classical.unit_map(), g_structure, structure, matrix, classical):
        raise NotADHomomorphism("unit map fails the operator-homomorphism identity")
    certificates.append({"check": "unit_is_operator_hom", "ok": True})

    certificates.append({
        "check": "uniqueness",
        "ok": True,
        "note": "generator images are forced: the matrix is invertible, so the"
                " coordinate identity determines them uniquely",
    })
    return DDescentResult(c, classical, structure, pre_structure, matrix, g_structure,
                          certificates)


def rederive_images(result: DDescentResult) -> dict:
    """Re-derive the descended generator images by an independent solve.

    Solves the coordinate identity of every generator in one Cramer solve
    (one characteristic polynomial of the matrix, then Cayley-Hamilton per
    generator) instead of applying the stored inverse; exact agreement
    witnesses uniqueness.
    """
    classical = result.classical
    matrix = result.matrix
    ring = classical.descended
    gens = classical.generators
    units = classical.unit_map()
    vectors = [
        _image_vector(classical, result.c_structure, gen, units, ring) for gen in gens
    ]
    out = {}
    for gen, solved in zip(gens, matrix.matrix.solve_cramer(vectors, ring)):
        out.update(zip(classical.copy_names[gen], matrix.unpack(solved)))
    return out


def intertwines(phi_images: dict, u_structure: DStructure, result: DDescentResult) -> bool:
    """Does phi: W(C) -> R intertwine the descended structure with u?

    The operator gate of the downstairs Hom set: for every variable of W(C)
    and every coordinate j, u_j(phi(x)) must equal phi(e_j(x)).
    """
    ring = u_structure.carrier
    env = result.classical.pinned_env(phi_images, ring.field)
    for name in result.descended.variables:
        images = result.structure.images[name]
        for j in range(u_structure.coeff.dim):
            lhs = u_structure.coordinate_op(j + 1, ring.nf(env[name]))
            rhs = ring.nf(images[j].substitute(env))
            if not ring.equal(lhs, rhs):
                return False
    return True
