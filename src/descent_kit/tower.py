"""The base data of a descent problem: (A, e) <= (B, f) and algebras over it.

``OperatorTower`` packages the base ring with its operator structure, the
free finite module algebra B with basis coordinates, and the operator
images of the basis elements.  ``PresentedBAlgebra`` presents an algebra C
over B by generators and relations, written flat (using the basis labels
as symbols) on the flattened presentation of the whole tower.
"""

from __future__ import annotations

from .dalgebra import DCoefficientAlgebra
from .dstructures import DStructure
from .polynomials import Polynomial
from .presented import PresentedRing
from .structure import AlgebraElement, StructureAlgebra


class OperatorTower:
    """(A, e) and a free finite (A, e)-algebra (B, f) with a fixed basis."""

    __slots__ = ("e", "algebra", "coeff", "f_images", "_f_flat", "_descent_matrix")

    def __init__(self, e: DStructure, algebra: StructureAlgebra, coeff: DCoefficientAlgebra, f_images):
        if e.carrier != algebra.base:
            raise ValueError("the base structure must live on the algebra's base ring")
        if e.coeff != coeff:
            raise ValueError("base structure and tower use different coefficient algebras")
        self.e = e
        self.algebra = algebra
        self.coeff = coeff
        r, l = algebra.rank, coeff.dim
        rows = []
        for i in range(r):
            vec = tuple(f_images[i])
            if len(vec) != l:
                raise ValueError("each basis image needs one coordinate per basis element of D")
            rows.append(vec)
        self.f_images = tuple(rows)
        self._f_flat = None
        # filled by ``descent_matrix.associated_matrix``, the one place that
        # builds and decides the tower's matrix; this module does not import
        # the matrix layer, which ``validate`` never loads
        self._descent_matrix = None

    @property
    def base_ring(self) -> PresentedRing:
        return self.algebra.base

    @property
    def rank(self) -> int:
        return self.algebra.rank

    def lambda_f(self, n: int, k: int, i: int) -> Polynomial:
        """lambda_n(f_k(b_i)) over A; all indices 0-based."""
        return self.f_images[i][k].coords[n]

    @property
    def flat_b(self) -> PresentedRing:
        """B presented over k; the algebra builds it once for every tower."""
        return self.algebra.flat_ring()

    @property
    def f_flat(self) -> DStructure:
        """The structure f as a DStructure on the flattened presentation of B."""
        if self._f_flat is None:
            ring = self.flat_b
            images = {}
            for v in self.e.carrier.variables:
                images[v] = self.e.images[v]
            for i in range(1, self.rank):
                label = self.algebra.labels[i]
                images[label] = tuple(
                    self.algebra.reconstruct(self.f_images[i][k]) for k in range(self.coeff.dim)
                )
            self._f_flat = DStructure(ring, self.coeff, images, base=self.e)
        return self._f_flat

    def validate(self):
        certificates = [{"check": "module_algebra_axioms", "ok": True}]
        self.algebra.validate()
        self.e.validate()
        # f(1) must be the unit of D(B)
        one = self.algebra.one_el()
        for k in range(self.coeff.dim):
            expected = one.scale(self.base_ring.constant(self.coeff.unit[k]))
            if not self.f_images[0][k].equal(expected):
                raise ValueError("f(1) is not the unit of D(B)")
        certificates.append({"check": "unit_maps_to_unit", "ok": True})
        certificates += self.f_flat.validate()
        return certificates

    def apply_coordinate(self, k: int, element: AlgebraElement) -> AlgebraElement:
        """f_k applied to an element of B, staying in coordinates (0-based k)."""
        flat = self.algebra.reconstruct(element)
        out_flat = self.f_flat.coordinate_op(k + 1, flat)
        return self.algebra.coordinatize(out_flat)

    # -- associated endomorphisms --------------------------------------------------

    def endo_images(self, factor: int):
        """Images of the basis under the associated endomorphism of a factor:
        the coordinate of f at the factor's unit."""
        unit = self.coeff.factor_units[factor]
        return [self.f_images[i][unit] for i in range(self.rank)]


class PresentedBAlgebra:
    """C = B[generators] / (relations), relations written flat over A, labels, gens."""

    __slots__ = ("tower", "generators", "relations_flat", "_flat_ring")

    def __init__(self, tower: OperatorTower, generators, relations_flat=()):
        self.tower = tower
        self.generators = tuple(generators)
        self.relations_flat = tuple(relations_flat)
        self._flat_ring = None

    @property
    def flat_ring(self) -> PresentedRing:
        """The whole tower flattened: A-vars + basis labels + generators."""
        if self._flat_ring is None:
            self._flat_ring = self.tower.flat_b.extend(
                self.generators,
                self.relations_flat,
                base_vars=self.tower.flat_b.variables,
            )
        return self._flat_ring

    def structure(self, images: dict) -> DStructure:
        """Attach operator images (flat polynomials, one l-tuple per generator)."""
        full = {v: self.tower.f_flat.images[v] for v in self.tower.flat_b.variables}
        for x in self.generators:
            full[x] = images[x]  # normalized over flat_ring by the constructor
        return DStructure(self.flat_ring, self.tower.coeff, full, base=self.tower.f_flat)
