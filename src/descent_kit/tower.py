"""The base data of a descent problem: (A, e) <= (B, f) and algebras over it.

``OperatorTower`` holds e, the free finite module algebra B with its basis,
and f, built as C's structure is: one operator structure on B's flat ring
that extends e by the images of the basis labels.  f is kept in that one
form; ``descent_matrix.associated_matrix`` reads its coordinates over A.
``PresentedBAlgebra`` presents an algebra C over B by generators and
relations, written flat (using the basis labels as symbols) on the
flattened presentation of the whole tower.

Each layer is built on the one below it (``DStructure``'s ``base``), so
validating a layer certifies only the relations it adds: f applies B's
product rewrites, not A's relations, and g only C's relations.  f(1) is
the unit of D(B) by construction: evaluation sends the constant 1 to the
unit coordinates of D, and ``coeff.unit`` is read off those same
coordinates, so ``unit_maps_to_unit`` is listed with nothing to evaluate.
"""

from __future__ import annotations

from .dstructures import DStructure
from .presented import PresentedRing
from .structure import StructureAlgebra


class OperatorTower:
    """(A, e) and a free finite (A, e)-algebra (B, f) with a fixed basis.

    f is one operator structure on B's flat ring, extending e by the images
    of the basis labels; its coefficient algebra is e's.
    """

    __slots__ = ("e", "algebra", "coeff", "f", "_descent_matrix")

    def __init__(self, e: DStructure, algebra: StructureAlgebra, label_images):
        if e.carrier != algebra.base:
            raise ValueError("the base structure must live on the algebra's base ring")
        self.e = e
        self.algebra = algebra
        self.coeff = e.coeff
        self.f = DStructure(algebra.flat_ring(), e.coeff, label_images, base=e)
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

    @property
    def flat_b(self) -> PresentedRing:
        """B presented over k; the algebra builds it once for every tower."""
        return self.algebra.flat_ring()

    def validate(self):
        """B's axioms, then f's certificate, which validates e first."""
        self.algebra.validate()
        return [{"check": "module_algebra_axioms", "ok": True},
                {"check": "unit_maps_to_unit", "ok": True}] + self.f.validate()


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
            self._flat_ring = self.tower.flat_b.extend(self.generators, self.relations_flat)
        return self._flat_ring

    def structure(self, images: dict) -> DStructure:
        """Attach operator images (flat polynomials, one l-tuple per
        generator); the tower's variables keep f's images."""
        return DStructure(self.flat_ring, self.tower.coeff, images, base=self.tower.f)
