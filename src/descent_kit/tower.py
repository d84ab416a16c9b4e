"""The base data of a descent problem: (A, e) <= (B, f) and algebras over it.

``OperatorTower`` packages the base ring with its operator structure, the
free finite module algebra B with basis coordinates, and the operator
images of the basis elements.  ``PresentedBAlgebra`` presents an algebra C
over B by generators and relations; relations may be written flat (using
the basis labels as symbols) and are coordinatized on demand.
"""

from __future__ import annotations

from .dalgebra import DCoefficientAlgebra, difference_algebra
from .dstructures import DStructure
from .polynomials import Polynomial
from .presented import PresentedRing
from .structure import AlgebraElement, StructureAlgebra


class OperatorTower:
    """(A, e) and a free finite (A, e)-algebra (B, f) with a fixed basis."""

    __slots__ = ("e", "algebra", "coeff", "f_images", "_flat_b", "_f_flat")

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
        self._flat_b = None
        self._f_flat = None

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
        if self._flat_b is None:
            self._flat_b = self.algebra.flat_ring()
        return self._flat_b

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
        """Images of the basis under the associated endomorphism of a factor."""
        pi = self.coeff.projections[factor]
        out = []
        for i in range(self.rank):
            acc = self.algebra.zero_el()
            for k, c in enumerate(pi):
                if not self.coeff.field.is_zero(c):
                    acc = acc + self.f_images[i][k].scale(self.base_ring.constant(c))
            out.append(acc)
        return out

    def difference_subtower(self, factor: int) -> "OperatorTower":
        """The (A, sigma_i) <= (B, tau_i) tower of one associated endomorphism."""
        field = self.base_ring.field
        dk = difference_algebra(field)
        e_i = DStructure(
            self.e.carrier,
            dk,
            {v: (self.e.associated_images(factor)[v],) for v in self.e.carrier.variables},
        )
        tau = [(img,) for img in self.endo_images(factor)]
        return OperatorTower(e_i, self.algebra, dk, tau)


class PresentedBAlgebra:
    """C = B[generators] / (relations), relations written flat over A, labels, gens."""

    __slots__ = ("tower", "generators", "relations_flat", "_poly_ring", "_flat_ring")

    def __init__(self, tower: OperatorTower, generators, relations_flat=()):
        self.tower = tower
        self.generators = tuple(generators)
        self.relations_flat = tuple(relations_flat)
        self._poly_ring = None
        self._flat_ring = None

    @property
    def poly_ring(self) -> PresentedRing:
        """A[generators], flattened over k (no C relations)."""
        if self._poly_ring is None:
            self._poly_ring = self.tower.base_ring.extend(
                self.generators, (), base_vars=self.tower.base_ring.variables
            )
        return self._poly_ring

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

    def coordinatize(self, flat: Polynomial, target_ring: PresentedRing = None) -> AlgebraElement:
        """A flat element of B[gens] as coordinates over A[gens] (or a larger ring)."""
        ring = target_ring if target_ring is not None else self.poly_ring
        ext = self.tower.algebra.base_change(ring)
        extra = {
            x: ext.scalar_el(Polynomial.variable(ring.field, x)) for x in self.generators
        }
        return ext.coordinatize(flat, extra)

    def structure(self, images: dict) -> DStructure:
        """Attach operator images (flat polynomials, one l-tuple per generator)."""
        full = {v: self.tower.f_flat.images[v] for v in self.tower.flat_b.variables}
        for x in self.generators:
            vec = images[x]
            full[x] = tuple(self.flat_ring.nf(c) for c in vec)
        return DStructure(self.flat_ring, self.tower.coeff, full, base=self.tower.f_flat)
