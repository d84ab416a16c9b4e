"""Free finite algebras over a presented ring, given by structure constants.

A ``StructureAlgebra`` of rank r over a base ring stores the products
b_i * b_j = sum_m c_ijm b_m.  Elements are coordinate vectors over the base
ring.  The same machinery carries the module algebra of a descent problem
(over its base ring) and the operator coefficient algebra (over k).
"""

from __future__ import annotations

from .errors import InvalidAlgebra
from .polynomials import Monomial, Polynomial
from .presented import PresentedRing


class StructureAlgebra:
    """A free rank-r module with a commutative unital multiplication."""

    __slots__ = ("base", "labels", "constants", "unit_coords", "_certificates")

    def __init__(self, base: PresentedRing, labels, constants, unit_coords=None):
        self.base = base
        self.labels = tuple(labels)
        r = len(self.labels)
        self.constants = tuple(
            tuple(tuple(base.nf(c) for c in constants[i][j]) for j in range(r))
            for i in range(r)
        )
        if unit_coords is None:
            unit_coords = [base.one] + [base.zero] * (r - 1)
        self.unit_coords = tuple(base.nf(c) for c in unit_coords)
        self._certificates = None

    @property
    def rank(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, StructureAlgebra)
            and self.base == other.base
            and self.labels == other.labels
            and self.constants == other.constants
            and self.unit_coords == other.unit_coords
        )

    def __hash__(self):
        return hash((self.base, self.labels, self.constants, self.unit_coords))

    def __repr__(self):
        return f"StructureAlgebra(rank {self.rank} over {self.base!r})"

    # -- elements -------------------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def zero_el(self) -> "AlgebraElement":
        return AlgebraElement(self, [self.base.zero] * self.rank)

    def one_el(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit_coords)

    def basis_el(self, i: int) -> "AlgebraElement":
        coords = [self.base.zero] * self.rank
        coords[i] = self.base.one
        return AlgebraElement(self, coords)

    def scalar_el(self, a: Polynomial) -> "AlgebraElement":
        """The image of a base-ring element, a * 1."""
        return AlgebraElement(self, [a * c for c in self.unit_coords])

    def multiply_coords(self, x, y):
        r = self.rank
        base = self.base
        out = [base.zero] * r
        for i in range(r):
            if x[i].is_zero():
                continue
            for j in range(r):
                if y[j].is_zero():
                    continue
                prod = x[i] * y[j]
                for m in range(r):
                    c = self.constants[i][j][m]
                    if not c.is_zero():
                        out[m] = out[m] + prod * c
        return [base.nf(v) for v in out]

    # -- validation -------------------------------------------------------------

    def validate(self):
        """Check commutativity, the unit law, and associativity.

        Returns a certificate (list of dicts); raises InvalidAlgebra at the
        first violated identity, reporting 1-based indices.  The checks run
        once per object: later calls return a copy of the stored certificate.
        """
        if self._certificates is not None:
            return [dict(c) for c in self._certificates]
        r = self.rank
        base = self.base
        checks = []
        for i in range(r):
            for j in range(i + 1, r):
                for m in range(r):
                    if not base.equal(self.constants[i][j][m], self.constants[j][i][m]):
                        raise InvalidAlgebra("commutativity", (i + 1, j + 1, m + 1))
        checks.append({"axiom": "commutativity", "ok": True})
        one = self.one_el()
        for j in range(r):
            if not (one * self.basis_el(j)).equal(self.basis_el(j)):
                raise InvalidAlgebra("unit", (j + 1,))
        checks.append({"axiom": "unit", "ok": True})
        for i in range(r):
            for j in range(r):
                left_inner = self.basis_el(i) * self.basis_el(j)
                for m in range(r):
                    left = left_inner * self.basis_el(m)
                    right = self.basis_el(i) * (self.basis_el(j) * self.basis_el(m))
                    if not left.equal(right):
                        raise InvalidAlgebra("associativity", (i + 1, j + 1, m + 1))
        checks.append({"axiom": "associativity", "ok": True})
        self._certificates = checks
        return [dict(c) for c in checks]

    # -- derived algebras ---------------------------------------------------------

    def base_change(self, ring: PresentedRing) -> "StructureAlgebra":
        """The same constants over a larger presented ring.

        ``ring`` must contain the base presentation (flattened towers share
        variable names, so this is just reinterpretation plus normal form).
        """
        missing = set(self.base.variables) - set(ring.variables)
        if missing:
            raise ValueError(f"target ring is missing base variables {sorted(missing)}")
        return StructureAlgebra(
            ring,
            self.labels,
            self.constants,
            self.unit_coords,
        )

    def flat_ring(self) -> PresentedRing:
        """The algebra as a presented ring over k.

        Requires the first basis element to be the unit (label "1"); the
        remaining labels become variables subject to the product rewrites
        b_i b_j = sum c_ijm b_m.
        """
        if self.labels[0] != "1" or self.unit_coords != tuple(
            [self.base.one] + [self.base.zero] * (self.rank - 1)
        ):
            raise ValueError("flat_ring needs the first basis element to be 1")
        label_vars = self.labels[1:]
        rels = []
        field = self.base.field
        for i in range(1, self.rank):
            for j in range(i, self.rank):
                lhs = Polynomial(
                    field, {Monomial({self.labels[i]: 1}).mul(Monomial({self.labels[j]: 1})): field.one}
                )
                rhs = Polynomial.zero(field)
                for m in range(self.rank):
                    c = self.constants[i][j][m]
                    if m == 0:
                        rhs = rhs + c
                    else:
                        rhs = rhs + c * Polynomial.variable(field, self.labels[m])
                rels.append(lhs - rhs)
        return self.base.extend(label_vars, rels, base_vars=self.base.variables)

    def coordinatize(self, flat: Polynomial, extra_env=None) -> "AlgebraElement":
        """Evaluate a flat polynomial (base vars + labels) into coordinates.

        ``extra_env`` may map further variables to AlgebraElements.
        """
        env = {}
        for v in self.base.variables:
            env[v] = self.scalar_el(self.base.var(v))
        for i, lab in enumerate(self.labels):
            if lab != "1":
                env[lab] = self.basis_el(i)
        if extra_env:
            env.update(extra_env)
        return evaluate_poly(flat, env, self)

    def reconstruct(self, el: "AlgebraElement") -> Polynomial:
        """The flat polynomial sum coords_m * label_m representing ``el``."""
        field = self.base.field
        out = Polynomial.zero(field)
        for i, lab in enumerate(self.labels):
            if lab == "1":
                out = out + el.coords[i]
            else:
                out = out + el.coords[i] * Polynomial.variable(field, lab)
        return out


class AlgebraElement:
    """A coordinate vector over the base of a StructureAlgebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StructureAlgebra, coords):
        if len(coords) != algebra.rank:
            raise ValueError("coordinate vector has the wrong length")
        self.algebra = algebra
        self.coords = tuple(algebra.base.nf(c) for c in coords)

    def _check(self, other):
        if self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.coords])

    def __mul__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, self.algebra.multiply_coords(self.coords, other.coords)
        )

    def scale(self, a: Polynomial) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [c * a for c in self.coords])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.algebra.one_el()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def equal(self, other) -> bool:
        self._check(other)
        ring = self.algebra.base
        return all(ring.equal(a, b) for a, b in zip(self.coords, other.coords))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __repr__(self):
        ring = self.algebra.base
        parts = [
            f"({ring.render(c)})*{lab}"
            for c, lab in zip(self.coords, self.algebra.labels)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def evaluate_poly(p: Polynomial, env: dict, algebra: StructureAlgebra) -> AlgebraElement:
    """Evaluate a polynomial with every variable mapped to an AlgebraElement."""
    out = algebra.zero_el()
    for m, c in p.terms.items():
        piece = algebra.scalar_el(algebra.base.constant(c))
        for v, e in m.exps.items():
            img = env.get(v)
            if img is None:
                raise KeyError(f"no image for variable {v!r}")
            piece = piece * img**e
        out = out + piece
    return out
