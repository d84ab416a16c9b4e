"""Free finite algebras over a presented ring, given by structure constants.

A ``StructureAlgebra`` of rank r over a base ring stores the products
b_i * b_j = sum_m c_ijm b_m.  Elements are coordinate vectors over the base
ring.  The same machinery carries the module algebra of a descent problem
(over its base ring) and the operator coefficient algebra (over k).

The constructor takes the dense r x r x r table and keeps it sparse: its
``table[i][j]`` is the tuple of the pairs (m, c_ijm) whose normal form
c_ijm is nonzero, m ascending.  ``multiply_coords`` is the one product
kernel: elements multiply through it, and ``validate`` checks the unit law
and associativity with the products it returns.

Element coordinates are always normal forms over the base ring.  The public
constructor normalizes what it is given; products are normalized once per
output coordinate, and sums, differences, negations and field-scalar
multiples of normal forms are normal forms already, so they are kept as
computed.  ``evaluate_poly`` computes each power of a variable's image once
per call, applies a term's field coefficient by scaling coordinates, and
accumulates the terms in place.

Derived objects are built once per algebra and kept in slots, the way the
validation certificate is: ``flat_ring`` builds its presentation once,
and ``base_change`` returns one algebra per target ring, so elements from
two base changes to the same ring share their algebra object.

The validation is also what licenses ``flat_ring`` to skip Buchberger:
once the axioms hold, a table whose label products lead their rewrites
is already a reduced Groebner basis over the base ring's, so the flat
ring is read off the table (Kreuzer & Robbiano, *Computational
Commutative Algebra 2*, section 6.4, on border bases).
"""

from __future__ import annotations

from .errors import InvalidAlgebra
from .groebner import GroebnerBasis
from .polynomials import DegRevLex, Monomial, Polynomial, add_multiple, power
from .presented import PresentedRing


class StructureAlgebra:
    """A free rank-r module with a commutative unital multiplication."""

    __slots__ = (
        "base", "labels", "table", "unit_coords", "_certificates", "_flat_ring",
        "_base_changes",
    )

    def __init__(self, base: PresentedRing, labels, constants, unit_coords=None):
        labels = tuple(labels)
        r = len(labels)
        if len(constants) != r or any(
            len(row) != r or any(len(cell) != r for cell in row) for row in constants
        ):
            raise ValueError("structure constants must form an r x r x r table")
        if unit_coords is None:
            unit_coords = [base.one] + [base.zero] * (r - 1)
        if len(unit_coords) != r:
            raise ValueError("unit vector has the wrong length")
        self._set(base, labels, [map(enumerate, row) for row in constants], unit_coords)

    def _set(self, base, labels, cells, unit_coords):
        """Keep, per (i, j), the (m, c_ijm) of ``cells`` whose normal form
        over ``base`` is nonzero: the constructor and ``base_change`` both
        build through here.  A zero entry is its own normal form, so only
        nonzero entries are reduced."""
        nf = base.nf
        self.base = base
        self.labels = labels
        self.table = tuple(tuple(
            tuple((m, c) for m, c in ((m, nf(c)) for m, c in cell if not c.is_zero())
                  if not c.is_zero())
            for cell in row) for row in cells)
        self.unit_coords = tuple(c if c.is_zero() else nf(c) for c in unit_coords)
        self._certificates = None
        self._flat_ring = None
        self._base_changes = {}

    @property
    def rank(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, StructureAlgebra)
            and self.base == other.base
            and self.labels == other.labels
            and self.table == other.table
            and self.unit_coords == other.unit_coords
        )

    def __hash__(self):
        return hash((self.base, self.labels, self.table, self.unit_coords))

    def __repr__(self):
        return f"StructureAlgebra(rank {self.rank} over {self.base!r})"

    # -- elements -------------------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def basis_el(self, i: int) -> "AlgebraElement":
        coords = [self.base.zero] * self.rank
        coords[i] = self.base.one
        return AlgebraElement(self, coords)

    def scalar_el(self, a: Polynomial) -> "AlgebraElement":
        """The image of a base-ring element, a * 1."""
        return AlgebraElement(self, [a * c for c in self.unit_coords])

    def multiply_coords(self, x, y):
        """Coordinates of x * y: each output coordinate is accumulated in one
        term dict and normalized once; a coordinate no term reached is the
        base ring's zero, with no normal form taken.  Only the nonzero
        constants of the table are visited, so a pair (i, j) with
        b_i b_j = 0 forms no product x_i y_j."""
        base = self.base
        field = base.field
        out = [{} for _ in range(self.rank)]
        for xi, row in zip(x, self.table):
            if xi.is_zero():
                continue
            for yj, cell in zip(y, row):
                if not cell or yj.is_zero():
                    continue
                prod = (xi * yj).terms
                for m, c in cell:
                    for cm, cc in c.terms.items():
                        add_multiple(out[m], prod, cc, field, cm)
        zero = base.zero
        return [base.nf(Polynomial.from_terms(field, t)) if t else zero for t in out]

    # -- validation -------------------------------------------------------------

    def validate(self):
        """Check commutativity, the unit law, and associativity.

        The axioms are checked on the structure constants, which are normal
        forms: commutativity is equality of the stored (m, c_ijm) and
        (m, c_jim); the unit law and associativity compare coordinate
        vectors of the form (sum_k x_k b_k) * b_m, each a ``multiply_coords``
        call with y = b_m.  Commutativity is checked first; with it in
        hand b_i (b_j b_m) = (b_j b_m) b_i, so associativity reads
        (b_i b_j) b_m = (b_j b_m) b_i, and the associator is antisymmetric
        in i and m.  Only i <= m is checked: the first failing (i, j, m) in
        lexicographic order always has i <= m.  Each product (b_i b_j) b_m
        is computed once.

        Returns a certificate (list of dicts); raises InvalidAlgebra at the
        first violated identity, reporting 1-based indices.  The checks run
        once per object: later calls return a copy of the stored certificate.
        """
        if self._certificates is not None:
            return [dict(c) for c in self._certificates]
        r = self.rank
        base = self.base
        table = self.table
        checks = []
        for i in range(r):
            for j in range(i + 1, r):
                if table[i][j] != table[j][i]:
                    m = min(m for m, _ in set(table[i][j]) ^ set(table[j][i]))
                    raise InvalidAlgebra("commutativity", (i + 1, j + 1, m + 1))
        checks.append({"axiom": "commutativity", "ok": True})

        zero, one = base.zero, base.nf(base.one)
        basis = [[one if k == m else zero for k in range(r)] for m in range(r)]
        for j in range(r):
            if self.multiply_coords(self.unit_coords, basis[j]) != basis[j]:
                raise InvalidAlgebra("unit", (j + 1,))
        checks.append({"axiom": "unit", "ok": True})
        products = {}

        def product(i, j, m):
            """Coordinates of (b_i b_j) b_m, computed once per {i, j} and m."""
            key = (i, j, m) if i <= j else (j, i, m)
            out = products.get(key)
            if out is None:
                cell = dict(table[i][j])
                x = [cell.get(k, zero) for k in range(r)]
                out = products[key] = self.multiply_coords(x, basis[m])
            return out

        for i in range(r):
            for j in range(r):
                for m in range(i, r):
                    if product(i, j, m) != product(j, m, i):
                        raise InvalidAlgebra("associativity", (i + 1, j + 1, m + 1))
        checks.append({"axiom": "associativity", "ok": True})
        self._certificates = checks
        return [dict(c) for c in checks]

    # -- derived algebras ---------------------------------------------------------

    def base_change(self, ring: PresentedRing) -> "StructureAlgebra":
        """The same constants over a larger presented ring.

        ``ring`` must contain the base presentation (flattened towers share
        variable names, so this is just reinterpretation plus normal form).
        Built once per target ring object and kept on this algebra.
        """
        # keyed by identity: the stored algebra keeps ``ring`` alive, so its
        # id cannot be reused
        changed = self._base_changes.get(id(ring))
        if changed is None:
            missing = set(self.base.variables) - set(ring.variables)
            if missing:
                raise ValueError(f"target ring is missing base variables {sorted(missing)}")
            changed = StructureAlgebra.__new__(StructureAlgebra)
            changed._set(ring, self.labels, self.table, self.unit_coords)
            self._base_changes[id(ring)] = changed
        return changed

    def flat_ring(self) -> PresentedRing:
        """The algebra as a presented ring over k.

        Requires the first basis element to be the unit (label "1"); the
        remaining labels become variables subject to the product rewrites
        b_i b_j = sum c_ijm b_m.  When every label product b_i b_j leads its
        rewrite, the validated table is already a reduced Groebner basis
        over A's (the border-basis criterion): the rewrites are monic with
        tails reduced over A, and B is free over A on its labels, so the
        standard monomials are independent.  The ring is then formed from
        the table with no S-pair; any other table, and a rank-1 B, runs
        Buchberger through ``extend``.  Built once and kept on the algebra.
        """
        if self._flat_ring is not None:
            return self._flat_ring
        base = self.base
        if self.labels[0] != "1" or self.unit_coords != tuple(
            [base.one] + [base.zero] * (self.rank - 1)
        ):
            raise ValueError("flat_ring needs the first basis element to be 1")
        label_vars = self.labels[1:]
        rels, products = [], []
        field = base.field
        for i in range(1, self.rank):
            for j in range(i, self.rank):
                product = Monomial({self.labels[i]: 1}).mul(Monomial({self.labels[j]: 1}))
                rhs = Polynomial.zero(field)
                for m, c in self.table[i][j]:
                    if m == 0:
                        rhs = rhs + c
                    else:
                        rhs = rhs + c * Polynomial.variable(field, self.labels[m])
                rels.append(Polynomial(field, {product: field.one}) - rhs)
                products.append(product)
        if rels:
            order = DegRevLex(base.variables + label_vars)
            if all(order.leading(g)[0] is m for g, m in zip(rels, products)):
                self.validate()
                gens = list(base.relations.generators) + rels
                gens.sort(key=lambda g: order.key_memo[order.leading(g)[0]], reverse=True)
                self._flat_ring = PresentedRing(field, GroebnerBasis(gens, order))
                return self._flat_ring
        self._flat_ring = base.extend(label_vars, rels)
        return self._flat_ring

    def coordinatize(self, flat: Polynomial, extra_env=None) -> "AlgebraElement":
        """Evaluate a flat polynomial (base vars + labels) into coordinates.

        ``extra_env`` may map further variables to AlgebraElements.  Only
        the variables that occur in ``flat`` get an image built here.
        """
        occurring = flat.variables()
        env = {}
        for v in self.base.variables:
            if v in occurring:
                env[v] = self.scalar_el(self.base.var(v))
        for i, lab in enumerate(self.labels):
            if lab != "1" and lab in occurring:
                env[lab] = self.basis_el(i)
        if extra_env:
            env.update(extra_env)
        return evaluate_poly(flat, env, self)


class AlgebraElement:
    """A coordinate vector over the base of a StructureAlgebra.

    The coordinates are always normal forms: the constructor normalizes
    them, and every operation returns normal forms without a second pass.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StructureAlgebra, coords):
        if len(coords) != algebra.rank:
            raise ValueError("coordinate vector has the wrong length")
        self.algebra = algebra
        self.coords = tuple(algebra.base.nf(c) for c in coords)

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return _wrap(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return _wrap(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return _wrap(self.algebra, [-a for a in self.coords])

    def __mul__(self, other):
        self._check(other)
        return _wrap(self.algebra, self.algebra.multiply_coords(self.coords, other.coords))

    def __pow__(self, n: int):
        return power(self, n) if n else _wrap(self.algebra, self.algebra.unit_coords)

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


def _wrap(algebra: StructureAlgebra, coords) -> AlgebraElement:
    """An element whose coordinates are already normal forms, kept as given."""
    el = AlgebraElement.__new__(AlgebraElement)
    el.algebra = algebra
    el.coords = tuple(coords)
    return el


def evaluate_poly(p: Polynomial, env: dict, algebra: StructureAlgebra) -> AlgebraElement:
    """Evaluate a polynomial with every variable mapped to an AlgebraElement.

    Each power ``env[v]**e`` is computed once per call and shared by the
    terms that use it; a term's coefficient scales the coordinates of its
    power product, and the terms are summed in one term dict per coordinate.
    Normal forms are closed under these sums, so the result needs no
    further reduction.
    """
    field = algebra.base.field
    out = [{} for _ in range(algebra.rank)]
    powers = {}
    for m, c in p.terms.items():
        piece = None
        for v, e in m.exps.items():
            power = powers.get((v, e))
            if power is None:
                img = env.get(v)
                if img is None:
                    raise KeyError(f"no image for variable {v!r}")
                if img.algebra is not algebra and img.algebra != algebra:
                    raise ValueError("elements of different algebras")
                power = powers[v, e] = img**e
            piece = power if piece is None else piece * power
        coords = algebra.unit_coords if piece is None else piece.coords
        for acc, coord in zip(out, coords):
            add_multiple(acc, coord.terms, c, field)
    return _wrap(algebra, [Polynomial.from_terms(field, t) for t in out])
