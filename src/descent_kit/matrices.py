"""Matrices with entries in a presented ring.

Inversion runs the package's one Gauss-Jordan loop, ``linear.rref``, on
[M | I] with the first unit of each column as its pivot (unit inverses
come with Groebner certificates).  When elimination stalls on a column of
nonzero non-units, it falls back to the adjugate route: the division-free
Berkowitz characteristic polynomial gives the determinant, the matrix is
invertible exactly when the determinant is a unit, and the inverse is
adj(M) det(M)^-1.

The characteristic polynomial is computed at most once per matrix and kept
on it: the determinant, the adjugate, the fallback inverse and
``solve_cramer`` all read that one run.  Cayley-Hamilton is evaluated one
way only, by Horner with matrix-vector products (``_adjugate_times``):
on the unit vectors for the adjugate, which the fallback inverse scales
by det(M)^-1, and on the right-hand sides for ``solve_cramer``.  No
matrix power is formed.

Every sum of products (a matrix product entry, a Berkowitz dot product,
power entry or Toeplitz entry) is accumulated in one term dict and
normalized once.

``solve_cramer`` is a second, independent solve: one characteristic
polynomial per matrix, then Cayley-Hamilton for every right-hand side.  It
shares no code with the elimination, so agreement of the two routes means
something.

A matrix over A acts in any ring R that extends A's presentation (A's
relations a prefix of R's, R's new variables after A's in the order):
``apply`` and ``solve_cramer`` take the ring the vectors live in and
normalize their sums there.  The R-normal form of a sum of products does
not depend on whether the A-entries were first re-normalized in R, and an
A-inverse of the determinant is its R-inverse, so the matrix is never
rebuilt over R.
"""

from __future__ import annotations

from . import linear
from .errors import NonInvertibleMatrix, NotAUnit
from .polynomials import Polynomial, add_multiple
from .presented import PresentedRing


def _sum_of_products(pairs, field, terms=None, negate=False) -> dict:
    """The term dict of ``terms + sum(a * b)`` (``terms - sum(a * b)`` when
    negated) over the (a, b) pairs, accumulated in place."""
    terms = {} if terms is None else terms
    for a, b in pairs:
        for m, c in a.terms.items():
            add_multiple(terms, b.terms, field.neg(c) if negate else c, field, m)
    return terms


def _nf_sum(ring: PresentedRing, pairs, terms=None, negate=False) -> Polynomial:
    """The normal form of ``_sum_of_products``: one reduction per entry."""
    return ring.nf(Polynomial.from_terms(
        ring.field, _sum_of_products(pairs, ring.field, terms, negate)))


class RingMatrix:
    """An immutable matrix over a PresentedRing, entries in normal form."""

    __slots__ = ("ring", "rows", "_charpoly")

    def __init__(self, ring: PresentedRing, rows):
        self.ring = ring
        self._charpoly = None
        self.rows = tuple(tuple(ring.nf(e) for e in row) for row in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @staticmethod
    def identity(ring: PresentedRing, n: int) -> "RingMatrix":
        return RingMatrix(ring, linear.identity(ring, n))

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        return f"RingMatrix({self.render()})"

    def render(self):
        return [[self.ring.render(e) for e in row] for row in self.rows]

    # -- arithmetic -------------------------------------------------------------

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        field = self.ring.field
        out = [
            [Polynomial.from_terms(field, _sum_of_products(zip(row, col), field))
             for col in cols]
            for row in self.rows
        ]
        return RingMatrix(self.ring, out)

    def apply(self, vector, ring: PresentedRing = None):
        """Matrix-vector product, normalized in ``ring``: the ring of the
        vector's entries, which extends the matrix's (its own by default)."""
        if len(vector) != self.ncols:
            raise ValueError("shape mismatch")
        ring = self.ring if ring is None else ring
        return self._apply_plus(vector, ring.zero, [ring.zero] * self.nrows, ring)

    def _apply_plus(self, y, c: Polynomial, b, ring: PresentedRing):
        """M y + c b, each entry summed in one term dict and normalized once
        in ``ring``."""
        return [_nf_sum(ring, zip((c, *row), (bi, *y))) for row, bi in zip(self.rows, b)]

    # -- determinant and inversion ----------------------------------------------

    def charpoly(self):
        """Berkowitz characteristic polynomial: [1, c_{n-1}, ..., c_0].

        Division-free, so it works over any presented ring.  Every run
        computes; the routines below read the first run's result, kept on
        the matrix.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        ring = self.ring
        coeffs = [ring.one]
        for r in range(1, n + 1):
            minor = [row[: r - 1] for row in self.rows[: r - 1]]
            row_vec = list(self.rows[r - 1][: r - 1])
            col_vec = [self.rows[i][r - 1] for i in range(r - 1)]
            corner = self.rows[r - 1][r - 1]
            # toeplitz[i][j]: 1 on the diagonal, -corner on the subdiagonal,
            # -(row * minor^(i-j-2) * col) below that
            powers = [col_vec]
            for _ in range(max(0, r - 2)):
                prev = powers[-1]
                powers.append([_nf_sum(ring, zip(mrow, prev)) for mrow in minor])
            dots = [_nf_sum(ring, zip(row_vec, vec)) for vec in powers]
            # entry i: coeffs[i] - corner*coeffs[i-1] - sum_j dots[i-j-2]*coeffs[j]
            new = []
            for i in range(r + 1):
                start = dict(coeffs[i].terms) if i < r else {}
                pairs = [(corner, coeffs[i - 1])] if i >= 1 else []
                pairs += [(dots[i - j - 2], coeffs[j]) for j in range(i - 1)]
                new.append(_nf_sum(ring, pairs, start, negate=True))
            coeffs = new
        return coeffs

    def _coeffs(self):
        """The characteristic polynomial of the first ``charpoly`` run."""
        if self._charpoly is None:
            self._charpoly = self.charpoly()
        return self._charpoly

    def det(self) -> Polynomial:
        """det(M) = (-1)^n c_0."""
        c0 = self._coeffs()[-1]
        return self.ring.nf(c0 if self.nrows % 2 == 0 else -c0)

    def _unit_det_inverse(self) -> Polynomial:
        """det(M)^-1, or NonInvertibleMatrix."""
        d = self.det()
        try:
            return self.ring.unit_inverse(d)
        except NotAUnit:
            raise NonInvertibleMatrix(
                f"determinant {self.ring.render(d)} is not a unit"
            ) from None

    def _adjugate_times(self, vectors, scale: Polynomial, ring: PresentedRing):
        """adj(M) b * scale for every b, normalized in ``ring``.

        By Cayley-Hamilton adj(M) = (-1)^{n-1} (M^{n-1} + c_{n-1} M^{n-2} +
        ... + c_1 I), so adj(M) b is y = M^{n-1} b + ... + c_1 b up to sign,
        computed by Horner with matrix-vector products; the adjugate itself
        is never formed.  This is the one Cayley-Hamilton evaluation.
        """
        n = self.nrows
        coeffs = self._coeffs()
        scale = scale if n % 2 else -scale
        out = []
        for b in vectors:
            if len(b) != n:
                raise ValueError("shape mismatch")
            y = b
            for c in coeffs[1:n]:
                y = self._apply_plus(y, c, b, ring)
            out.append([ring.nf(e * scale) for e in y])
        return out

    def adjugate(self) -> "RingMatrix":
        """adj(M) with M*adj(M) = det(M)*I, one unit vector per column."""
        ring = self.ring
        units = linear.identity(ring, self.nrows)
        return RingMatrix(ring, zip(*self._adjugate_times(units, ring.one, ring)))

    def inverse(self) -> "RingMatrix":
        """The two-sided inverse, or NonInvertibleMatrix with a witness.

        ``linear.rref`` reduces [M | I] taking the first unit of each column
        as its pivot.  A column whose nonzero entries are all non-units
        stalls the elimination, and the adjugate route decides.  A column
        with no nonzero entry left ends it: M is singular, and that column
        is the witness.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        ring = self.ring
        aug = [list(row) + unit for row, unit in zip(self.rows, linear.identity(ring, n))]
        red, pivots = linear.rref(ring, aug, first_unit=True)
        col = len(pivots)
        if col == n:
            return RingMatrix(ring, [row[n:] for row in red])
        if any(not ring.is_zero(row[col]) for row in red[col:]):
            return self._inverse_adjugate()
        raise NonInvertibleMatrix(f"column {col + 1} has no nonzero pivot after elimination")

    def _inverse_adjugate(self) -> "RingMatrix":
        """adj(M) * det(M)^-1, or NonInvertibleMatrix naming the determinant."""
        d_inv = self._unit_det_inverse()
        return RingMatrix(self.ring, [[e * d_inv for e in row] for row in self.adjugate().rows])

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except NonInvertibleMatrix:
            return False

    def solve_cramer(self, vectors, ring: PresentedRing = None):
        """Solve M x = b for every b in ``vectors``; requires a unit determinant.

        x = adj(M) b / det(M), from the matrix's one characteristic
        polynomial by ``_adjugate_times``.  Entry j of adj(M) b is det(M_j),
        M with column j replaced by b, so this is Cramer's quotient
        det(M_j) / det(M).  The characteristic polynomial and det(M)^-1 are
        taken over the matrix's ring; the right-hand sides live in ``ring``,
        which extends it (the matrix's own by default), and the result is one
        list of normal forms there per right-hand side.

        Kept as an independent route from ``inverse`` so results obtained
        with one can be cross-checked with the other.
        """
        d_inv = self._unit_det_inverse()
        return self._adjugate_times(vectors, d_inv, self.ring if ring is None else ring)
