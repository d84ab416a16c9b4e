"""Matrices with entries in a presented ring.

Inversion runs Gauss-Jordan elimination restricted to unit pivots (their
inverses come with Groebner certificates) and, when elimination stalls on
nonzero non-unit entries, falls back to the adjugate route: a division-free
Berkowitz characteristic polynomial gives the determinant and the adjugate,
and the matrix is invertible exactly when the determinant is a unit.
"""

from __future__ import annotations

from .errors import NonInvertibleMatrix, NotAUnit
from .polynomials import Polynomial
from .presented import PresentedRing


class RingMatrix:
    """An immutable matrix over a PresentedRing, entries in normal form."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: PresentedRing, rows):
        self.ring = ring
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
        return RingMatrix(
            ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(ring: PresentedRing, n: int, m: int) -> "RingMatrix":
        return RingMatrix(ring, [[ring.zero] * m for _ in range(n)])

    @staticmethod
    def from_scalars(ring: PresentedRing, rows) -> "RingMatrix":
        return RingMatrix(ring, [[ring.constant(c) for c in row] for row in rows])

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

    def entry(self, i: int, j: int) -> Polynomial:
        return self.rows[i][j]

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        return RingMatrix(
            self.ring,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return RingMatrix(
            self.ring,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return RingMatrix(self.ring, [[-a for a in row] for row in self.rows])

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                s = self.ring.zero
                for a, b in zip(row, col):
                    s = s + a * b
                out_row.append(s)
            out.append(out_row)
        return RingMatrix(self.ring, out)

    def scale(self, c: Polynomial) -> "RingMatrix":
        return RingMatrix(self.ring, [[e * c for e in row] for row in self.rows])

    def apply(self, vector):
        """Matrix-vector product; the vector is a list of ring elements."""
        if len(vector) != self.ncols:
            raise ValueError("shape mismatch")
        out = []
        for row in self.rows:
            s = self.ring.zero
            for a, v in zip(row, vector):
                s = s + a * v
            out.append(self.ring.nf(s))
        return out

    @staticmethod
    def from_blocks(ring: PresentedRing, grid) -> "RingMatrix":
        """Assemble a matrix from a 2D grid of equally sized blocks."""
        rows = []
        for block_row in grid:
            height = block_row[0].nrows
            for i in range(height):
                rows.append([e for block in block_row for e in block.rows[i]])
        return RingMatrix(ring, rows)

    # -- determinant and inversion ----------------------------------------------

    def charpoly(self):
        """Berkowitz characteristic polynomial: [1, c_{n-1}, ..., c_0].

        Division-free, so it works over any presented ring.
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
                powers.append(
                    [
                        ring.nf(sum((a * b for a, b in zip(mrow, prev)), ring.zero))
                        for mrow in minor
                    ]
                )
            dots = []
            for vec in powers:
                dots.append(ring.nf(sum((a * b for a, b in zip(row_vec, vec)), ring.zero)))
            new = []
            for i in range(r + 1):
                s = ring.zero
                for j in range(r):
                    if i == j:
                        t = coeffs[j]
                    elif i == j + 1:
                        t = -(corner * coeffs[j])
                    elif i >= j + 2:
                        t = -(dots[i - j - 2] * coeffs[j])
                    else:
                        continue
                    s = s + t
                new.append(ring.nf(s))
            coeffs = new
        return coeffs

    def det(self) -> Polynomial:
        n = self.nrows
        c0 = self.charpoly()[-1]
        return self.ring.nf(c0 if n % 2 == 0 else -c0)

    def adjugate(self) -> "RingMatrix":
        """adj(M) with M*adj(M) = det(M)*I, via Cayley-Hamilton."""
        n = self.nrows
        coeffs = self.charpoly()
        # B = M^{n-1} + c_{n-1} M^{n-2} + ... + c_1 I ; adj = (-1)^{n-1} B
        acc = RingMatrix.zero(self.ring, n, n)
        power = RingMatrix.identity(self.ring, n)
        for k in range(n):
            c = self.ring.one if k == n - 1 else coeffs[n - 1 - k]
            acc = acc + power.scale(c)
            power = power * self
        if (n - 1) % 2 == 1:
            acc = -acc
        return acc

    def inverse(self) -> "RingMatrix":
        """The two-sided inverse, or NonInvertibleMatrix with a witness."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        ring = self.ring
        a = [list(row) for row in self.rows]
        inv = [list(row) for row in RingMatrix.identity(ring, n).rows]
        for col in range(n):
            pivot = None
            saw_nonzero = False
            for i in range(col, n):
                e = ring.nf(a[i][col])
                if e.is_zero():
                    continue
                saw_nonzero = True
                try:
                    pivot = (i, ring.unit_inverse(e))
                    break
                except NotAUnit:
                    continue
            if pivot is None:
                if not saw_nonzero:
                    raise NonInvertibleMatrix(
                        f"column {col + 1} has no nonzero pivot after elimination"
                    )
                return self._inverse_adjugate()
            i, scale = pivot
            a[col], a[i] = a[i], a[col]
            inv[col], inv[i] = inv[i], inv[col]
            a[col] = [ring.nf(x * scale) for x in a[col]]
            inv[col] = [ring.nf(x * scale) for x in inv[col]]
            for r in range(n):
                if r == col:
                    continue
                f = ring.nf(a[r][col])
                if f.is_zero():
                    continue
                a[r] = [ring.nf(x - f * y) for x, y in zip(a[r], a[col])]
                inv[r] = [ring.nf(x - f * y) for x, y in zip(inv[r], inv[col])]
        return RingMatrix(ring, inv)

    def _inverse_adjugate(self) -> "RingMatrix":
        d = self.det()
        try:
            d_inv = self.ring.unit_inverse(d)
        except NotAUnit:
            raise NonInvertibleMatrix(
                f"determinant {self.ring.render(d)} is not a unit"
            ) from None
        return self.adjugate().scale(d_inv)

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except NonInvertibleMatrix:
            return False

    def solve_cramer(self, b):
        """Solve M x = b by Cramer's rule; requires a unit determinant.

        Kept as an independent route from ``inverse`` so results obtained
        with one can be cross-checked with the other.
        """
        d = self.det()
        try:
            d_inv = self.ring.unit_inverse(d)
        except NotAUnit:
            raise NonInvertibleMatrix(
                f"determinant {self.ring.render(d)} is not a unit"
            ) from None
        n = self.nrows
        out = []
        for j in range(n):
            cols = [
                [b[i] if k == j else self.rows[i][k] for k in range(n)] for i in range(n)
            ]
            out.append(self.ring.nf(RingMatrix(self.ring, cols).det() * d_inv))
        return out
