"""Dense exact linear algebra over a ScalarField or a PresentedRing.

Matrices are plain lists of lists of elements: scalars over a field,
normal forms over a ring.  ``rref`` is the one Gauss-Jordan loop of the
package; ``solve`` runs it over either kind of ring, and
``RingMatrix.inverse`` runs it with its own pivot rule.  ``rank`` is a
field routine.  ``vec_mul`` multiplies coordinate
vectors of a finite k-algebra given by its sparse table of structure
constants: the (m, c) cells that ``StructureAlgebra.table`` keeps, with
scalar c.  ``StructureAlgebra.multiply_coords`` reads the same
format with polynomial coefficients over a ring; the two stay separate
kernels, so that neither branches on its caller.
"""

from __future__ import annotations

from .errors import NotAUnit
from .scalars import ScalarField


def identity(ring, n: int):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def vec_mul(field: ScalarField, cells, x, y):
    """Coordinates of x * y in a finite k-algebra whose table ``cells[i][j]``
    holds the pairs (m, c), m ascending, of the nonzero m-th coordinates c
    of b_i b_j.

    Only stored cells are visited, zero coordinates of x and y are skipped
    by truthiness, and the arithmetic is inline: plain int/Fraction sums,
    reduced once per coordinate over GF(p).
    """
    out = [field.zero] * len(x)
    for xi, row in zip(x, cells):
        if not xi:
            continue
        for yj, cell in zip(y, row):
            if not yj:
                continue
            c = xi * yj
            for m, cm in cell:
                out[m] += c * cm
    p = field.characteristic
    return [v % p for v in out] if p else out


def rref(ring, rows, first_unit: bool = False, width: int = None):
    """Reduced row echelon form by unit pivots; returns (rows, pivot_columns).

    ``ring`` is a ScalarField or a PresentedRing, and the entries are its
    elements (normal forms over a ring).  It supplies ``is_zero``,
    ``unit_inverse``, ``mul`` and ``sub``; a row operation hands ``sub``
    the raw product ``f * y``, so each entry is reduced once.  Columns are
    taken from left to right.  A column's pivot comes from the rows below
    the pivots found so far; its row is scaled by the pivot's inverse, and
    the column is cleared in every other row.  The pivot rule:

    - by default the pivot is the first nonzero entry, and a column with no
      nonzero entry is passed over;
    - with ``first_unit`` the pivot is the first entry that is a unit, and
      elimination ends at the first column with no nonzero entry.

    Elimination also ends at a stall: a column with nonzero entries that
    the rule cannot take (by default its first nonzero entry is not a unit;
    with ``first_unit`` none of them is).  The ``NotAUnit`` of the failed
    inverse is caught, and the rows come back reduced up to that column:
    it is the first column with a nonzero entry below the pivot rows, and
    the caller decides what the stall means.  Over a field no column
    stalls.

    Only the first ``width`` columns (all of them by default) are searched
    for pivots; the columns after them are carried through the row
    operations, as the right-hand side of ``solve`` is.
    """
    rows = [list(r) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    pivots = []
    for col in range(width):
        lead = len(pivots)
        if lead == len(rows):
            break
        pivot = None
        nonzero = False
        for i in range(lead, len(rows)):
            if ring.is_zero(rows[i][col]):
                continue
            nonzero = True
            try:
                pivot = i, ring.unit_inverse(rows[i][col])
                break
            except NotAUnit:
                if not first_unit:
                    break
        if pivot is None:
            if nonzero or first_unit:
                break
            continue
        i, inv = pivot
        row = [ring.mul(x, inv) for x in rows[i]]
        rows[i] = rows[lead]
        rows[lead] = row
        for k, other in enumerate(rows):
            f = other[col]
            if k != lead and not ring.is_zero(f):
                rows[k] = [ring.sub(x, f * y) for x, y in zip(other, row)]
        pivots.append(col)
    return rows, pivots


def rank(field: ScalarField, rows) -> int:
    return len(rref(field, rows)[1])


def solve(ring, a, b):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.  Over a
    ring, a stall on a column of A raises ``NotAUnit`` naming the entry it
    stopped at: solvability is then not decided.  A nonzero entry left in
    the column of b means the system is inconsistent, unit or not, so no
    pivot is sought in that column.
    """
    if not a:
        return [] if all(ring.is_zero(x) for x in b) else None
    m = len(a[0])
    red, pivots = rref(ring, [list(row) + [bv] for row, bv in zip(a, b)], width=m)
    left = red[len(pivots):]
    for col in range(m):
        for row in left:
            if not ring.is_zero(row[col]):
                raise NotAUnit(ring.render(row[col]))
    if any(not ring.is_zero(row[m]) for row in left):
        return None
    x = [ring.zero] * m
    for r, col in enumerate(pivots):
        x[col] = red[r][m]
    return x

