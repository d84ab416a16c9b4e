"""Dense exact linear algebra over a ScalarField.

Matrices are plain lists of lists of scalars.  Everything is elementary
row reduction; fields make every nonzero pivot usable.
"""

from __future__ import annotations

from .scalars import ScalarField


def identity(field: ScalarField, n: int):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def rref(field: ScalarField, rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(lead, len(rows)):
            if not field.is_zero(rows[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        inv = field.inv(rows[lead][col])
        rows[lead] = [field.mul(x, inv) for x in rows[lead]]
        for i in range(len(rows)):
            if i != lead and not field.is_zero(rows[i][col]):
                factor = rows[i][col]
                rows[i] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[lead])
                ]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows, pivots


def rank(field: ScalarField, rows) -> int:
    return len(rref(field, rows)[1])


def solve(field: ScalarField, a, b):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not a:
        return [] if all(field.is_zero(x) for x in b) else None
    n, m = len(a), len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(field, aug)
    if m in pivots:
        return None
    x = [field.zero] * m
    for r, col in enumerate(pivots):
        x[col] = red[r][m]
    return x


def inverse(field: ScalarField, a):
    """Matrix inverse over the field, or None when singular."""
    n = len(a)
    aug = [list(row) + ident_row for row, ident_row in zip(a, identity(field, n))]
    red, pivots = rref(field, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def in_span(field: ScalarField, vectors, target) -> bool:
    """Is target a linear combination of the given vectors?"""
    if not vectors:
        return all(field.is_zero(x) for x in target)
    a = [list(col) for col in zip(*vectors)]
    return solve(field, a, list(target)) is not None
