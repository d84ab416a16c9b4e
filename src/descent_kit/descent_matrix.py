"""The matrix attached to an endomorphism and to a full operator structure.

For an endomorphism sigma of B the r x r matrix has entries
lambda_n(sigma(b_i)).  For an operator structure f on B the rl x rl matrix
has blocks (M_mj)_ni = sum_k a_jkm lambda_n(f_k(b_i)); vectors indexed by
(i, j) flatten at position (j-1)r + i, so an (i, j) vector is its l
coordinate vectors (one per j, each of length r) laid one after another,
and block (m, j) fills rows (m-1)r + 1 .. mr and columns (j-1)r + 1 .. jr.
``DescentMatrix.pack`` and ``DescentMatrix.unpack`` are the one place that
layout is built and read.  The a_jkm come from the coefficient algebra's
sparse ``cells``: each stored (m, a_jkm) of cells[j][k] adds
a_jkm lambda(f_k) into block (m, j), and a zero constant costs nothing.
With a stratified coefficient basis the matrix is block lower triangular
with the associated endomorphism matrices on the diagonal, and that is
exactly why its invertibility reduces to theirs.  The shape is not
checked anywhere: it follows from the stratified basis that
``build_d_algebra`` certifies (a product eps_j eps_k inside a factor
lies in m^(s_j + s_k), so a_jkm = 0 for m < j, and a_jkj = [k is the
unit of j's factor]), so a ``DescentMatrix`` keeps only the one assembled
matrix, and ``DescentMatrix.diagonal_block(j)`` is the matrix of the
associated endomorphism of j's factor: the one place that matrix is read.

``associated_matrix`` is the one place that reads f in coordinates over
A: it coordinatizes f_k(b_i) while it assembles the matrix.  Invertibility
is a fact about the tower alone, so it builds a tower's matrix once,
decides it once (its inverse over the base ring, or the witness that there
is none) and keeps it on the tower, where every later caller finds it.
The matrix and its inverse stay over A: a caller whose vectors live in an
extension R of A (W(C), its pre-quotient ring, a test algebra) hands R to
``RingMatrix.apply`` or ``solve_cramer``.
"""

from __future__ import annotations

from . import linear
from .errors import NonInvertibleMatrix
from .matrices import RingMatrix
from .tower import OperatorTower


class DescentMatrix:
    """The rl x rl matrix of (B, f), decided when built: ``inverse`` over the
    base ring, or None and the ``witness`` of why there is none."""

    __slots__ = ("r", "l", "matrix", "inverse", "witness")

    def __init__(self, r: int, l: int, matrix: RingMatrix):
        self.r = r
        self.l = l
        self.matrix = matrix
        self.inverse = self.witness = None
        try:
            self.inverse = matrix.inverse()
        except NonInvertibleMatrix as exc:
            self.witness = exc.witness

    @property
    def invertible(self) -> str:
        return "no" if self.inverse is None else "yes"

    def diagonal_block(self, j: int) -> RingMatrix:
        """Block (j, j), 0-based: the r x r matrix of the associated
        endomorphism of j's factor, entry (n, i) = lambda_n(sigma(b_i))."""
        r = self.r
        rows = self.matrix.rows[j * r:(j + 1) * r]
        return RingMatrix(self.matrix.ring, [row[j * r:(j + 1) * r] for row in rows])

    @staticmethod
    def pack(blocks):
        """The (i, j) vector whose entry at j r + i (both 0-based) is
        ``blocks[j][i]``: the l length-r blocks laid one after another."""
        return [x for block in blocks for x in block]

    def unpack(self, vector):
        """For each i, the tuple of entries (i, 0), ..., (i, l - 1) of an
        (i, j) vector."""
        r = self.r
        return [tuple(vector[j * r + i] for j in range(self.l)) for i in range(r)]

    def render(self):
        return self.matrix.render()


def assemble_matrix(ring, r, l, cells, lam) -> RingMatrix:
    """Build the matrix from sparse structure constants and coordinates.

    ``cells[j][k]`` holds the pairs (m, a_jkm) with a_jkm nonzero, the
    coefficient-algebra products; ``lam(n, k, i)`` gives the coordinates
    lambda_n(f_k(b_i)); all indices 0-based.  Each stored (m, a_jkm) adds
    a_jkm lambda_n(f_k(b_i)) into block (m, j), at entry (m r + n, j r + i),
    so that entry ends as (M_mj)_ni.
    """
    rows = [[ring.zero] * (r * l) for _ in range(r * l)]
    for j, row in enumerate(cells):
        for k, cell in enumerate(row):
            for m, a in cell:
                for n in range(r):
                    out = rows[m * r + n]
                    for i in range(r):
                        out[j * r + i] = out[j * r + i] + lam(n, k, i).scale(a)
    return RingMatrix(ring, rows)


def associated_matrix(tower: OperatorTower) -> DescentMatrix:
    """The matrix associated to (B, f) in the stratified coefficient basis.

    The coordinates lambda_n(f_k(b_i)) are read off f here, once per basis
    element and coordinate operator: f(1) and the label images, each
    coordinatized over A.  Built and decided on the first call for a tower,
    and kept in the slot the tower declares for it, which nothing else fills.
    """
    if tower._descent_matrix is None:
        algebra, f, flat = tower.algebra, tower.f, tower.flat_b
        ring, r, l = algebra.base, algebra.rank, tower.coeff.dim
        images = [f.apply(flat.one).coords] + [f.images[b] for b in algebra.labels[1:]]
        coords = [[algebra.coordinatize(x).coords for x in image] for image in images]
        tower._descent_matrix = DescentMatrix(r, l, assemble_matrix(
            ring, r, l, tower.coeff.cells, lambda n, k, i: coords[i][k][n]))
    return tower._descent_matrix


def invertibility_equivalences(m: RingMatrix) -> dict:
    """Evaluate the four equivalent statements about an endomorphism's matrix.

    ``m`` is the r x r matrix of the endomorphism sigma, entry (n, i) =
    lambda_n(sigma(b_i)).  Each clause is decided along its own
    computational route; the report lists the outcomes and whether they all
    agree.
    """
    ring = m.ring
    r = m.nrows

    clause_i = m.is_invertible()

    # (ii): one alternative basis b' = X b with X = I + E_12 over k, whose
    # inverse is Y = I - E_12; sigma's matrix in the b' basis is Y M X
    x = linear.identity(ring, r)
    y = linear.identity(ring, r)
    if r >= 2:
        x[0][1] = ring.one
        y[0][1] = -ring.one
    clause_ii = (RingMatrix(ring, y) * m * RingMatrix(ring, x)).is_invertible()

    # (iii): sigma(b_1)..sigma(b_r) is a basis iff the change matrix has unit
    # determinant; decided through the determinant route
    clause_iii = ring.is_unit(m.det())

    # (iv): spanning: every basis vector solvable in span(sigma(b_i)); decided
    # by one Cramer solve (one characteristic polynomial, Cayley-Hamilton per
    # right-hand side) for all r unit vectors
    units = linear.identity(ring, r)
    try:
        m.solve_cramer(units)
        clause_iv = True
    except NonInvertibleMatrix:
        clause_iv = False

    outcomes = {
        "matrix_invertible_given_basis": clause_i,
        "matrix_invertible_alternative_basis": clause_ii,
        "sigma_of_basis_is_basis": clause_iii,
        "sigma_image_spans": clause_iv,
    }
    outcomes["all_agree"] = len(set(outcomes.values())) == 1
    return outcomes
