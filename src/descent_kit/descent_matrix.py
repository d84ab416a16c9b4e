"""The matrix attached to an endomorphism and to a full operator structure.

For an endomorphism sigma of B the r x r matrix has entries
lambda_n(sigma(b_i)).  For an operator structure f on B the rl x rl matrix
has blocks (M_mj)_ni = sum_k a_jkm lambda_n(f_k(b_i)); vectors indexed by
(i, j) flatten at position (j-1)r + i, which matches the block grid.  With
a stratified coefficient basis the matrix is block lower triangular with
the associated endomorphism matrices on the diagonal, and that is exactly
why its invertibility reduces to theirs.
"""

from __future__ import annotations

from . import linear
from .errors import NonInvertibleMatrix, SingularBasisChange
from .matrices import RingMatrix
from .presented import PresentedRing
from .tower import OperatorTower


def endo_matrix(algebra, sigma_images) -> RingMatrix:
    """The r x r matrix of an endomorphism given on the basis.

    ``sigma_images[i]`` is sigma(b_i) as an AlgebraElement; entry (n, i) is
    its n-th coordinate.
    """
    r = algebra.rank
    ring = algebra.base
    return RingMatrix(
        ring, [[sigma_images[i].coords[n] for i in range(r)] for n in range(r)]
    )


class DescentMatrix:
    """The rl x rl matrix of (B, f), with optional inverse certificate."""

    __slots__ = ("ring", "r", "l", "blocks", "matrix", "inverse", "invertible", "witness")

    def __init__(self, ring: PresentedRing, r: int, l: int, blocks, matrix: RingMatrix):
        self.ring = ring
        self.r = r
        self.l = l
        self.blocks = blocks
        self.matrix = matrix
        self.inverse = None
        self.invertible = "unknown"
        self.witness = None

    def position(self, i: int, j: int) -> int:
        """Flat index of the (i, j) vector entry, both 0-based."""
        return j * self.r + i

    def render(self):
        return self.matrix.render()

    def lift(self, ring: PresentedRing) -> RingMatrix:
        """The matrix reinterpreted over a ring extending the base."""
        return RingMatrix(ring, self.matrix.rows)

    def lift_inverse(self, ring: PresentedRing) -> RingMatrix:
        if self.inverse is None:
            raise NonInvertibleMatrix(self.witness or "inverse not computed")
        return RingMatrix(ring, self.inverse.rows)


def assemble_matrix(ring, r, l, a_const, lam) -> DescentMatrix:
    """Build the block matrix from raw structure constants and coordinates.

    ``a_const(j, k, m)`` gives the coefficient-algebra products, ``lam(n, k, i)``
    the coordinates lambda_n(f_k(b_i)); all indices 0-based.
    """
    field = ring.field
    blocks = []
    for m in range(l):
        row = []
        for j in range(l):
            entries = []
            for n in range(r):
                entry_row = []
                for i in range(r):
                    acc = ring.zero
                    for k in range(l):
                        c = a_const(j, k, m)
                        if not field.is_zero(c):
                            acc = acc + lam(n, k, i).scale(c)
                    entry_row.append(ring.nf(acc))
                entries.append(entry_row)
            row.append(RingMatrix(ring, entries))
        blocks.append(tuple(row))
    matrix = RingMatrix.from_blocks(ring, blocks)
    return DescentMatrix(ring, r, l, tuple(blocks), matrix)


def associated_matrix(tower: OperatorTower, check_stratified: bool = True) -> DescentMatrix:
    """The matrix associated to (B, f) in the stratified coefficient basis."""
    ring = tower.base_ring
    r, l = tower.rank, tower.coeff.dim
    dm = assemble_matrix(ring, r, l, tower.coeff.a, tower.lambda_f)
    if check_stratified:
        _assert_block_structure(dm, tower)
    return dm


def _assert_block_structure(dm: DescentMatrix, tower: OperatorTower):
    """With the stratified basis: zero blocks above the diagonal row-wise,
    and each diagonal block equal to an associated endomorphism matrix."""
    zero = RingMatrix.zero(dm.ring, dm.r, dm.r)
    for m in range(dm.l):
        for j in range(dm.l):
            if m < j and dm.blocks[m][j] != zero:
                raise AssertionError(f"block ({m + 1},{j + 1}) should vanish")
    for j in range(dm.l):
        factor = tower.coeff.factor_of[j]
        expected = endo_matrix(tower.algebra, tower.endo_images(factor))
        if dm.blocks[j][j] != expected:
            raise AssertionError(f"diagonal block {j + 1} is not the endomorphism matrix")


def invert_descent_matrix(dm: DescentMatrix) -> DescentMatrix:
    """Invert over the base ring; NonInvertibleMatrix is the descent obstruction."""
    try:
        inv = dm.matrix.inverse()
    except NonInvertibleMatrix as exc:
        dm.invertible = "no"
        dm.witness = exc.witness
        exc.matrix = dm.render()
        raise
    dm.inverse = inv
    dm.invertible = "yes"
    return dm


def classify_descent_matrix(dm: DescentMatrix) -> DescentMatrix:
    """Like invert_descent_matrix but records failure instead of raising."""
    try:
        invert_descent_matrix(dm)
    except NonInvertibleMatrix:
        pass
    return dm


def inflate(ring: PresentedRing, scalar_matrix, r: int, field) -> RingMatrix:
    """Replace each scalar entry x by the r x r block x*I."""
    l = len(scalar_matrix)
    rows = []
    for bi in range(l):
        for n in range(r):
            row = []
            for bj in range(l):
                x = scalar_matrix[bi][bj]
                for i in range(r):
                    row.append(ring.constant(x) if i == n else ring.zero)
            rows.append(row)
    return RingMatrix(ring, rows)


def change_of_basis_check(tower: OperatorTower, x_matrix) -> bool:
    """Recompute the matrix in a changed coefficient basis and compare.

    ``x_matrix`` is an l x l change of basis over k with eta_j = sum_q X_qj eps_q.
    The check rebuilds the structure constants and coordinate operators in
    the eta basis from scratch and compares with conjugation by the
    inflated X.  Exact equality is required.
    """
    field = tower.base_ring.field
    l = tower.coeff.dim
    r = tower.rank
    x = [[field.normalize(c) for c in row] for row in x_matrix]
    y = linear.inverse(field, x)
    if y is None:
        raise SingularBasisChange("the change of basis is singular over k")

    a_eps = tower.coeff.a

    def a_eta(j, k, m):
        acc = field.zero
        for q in range(l):
            if field.is_zero(x[q][j]):
                continue
            for kk in range(l):
                if field.is_zero(x[kk][k]):
                    continue
                for p in range(l):
                    c = a_eps(q, kk, p)
                    if field.is_zero(c):
                        continue
                    acc = field.add(
                        acc,
                        field.mul(field.mul(x[q][j], x[kk][k]), field.mul(c, y[m][p])),
                    )
        return acc

    ring = tower.base_ring

    def lam_eta(n, k, i):
        acc = ring.zero
        for q in range(l):
            if not field.is_zero(y[k][q]):
                acc = acc + tower.lambda_f(n, q, i).scale(y[k][q])
        return ring.nf(acc)

    m_eta = assemble_matrix(ring, r, l, a_eta, lam_eta).matrix
    m_eps = associated_matrix(tower, check_stratified=False).matrix
    x_big = inflate(ring, x, r, field)
    y_big = inflate(ring, y, r, field)
    return m_eta == y_big * m_eps * x_big


def invertibility_equivalences(tower_or_algebra, sigma_images) -> dict:
    """Evaluate the four equivalent statements about an endomorphism's matrix.

    Each clause is decided along its own computational route; the report
    lists the outcomes and whether they all agree.
    """
    algebra = tower_or_algebra.algebra if isinstance(tower_or_algebra, OperatorTower) else tower_or_algebra
    ring = algebra.base
    r = algebra.rank
    m = endo_matrix(algebra, sigma_images)

    clause_i = m.is_invertible()

    # (ii): one alternative basis b' = X b with X unitriangular over k
    x = [[ring.field.one if i == j else ring.field.zero for j in range(r)] for i in range(r)]
    if r >= 2:
        x[0][1] = ring.field.one
    x_ring = RingMatrix.from_scalars(ring, x)
    y_ring = RingMatrix.from_scalars(ring, linear.inverse(ring.field, x))
    # sigma(b'_i) = sum_j X_ji sigma(b_j); coordinates in the b' basis are Y * lambda
    cols = []
    for i in range(r):
        acc = algebra.zero_el()
        for j in range(r):
            if not ring.field.is_zero(x[j][i]):
                acc = acc + sigma_images[j].scale(ring.constant(x[j][i]))
        cols.append(acc)
    m_prime_b = RingMatrix(ring, [[cols[i].coords[n] for i in range(r)] for n in range(r)])
    clause_ii = (y_ring * m_prime_b).is_invertible()

    # (iii): sigma(b_1)..sigma(b_r) is a basis iff the change matrix has unit
    # determinant; decided through the determinant route
    clause_iii = ring.is_unit(m.det())

    # (iv): spanning: every basis vector solvable in span(sigma(b_i)); decided
    # through Cramer solves
    clause_iv = True
    try:
        for n in range(r):
            target = [ring.one if p == n else ring.zero for p in range(r)]
            m.solve_cramer(target)
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
