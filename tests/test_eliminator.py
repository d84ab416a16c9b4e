"""``linear.rref`` is the one Gauss-Jordan loop: the routines it replaced
are kept here as references, and the fold must give their results and
their witnesses.

- ``reference_inverse`` is the earlier ``RingMatrix.inverse`` loop: the
  first unit of each column is the pivot, a column of nonzero non-units
  goes to the adjugate route, and elimination stops at the first column
  with no nonzero entry.  Its adjugate route is
  ``test_matrices.reference_adjugate_inverse``, the matrix-power adjugate
  times det^-1, so the package's fallback is compared with a route of its
  own.
- ``reference_solve_over_ring`` is the earlier ``homs._solve_over_ring``:
  the first nonzero entry is the pivot and must be a unit, a zero column is
  passed over, and a nonzero right-hand side left below the pivots makes
  the system inconsistent.
- ``reference_rref`` is the earlier field-only ``linear.rref``, with the
  ``solve`` and ``rank`` built on it, and ``reference_field_inverse`` the
  field inverse built on it, the reference of ``conftest.field_inverse``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descent_kit import GF, QQ, Monomial, Polynomial, PresentedRing, linear
from descent_kit.errors import NonInvertibleMatrix, NotAUnit
from descent_kit.matrices import RingMatrix
from conftest import field_inverse
from test_matrices import reference_adjugate_inverse


def reference_inverse(self):
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
            return reference_adjugate_inverse(self)
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


def reference_solve_over_ring(matrix: RingMatrix, rhs):
    """Solve M x = b over the ring by unit-pivot elimination.

    Returns a solution or None when inconsistent; raises NotAUnit-style
    failure only if some column stalls on nonzero non-unit entries (cannot
    happen over a field).
    """
    ring = matrix.ring
    n = matrix.nrows
    m = matrix.ncols
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix.rows)]
    pivot_cols = []
    row = 0
    for col in range(m):
        pivot = None
        for i in range(row, n):
            e = ring.nf(a[i][col])
            if e.is_zero():
                continue
            try:
                pivot = (i, ring.unit_inverse(e))
                break
            except NotAUnit:
                raise NonInvertibleMatrix(
                    f"cannot decide solvability: non-unit entry {ring.render(e)}",
                    matrix.render(),
                ) from None
        if pivot is None:
            continue
        i, scale = pivot
        a[row], a[i] = a[i], a[row]
        a[row] = [ring.nf(x * scale) for x in a[row]]
        for rr in range(n):
            if rr != row:
                factor = ring.nf(a[rr][col])
                if not factor.is_zero():
                    a[rr] = [ring.nf(x - factor * y) for x, y in zip(a[rr], a[row])]
        pivot_cols.append(col)
        row += 1
        if row == n:
            break
    for i in range(row, n):
        if not ring.nf(a[i][m]).is_zero():
            return None
    solution = [ring.zero] * m
    for rr, col in enumerate(pivot_cols):
        solution[col] = a[rr][m]
    return solution


def reference_rref(field, rows):
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


def reference_solve(field, a, b):
    if not a:
        return [] if all(field.is_zero(x) for x in b) else None
    m = len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    red, pivots = reference_rref(field, aug)
    if m in pivots:
        return None
    x = [field.zero] * m
    for r, col in enumerate(pivots):
        x[col] = red[r][m]
    return x


def quotient(field, relation):
    a = Polynomial.variable(field, "a")
    base = PresentedRing.make(field, ("a",), [])
    return PresentedRing.make(field, ("a",), [base.el(relation).substitute({"a": a})])


# QQ[a]/(a^3) is local: its non-units are the multiples of a.  GF(5)[a]/(a^2 - a)
# is GF(5) x GF(5): a and 1 - a are nonzero non-units, and a column of
# non-units can still have a unit determinant.
RINGS = {
    "QQ": PresentedRing.base_field(QQ),
    "GF(5)": PresentedRing.base_field(GF(5)),
    "QQ[a]/(a^3)": quotient(QQ, "a^3"),
    "GF(5)[a]/(a^2 - a)": quotient(GF(5), "a^2 - a"),
}


def element(ring, coeffs):
    """sum_k coeffs[k] a^k in normal form (the constant term over a field)."""
    if not ring.variables:
        coeffs = coeffs[:1]
    terms = {}
    for k, c in enumerate(coeffs):
        c = ring.field.normalize(c)
        if c:
            terms[Monomial({"a": k} if k else {})] = c
    return ring.nf(Polynomial(ring.field, terms))


# mostly zeros and small coefficients, so zero columns, non-unit columns and
# inconsistent right-hand sides all come up
coefficient = st.sampled_from([0, 0, 0, 1, -1, 2, 3])


@st.composite
def ring_systems(draw, square):
    name = draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[name]
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 4))
    entry = st.lists(coefficient, min_size=3, max_size=3).map(lambda c: element(ring, c))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    rhs = draw(st.lists(entry, min_size=n, max_size=n))
    return RingMatrix(ring, rows), rhs


def outcome(fn, *args):
    """The result of ``fn``, or the witness text it raised."""
    try:
        return fn(*args)
    except NonInvertibleMatrix as exc:
        return ("witness", exc.witness, exc.matrix)


def folded_solve(matrix, rhs):
    """``linear.solve`` over the ring, with NotAUnit mapped to the witness
    ``adjoint_evidence`` reports."""
    try:
        return linear.solve(matrix.ring, matrix.rows, rhs)
    except NotAUnit as exc:
        raise NonInvertibleMatrix(
            f"cannot decide solvability: non-unit entry {exc.element_repr}",
            matrix.render(),
        ) from None


@settings(max_examples=200, deadline=None)
@given(ring_systems(square=True))
def test_inverse_matches_the_earlier_loop(case):
    m, _ = case
    assert outcome(RingMatrix.inverse, m) == outcome(reference_inverse, m)


@settings(max_examples=200, deadline=None)
@given(ring_systems(square=False))
def test_ring_solve_matches_the_earlier_loop(case):
    m, rhs = case
    assert outcome(folded_solve, m, rhs) == outcome(reference_solve_over_ring, m, rhs)


def test_pivot_rule_decides_a_non_unit_above_a_unit(monkeypatch):
    """Column 1 holds b above 1: solving stops at b, inverting takes the 1."""
    ring = PresentedRing.make(QQ, ("b",), [Polynomial.variable(QQ, "b") ** 3])
    b = ring.var("b")
    m = RingMatrix(ring, [[b, ring.one], [ring.one, ring.zero]])
    with pytest.raises(NonInvertibleMatrix) as err:
        folded_solve(m, [ring.one, ring.one])
    assert err.value.witness == "cannot decide solvability: non-unit entry b"

    def no_adjugate(self):
        raise AssertionError("the inverse took the adjugate route")

    monkeypatch.setattr(RingMatrix, "_inverse_adjugate", no_adjugate)
    inv = m.inverse()
    assert m * inv == RingMatrix.identity(ring, 2)
    assert inv.render() == [["0", "1"], ["1", "-b"]]


def test_inverse_stops_at_the_first_zero_column():
    """A zero column ends the inverse's elimination even when a later column
    would stall: the witness names that column, with no adjugate route."""
    ring = RINGS["QQ[a]/(a^3)"]
    a = ring.var("a")
    m = RingMatrix(ring, [[ring.one, ring.one, ring.zero],
                          [ring.zero, ring.zero, a],
                          [ring.zero, ring.zero, a]])
    with pytest.raises(NonInvertibleMatrix) as err:
        m.inverse()
    assert err.value.witness == "column 2 has no nonzero pivot after elimination"


def test_non_unit_right_hand_side_is_inconsistent_not_undecided(monkeypatch):
    """A zero row with a non-unit right-hand side makes the system
    inconsistent; it is not a stall, and the right-hand side is never
    inverted: no Groebner run asks whether a is a unit."""
    from descent_kit import presented

    runs = []
    original = presented.buchberger_extended

    def counted(*args, **kwargs):
        runs.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(presented, "buchberger_extended", counted)
    ring = RINGS["QQ[a]/(a^3)"]
    m = RingMatrix(ring, [[ring.one, ring.zero], [ring.zero, ring.zero]])
    assert linear.solve(ring, m.rows, [ring.one, ring.var("a")]) is None
    assert runs == []


def reference_field_inverse(field, a):
    n = len(a)
    ident = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    red, pivots = reference_rref(field, [list(row) + r for row, r in zip(a, ident)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


@st.composite
def field_systems(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(7)]))
    p = field.characteristic
    scalar = (st.integers(0, p - 1) if p else st.fractions(-3, 3, max_denominator=4))
    entry = st.one_of(st.just(0), scalar).map(field.normalize)
    n = draw(st.integers(0, 4))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    rhs = draw(st.lists(entry, min_size=n, max_size=n))
    return field, rows, rhs


@settings(max_examples=300, deadline=None)
@given(field_systems())
def test_field_solve_rank_and_inverse_match_the_earlier_loop(case):
    field, rows, rhs = case
    assert linear.solve(field, rows, rhs) == reference_solve(field, rows, rhs)
    if not rows:
        return
    assert linear.rref(field, rows) == reference_rref(field, rows)
    assert linear.rank(field, rows) == len(reference_rref(field, rows)[1])
    if len(rows) == len(rows[0]):
        assert field_inverse(field, rows) == reference_field_inverse(field, rows)
