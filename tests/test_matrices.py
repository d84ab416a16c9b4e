"""The Cayley-Hamilton Cramer solve against the per-column determinant loop
it replaced, the term-dict Berkowitz and matrix product against the
``sum()``/``+`` loops they replaced, and the Horner adjugate against the
matrix-power sum it replaced.

``reference_cramer`` computes det(M) and then det(M_j), M with column j
replaced by b, for every j: one Berkowitz characteristic polynomial per
determinant.  ``RingMatrix.solve_cramer`` must give the same normal forms
for every right-hand side, solve M x = b, and refuse a matrix whose
determinant is not a unit with the same message.

``reference_adjugate`` is the deleted matrix-power route,
(-1)^{n-1} (M^{n-1} + c_{n-1} M^{n-2} + ... + c_1 I) summed as whole
matrices, on ``reference_charpoly``; ``reference_adjugate_inverse`` scales
it by the inverse of ``reference_det``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descent_kit import GF, QQ, Monomial, Polynomial, PresentedRing, linear
from descent_kit.errors import NonInvertibleMatrix, NotAUnit
from descent_kit.matrices import RingMatrix


def local_ring(field, nilpotency):
    """field[a]/(a^nilpotency): a local ring whose non-units are multiples of a."""
    a = Polynomial.variable(field, "a")
    return PresentedRing.make(field, ("a",), [a**nilpotency])


RINGS = {
    "QQ": (PresentedRing.base_field(QQ), 1),
    "GF(7)": (PresentedRing.base_field(GF(7)), 1),
    "QQ[a]/(a^2)": (local_ring(QQ, 2), 2),
    "GF(101)[a]/(a^3)": (local_ring(GF(101), 3), 3),
}


def reference_cramer(m, b):
    """x_j = det(M_j) / det(M), one Berkowitz run per determinant."""
    ring = m.ring
    d = m.det()
    try:
        d_inv = ring.unit_inverse(d)
    except NotAUnit:
        raise NonInvertibleMatrix(f"determinant {ring.render(d)} is not a unit") from None
    n = m.nrows
    out = []
    for j in range(n):
        cols = [[b[i] if k == j else m.rows[i][k] for k in range(n)] for i in range(n)]
        out.append(ring.nf(RingMatrix(ring, cols).det() * d_inv))
    return out


def element(ring, degree, coeffs):
    """sum_k coeffs[k] a^k over the ring (a constant over a field)."""
    terms = {}
    for k, c in enumerate(coeffs[:degree]):
        c = ring.field.normalize(c)
        if c:
            terms[Monomial({"a": k} if k else {})] = c
    return ring.nf(Polynomial(ring.field, terms))


@st.composite
def solve_inputs(draw):
    name = draw(st.sampled_from(sorted(RINGS)))
    ring, degree = RINGS[name]
    n = draw(st.integers(1, 5))
    coeffs = st.lists(st.integers(-4, 4), min_size=degree, max_size=degree)
    entry = coeffs.map(lambda c: element(ring, degree, c))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    vectors.append([ring.zero] * n)
    # scale the first row by a non-unit (0 over a field, a otherwise) so that
    # the refusal is exercised as well
    if draw(st.booleans()):
        nonunit = ring.zero if degree == 1 else Polynomial.variable(ring.field, "a")
        rows[0] = [e * nonunit for e in rows[0]]
    return name, RingMatrix(ring, rows), vectors


@settings(max_examples=150, deadline=None)
@given(solve_inputs())
def test_solve_cramer_matches_per_column_determinants(case):
    _, m, vectors = case
    try:
        expected = [reference_cramer(m, b) for b in vectors]
    except NonInvertibleMatrix as err:
        with pytest.raises(NonInvertibleMatrix) as ours:
            m.solve_cramer(vectors)
        assert str(ours.value) == str(err)
        assert ours.value.witness == err.witness
        return
    solved = m.solve_cramer(vectors)
    assert solved == expected
    ring = m.ring
    for x, b in zip(solved, vectors):
        assert all(ring.nf(e) == e for e in x)
        assert m.apply(x) == [ring.nf(e) for e in b]
    assert solved[-1] == [ring.zero] * m.nrows


@pytest.mark.parametrize("name", sorted(RINGS))
def test_non_unit_determinant_is_refused_with_its_value(name):
    ring, degree = RINGS[name]
    a = ring.zero if degree == 1 else Polynomial.variable(ring.field, "a")
    m = RingMatrix(ring, [[a, ring.one], [ring.zero, ring.one]])
    with pytest.raises(NonInvertibleMatrix) as err:
        m.solve_cramer([[ring.one, ring.one]])
    assert err.value.witness == f"determinant {ring.render(ring.nf(a))} is not a unit"


def test_one_characteristic_polynomial_for_every_right_hand_side(monkeypatch):
    ring, _ = RINGS["GF(101)[a]/(a^3)"]
    m = RingMatrix(ring, [[ring.el("1 + a"), ring.el("a"), ring.one],
                          [ring.one, ring.el("2"), ring.el("a^2")],
                          [ring.zero, ring.el("a"), ring.el("3 - a")]])
    calls = [0]
    original = RingMatrix.charpoly

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(RingMatrix, "charpoly", counted)
    vectors = [[ring.one if i == j else ring.zero for i in range(3)] for j in range(3)]
    solved = m.solve_cramer(vectors)
    assert calls[0] == 1
    # the solutions of the unit vectors are the columns of the inverse
    assert [list(col) for col in zip(*solved)] == [list(row) for row in m.inverse().rows]
    assert m.solve_cramer([]) == []


def test_apply_matches_row_sums_on_every_shape():
    ring, _ = RINGS["QQ[a]/(a^2)"]
    rows = [[ring.el("1 + a"), ring.el("2"), ring.zero],
            [ring.el("a"), ring.one, ring.el("3*a")],
            [ring.zero, ring.el("1 - a"), ring.one],
            [ring.el("5"), ring.zero, ring.el("a")]]
    tall = RingMatrix(ring, rows)
    wide = RingMatrix(ring, list(zip(*rows)))
    square = RingMatrix(ring, [row[:2] for row in rows[:2]])
    for m in (tall, wide, square):
        v = [ring.el(f"{k} + a") for k in range(m.ncols)]
        expected = [ring.nf(sum((x * y for x, y in zip(row, v)), ring.zero)) for row in m.rows]
        assert m.apply(v) == expected


def test_adjugate_fallback_runs_berkowitz_once(monkeypatch):
    """Over QQ[a]/(a^2 - a) = QQ x QQ the idempotents a and 1 - a are
    nonzero non-units, so elimination stalls on the first column and
    ``inverse`` takes the adjugate route: one characteristic polynomial
    gives the determinant and the adjugate; with a non-unit determinant no
    adjugate is formed at all."""
    field = QQ
    a = Polynomial.variable(field, "a")
    ring = PresentedRing.make(field, ("a",), [a * a - a])
    counts = {"charpoly": 0, "__mul__": 0}
    for method in counts:
        def counted(self, *args, _original=getattr(RingMatrix, method), _name=method):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(RingMatrix, method, counted)
    m = RingMatrix(ring, [[ring.el("a"), ring.el("1 - a")], [ring.el("1 - a"), ring.el("a")]])
    inv = m.inverse()
    assert counts["charpoly"] == 1
    assert m * inv == RingMatrix.identity(ring, 2)
    # the determinant, the adjugate and the audit solve read the same run
    d = m.det()
    assert m.adjugate() * m == RingMatrix(ring, [[d, ring.zero], [ring.zero, d]])
    solved = m.solve_cramer(linear.identity(ring, 2))
    assert [list(col) for col in zip(*solved)] == [list(row) for row in inv.rows]
    assert counts["charpoly"] == 1
    counts.update(charpoly=0, __mul__=0)
    singular = RingMatrix(ring, [[ring.el("a"), ring.zero], [ring.zero, ring.el("a")]])
    with pytest.raises(NonInvertibleMatrix, match="determinant a is not a unit"):
        singular.inverse()
    assert counts == {"charpoly": 1, "__mul__": 0}


def reference_charpoly(m):
    """Berkowitz with every dot product, power entry and Toeplitz sum formed
    by ``sum()``/``+`` over fresh products, normalized per entry."""
    ring = m.ring
    n = m.nrows
    coeffs = [ring.one]
    for r in range(1, n + 1):
        minor = [row[: r - 1] for row in m.rows[: r - 1]]
        row_vec = list(m.rows[r - 1][: r - 1])
        col_vec = [m.rows[i][r - 1] for i in range(r - 1)]
        corner = m.rows[r - 1][r - 1]
        powers = [col_vec]
        for _ in range(max(0, r - 2)):
            prev = powers[-1]
            powers.append(
                [ring.nf(sum((a * b for a, b in zip(mrow, prev)), ring.zero)) for mrow in minor]
            )
        dots = [ring.nf(sum((a * b for a, b in zip(row_vec, vec)), ring.zero)) for vec in powers]
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


def reference_product(m, other):
    """Row-by-column products summed with ``+``."""
    ring = m.ring
    cols = list(zip(*other.rows))
    out = []
    for row in m.rows:
        out_row = []
        for col in cols:
            s = ring.zero
            for a, b in zip(row, col):
                s = s + a * b
            out_row.append(s)
        out.append(out_row)
    return RingMatrix(ring, out)


@settings(max_examples=150, deadline=None)
@given(solve_inputs())
def test_charpoly_and_product_match_the_sum_loops(case):
    _, m, _ = case
    assert m.charpoly() == reference_charpoly(m)
    square = m * m
    assert square.rows == reference_product(m, m).rows
    ring = m.ring
    assert all(ring.nf(e) == e for row in square.rows for e in row)


def reference_det(m):
    """det(M) = (-1)^n c_0 on ``reference_charpoly``."""
    c0 = reference_charpoly(m)[-1]
    return m.ring.nf(c0 if m.nrows % 2 == 0 else -c0)


def reference_adjugate(m):
    """(-1)^{n-1} sum_k c_{k+1} M^k with c_n = 1, by whole-matrix sums,
    scalings and powers."""
    ring, n = m.ring, m.nrows
    coeffs = reference_charpoly(m)
    acc = [[ring.zero] * n for _ in range(n)]
    power = RingMatrix.identity(ring, n)
    for k in range(n):
        c = ring.one if k == n - 1 else coeffs[n - 1 - k]
        acc = [[ring.nf(a + p * c) for a, p in zip(ra, rp)]
               for ra, rp in zip(acc, power.rows)]
        power = reference_product(power, m)
    if (n - 1) % 2 == 1:
        acc = [[-a for a in row] for row in acc]
    return RingMatrix(ring, acc)


def reference_adjugate_inverse(m):
    """adj(M) det(M)^-1 on the references, or the determinant's witness."""
    ring = m.ring
    d = reference_det(m)
    try:
        d_inv = ring.unit_inverse(d)
    except NotAUnit:
        raise NonInvertibleMatrix(f"determinant {ring.render(d)} is not a unit") from None
    return RingMatrix(ring, [[e * d_inv for e in row] for row in reference_adjugate(m).rows])


# k, k[a] and rings with relations; the entry degree in a of each
ADJUGATE_RINGS = {
    "QQ": (PresentedRing.base_field(QQ), 1),
    "GF(5)": (PresentedRing.base_field(GF(5)), 1),
    "QQ[a]": (PresentedRing.make(QQ, ("a",), []), 2),
    "GF(5)[a]": (PresentedRing.make(GF(5), ("a",), []), 2),
    "QQ[a]/(a^2 - 2)": (PresentedRing.make(QQ, ("a",), [
        Polynomial.variable(QQ, "a") ** 2 - Polynomial.constant(QQ, 2)]), 2),
    "QQ[a]/(a^3)": (local_ring(QQ, 3), 3),
}


@st.composite
def square_matrices(draw):
    ring, degree = ADJUGATE_RINGS[draw(st.sampled_from(sorted(ADJUGATE_RINGS)))]
    n = draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(-3, 3), min_size=degree, max_size=degree)
    entry = coeffs.map(lambda c: element(ring, degree, c))
    return RingMatrix(ring, draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                          min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_horner_adjugate_matches_the_matrix_power_sum(m):
    ring, n = m.ring, m.nrows
    adj = m.adjugate()
    assert adj == reference_adjugate(m)
    d = m.det()
    assert d == reference_det(m)
    scalar = RingMatrix(ring, [[d if i == j else ring.zero for j in range(n)]
                               for i in range(n)])
    assert m * adj == scalar and adj * m == scalar
    try:
        expected = reference_adjugate_inverse(m)
    except NonInvertibleMatrix as err:
        with pytest.raises(NonInvertibleMatrix) as ours:
            m._inverse_adjugate()
        assert ours.value.witness == err.witness
        return
    assert m._inverse_adjugate() == expected
