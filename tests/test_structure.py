"""Structure-constant algebras: validation, multiplication, base change,
tensors, and the evaluation kernel against the term-by-term loop it replaced.

``reference_evaluate`` and ``reference_substitute`` start every term from a
constant, multiply the powers in one at a time and recompute each power for
every term; ``reference_multiply`` sums polynomial products and normalizes
at the end.  The kernels must give the same polynomials.
``reference_validate`` checks the axioms by multiplying basis elements as
elements; ``validate`` must accept the same algebras and reject the others
with the same axiom and the same first failing indices.

An algebra keeps only the nonzero entries of its table; ``dense`` rebuilds
the r x r x r view for the references.  ``reference_dense_validate`` and
``reference_multiply_coords`` are ``validate`` (with its own
``times_basis`` product loop) and ``multiply_coords`` as they were over the
dense table; ``multiply_coords`` is now the one product kernel, and both
must give the same outcomes as before.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descent_kit import (
    GF,
    QQ,
    Monomial,
    Polynomial,
    PresentedRing,
    StructureAlgebra,
    dual_numbers,
    evaluate_poly,
    product_of_fields,
    truncated_jets,
)
from descent_kit import structure
from descent_kit.errors import InvalidAlgebra, VariableClash
from descent_kit.polynomials import add_multiple
from descent_kit.structure import AlgebraElement
from conftest import dual_basis_algebra, one_el, scaled, zero_el
from paper_checks import reconstruct, tensor_presented


def dense(algebra):
    """The r x r x r table of ``algebra``, zeros filled in."""
    r = algebra.rank
    out = [[[algebra.base.zero] * r for _ in range(r)] for _ in range(r)]
    for i, row in enumerate(algebra.table):
        for j, cell in enumerate(row):
            for m, c in cell:
                out[i][j][m] = c
    return out


def test_dual_numbers_algebra_is_valid():
    ring = PresentedRing.base_field(QQ)
    cert = dual_basis_algebra(ring).validate()
    assert [c["axiom"] for c in cert] == ["commutativity", "unit", "associativity"]


def test_square_one_algebra_is_valid():
    ring = PresentedRing.base_field(QQ)
    z, o = ring.zero, ring.one
    alg = StructureAlgebra(ring, ("1", "s"), [[[o, z], [z, o]], [[z, o], [o, z]]])
    alg.validate()


def test_perturbed_constant_breaks_associativity():
    ring = PresentedRing.base_field(QQ)
    z, o = ring.zero, ring.one
    # k[p]/(p^3) with the product p*q perturbed from 0 to 1
    alg = StructureAlgebra(
        ring,
        ("1", "p", "q"),
        [
            [[o, z, z], [z, o, z], [z, z, o]],
            [[z, o, z], [z, z, o], [o, z, z]],
            [[z, z, o], [o, z, z], [z, z, z]],
        ],
    )
    with pytest.raises(InvalidAlgebra) as err:
        alg.validate()
    assert err.value.axiom == "associativity"
    assert err.value.indices == (2, 2, 3)


def test_noncommutative_constants_detected():
    ring = PresentedRing.base_field(QQ)
    z, o = ring.zero, ring.one
    alg = StructureAlgebra(
        ring, ("1", "a"), [[[o, z], [z, o]], [[z, z], [z, z]]]
    )
    with pytest.raises(InvalidAlgebra) as err:
        alg.validate()
    assert err.value.axiom == "commutativity"


def test_multiplication_examples():
    ring = PresentedRing.base_field(QQ)
    alg = dual_basis_algebra(ring)
    x = alg.element([ring.one, ring.one])  # 1 + eps
    assert (x * x).coords == alg.element([ring.one, ring.constant(2)]).coords

    f2 = PresentedRing.base_field(GF(2))
    alg2 = dual_basis_algebra(f2)
    y = alg2.element([f2.one, f2.one])
    assert (y * y).coords == one_el(alg2).coords


def test_unit_law_random_elements():
    rng = random.Random(7)
    ring = PresentedRing.make(QQ, ("a",), [PresentedRing.make(QQ, ("a",), []).el("a^2-3")])
    alg = dual_basis_algebra(ring)
    for _ in range(10):
        x = alg.element(
            [ring.constant(rng.randint(-3, 3)) + ring.var("a").scale(rng.randint(-2, 2))
             for _ in range(2)]
        )
        assert (one_el(alg) * x).coords == x.coords


def test_multiply_commutative_associative_random():
    rng = random.Random(11)
    ring = PresentedRing.base_field(GF(5))
    z, o = ring.zero, ring.one
    alg = StructureAlgebra(
        ring,
        ("1", "w", "w2"),
        [
            [[o, z, z], [z, o, z], [z, z, o]],
            [[z, o, z], [z, z, o], [z, z, z]],
            [[z, z, o], [z, z, z], [z, z, z]],
        ],
    )
    for _ in range(15):
        x, y, w = (
            alg.element([ring.constant(rng.randrange(5)) for _ in range(3)])
            for _ in range(3)
        )
        assert (x * y).coords == (y * x).coords
        assert ((x * y) * w).coords == (x * (y * w)).coords


def test_lambda_roundtrip():
    ring = PresentedRing.make(QQ, ("u",), [PresentedRing.make(QQ, ("u",), []).el("u^2")])
    alg = dual_basis_algebra(ring, label="y")
    el = alg.element([ring.var("u") + ring.one, ring.var("u")])
    assert alg.coordinatize(reconstruct(alg, el)).coords == el.coords


def test_base_change_preserves_constants_and_rank():
    a = PresentedRing.base_field(QQ)
    alg = dual_basis_algebra(a)
    bigger = PresentedRing.make(QQ, ("t1", "t2"), [])
    changed = alg.base_change(bigger)
    assert changed.rank == alg.rank
    old, new = dense(alg), dense(changed)
    for i in range(2):
        for j in range(2):
            for m in range(2):
                assert new[i][j][m] == bigger.nf(old[i][j][m])
    assert alg.base_change(a) == alg


def test_base_change_flattened_tower():
    # R = Q[u]/(u^2), B = Q[y]/(y^2): flat presentation Q[u,y]/(u^2,y^2)
    r = PresentedRing.make(QQ, ("u",), [PresentedRing.make(QQ, ("u",), []).el("u^2")])
    alg = dual_basis_algebra(PresentedRing.base_field(QQ), label="y").base_change(r)
    flat = alg.flat_ring()
    assert set(flat.variables) == {"u", "y"}
    assert len(flat.staircase()) == 4


def test_tensor_unit():
    base = PresentedRing.make(QQ, ("a",), [PresentedRing.make(QQ, ("a",), []).el("a^2-2")])
    s = base.extend(("x",))
    res, _, _ = tensor_presented(s, base, base.variables)
    assert res == s


def test_tensor_dimension_count():
    f2 = GF(2)
    s = PresentedRing.make(f2, ("x",), [PresentedRing.make(f2, ("x",), []).el("x^2")])
    t = PresentedRing.make(f2, ("y",), [PresentedRing.make(f2, ("y",), []).el("y^2")])
    st, _, _ = tensor_presented(s, t, ())
    assert len(st.staircase()) == 4


def test_tensor_clash_renames():
    s = PresentedRing.make(QQ, ("x",), [])
    res, ms, mt = tensor_presented(s, s, ())
    assert res.variables == ("x(1)", "x(2)")
    assert (ms, mt) == ({"x": "x(1)"}, {"x": "x(2)"})
    with pytest.raises(VariableClash):
        s.extend(("x",))


# -- the evaluation kernel against its reference --------------------------------

FIELDS = (QQ, GF(7), GF(101))
CARRIER_VARS = ("a", "b")
ENV_VARS = ("x", "y", "z")


def reference_power(el, e):
    out = one_el(el.algebra)
    for _ in range(e):
        out = out * el
    return out


def reference_evaluate(p, env, algebra):
    out = zero_el(algebra)
    for m, c in p.terms.items():
        piece = algebra.scalar_el(algebra.base.constant(c))
        for v, e in m.exps.items():
            img = env.get(v)
            if img is None:
                raise KeyError(f"no image for variable {v!r}")
            piece = piece * reference_power(img, e)
        out = out + piece
    return out


def reference_multiply(algebra, x, y):
    base = algebra.base
    constants = dense(algebra)
    out = [base.zero] * algebra.rank
    for i in range(algebra.rank):
        for j in range(algebra.rank):
            prod = x[i] * y[j]
            for m in range(algebra.rank):
                out[m] = out[m] + prod * constants[i][j][m]
    return [base.nf(v) for v in out]


def reference_substitute(p, env):
    fld = p.field
    out = Polynomial.zero(fld)
    for m, c in p.terms.items():
        piece = Polynomial.constant(fld, c)
        for v, e in m.exps.items():
            if v in env:
                power = Polynomial.constant(fld, 1)
                for _ in range(e):
                    power = power * env[v]
                piece = piece * power
            else:
                piece = piece.term_mul(Monomial({v: e}), fld.one)
        out = out + piece
    return out


def carrier(field):
    """k[a, b]/(a^2 - 2b, b^2): a base ring with relations."""
    free = PresentedRing.make(field, CARRIER_VARS, [])
    return PresentedRing.make(field, CARRIER_VARS, [free.el("a^2 - 2*b"), free.el("b^2")])


def algebras(field):
    """Algebras over the carrier: three base changes of coefficient
    algebras, and carrier[w]/(w^2 - a), whose constants are not scalars."""
    ring = carrier(field)
    z, o = ring.zero, ring.one
    twisted = StructureAlgebra(ring, ("1", "w"), [[[o, z], [z, o]], [[z, o], [ring.var("a"), z]]])
    return [
        truncated_jets(field, 3).algebra.base_change(ring),
        dual_numbers(field).algebra.base_change(ring),
        product_of_fields(field, 2).algebra.base_change(ring),
        twisted,
    ]


ALGEBRAS = {field: algebras(field) for field in FIELDS}


def polys(field, variables, max_exp, max_terms):
    term = st.tuples(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=3),
        *(st.integers(min_value=0, max_value=max_exp) for _ in variables),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda terms: Polynomial(field, {
            Monomial(dict(zip(variables, exps))): Fraction(num, den)
            for num, den, *exps in terms
        })
    )


@st.composite
def evaluation_inputs(draw):
    """(algebra, p, env): p over x, y, z with repeated exponents likely."""
    field = draw(st.sampled_from(FIELDS))
    algebra = draw(st.sampled_from(ALGEBRAS[field]))
    coords = st.lists(polys(field, CARRIER_VARS, 3, 3),
                      min_size=algebra.rank, max_size=algebra.rank)
    env = {v: algebra.element(draw(coords)) for v in ENV_VARS}
    p = draw(polys(field, ENV_VARS, 3, 5))
    return algebra, p, env


def assert_normal(el):
    base = el.algebra.base
    for c in el.coords:
        assert base.nf(c) == c


@settings(max_examples=80, deadline=None)
@given(evaluation_inputs())
def test_evaluate_poly_matches_reference(inputs):
    algebra, p, env = inputs
    got = evaluate_poly(p, env, algebra)
    assert got.coords == reference_evaluate(p, env, algebra).coords
    assert_normal(got)


@settings(max_examples=80, deadline=None)
@given(evaluation_inputs())
def test_element_arithmetic_keeps_normal_forms(inputs):
    algebra, _, env = inputs
    x, y, z = (env[v] for v in ENV_VARS)
    base = algebra.base
    assert (x + y).coords == tuple(base.nf(a + b) for a, b in zip(x.coords, y.coords))
    assert (x - y).coords == tuple(base.nf(a - b) for a, b in zip(x.coords, y.coords))
    assert (-x).coords == tuple(base.nf(-a) for a in x.coords)
    product = x * y
    assert product.coords == tuple(reference_multiply(algebra, x.coords, y.coords))
    for el in (x + y, x - y, -x, product, (x * y) * z):
        assert_normal(el)
    for e in range(5):
        power = x**e
        assert power.coords == reference_power(x, e).coords
        assert_normal(power)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_evaluate_poly_edge_cases(field):
    """The zero polynomial, constants, and a term repeating its exponents."""
    for algebra in ALGEBRAS[field]:
        ring = algebra.base
        x = algebra.element([ring.el("a + 1")] + [ring.el("b - a")] * (algebra.rank - 1))
        env = {"x": x}
        free = PresentedRing.make(field, ("x",), [])
        for text in ("0", "3", "x^2 + 2*x^2*x + x^2", "x^3 - x^3 + 5"):
            p = free.el(text)
            got = evaluate_poly(p, env, algebra)
            assert got.coords == reference_evaluate(p, env, algebra).coords
            assert_normal(got)
        assert evaluate_poly(free.el("0"), {}, algebra).is_zero()
        assert evaluate_poly(free.el("3"), {}, algebra).coords == scaled(
            one_el(algebra), ring.constant(3)).coords


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_unmapped_variable_raises_key_error(field):
    algebra = ALGEBRAS[field][0]
    free = PresentedRing.make(field, ("x", "y"), [])
    env = {"x": algebra.basis_el(1)}
    with pytest.raises(KeyError, match="no image for variable 'y'"):
        evaluate_poly(free.el("x^2 + x*y"), env, algebra)


@st.composite
def substitution_inputs(draw):
    """(p, env) with some variables mapped and some kept."""
    field = draw(st.sampled_from(FIELDS))
    p = draw(polys(field, ENV_VARS + CARRIER_VARS, 3, 5))
    mapped = draw(st.lists(st.sampled_from(ENV_VARS + CARRIER_VARS), unique=True))
    env = {v: draw(polys(field, ENV_VARS + CARRIER_VARS, 2, 3)) for v in mapped}
    return p, env


@settings(max_examples=120, deadline=None)
@given(substitution_inputs())
def test_substitute_matches_reference(inputs):
    p, env = inputs
    assert p.substitute(env) == reference_substitute(p, env)
    for e in range(5):
        q = p**e
        expected = Polynomial.constant(p.field, 1)
        for _ in range(e):
            expected = expected * p
        assert q == expected


# -- the axiom checks against the element-wise validation they replaced ----------


def reference_validate(algebra):
    """The element-wise checks: basis elements multiplied as elements."""
    r = algebra.rank
    base = algebra.base
    constants = dense(algebra)
    for i in range(r):
        for j in range(i + 1, r):
            for m in range(r):
                if not base.equal(constants[i][j][m], constants[j][i][m]):
                    raise InvalidAlgebra("commutativity", (i + 1, j + 1, m + 1))
    one = one_el(algebra)
    for j in range(r):
        if (one * algebra.basis_el(j)).coords != algebra.basis_el(j).coords:
            raise InvalidAlgebra("unit", (j + 1,))
    for i in range(r):
        for j in range(r):
            left_inner = algebra.basis_el(i) * algebra.basis_el(j)
            for m in range(r):
                left = left_inner * algebra.basis_el(m)
                right = algebra.basis_el(i) * (algebra.basis_el(j) * algebra.basis_el(m))
                if left.coords != right.coords:
                    raise InvalidAlgebra("associativity", (i + 1, j + 1, m + 1))
    return [{"axiom": a, "ok": True} for a in ("commutativity", "unit", "associativity")]


def outcome(check, algebra):
    try:
        return check(algebra)
    except InvalidAlgebra as err:
        return (err.axiom, err.indices, str(err))


def power_basis_algebra(ring, coeffs):
    """ring[w]/(w^r - sum_m coeffs[m] w^m) with basis 1, w, ..., w^(r-1)."""
    r = len(coeffs)
    powers = []
    for n in range(2 * r - 1):
        if n < r:
            powers.append([ring.one if k == n else ring.zero for k in range(r)])
        else:
            prev, top = powers[-1], powers[-1][r - 1]
            powers.append([
                ring.nf((prev[k - 1] if k else ring.zero) + top * coeffs[k]) for k in range(r)
            ])
    labels = ("1",) + tuple(f"w{k}" for k in range(1, r))
    return StructureAlgebra(ring, labels, [[powers[i + j] for j in range(r)] for i in range(r)])


def nilpotent_base(field):
    """k[a]/(a^2)."""
    return PresentedRing.make(field, ("a",), [PresentedRing.make(field, ("a",), []).el("a^2")])


VALIDATION_FIELDS = (QQ, GF(2), GF(7), GF(101))


@st.composite
def corrupted_algebras(draw):
    """A valid power-basis algebra with at most one structure constant (or
    one unit coordinate, or a symmetric pair of constants) changed."""
    field = draw(st.sampled_from(VALIDATION_FIELDS))
    ring = draw(st.sampled_from([PresentedRing.base_field(field), nilpotent_base(field)]))
    elements = st.sampled_from(
        ["0", "1", "-1", "2", "1/3"] + (["a", "a + 1", "3*a - 2"] if ring.variables else []))
    r = draw(st.integers(min_value=1, max_value=4))
    coeffs = [ring.el(draw(elements)) for _ in range(r)]
    algebra = power_basis_algebra(ring, coeffs)
    constants = dense(algebra)
    unit = list(algebra.unit_coords)
    kind = draw(st.sampled_from(["none", "one", "pair", "unit"]))
    delta = ring.el(draw(elements))
    i, j, m = (draw(st.integers(min_value=0, max_value=r - 1)) for _ in range(3))
    if kind == "one":
        constants[i][j][m] = constants[i][j][m] + delta
    elif kind == "pair":
        # off the unit row and column (for r > 1): only associativity can fail
        i, j = max(i, 1) % r, max(j, 1) % r
        constants[i][j][m] = constants[i][j][m] + delta
        if i != j:
            constants[j][i][m] = constants[j][i][m] + delta
    elif kind == "unit":
        unit[m] = unit[m] + delta
    return StructureAlgebra(ring, algebra.labels, constants, unit)


@settings(max_examples=200, deadline=None)
@given(corrupted_algebras())
def test_validate_matches_the_element_wise_reference(algebra):
    assert outcome(StructureAlgebra.validate, algebra) == outcome(reference_validate, algebra)


def test_validate_builds_no_elements(monkeypatch):
    """The axioms are checked on the structure constants: no AlgebraElement,
    over k[a]/(a^2).  Every product goes through ``multiply_coords``: one
    call per unit product b_j and one per memo key (i <= j, m) of
    (b_i b_j) b_m."""
    ring = nilpotent_base(QQ)
    algebra = power_basis_algebra(ring, [ring.el(t) for t in ("a", "1", "a - 1", "2")])
    calls = []

    def counted(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    monkeypatch.setattr(StructureAlgebra, "multiply_coords",
                        counted("multiply_coords", StructureAlgebra.multiply_coords))
    monkeypatch.setattr(AlgebraElement, "__init__",
                        counted("AlgebraElement", AlgebraElement.__init__))
    monkeypatch.setattr(structure, "_wrap", counted("_wrap", structure._wrap))
    certificate = algebra.validate()
    assert [c["axiom"] for c in certificate] == ["commutativity", "unit", "associativity"]
    r = algebra.rank
    keys = {(min(i, j), max(i, j), m) for i in range(r) for j in range(r) for m in range(r)}
    assert calls == ["multiply_coords"] * (r + len(keys)) == ["multiply_coords"] * 44


# -- the one product kernel against the dense loops it replaced -------------------


def reference_dense_validate(self):
    """``validate`` over the dense table, with its own product loop."""
    r = self.rank
    base = self.base
    field = base.field
    constants = dense(self)
    checks = []
    for i in range(r):
        for j in range(i + 1, r):
            for m in range(r):
                if constants[i][j][m] != constants[j][i][m]:
                    raise InvalidAlgebra("commutativity", (i + 1, j + 1, m + 1))
    checks.append({"axiom": "commutativity", "ok": True})

    def times_basis(x, m):
        """Coordinates of (sum_k x_k b_k) * b_m."""
        out = [{} for _ in range(r)]
        for k in range(r):
            for xm, xc in x[k].terms.items():
                for acc, c in zip(out, constants[k][m]):
                    add_multiple(acc, c.terms, xc, field, xm)
        return tuple(base.nf(Polynomial.from_terms(field, t)) for t in out)

    zero, one = base.zero, base.nf(base.one)
    for j in range(r):
        basis_j = tuple(one if k == j else zero for k in range(r))
        if times_basis(self.unit_coords, j) != basis_j:
            raise InvalidAlgebra("unit", (j + 1,))
    checks.append({"axiom": "unit", "ok": True})
    products = {}

    def product(i, j, m):
        """Coordinates of (b_i b_j) b_m, computed once per {i, j} and m."""
        key = (i, j, m) if i <= j else (j, i, m)
        out = products.get(key)
        if out is None:
            out = products[key] = times_basis(constants[i][j], m)
        return out

    for i in range(r):
        for j in range(r):
            for m in range(i, r):
                if product(i, j, m) != product(j, m, i):
                    raise InvalidAlgebra("associativity", (i + 1, j + 1, m + 1))
    checks.append({"axiom": "associativity", "ok": True})
    return checks


def reference_multiply_coords(self, x, y):
    """``multiply_coords`` over the dense table."""
    r = self.rank
    base = self.base
    field = base.field
    constants = dense(self)
    out = [{} for _ in range(r)]
    for i in range(r):
        if x[i].is_zero():
            continue
        row = constants[i]
        for j in range(r):
            consts = row[j]
            if y[j].is_zero() or all(c.is_zero() for c in consts):
                continue
            prod = (x[i] * y[j]).terms
            for m in range(r):
                for cm, cc in consts[m].terms.items():
                    add_multiple(out[m], prod, cc, field, cm)
    return [base.nf(Polynomial.from_terms(field, t)) for t in out]


def tensor_algebra(left, right):
    """left (x) right over their common base, basis b_a (x) b'_b at a * q + b."""
    ring, p, q = left.base, left.rank, right.rank
    lc, rc, n = dense(left), dense(right), p * q
    constants = [[[ring.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for m in range(n):
                constants[i][j][m] = lc[i // q][j // q][m // q] * rc[i % q][j % q][m % q]
    unit = [a * b for a in left.unit_coords for b in right.unit_coords]
    labels = ("1",) + tuple(f"t{k}" for k in range(1, n))
    return StructureAlgebra(ring, labels, constants, unit)


KERNEL_FIELDS = (QQ, GF(2), GF(7))


@st.composite
def kernel_inputs(draw):
    """(algebra, words): a valid table with many zero cells, rank at most 6,
    over QQ, GF(p) or k[a]/(a^2), left as it is or with one constant (or one
    unit coordinate) changed: set where it was zero, killed where it was
    not, or shifted.  The change at (i, j, m) may be repeated at
    (i, j, r - 1 - m), so that a cell differs at two m, and mirrored at
    (j, i).  ``words`` parse to elements of its base ring, zero often."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    ring = draw(st.sampled_from([PresentedRing.base_field(field), nilpotent_base(field)]))
    nonzero = ["1", "-1", "2", "1/3"] + (["a", "a + 1", "3*a - 2"] if ring.variables else [])
    words = ["0"] * 4 + nonzero
    shape = draw(st.sampled_from(["power", "fields", "tensor"]))
    if shape == "power":
        r = draw(st.integers(min_value=1, max_value=6))
        algebra = power_basis_algebra(ring, [ring.el(draw(st.sampled_from(words)))
                                             for _ in range(r)])
    elif shape == "fields":
        copies = draw(st.integers(min_value=1, max_value=6))
        algebra = product_of_fields(field, copies).algebra.base_change(ring)
    else:
        p = draw(st.integers(min_value=1, max_value=3))
        q = draw(st.integers(min_value=1, max_value=6 // p))
        algebra = tensor_algebra(truncated_jets(field, p).algebra.base_change(ring),
                                 truncated_jets(field, q).algebra.base_change(ring))
    r = algebra.rank
    constants, unit = dense(algebra), list(algebra.unit_coords)
    cells = [(i, j, m) for i in range(r) for j in range(r) for m in range(r)]
    set_at = [c for c in cells if constants[c[0]][c[1]][c[2]].is_zero()] or cells
    kill_at = [c for c in cells if not constants[c[0]][c[1]][c[2]].is_zero()]
    kind = draw(st.sampled_from(["none", "set", "kill", "shift", "unit"]))
    delta = ring.el(draw(st.sampled_from(nonzero)))
    i, j, m = draw(st.sampled_from(kill_at if kind == "kill" else set_at))
    ms = {m, draw(st.sampled_from([m, r - 1 - m]))}
    mirrored = draw(st.booleans())
    for a, b in ((i, j), (j, i)) if mirrored else ((i, j),):
        for n in ms:
            if kind == "set":
                constants[a][b][n] = delta
            elif kind == "kill":
                constants[a][b][n] = ring.zero
            elif kind == "shift":
                constants[a][b][n] = constants[a][b][n] + delta
    if kind == "unit":
        unit[m] = unit[m] + delta
    return StructureAlgebra(ring, algebra.labels, constants, unit), words


def assert_sparse(algebra):
    """Every stored entry is a nonzero normal form, m ascending."""
    base = algebra.base
    for row in algebra.table:
        for cell in row:
            assert [m for m, _ in cell] == sorted({m for m, _ in cell})
            assert all(not c.is_zero() and base.nf(c) == c for _, c in cell)


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
def test_validate_matches_the_dense_reference(inputs):
    algebra, _ = inputs
    assert_sparse(algebra)
    assert outcome(StructureAlgebra.validate, algebra) == outcome(reference_dense_validate,
                                                                  algebra)


@settings(max_examples=200, deadline=None)
@given(kernel_inputs(), st.data())
def test_multiply_coords_matches_the_dense_reference(inputs, data):
    algebra, words = inputs
    ring = algebra.base
    vectors = st.lists(st.sampled_from(words), min_size=algebra.rank,
                       max_size=algebra.rank).map(lambda v: [ring.el(w) for w in v])
    x, y = data.draw(vectors), data.draw(vectors)
    assert algebra.multiply_coords(x, y) == reference_multiply_coords(algebra, x, y)


def test_a_base_change_that_kills_a_constant():
    """w^3 = a + (a + 1) w^2 over QQ[a], changed to QQ[a]/(a): the constant a
    is dropped and a + 1 becomes 1, as if the table were built there."""
    free = PresentedRing.make(QQ, ("a",), [])
    killed = PresentedRing.make(QQ, ("a",), [free.el("a")])
    algebra = power_basis_algebra(free, [free.el(t) for t in ("a", "0", "a + 1")])
    changed = algebra.base_change(killed)
    direct = StructureAlgebra(killed, algebra.labels, dense(algebra))
    assert_sparse(changed)
    stored = [sum(len(cell) for row in alg.table for cell in row) for alg in (algebra, changed)]
    assert stored[1] < stored[0]
    assert changed == direct and hash(changed) == hash(direct)
    assert outcome(StructureAlgebra.validate, changed) == outcome(StructureAlgebra.validate,
                                                                  direct)
    x = [killed.el(t) for t in ("1", "2", "-1")]
    y = [killed.el(t) for t in ("0", "1/3", "1")]
    assert changed.multiply_coords(x, y) == direct.multiply_coords(x, y)


@pytest.mark.parametrize("constants,unit", [
    ([[[1, 0], [0, 1, 0]], [[0, 1], [0, 0]]], None),
    ([[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [0, 0]]], None),
    ([[[1, 0], [0, 1], [0, 0]], [[0, 1], [0, 0]]], None),
    ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1]),
    ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0, 0]),
], ids=["long-cell", "third-row", "long-row", "short-unit", "long-unit"])
def test_a_table_or_unit_of_the_wrong_shape_is_rejected(constants, unit):
    ring = PresentedRing.base_field(QQ)
    constants = [[[ring.constant(c) for c in cell] for cell in row] for row in constants]
    unit = unit if unit is None else [ring.constant(c) for c in unit]
    with pytest.raises(ValueError):
        StructureAlgebra(ring, ("1", "eps"), constants, unit)


# -- the flat ring of a validated table ------------------------------------------


def cubic_nilpotent_base(field):
    """k[a]/(a^3)."""
    return PresentedRing.make(field, ("a",), [PresentedRing.make(field, ("a",), []).el("a^3")])


def changed_basis(algebra, x):
    """The algebra in the basis b'_k = sum_{m <= k} x[k][m] b_m, with x lower
    unitriangular over the base and x[0] = (1, 0, ...), so b'_0 is still 1."""
    ring, r = algebra.base, algebra.rank
    table = dense(algebra)
    y = [[ring.one if m == k else ring.zero for m in range(r)] for k in range(r)]
    for k in range(r):
        for m in range(k):
            y[k][m] = ring.nf(-sum((x[k][p] * y[p][m] for p in range(m, k)), ring.zero))
    constants = []
    for i in range(r):
        row = []
        for j in range(r):
            old = [ring.zero] * r  # b'_i b'_j in the old basis
            for p in range(r):
                for q in range(r):
                    for s in range(r):
                        old[s] = old[s] + x[i][p] * x[j][q] * table[p][q][s]
            row.append([
                ring.nf(sum((old[s] * y[s][t] for s in range(r)), ring.zero))
                for t in range(r)
            ])
        constants.append(row)
    return StructureAlgebra(ring, algebra.labels, constants)


@st.composite
def valid_tables(draw):
    """A valid power-basis algebra over QQ, GF(7) or k[a]/(a^3), in a random
    unitriangular basis; over k[a]/(a^3) entries with a make some label
    products lose the lead to a term a*b_m."""
    field = draw(st.sampled_from((QQ, GF(7))))
    ring = draw(st.sampled_from([PresentedRing.base_field(field), cubic_nilpotent_base(field)]))
    elements = st.sampled_from(
        ["0", "1", "-1", "2", "1/3"] + (["a", "a + 1", "a^2 - 2"] if ring.variables else []))
    r = draw(st.integers(min_value=1, max_value=4))
    algebra = power_basis_algebra(ring, [ring.el(draw(elements)) for _ in range(r)])
    x = [[ring.one if m == k else ring.zero for m in range(r)] for k in range(r)]
    for k in range(1, r):
        for m in range(k):
            x[k][m] = ring.el(draw(elements))
    return changed_basis(algebra, x)


def table_relations(algebra):
    """b_i b_j - sum_m c_ijm b_m for 1 <= i <= j, b_0 = 1, built term by term."""
    ring = algebra.base
    field = ring.field
    label = [Polynomial.constant(field, 1)] + [
        Polynomial.variable(field, v) for v in algebra.labels[1:]]
    rels = []
    for i in range(1, algebra.rank):
        for j in range(i, algebra.rank):
            rhs = sum((c * label[m] for m, c in enumerate(dense(algebra)[i][j])),
                      Polynomial.zero(field))
            rels.append(label[i] * label[j] - rhs)
    return rels


def flat_ring_and_runs(algebra):
    """``algebra.flat_ring()`` and the number of Buchberger runs it made."""
    from descent_kit import presented

    runs = []
    original = presented.buchberger

    def counted(*args, **kwargs):
        runs.append(args)
        return original(*args, **kwargs)

    presented.buchberger = counted
    try:
        return algebra.flat_ring(), len(runs)
    finally:
        presented.buchberger = original


@settings(max_examples=100, deadline=None)
@given(valid_tables())
def test_table_ring_is_the_buchberger_basis(algebra):
    """The flat ring's relations are exactly Buchberger's reduced basis of A's
    relations plus the table relations, in the same order; above rank 1,
    Buchberger runs only for a table whose label products do not all lead."""
    from descent_kit.groebner import buchberger
    from descent_kit.polynomials import DegRevLex

    base = algebra.base
    ring, runs = flat_ring_and_runs(algebra)
    order = DegRevLex(base.variables + algebra.labels[1:])
    rels = table_relations(algebra)
    expected = buchberger(list(base.relations.generators) + rels, order)
    assert ring.relations.generators == expected.generators
    assert ring.variables == order.variables
    labels = algebra.labels
    leads = all(
        order.leading(rel)[0] == Monomial({labels[i]: 1}).mul(Monomial({labels[j]: 1}))
        for rel, (i, j) in zip(rels, [(i, j) for i in range(1, algebra.rank)
                                      for j in range(i, algebra.rank)])
    )
    if algebra.rank > 1:  # a rank-1 B goes through ``extend`` as before
        assert runs == (0 if leads else 1)


def test_a_leading_tail_term_runs_buchberger():
    """y^2 = a*y over k[a]/(a^3): a*y leads y^2, so the table is not a basis
    as it stands and Buchberger builds the ring."""
    from descent_kit.groebner import buchberger

    ring = cubic_nilpotent_base(QQ)
    z, o = ring.zero, ring.one
    algebra = StructureAlgebra(ring, ("1", "y"),
                               [[[o, z], [z, o]], [[z, o], [z, ring.var("a")]]])
    (rel,) = table_relations(algebra)
    flat, runs = flat_ring_and_runs(algebra)
    assert flat.order.leading(rel)[0] == Monomial({"a": 1, "y": 1})
    assert runs == 1
    expected = buchberger(list(ring.relations.generators) + [rel], flat.order)
    assert flat.relations.generators == expected.generators


def test_a_ring_orders_its_elements_by_its_basis():
    """Each ring's variables and monomial order are its Groebner basis's: one
    DegRevLex object, whichever way the ring was built."""
    base = cubic_nilpotent_base(QQ)
    z, o = base.zero, base.one
    leading = StructureAlgebra(base, ("1", "y"), [[[o, z], [z, o]], [[z, o], [z, z]]])
    tail = StructureAlgebra(base, ("1", "y"), [[[o, z], [z, o]], [[z, o], [z, base.var("a")]]])
    rings = [
        base,
        PresentedRing.base_field(QQ),
        base.extend(("x",)),
        base.extend(("x",), [base.el("a^2")]),
        leading.flat_ring(),
        flat_ring_and_runs(tail)[0],
    ]
    for ring in rings:
        assert ring.order is ring.relations.order
        assert ring.variables == ring.order.variables
    assert base.extend((), [base.el("a^3")]) is base


def test_table_path_validates_first():
    """A table whose label products lead is licensed by its validation: a
    non-associative one raises InvalidAlgebra from ``flat_ring``."""
    ring = PresentedRing.base_field(QQ)
    algebra = power_basis_algebra(ring, [ring.one, ring.zero, ring.zero])
    constants = dense(algebra)
    constants[2][2][1] = constants[2][2][1] + ring.one
    broken = StructureAlgebra(ring, algebra.labels, constants)
    with pytest.raises(InvalidAlgebra) as err:
        broken.flat_ring()
    assert err.value.axiom == "associativity"


def test_algebras_are_equal_exactly_when_their_data_are():
    ring = PresentedRing.base_field(QQ)
    algebra = dual_basis_algebra(ring)
    assert algebra == dual_basis_algebra(ring) and hash(algebra) == hash(dual_basis_algebra(ring))
    assert algebra != dual_basis_algebra(ring, label="w")
    assert algebra != product_of_fields(QQ, 2).algebra and algebra != ring


def test_flat_ring_needs_the_unit_first():
    """``flat_ring`` reads the first basis element as 1, so it refuses an
    algebra whose first label is not "1" (here with the unit first) and one
    whose unit is not the first basis vector (here labelled "1")."""
    ring = PresentedRing.base_field(QQ)
    relabelled = StructureAlgebra(ring, ("u", "eps"), dense(dual_basis_algebra(ring)))
    fields = product_of_fields(QQ, 2).algebra
    moved_unit = StructureAlgebra(ring, ("1", "e2"), dense(fields), fields.unit_coords)
    for algebra in (relabelled, moved_unit):
        algebra.validate()
        with pytest.raises(ValueError, match="first basis element to be 1"):
            algebra.flat_ring()
