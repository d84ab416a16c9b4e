"""Shared builders and oracles for the test suite.

``random_tower`` draws valid module structures from parametrized families
(monogenic algebras with structure images guaranteed to satisfy the
defining relation), so randomized suites never need rejection sampling.
``target_elements`` lists every element of a finite algebra over a finite
field, the brute-force reference of the Hom-set tests; ``reduce_extended``
records the quotients of a reduction, so a test can check the division
identity p = sum_i q_i g_i + r.  ``field_inverse``, the tests' matrix
inverse over k, lives in ``paper_checks`` and is imported from there.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from descent_kit import (  # noqa: E402
    DStructure,
    GroebnerBasis,
    OperatorTower,
    Polynomial,
    PresentedRing,
    StructureAlgebra,
    difference_algebra,
    dual_numbers,
    dual_numbers_times_field,
    product_of_fields,
    truncated_jets,
)
from descent_kit.errors import NotFiniteDimensional  # noqa: E402
from descent_kit.groebner import _reduction_steps  # noqa: E402
from paper_checks import field_inverse  # noqa: E402,F401

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# valid documents that each pin a route no fixture takes: the golden and
# the reach tests run them, the per-fixture tests do not
DOCUMENTS = Path(__file__).resolve().parent / "documents"


def target_elements(target: PresentedRing):
    """Every element of a finite-dimensional algebra over a finite field.

    Deterministic order: staircase monomials ascending, coefficient tuples
    in lexicographic order over 0..p-1.
    """
    p = target.field.characteristic
    if p == 0:
        raise NotFiniteDimensional("the coefficient field is infinite")
    basis = target.staircase()
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        out.append(
            Polynomial(
                target.field,
                {m: target.field.normalize(c) for m, c in zip(basis, coeffs)},
            )
        )
    return out


def reduce_extended(p: Polynomial, gb: GroebnerBasis):
    """Reduce p, also returning quotients over the basis elements, through
    the reduction steps of the package's own normal form.

    Returns (remainder, quotients) with ``p == sum_i quotients[i]*gb[i] + remainder``.
    """
    field = p.field
    terms, remainder = dict(p.terms), {}
    quotients = [{} for _ in gb.generators]
    for gi, q, factor in _reduction_steps(
        terms, remainder, gb.generators, gb.leads, field, gb.order
    ):
        quotients[gi][q] = factor
    return (
        Polynomial.from_terms(field, remainder),
        [Polynomial.from_terms(field, t) for t in quotients],
    )


def dual_basis_algebra(ring, label="eps"):
    """rank-2 algebra ring[label]/(label^2) with basis (1, label)."""
    z, o = ring.zero, ring.one
    return StructureAlgebra(
        ring, ("1", label), [[[o, z], [z, o]], [[z, o], [z, z]]]
    )


def monogenic_algebra(ring, kind):
    """Small module algebras used by the randomized suites.

    kind: "nil2" -> ring[w]/(w^2), "split" -> ring[w]/(w^2-1),
    "nil3" -> ring[w]/(w^3).
    """
    z, o = ring.zero, ring.one
    if kind == "nil2":
        return StructureAlgebra(ring, ("1", "w"), [[[o, z], [z, o]], [[z, o], [z, z]]])
    if kind == "split":
        return StructureAlgebra(ring, ("1", "w"), [[[o, z], [z, o]], [[z, o], [o, z]]])
    if kind == "nil3":
        rows = [
            [[o, z, z], [z, o, z], [z, z, o]],
            [[z, o, z], [z, z, o], [z, z, z]],
            [[z, z, o], [z, z, z], [z, z, z]],
        ]
        return StructureAlgebra(ring, ("1", "w", "w2"), rows)
    raise ValueError(kind)


def dense_table(field, cells):
    """A sparse table of scalars, cells[j][k] holding the nonzero (m, c),
    as a dense l x l x l table: entry [j][k][m] is a(j, k, m), the
    coefficient of eps_m in eps_j eps_k."""
    l = len(cells)
    table = [[[field.zero] * l for _ in range(l)] for _ in range(l)]
    for j, row in enumerate(cells):
        for k, cell in enumerate(row):
            for m, c in cell:
                table[j][k][m] = c
    return table


def sparse_cells(field, constants):
    """The (m, c) cells of a dense table of scalars: cells[i][j] keeps the
    nonzero c of constants[i][j], m ascending."""
    return tuple(
        tuple(tuple((m, c) for m, c in enumerate(cell) if not field.is_zero(c)) for cell in row)
        for row in constants
    )


def db_elements(coeff, algebra):
    """Helpers for arithmetic in D(B): unit, multiply, scale-by-D-vector."""
    l = coeff.dim
    base = algebra.base

    def unit():
        return [algebra.one_el().scale(base.constant(coeff.unit[k])) for k in range(l)]

    def mul(x, y):
        out = [algebra.zero_el() for _ in range(l)]
        for j in range(l):
            if x[j].is_zero():
                continue
            for k in range(l):
                if y[k].is_zero():
                    continue
                prod = x[j] * y[k]
                for m, a in coeff.cells[j][k]:
                    out[m] = out[m] + prod.scale(base.constant(a))
        return out

    return unit, mul


def random_scalar(field, rng):
    if field.characteristic:
        return field.normalize(rng.randrange(field.characteristic))
    pool = [0, 0, 1, -1, 2, -2]
    from fractions import Fraction
    c = rng.choice(pool)
    if rng.random() < 0.2:
        return field.normalize(Fraction(c, 2))
    return field.normalize(c)


def random_db_element(coeff, algebra, rng):
    """A random element of D(B): each coefficient a scalar, times 1 or a
    when B's base ring is k[a]/(...)."""
    l, r = coeff.dim, algebra.rank
    base = algebra.base
    factors = [base.one, *(base.var(v) for v in base.variables)]

    def coefficient():
        c = base.constant(random_scalar(coeff.field, rng))
        return base.mul(c, rng.choice(factors)) if base.variables else c

    return [algebra.element([coefficient() for _ in range(r)]) for _ in range(l)]


BASE_RELATIONS = ("a^2 - 2", "a^3")


def random_tower(field, coeff, kind, rng, base_relation=None, algebra=None):
    """A valid (A, e) <= (B, f) drawn from a parametrized family.  A is k,
    or k[a]/(base_relation) with e the identity on A; then the D(B)
    coefficients of f(w) are drawn from {c, c a}, so the descent matrix's
    entries involve a.  ``algebra``, when given, is the module algebra B to
    reuse, ``monogenic_algebra(A, kind)`` of an earlier draw, so that two
    towers share it; A is then its base ring."""
    if algebra is None:
        if base_relation is None:
            a_ring = PresentedRing.base_field(field)
        else:
            free = PresentedRing.make(field, ("a",))
            a_ring = PresentedRing.make(field, ("a",), [free.el(base_relation)])
        algebra = monogenic_algebra(a_ring, kind)
    a_ring = algebra.base
    e = DStructure.identity(a_ring, coeff)
    unit, mul = db_elements(coeff, algebra)
    l = coeff.dim

    def embed(el):
        vec = [algebra.zero_el() for _ in range(l)]
        for k in range(l):
            if not field.is_zero(coeff.unit[k]):
                vec[k] = el.scale(a_ring.constant(coeff.unit[k]))
        return vec

    w_hat = embed(algebra.basis_el(1))
    if kind in ("nil2", "nil3"):
        z = mul(w_hat, random_db_element(coeff, algebra, rng))
        if kind == "nil3":
            w2_hat = embed(algebra.basis_el(2))
            extra = mul(w2_hat, random_db_element(coeff, algebra, rng))
            z = [a + b for a, b in zip(z, extra)]
    else:  # split: per local factor pick an image from {w, -w, 1, -1}
        z = [algebra.zero_el() for _ in range(l)]
        for idem, _ in coeff.factors:
            choice = rng.choice(["w", "-w", "1", "-1"])
            base_el = {
                "w": algebra.basis_el(1),
                "-w": -algebra.basis_el(1),
                "1": algebra.one_el(),
                "-1": -algebra.one_el(),
            }[choice]
            for k in range(l):
                if not field.is_zero(idem[k]):
                    z[k] = z[k] + base_el.scale(a_ring.constant(idem[k]))
    f_images = [unit(), z]
    if kind == "nil3":
        f_images.append(mul(z, z))
    tower = OperatorTower(e, algebra, coeff, f_images)
    tower.validate()
    return tower


COEFF_BUILDERS = {
    "difference": difference_algebra,
    "dual": dual_numbers,
    "pair_of_fields": lambda f: product_of_fields(f, 2),
    "jets3": lambda f: truncated_jets(f, 3),
    "dual_times_field": dual_numbers_times_field,
}


@pytest.fixture(scope="session")
def rng():
    return random.Random(94721)
