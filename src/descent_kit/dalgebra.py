"""The finite-dimensional coefficient algebra behind an operator structure.

The algebra decomposes as a product of local k-algebras with residue field
k; the user supplies the orthogonal idempotents and a spanning set of each
maximal ideal, and everything else (nilpotency, strata, residue
projections) is validated or computed by exact linear algebra over k.

The basis must be *stratified*: ordered factor by factor and, inside each
factor, level by level of the maximal-ideal filtration, with the factor
unit first.  This is the basis ordering that makes the big descent matrix
block lower triangular.
"""

from __future__ import annotations

from . import linear
from .errors import (
    BadIdempotents,
    NotLocalFactor,
    NotNilpotent,
    StrataMismatch,
)
from .presented import PresentedRing
from .structure import StructureAlgebra


class DCoefficientAlgebra:
    """A validated coefficient algebra with its local decomposition."""

    __slots__ = (
        "algebra",
        "factors",
        "factor_of",
        "stratum_of",
        "strata",
        "projections",
        "unit",
        "certificates",
    )

    def __init__(self, algebra, factors, factor_of, stratum_of, strata, projections, unit, certificates):
        self.algebra = algebra
        self.factors = factors
        self.factor_of = factor_of
        self.stratum_of = stratum_of
        self.strata = strata
        self.projections = projections
        self.unit = unit
        self.certificates = certificates

    @property
    def dim(self) -> int:
        return self.algebra.rank

    @property
    def field(self):
        return self.algebra.base.field

    @property
    def factor_count(self) -> int:
        return len(self.factors)

    def labels(self):
        return self.algebra.labels

    def a(self, j: int, k: int, m: int):
        """Structure constant of eps_j eps_k on eps_m (0-based indices)."""
        return self.algebra.constants[j][k][m].constant_value()

    def over(self, carrier: PresentedRing) -> StructureAlgebra:
        """The base change carrier (x) coefficient-algebra, rank dim."""
        return StructureAlgebra(
            carrier,
            self.algebra.labels,
            [
                [
                    [carrier.constant(self.a(i, j, m)) for m in range(self.dim)]
                    for j in range(self.dim)
                ]
                for i in range(self.dim)
            ],
            [carrier.constant(c) for c in self.unit],
        )

    def __eq__(self, other):
        return isinstance(other, DCoefficientAlgebra) and self.algebra == other.algebra

    def __hash__(self):
        return hash(self.algebra)

    def __repr__(self):
        return f"DCoefficientAlgebra(dim {self.dim}, {self.factor_count} local factors)"


def _scalar_constants(algebra: StructureAlgebra):
    if algebra.base.variables:
        raise ValueError("the coefficient algebra must live over the bare field k")
    l = algebra.rank
    return [
        [[algebra.constants[i][j][m].constant_value() for m in range(l)] for j in range(l)]
        for i in range(l)
    ]


def _vec_mul(field, constants, x, y):
    l = len(x)
    out = [field.zero] * l
    for i in range(l):
        if field.is_zero(x[i]):
            continue
        for j in range(l):
            if field.is_zero(y[j]):
                continue
            c = field.mul(x[i], y[j])
            row = constants[i][j]
            for m in range(l):
                if not field.is_zero(row[m]):
                    out[m] = field.add(out[m], field.mul(c, row[m]))
    return out


def _span_basis(field, vectors):
    reduced, pivots = linear.rref(field, vectors) if vectors else ([], [])
    return [row for row in reduced if any(not field.is_zero(x) for x in row)]


def _is_zero_vec(field, v):
    return all(field.is_zero(x) for x in v)


def _powers_of_ideal(field, constants, factor_basis, m_span):
    """Bases of m^j for j = 0, 1, ... until the zero space.

    m^0 is the whole factor; m^{j+1} is spanned by products of the given
    spanning set with a basis of m^j.
    """
    levels = [_span_basis(field, factor_basis)]
    current = _span_basis(field, list(m_span))
    while current:
        levels.append(current)
        nxt = []
        for x in m_span:
            for v in current:
                w = _vec_mul(field, constants, list(x), v)
                if not _is_zero_vec(field, w):
                    nxt.append(w)
        current = _span_basis(field, nxt)
    return levels


def _corrected_basis(field, constants, factors_data, unit_vectors, level_spaces):
    """A stratified basis computed from the factor data, for error reports."""
    out = []
    for i, (idem, m_span) in enumerate(factors_data):
        levels = level_spaces[i]
        out.append(tuple(unit_vectors[i]))
        for j in range(1, len(levels)):
            above = levels[j + 1] if j + 1 < len(levels) else []
            picked = list(above)
            base_rank = linear.rank(field, picked) if picked else 0
            # candidates in deterministic order: products of m_span with the
            # previous level's candidates (level 1 uses the span itself)
            candidates = levels[j]
            chosen = []
            for cand in candidates:
                trial = picked + [list(cand)]
                if linear.rank(field, trial) > base_rank:
                    picked = trial
                    base_rank += 1
                    chosen.append(tuple(cand))
            out.extend(chosen)
    return out


def build_d_algebra(algebra: StructureAlgebra, factor_data) -> DCoefficientAlgebra:
    """Validate a coefficient algebra against its declared local factors.

    ``factor_data`` is a sequence of ``(idempotent, maximal_ideal_span)``
    pairs, both given in coordinates of the supplied basis.  Strata are
    computed by row-reducing products of the span; the supplied basis must
    already be the stratified one (a corrected basis rides along on the
    StrataMismatch error otherwise).
    """
    algebra.validate()
    field = algebra.base.field
    l = algebra.rank
    constants = _scalar_constants(algebra)
    unit = [c.constant_value() for c in algebra.unit_coords]
    certificates = [{"check": "algebra_axioms", "ok": True}]

    factors = []
    for idx, (idem, m_span) in enumerate(factor_data):
        idem = [field.normalize(c) for c in idem]
        m_span = [tuple(field.normalize(c) for c in v) for v in m_span]
        if len(idem) != l or any(len(v) != l for v in m_span):
            raise ValueError("factor data has the wrong length")
        if _is_zero_vec(field, idem):
            raise BadIdempotents(f"factor {idx + 1} has a zero idempotent")
        factors.append((tuple(idem), tuple(m_span)))

    # orthogonal idempotents summing to 1
    total = [field.zero] * l
    for i, (idem, _) in enumerate(factors):
        total = [field.add(a, b) for a, b in zip(total, idem)]
        square = _vec_mul(field, constants, list(idem), list(idem))
        if square != list(idem):
            raise BadIdempotents(f"factor {i + 1} element is not idempotent")
        for j in range(i + 1, len(factors)):
            prod = _vec_mul(field, constants, list(idem), list(factors[j][0]))
            if not _is_zero_vec(field, prod):
                raise BadIdempotents(f"factors {i + 1} and {j + 1} are not orthogonal")
    if total != unit:
        raise BadIdempotents("idempotents do not sum to 1")
    certificates.append({"check": "orthogonal_idempotents_sum_to_one", "ok": True})

    # nilpotency by repeated squaring up to the algebra dimension
    for i, (_, m_span) in enumerate(factors):
        for v in m_span:
            w = list(v)
            e = 1
            while e <= l:
                w = _vec_mul(field, constants, w, w)
                e *= 2
            if not _is_zero_vec(field, w):
                raise NotNilpotent(f"maximal-ideal element of factor {i + 1} is not nilpotent")
    certificates.append({"check": "maximal_ideals_nilpotent", "ok": True})

    # factor subspaces and residue dimension
    basis_vectors = [
        [field.one if q == p else field.zero for q in range(l)] for p in range(l)
    ]
    level_spaces = []
    for i, (idem, m_span) in enumerate(factors):
        inside = [_vec_mul(field, constants, list(idem), bv) for bv in basis_vectors]
        factor_basis = _span_basis(field, inside)
        for v in m_span:
            prod = _vec_mul(field, constants, list(idem), list(v))
            if prod != list(v):
                raise NotLocalFactor(
                    f"a maximal-ideal element of factor {i + 1} lies outside the factor"
                )
        levels = _powers_of_ideal(field, constants, factor_basis, m_span)
        dim_factor = len(levels[0])
        dim_m = len(levels[1]) if len(levels) > 1 else 0
        if dim_factor != dim_m + 1:
            raise NotLocalFactor(
                f"factor {i + 1} has residue dimension {dim_factor - dim_m}, expected 1"
            )
        level_spaces.append(levels)
    certificates.append({"check": "local_with_residue_field_k", "ok": True})

    unit_vectors = [list(f[0]) for f in factors]
    corrected = _corrected_basis(field, constants, factors, unit_vectors, level_spaces)

    def mismatch(reason):
        return StrataMismatch(f"supplied basis is not stratified: {reason}", corrected)

    # assign each supplied basis vector to a factor
    factor_of = []
    for q in range(l):
        home = None
        for i, (idem, _) in enumerate(factors):
            prod = _vec_mul(field, constants, list(idem), basis_vectors[q])
            if prod == basis_vectors[q]:
                home = i
                break
        if home is None:
            raise mismatch(f"basis element {q + 1} is split across factors")
        factor_of.append(home)
    if factor_of != sorted(factor_of):
        raise mismatch("factor blocks are out of order")

    stratum_of = [None] * l
    strata = []
    for i in range(len(factors)):
        block = [q for q in range(l) if factor_of[q] == i]
        if not block:
            raise mismatch(f"factor {i + 1} has no basis elements")
        levels = level_spaces[i]
        if basis_vectors[block[0]] != unit_vectors[i]:
            raise mismatch(f"factor {i + 1} does not start with its unit")
        per_level = [[] for _ in levels]
        for q in block:
            level = 0
            for j in range(1, len(levels)):
                if linear.in_span(field, levels[j], basis_vectors[q]):
                    level = j
                else:
                    break
            stratum_of[q] = level
            per_level[level].append(q)
        flat = [q for lev in per_level for q in lev]
        if flat != block:
            raise mismatch(f"strata of factor {i + 1} are out of order")
        if per_level[0] != [block[0]]:
            raise mismatch(f"stratum 0 of factor {i + 1} is not the unit alone")
        for j in range(1, len(levels)):
            above = levels[j + 1] if j + 1 < len(levels) else []
            rows = [list(x) for x in above] + [basis_vectors[q] for q in per_level[j]]
            if linear.rank(field, rows) != len(levels[j]):
                raise mismatch(f"stratum {j} of factor {i + 1} does not span")
        strata.append(tuple(tuple(lev) for lev in per_level))
    certificates.append({"check": "basis_is_stratified", "ok": True})

    # structure-constant vanishing facts for the stratified basis
    for j in range(l):
        for k in range(l):
            for m in range(l):
                same = factor_of[j] == factor_of[k] == factor_of[m]
                val = constants[j][k][m]
                if not same:
                    expected_zero = True
                else:
                    p = stratum_of[k]
                    if m < j:
                        expected_zero = True
                    elif m == j:
                        if p > 0:
                            expected_zero = True
                        else:
                            if not val == field.one:
                                raise mismatch(
                                    f"product constant ({j + 1},{k + 1},{m + 1}) should be 1"
                                )
                            continue
                    else:
                        continue
                if expected_zero and not field.is_zero(val):
                    raise mismatch(
                        f"product constant ({j + 1},{k + 1},{m + 1}) should vanish"
                    )
    certificates.append({"check": "stratified_constant_facts", "ok": True})

    # residue projections: pi_i(x) is the coefficient of the factor unit in
    # u_i * x modulo the span of the maximal ideal
    projections = []
    for i, (idem, m_span) in enumerate(factors):
        cols = [list(idem)] + [list(v) for v in m_span]
        mat = [list(col) for col in zip(*cols)]
        pi = []
        for q in range(l):
            target = _vec_mul(field, constants, list(idem), basis_vectors[q])
            sol = linear.solve(field, mat, target)
            if sol is None:
                raise NotLocalFactor(
                    f"factor {i + 1}: unit and maximal ideal do not span the factor"
                )
            pi.append(sol[0])
        projections.append(tuple(pi))
    certificates.append({"check": "residue_projections", "ok": True})

    return DCoefficientAlgebra(
        algebra,
        tuple(factors),
        tuple(factor_of),
        tuple(stratum_of),
        tuple(strata),
        tuple(projections),
        tuple(unit),
        certificates,
    )


# -- standard coefficient algebras ----------------------------------------------


def difference_algebra(field) -> DCoefficientAlgebra:
    """D = k itself: structures are single endomorphisms."""
    kk = PresentedRing.base_field(field)
    alg = StructureAlgebra(kk, ("1",), [[[kk.one]]])
    return build_d_algebra(alg, [((field.one,), ())])


def dual_numbers(field) -> DCoefficientAlgebra:
    """D = k[eps]/(eps^2): an endomorphism with a twisted derivation."""
    kk = PresentedRing.base_field(field)
    z, o = kk.zero, kk.one
    alg = StructureAlgebra(kk, ("1", "eps"), [[[o, z], [z, o]], [[z, o], [z, z]]])
    one, zero = field.one, field.zero
    return build_d_algebra(alg, [((one, zero), ((zero, one),))])


def product_of_fields(field, copies: int) -> DCoefficientAlgebra:
    """D = k^l: structures are l independent endomorphisms."""
    kk = PresentedRing.base_field(field)
    z, o = kk.zero, kk.one
    labels = tuple(f"e{i + 1}" for i in range(copies))
    constants = [
        [[o if (i == j and m == i) else z for m in range(copies)] for j in range(copies)]
        for i in range(copies)
    ]
    alg = StructureAlgebra(kk, labels, constants, unit_coords=[o] * copies)
    one, zero = field.one, field.zero
    factors = []
    for i in range(copies):
        idem = tuple(one if q == i else zero for q in range(copies))
        factors.append((idem, ()))
    return build_d_algebra(alg, factors)


def truncated_jets(field, length: int) -> DCoefficientAlgebra:
    """D = k[eps]/(eps^length): truncated higher derivations."""
    kk = PresentedRing.base_field(field)
    z, o = kk.zero, kk.one
    labels = ("1",) + tuple(f"eps{'' if i == 1 else i}" for i in range(1, length))
    constants = [
        [[o if m == i + j else z for m in range(length)] for j in range(length)]
        for i in range(length)
    ]
    alg = StructureAlgebra(kk, labels, constants)
    one, zero = field.one, field.zero
    span = tuple(
        tuple(one if q == i else zero for q in range(length)) for i in range(1, length)
    )
    return build_d_algebra(alg, [((one,) + (zero,) * (length - 1), span)])


def dual_numbers_times_field(field) -> DCoefficientAlgebra:
    """D = k[eps]/(eps^2) x k: endomorphisms sigma1, sigma2 and a derivation."""
    kk = PresentedRing.base_field(field)
    z, o = kk.zero, kk.one
    # basis (1,0), (eps,0), (0,1)
    labels = ("e1", "eps", "e3")
    zero3 = [z, z, z]
    constants = [
        [[o, z, z], [z, o, z], list(zero3)],
        [[z, o, z], list(zero3), list(zero3)],
        [list(zero3), list(zero3), [z, z, o]],
    ]
    alg = StructureAlgebra(kk, labels, constants, unit_coords=[o, z, o])
    one, zero = field.one, field.zero
    return build_d_algebra(
        alg,
        [
            ((one, zero, zero), ((zero, one, zero),)),
            ((zero, zero, one), ()),
        ],
    )
