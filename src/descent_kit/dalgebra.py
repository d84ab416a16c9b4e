"""The finite-dimensional coefficient algebra behind an operator structure.

The algebra decomposes as a product of local k-algebras with residue field
k; the user supplies the orthogonal idempotents and a spanning set of each
maximal ideal, and everything else is computed by exact linear algebra
over k.  The one certificate of a factor is its m-adic filtration
m ⊋ m^2 ⊋ ... ⊋ 0: that it reaches zero is the nilpotency of m, that m has
codimension 1 is the residue field k, and the strata are read off it.

The basis must be *stratified*: ordered factor by factor and, inside each
factor, level by level of the maximal-ideal filtration, with the factor
unit first.  This is the basis ordering that makes the big descent matrix
block lower triangular: with eps_j in m^(s_j), a product eps_j eps_k lies
in m^(s_j + s_k), so it has no component below eps_j, and its component
on eps_j is 1 when eps_k is the factor unit and 0 otherwise; products
across factors vanish.  These constant facts follow from the
stratification and are not checked on their own.  The stratification also
fixes the residue projections: every other basis element of a factor lies
in its maximal ideal, and every element of another factor is killed by its
idempotent, so the projection onto factor i's residue field is the
coordinate at factor i's unit (``factor_units``), and nothing is solved
for it.

The products are read from ``cells``: the algebra's own sparse table
(``StructureAlgebra.table``) with each coefficient taken as its scalar, so
``cells[j][k]`` holds the pairs (m, a_jkm) with a_jkm nonzero, m
ascending.  ``linear.vec_mul`` multiplies with it, and the descent matrix
and the tensor products read it cell by cell.
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
        "cells",
        "factors",
        "factor_of",
        "stratum_of",
        "strata",
        "factor_units",
        "unit",
    )

    def __init__(self, algebra, cells, factors, factor_of, stratum_of, strata, unit):
        self.algebra = algebra
        # the algebra's sparse table with scalar coefficients: cells[j][k]
        # holds the (m, a_jkm) with a_jkm nonzero, m ascending
        self.cells = cells
        self.factors = factors
        self.factor_of = factor_of
        self.stratum_of = stratum_of
        self.strata = strata
        # the basis index of each factor's unit: the stratified basis puts it
        # first in its factor, so the residue projection of factor i reads
        # the coordinate at factor_units[i]
        self.factor_units = tuple(levels[0][0] for levels in strata)
        self.unit = unit

    @property
    def dim(self) -> int:
        return self.algebra.rank

    @property
    def field(self):
        return self.algebra.base.field

    @property
    def factor_count(self) -> int:
        return len(self.factors)

    def __eq__(self, other):
        return isinstance(other, DCoefficientAlgebra) and self.algebra == other.algebra

    def __hash__(self):
        return hash(self.algebra)

    def __repr__(self):
        return f"DCoefficientAlgebra(dim {self.dim}, {self.factor_count} local factors)"


def _scalar_cells(algebra: StructureAlgebra):
    if algebra.base.variables:
        raise ValueError("the coefficient algebra must live over the bare field k")
    return tuple(tuple(tuple((m, c.constant_value()) for m, c in cell) for cell in row)
                 for row in algebra.table)


def _span_basis(field, vectors):
    reduced, _ = linear.rref(field, vectors) if vectors else ([], [])
    return [row for row in reduced if any(not field.is_zero(x) for x in row)]


def _is_zero_vec(field, v):
    return all(field.is_zero(x) for x in v)


def _powers_of_ideal(field, cells, factor_basis, m_span, factor):
    """Bases of m^j for j = 0, 1, ... until the zero space.

    m^0 is the whole factor; m^{j+1} is spanned by products of the given
    spanning set with a basis of m^j.  The algebra is commutative, so the
    span of nilpotent elements generates a nilpotent subalgebra, of
    dimension at most dim D = l: the filtration reaches zero by m^{l+1}
    exactly when every given element is nilpotent, and NotNilpotent is
    raised when it does not.
    """
    levels = [_span_basis(field, factor_basis)]
    current = _span_basis(field, list(m_span))
    while current:
        if len(levels) > len(cells):
            raise NotNilpotent(f"maximal-ideal element of factor {factor + 1} is not nilpotent")
        levels.append(current)
        nxt = []
        for x in m_span:
            for v in current:
                w = linear.vec_mul(field, cells, list(x), v)
                if not _is_zero_vec(field, w):
                    nxt.append(w)
        current = _span_basis(field, nxt)
    return levels


def _corrected_basis(field, unit_vectors, level_spaces):
    """A stratified basis computed from the factor data, for error reports."""
    out = []
    for unit, levels in zip(unit_vectors, level_spaces):
        out.append(tuple(unit))
        for j in range(1, len(levels)):
            above = levels[j + 1] if j + 1 < len(levels) else []
            picked = list(above)
            base_rank = linear.rank(field, picked) if picked else 0
            chosen = []
            for cand in levels[j]:
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
    pairs, both given in coordinates of the supplied basis.  The filtration
    m ⊋ m^2 ⊋ ... ⊋ 0 of each factor is computed by row-reducing products
    of the span, and it is the one certificate: it reaches zero (the span
    is nilpotent), m has codimension 1 in the factor (residue field k),
    and the supplied basis must already be stratified along it (a
    corrected basis rides along on the StrataMismatch error otherwise).
    """
    algebra.validate()
    field = algebra.base.field
    l = algebra.rank
    cells = _scalar_cells(algebra)
    unit = [c.constant_value() for c in algebra.unit_coords]

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
        square = linear.vec_mul(field, cells, list(idem), list(idem))
        if square != list(idem):
            raise BadIdempotents(f"factor {i + 1} element is not idempotent")
        for j in range(i + 1, len(factors)):
            prod = linear.vec_mul(field, cells, list(idem), list(factors[j][0]))
            if not _is_zero_vec(field, prod):
                raise BadIdempotents(f"factors {i + 1} and {j + 1} are not orthogonal")
    if total != unit:
        raise BadIdempotents("idempotents do not sum to 1")

    # each factor's filtration (NotNilpotent unless it reaches zero), then
    # each factor is local with residue field k
    basis_vectors = [
        [field.one if q == p else field.zero for q in range(l)] for p in range(l)
    ]
    # inside[i][q] = u_i b_q: factor i is spanned by inside[i]
    inside = [[linear.vec_mul(field, cells, list(idem), bv) for bv in basis_vectors]
              for idem, _ in factors]
    level_spaces = [_powers_of_ideal(field, cells, inside[i], m_span, i)
                    for i, (_, m_span) in enumerate(factors)]
    for i, ((idem, m_span), levels) in enumerate(zip(factors, level_spaces)):
        for v in m_span:
            prod = linear.vec_mul(field, cells, list(idem), list(v))
            if prod != list(v):
                raise NotLocalFactor(
                    f"a maximal-ideal element of factor {i + 1} lies outside the factor"
                )
        dim_factor = len(levels[0])
        dim_m = len(levels[1]) if len(levels) > 1 else 0
        if dim_factor != dim_m + 1:
            raise NotLocalFactor(
                f"factor {i + 1} has residue dimension {dim_factor - dim_m}, expected 1"
            )

    unit_vectors = [list(f[0]) for f in factors]

    def mismatch(reason):
        return StrataMismatch(f"supplied basis is not stratified: {reason}",
                              _corrected_basis(field, unit_vectors, level_spaces))

    # assign each supplied basis vector to a factor
    factor_of = []
    for q in range(l):
        home = next((i for i, images in enumerate(inside) if images[q] == basis_vectors[q]), None)
        if home is None:
            raise mismatch(f"basis element {q + 1} is split across factors")
        factor_of.append(home)
    if factor_of != sorted(factor_of):
        raise mismatch("factor blocks are out of order")

    # The idempotents split D, so factor i's block holds dim F_i basis
    # vectors.  It is stratified exactly when, for every j >= 1, its last
    # dim m^j vectors lie in m^j (and so, being independent, span it); the
    # strata are those tails.  A product eps_j eps_k inside a factor then
    # lies in m^(s_j + s_k), spanned by the vectors of stratum >= s_j + s_k:
    # no component below eps_j, none on eps_j unless eps_k is the unit.
    stratum_of = []
    strata = []
    for i, levels in enumerate(level_spaces):
        start = len(stratum_of)
        end = start + len(levels[0])
        if basis_vectors[start] != unit_vectors[i]:
            raise mismatch(f"factor {i + 1} does not start with its unit")
        cuts = [end - len(space) for space in levels] + [end]
        for j in range(1, len(levels)):
            if linear.rank(field, levels[j] + basis_vectors[cuts[j]:end]) != len(levels[j]):
                raise mismatch(f"stratum {j} of factor {i + 1} does not span")
        factor_strata = tuple(tuple(range(cuts[j], cuts[j + 1])) for j in range(len(levels)))
        strata.append(factor_strata)
        stratum_of += [j for j, stratum in enumerate(factor_strata) for _ in stratum]

    return DCoefficientAlgebra(
        algebra,
        cells,
        tuple(factors),
        tuple(factor_of),
        tuple(stratum_of),
        tuple(strata),
        tuple(unit),
    )


# -- standard coefficient algebras ----------------------------------------------


def _jets_product(field, lengths, labels) -> DCoefficientAlgebra:
    """D = k[eps]/(eps^n_1) x ... x k[eps]/(eps^n_s) for ``lengths`` n_1..n_s,
    on the stratified basis 1, eps, ..., eps^(n_i - 1) of each factor in
    turn, named by ``labels``."""
    kk = PresentedRing.base_field(field)
    l = sum(lengths)
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    constants = [[[kk.zero] * l for _ in range(l)] for _ in range(l)]
    for s, n in zip(starts, lengths):
        for i in range(n):
            for j in range(n - i):
                constants[s + i][s + j][s + i + j] = kk.one
    unit = [kk.one if q in starts else kk.zero for q in range(l)]
    alg = StructureAlgebra(kk, labels, constants, unit_coords=unit)

    def basis_vector(p):
        return tuple(field.one if q == p else field.zero for q in range(l))

    return build_d_algebra(alg, [
        (basis_vector(s), tuple(basis_vector(p) for p in range(s + 1, s + n)))
        for s, n in zip(starts, lengths)
    ])


def difference_algebra(field) -> DCoefficientAlgebra:
    """D = k itself, the jets of length 1: structures are single endomorphisms."""
    return truncated_jets(field, 1)


def dual_numbers(field) -> DCoefficientAlgebra:
    """D = k[eps]/(eps^2), the jets of length 2: an endomorphism with a
    twisted derivation."""
    return truncated_jets(field, 2)


def product_of_fields(field, copies: int) -> DCoefficientAlgebra:
    """D = k^l: structures are l independent endomorphisms."""
    return _jets_product(field, [1] * copies, [f"e{i + 1}" for i in range(copies)])


def truncated_jets(field, length: int) -> DCoefficientAlgebra:
    """D = k[eps]/(eps^length): truncated higher derivations."""
    labels = ["1"] + [f"eps{'' if i == 1 else i}" for i in range(1, length)]
    return _jets_product(field, [length], labels)


def dual_numbers_times_field(field) -> DCoefficientAlgebra:
    """D = k[eps]/(eps^2) x k: endomorphisms sigma1, sigma2 and a derivation,
    on the basis (1,0), (eps,0), (0,1)."""
    return _jets_product(field, [2, 1], ["e1", "eps", "e3"])
