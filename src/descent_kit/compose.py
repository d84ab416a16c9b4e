"""Composing two operator structures and descending the composite.

A structure with coefficients D1 and one with coefficients D2 on the same
carrier compose into a structure with coefficients D2 (x) D1, coordinate
operators (e2)_q o (e1)_p indexed by basis pairs.  The product algebra
inherits a stratification (stratum of a pair is the sum of strata), and
the swap of tensor factors reindexes coordinates.  The check here
verifies, on concrete instances, that composition and commutation survive
descent; that composition commutes with tensor products of structures is
checked by the tests (``tests/paper_checks.py``).
"""

from __future__ import annotations

from .dalgebra import DCoefficientAlgebra, build_d_algebra
from .descent_matrix import associated_matrix
from .dstructures import DStructure
from .errors import CarrierMismatch
from .presented import PresentedRing
from .structure import StructureAlgebra
from .tower import OperatorTower, PresentedBAlgebra
from .weil_d import descend_d_structure


class ComposedCoefficients:
    """left (x)_k right with a stratified pair basis.

    Basis pairs (a, b) are ordered by right-factor-major factor pairs, then
    by total stratum, so the product passes the stratification validator.
    """

    __slots__ = ("product", "index_pair", "pair_index")

    def __init__(self, product, index_pair, pair_index):
        self.product = product
        self.index_pair = index_pair
        self.pair_index = pair_index


def tensor_coefficients(left: DCoefficientAlgebra, right: DCoefficientAlgebra) -> ComposedCoefficients:
    """Build and validate left (x)_k right with the inherited stratification."""
    if left.field != right.field:
        raise ValueError("coefficient algebras over different fields")
    field = left.field
    pairs = [
        (a, b)
        for a in range(left.dim)
        for b in range(right.dim)
    ]
    pairs.sort(
        key=lambda ab: (
            right.factor_of[ab[1]],
            left.factor_of[ab[0]],
            left.stratum_of[ab[0]] + right.stratum_of[ab[1]],
            ab[1],
            ab[0],
        )
    )
    pair_index = {ab: i for i, ab in enumerate(pairs)}
    kk = PresentedRing.base_field(field)
    labels = tuple(
        f"{left.algebra.labels[a]}|{right.algebra.labels[b]}" for a, b in pairs
    )
    # (a1, b1)(a2, b2) = sum of a^L_{a1 a2 a3} a^R_{b1 b2 b3} (a3, b3): each
    # product of a stored left cell and a stored right cell is one constant
    constants = [[[kk.zero] * len(pairs) for _ in pairs] for _ in pairs]
    for x, (a1, b1) in enumerate(pairs):
        for y, (a2, b2) in enumerate(pairs):
            for a3, ca in left.cells[a1][a2]:
                for b3, cb in right.cells[b1][b2]:
                    constants[x][y][pair_index[a3, b3]] = kk.constant(field.mul(ca, cb))
    unit = [
        kk.constant(field.mul(left.unit[a], right.unit[b])) for a, b in pairs
    ]
    algebra = StructureAlgebra(kk, labels, constants, unit)

    def pair_vector(va, vb):
        return tuple(field.mul(va[a], vb[b]) for a, b in pairs)

    factor_data = []
    for fi in range(right.factor_count):
        idem_r, span_r = right.factors[fi]
        basis_r = [list(idem_r)] + [list(v) for v in span_r]
        for fj in range(left.factor_count):
            idem_l, span_l = left.factors[fj]
            basis_l = [list(idem_l)] + [list(v) for v in span_l]
            idem = pair_vector(idem_l, idem_r)
            span = []
            for mu in span_l:
                for vb in basis_r:
                    span.append(pair_vector(mu, vb))
            for va in basis_l:
                for nu in span_r:
                    span.append(pair_vector(va, nu))
            factor_data.append((idem, span))
    product = build_d_algebra(algebra, factor_data)
    return ComposedCoefficients(product, tuple(pairs), pair_index)


def _pair_vector(cc: ComposedCoefficients, entry):
    """The vector indexed by the basis pairs of ``cc``: pair (q, p) holds
    ``entry(q, p)``."""
    return tuple(entry(q, p) for q, p in cc.index_pair)


def _composite_images(e1: DStructure, e2: DStructure, cc: ComposedCoefficients, variables):
    """Images of the composite at ``variables``: pair (q, p) carries e2_q o e1_p."""
    return {
        v: _pair_vector(cc, lambda q, p: e2.coordinate_op(q + 1, e1.images[v][p]))
        for v in variables
    }


def compose_structures(e1: DStructure, e2: DStructure, cc: ComposedCoefficients) -> DStructure:
    """The composite structure with coefficients ``cc``, which is D2 (x) D1:
    ``tensor_coefficients(e2.coeff, e1.coeff)``."""
    if e1.carrier != e2.carrier:
        raise CarrierMismatch("composition needs a common carrier")
    return DStructure(e1.carrier, cc.product,
                      _composite_images(e1, e2, cc, e1.carrier.variables))


def _swapped(vector, cc: ComposedCoefficients, cc_swapped: ComposedCoefficients):
    """A vector indexed by the pairs of ``cc`` = D2 (x) D1, reindexed onto
    the pairs of ``cc_swapped`` = D1 (x) D2 along the tensor-factor swap."""
    return _pair_vector(cc_swapped, lambda p, q: vector[cc.pair_index[(q, p)]])


def gamma_swap(structure: DStructure, cc: ComposedCoefficients,
               cc_swapped: ComposedCoefficients) -> DStructure:
    """Reindex a structure with coefficients ``cc`` = D2 (x) D1 along the
    tensor-factor swap, onto ``cc_swapped`` = D1 (x) D2; an involution."""
    images = {
        v: _swapped(structure.images[v], cc, cc_swapped) for v in structure.carrier.variables
    }
    return DStructure(structure.carrier, cc_swapped.product, images)


def commutes(e1: DStructure, e2: DStructure, cc: ComposedCoefficients,
             cc_swapped: ComposedCoefficients) -> bool:
    """Do the two structures commute (every operator with every operator)?

    Checked as exact equality of the swapped composite with the reverse
    composite on the carrier's generators.  ``cc`` and ``cc_swapped`` are
    D2 (x) D1 and D1 (x) D2.
    """
    c12 = compose_structures(e1, e2, cc)
    c21 = compose_structures(e2, e1, cc_swapped)
    return gamma_swap(c12, cc, cc_swapped).agrees_with(c21, e1.carrier.variables)


def compose_towers(t1: OperatorTower, t2: OperatorTower, cc: ComposedCoefficients):
    """The composite tower, with coefficients ``cc`` = D2 (x) D1: e12 is
    e1 and e2 composed, and f12 extends it by f1 and f2 composed on B's
    labels."""
    if t1.algebra != t2.algebra:
        raise CarrierMismatch("towers must share the module algebra")
    return OperatorTower(compose_structures(t1.e, t2.e, cc), t1.algebra,
                         _composite_images(t1.f, t2.f, cc, t1.algebra.labels[1:]))


def compose_descent_check(c1: PresentedBAlgebra, g1_struct: DStructure,
                          c2: PresentedBAlgebra, g2_struct: DStructure) -> dict:
    """Verify that composition of structures is compatible with descent.

    ``g1_struct`` is ``c1.structure(images)``, the first structure on C;
    ``g2_struct`` is ``c2.structure(images)``, the second, where ``c2``
    presents the same C over a second tower on the same module algebra B.
    Descends g1, g2, and their composite g12 over the composite tower t12,
    and compares the composite of the descents with the descent of the
    composite (theta); gamma descends the swapped composite over the
    swapped composite tower, t12 reindexed along the tensor swap, and
    compares it with the swapped composite of the descents.  For two
    difference structures the monoid law (g1 o g2 descended over
    f1 o f2) and identity preservation are also checked directly.  Every
    composite descends by one route, over C's presentation on its own
    tower; the classical descent W(C) does not depend on the structures or
    the towers, so the first descent computes it and every later one holds
    that same object.
    """
    t1, t2 = c1.tower, c2.tower
    labels = t1.algebra.labels[1:]
    res1 = descend_d_structure(c1, g1_struct)
    classical = res1.classical
    res2 = descend_d_structure(c2, g2_struct, classical)
    w_ring = classical.descended

    def descend(tower, images):
        """The descended structure of C over ``tower`` with generator images ``images``."""
        c = PresentedBAlgebra(tower, c1.generators, c1.relations_flat)
        return descend_d_structure(c, c.structure(images), classical).structure

    cc = tensor_coefficients(t2.coeff, t1.coeff)
    cc_swapped = tensor_coefficients(t1.coeff, t2.coeff)
    t12 = compose_towers(t1, t2, cc)
    g12 = _composite_images(g1_struct, g2_struct, cc, c1.generators)
    composed_w = compose_structures(res1.structure, res2.structure, cc)
    theta_ok = descend(t12, g12).agrees_with(composed_w, w_ring.variables)

    # composite associated endomorphisms have invertible matrix (pairwise):
    # the diagonal blocks of t12's matrix, which its descent above built
    dm12 = associated_matrix(t12)
    pair_invertible = [t12.base_ring.is_unit(dm12.diagonal_block(unit).det())
                       for unit in cc.product.factor_units]

    # swap compatibility: gamma(g12) lives over gamma(t12)
    t12_swapped = OperatorTower(
        gamma_swap(t12.e, cc, cc_swapped), t12.algebra,
        {b: _swapped(t12.f.images[b], cc, cc_swapped) for b in labels},
    )
    g12_swapped = {gen: _swapped(g12[gen], cc, cc_swapped) for gen in c1.generators}
    gamma_ok = descend(t12_swapped, g12_swapped).agrees_with(
        gamma_swap(composed_w, cc, cc_swapped), w_ring.variables)

    report = {
        "theta_compatible": theta_ok,
        "gamma_compatible": gamma_ok,
        "composite_endomorphisms_invertible": all(pair_invertible),
    }

    if t1.coeff.dim == 1 and t2.coeff.dim == 1:
        # difference case: g1 o g2 descends over f1 o f2 to g1^W o g2^W, and
        # identities descend
        law_w = descend(compose_towers(t2, t1, cc_swapped),
                        _composite_images(g2_struct, g1_struct, cc_swapped, c1.generators))
        report["difference_monoid_law"] = law_w.agrees_with(
            compose_structures(res2.structure, res1.structure, cc_swapped), w_ring.variables)
        flat_b, flat_c = t1.flat_b, c1.flat_ring
        id_tower = OperatorTower(DStructure.identity(t1.base_ring, t1.coeff), t1.algebra,
                                 {b: (flat_b.var(b),) for b in labels})
        id_w = descend(id_tower, {gen: (flat_c.nf(flat_c.var(gen)),) for gen in c1.generators})
        report["identity_descends_to_identity"] = id_w.agrees_with(
            DStructure.identity(w_ring, t1.coeff),
            [name for name in w_ring.variables if name not in t1.base_ring.variables],
        )

    if commutes(g1_struct, g2_struct, cc, cc_swapped):
        report["inputs_commute"] = True
        report["descents_commute"] = commutes(res1.structure, res2.structure, cc, cc_swapped)
    else:
        report["inputs_commute"] = False

    report["ok"] = all(
        v for k, v in report.items() if isinstance(v, bool) and k != "inputs_commute"
    )
    return report
