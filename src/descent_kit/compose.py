"""Composing two operator structures and descending the composite.

A structure with coefficients D1 and one with coefficients D2 on the same
carrier compose into a structure with coefficients D2 (x) D1, coordinate
operators (e2)_q o (e1)_p indexed by basis pairs.  The product algebra
inherits a stratification (stratum of a pair is the sum of strata), and
the swap of tensor factors reindexes coordinates.  The checks here verify,
on concrete instances, that composition and commutation survive descent.
"""

from __future__ import annotations

from .dalgebra import DCoefficientAlgebra, build_d_algebra
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

    __slots__ = ("left", "right", "product", "index_pair", "pair_index")

    def __init__(self, left, right, product, index_pair, pair_index):
        self.left = left
        self.right = right
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
        f"{left.labels()[a]}|{right.labels()[b]}" for a, b in pairs
    )
    dim = len(pairs)
    constants = [[[kk.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for x, (a1, b1) in enumerate(pairs):
        for y, (a2, b2) in enumerate(pairs):
            for z, (a3, b3) in enumerate(pairs):
                c = field.mul(left.a(a1, a2, a3), right.a(b1, b2, b3))
                constants[x][y][z] = kk.constant(c)
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
    return ComposedCoefficients(left, right, product, tuple(pairs), pair_index)


class ComposedStructure:
    """The composite of a D1-structure with a D2-structure."""

    __slots__ = ("coefficients", "first", "second", "structure")

    def __init__(self, coefficients, first, second, structure):
        self.coefficients = coefficients
        self.first = first
        self.second = second
        self.structure = structure


def _composite_images(e1: DStructure, e2: DStructure, cc: ComposedCoefficients):
    """Images of the composite: pair (q, p) carries e2_q o e1_p."""
    carrier = e1.carrier
    images = {}
    for v in carrier.variables:
        first = e1.images[v]
        vec = [None] * len(cc.index_pair)
        for idx, (q, p) in enumerate(cc.index_pair):
            vec[idx] = e2.coordinate_op(q + 1, first[p])
        images[v] = tuple(vec)
    return images


def compose_structures(e1: DStructure, e2: DStructure, cc: ComposedCoefficients = None) -> ComposedStructure:
    """The composite structure with coefficients D2 (x) D1."""
    if e1.carrier != e2.carrier:
        raise CarrierMismatch("composition needs a common carrier")
    if cc is None:
        cc = tensor_coefficients(e2.coeff, e1.coeff)
    structure = DStructure(e1.carrier, cc.product, _composite_images(e1, e2, cc))
    return ComposedStructure(cc, e1, e2, structure)


def gamma_swap(cs: ComposedStructure, cc_swapped: ComposedCoefficients = None) -> ComposedStructure:
    """Reindex the composite along the tensor-factor swap; an involution."""
    cc = cs.coefficients
    if cc_swapped is None:
        cc_swapped = tensor_coefficients(cc.right, cc.left)
    carrier = cs.structure.carrier
    images = {}
    for v in carrier.variables:
        old = cs.structure.images[v]
        vec = [None] * len(cc_swapped.index_pair)
        for idx, (p, q) in enumerate(cc_swapped.index_pair):
            vec[idx] = old[cc.pair_index[(q, p)]]
        images[v] = tuple(vec)
    structure = DStructure(carrier, cc_swapped.product, images)
    return ComposedStructure(cc_swapped, cs.second, cs.first, structure)


def commutes(e1: DStructure, e2: DStructure) -> bool:
    """Do the two structures commute (every operator with every operator)?

    Checked as exact equality of the swapped composite with the reverse
    composite on the carrier's generators.
    """
    c12 = compose_structures(e1, e2)
    c21 = compose_structures(e2, e1, tensor_coefficients(e1.coeff, e2.coeff))
    swapped = gamma_swap(c12, c21.coefficients)
    carrier = e1.carrier
    for v in carrier.variables:
        for a, b in zip(swapped.structure.images[v], c21.structure.images[v]):
            if not carrier.equal(a, b):
                return False
    return True


def compose_towers(t1: OperatorTower, t2: OperatorTower, cc: ComposedCoefficients = None):
    """The composite tower: base structure and module structure composed."""
    if t1.algebra != t2.algebra:
        raise CarrierMismatch("towers must share the module algebra")
    if cc is None:
        cc = tensor_coefficients(t2.coeff, t1.coeff)
    e12 = compose_structures(t1.e, t2.e, cc).structure
    f12 = []
    for i in range(t1.rank):
        vec = [None] * len(cc.index_pair)
        for idx, (q, p) in enumerate(cc.index_pair):
            vec[idx] = t2.apply_coordinate(q, t1.f_images[i][p])
        f12.append(tuple(vec))
    return OperatorTower(e12, t1.algebra, cc.product, f12), cc


def compose_c_structures(c1: PresentedBAlgebra, g1_struct: DStructure,
                         g2_struct: DStructure, cc: ComposedCoefficients):
    """Composite generator images for the algebra C (flat polynomials)."""
    images = {}
    for gen in c1.generators:
        vec = [None] * len(cc.index_pair)
        for idx, (q, p) in enumerate(cc.index_pair):
            vec[idx] = g2_struct.coordinate_op(q + 1, g1_struct.images[gen][p])
        images[gen] = tuple(vec)
    return images


def compose_descent_check(c1: PresentedBAlgebra, g1_images: dict,
                          t2: OperatorTower, g2_images: dict) -> dict:
    """Verify that composition of structures is compatible with descent.

    Descends g1, g2, and their composite independently and compares the
    composite of the descents with the descent of the composite, both ways
    around the tensor swap.  For two difference structures the composition
    law and identity preservation are also checked directly.
    """
    t1 = c1.tower
    c2 = PresentedBAlgebra(t2, c1.generators, c1.relations_flat)
    g1_struct = c1.structure(g1_images)
    g2_struct = c2.structure(g2_images)
    res1 = descend_d_structure(c1, g1_struct)
    res2 = descend_d_structure(c2, g2_struct)
    if res1.classical.descended != res2.classical.descended:
        raise AssertionError("the two descents produced different presentations")
    w_ring = res1.classical.descended

    cc = tensor_coefficients(t2.coeff, t1.coeff)
    t12, _ = compose_towers(t1, t2, cc)
    c12 = PresentedBAlgebra(t12, c1.generators, c1.relations_flat)
    g12_struct = c12.structure(compose_c_structures(c1, g1_struct, g2_struct, cc))
    res12 = descend_d_structure(c12, g12_struct)

    composed_w = compose_structures(res1.structure, res2.structure, cc)
    theta_ok = True
    for name in w_ring.variables:
        for a, b in zip(res12.structure.images[name], composed_w.structure.images[name]):
            if not w_ring.equal(a, b):
                theta_ok = False

    # composite associated endomorphisms have invertible matrix (pairwise)
    from .descent_matrix import endo_matrix
    pair_invertible = []
    for factor in range(cc.product.factor_count):
        det = endo_matrix(t12.algebra, t12.endo_images(factor)).det()
        pair_invertible.append(t12.base_ring.is_unit(det))

    # swap compatibility
    cc_swapped = tensor_coefficients(t1.coeff, t2.coeff)
    t21, _ = compose_towers(t2, t1, cc_swapped)
    swapped_c = gamma_swap(
        ComposedStructure(cc, g1_struct, g2_struct, g12_struct), cc_swapped
    )
    c_sw = PresentedBAlgebra(t21, c1.generators, c1.relations_flat)
    res_sw = descend_d_structure(
        c_sw, c_sw.structure({g: swapped_c.structure.images[g] for g in c1.generators})
    )
    swapped_w = gamma_swap(composed_w, cc_swapped)
    gamma_ok = True
    for name in w_ring.variables:
        for a, b in zip(res_sw.structure.images[name], swapped_w.structure.images[name]):
            if not w_ring.equal(a, b):
                gamma_ok = False

    report = {
        "theta_compatible": theta_ok,
        "gamma_compatible": gamma_ok,
        "composite_endomorphisms_invertible": all(pair_invertible),
    }

    if t1.coeff.dim == 1 and t2.coeff.dim == 1:
        # difference case: (g1 o g2)^W = g1^W o g2^W and identities descend
        h_images = {
            gen: (g1_struct.coordinate_op(1, g2_struct.images[gen][0]),)
            for gen in c1.generators
        }
        t_h, _ = compose_towers(t2, t1)  # f1 o f2 at the module level
        c_h = PresentedBAlgebra(t_h, c1.generators, c1.relations_flat)
        res_h = descend_d_structure(c_h, c_h.structure(h_images))
        law_ok = True
        for name in w_ring.variables:
            direct = res_h.structure.images[name][0]
            chained = res1.structure.coordinate_op(1, res2.structure.images[name][0])
            if not w_ring.equal(direct, chained):
                law_ok = False
        id_tower = OperatorTower(
            DStructure.identity(t1.base_ring, t1.coeff), t1.algebra, t1.coeff,
            [[t1.algebra.basis_el(i)] for i in range(t1.rank)],
        )
        id_c = PresentedBAlgebra(id_tower, c1.generators, c1.relations_flat)
        from .polynomials import Polynomial
        id_images = {
            gen: (Polynomial.variable(w_ring.field, gen),) for gen in c1.generators
        }
        id_res = descend_d_structure(id_c, id_c.structure(id_images))
        id_ok = all(
            w_ring.equal(
                id_res.structure.images[name][0],
                w_ring.var(name),
            )
            for name in w_ring.variables
            if name not in t1.base_ring.variables
        )
        report["difference_monoid_law"] = law_ok
        report["identity_descends_to_identity"] = id_ok

    if commutes(g1_struct, g2_struct):
        report["inputs_commute"] = True
        report["descents_commute"] = commutes(res1.structure, res2.structure)
    else:
        report["inputs_commute"] = False

    report["ok"] = all(
        v for k, v in report.items() if isinstance(v, bool) and k != "inputs_commute"
    )
    return report


def tensor_compose_check(f1: DStructure, f2: DStructure,
                         g1: DStructure, g2: DStructure) -> dict:
    """Composition commutes with tensor products of structures.

    f1, f2 live on S; g1, g2 on T; f1, g1 share the coefficient algebra D1
    and f2, g2 share D2.  Compares D1(f2 (x) g2) o (f1 (x) g1) with
    (D1(f2) o f1) (x) (D1(g2) o g1) on generators.
    """
    cc = tensor_coefficients(f2.coeff, f1.coeff)
    t1, _, _ = f1.tensor(g1)
    t2, _, _ = f2.tensor(g2)
    lhs = compose_structures(t1, t2, cc)
    comp_s = compose_structures(f1, f2, cc)
    comp_t = compose_structures(g1, g2, cc)
    rhs, _, _ = comp_s.structure.tensor(comp_t.structure)
    carrier = lhs.structure.carrier
    ok = True
    for v in carrier.variables:
        for a, b in zip(lhs.structure.images[v], rhs.images[v]):
            if not carrier.equal(a, b):
                ok = False
    return {"ok": ok}


def check_tensor_associated_endos(f: DStructure, g: DStructure) -> bool:
    """Associated endomorphisms of a tensor structure act factorwise."""
    tens, map_s, map_t = f.tensor(g)
    carrier = tens.carrier
    sigma = f.associated_endomorphisms()
    tau = g.associated_endomorphisms()
    rho = tens.associated_endomorphisms()
    from .polynomials import Polynomial
    for i in range(f.coeff.factor_count):
        subs_s = {v: Polynomial.variable(carrier.field, w) for v, w in map_s.items()}
        subs_t = {v: Polynomial.variable(carrier.field, w) for v, w in map_t.items()}
        for v in f.carrier.variables:
            expected = sigma[i].images[v][0].substitute(subs_s)
            if not carrier.equal(rho[i].images[map_s[v]][0], expected):
                return False
        for v in g.carrier.variables:
            expected = tau[i].images[v][0].substitute(subs_t)
            if not carrier.equal(rho[i].images[map_t[v]][0], expected):
                return False
    return True
