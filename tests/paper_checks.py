"""The paper's propositions around the descent, checked on instances.

The commands of the package run the descent itself: the descent matrix,
the classical descent W(C) and the operator descent.  The propositions
around it are checked here, on whatever instance a test or a demo builds:

- tensor compatibility: ``tensor_presented`` and ``tensor_structures``
  build S (x) T over a shared base, named by its variables, and the
  structure on it that extends both factors;
  ``tensor_compose_check`` compares composition with the tensor product,
  ``check_tensor_associated_endos`` the associated endomorphisms;
- independence of the coefficient basis: ``change_of_basis_check``
  rebuilds the descent matrix in another basis of D and compares it with
  the conjugate by the inflated change of basis;
- descent of the associated endomorphisms: ``associated_endomorphisms``
  (one difference structure per local factor of D, each over one D = k),
  ``difference_subtower`` and ``descended_endomorphisms_check``;
- functoriality of W: ``descend_morphism``.

``field_inverse`` is the matrix inverse over k that the change of basis
uses, and the tests' reference inverse.  ``reconstruct`` writes an element
of B as a flat polynomial, and ``coordinate_rows`` reads f_k(b_i) in
coordinates over A by applying f to each reconstructed basis element: the
tests' reference for the coordinates the descent matrix reads off f.

No module of the package imports this one, and pytest does not collect
it; tests import it by name, demos through a ``sys.path`` entry.  It
imports nothing but the package, so the demos run without pytest.
"""

from descent_kit import (
    DDescentResult,
    DStructure,
    OperatorTower,
    Polynomial,
    PresentedBAlgebra,
    PresentedRing,
    WeilDescentResult,
    associated_matrix,
    compose_structures,
    descend_d_structure,
    difference_algebra,
    tensor_coefficients,
)
from descent_kit import linear
from descent_kit.descent_matrix import assemble_matrix
from descent_kit.errors import (
    CarrierMismatch,
    DescentKitError,
    NotAHomomorphism,
    TruncationExceeded,
)
from descent_kit.matrices import RingMatrix


class BaseMismatch(DescentKitError):
    """Two tensor factors do not share their base or its images."""


class SingularBasisChange(DescentKitError):
    """A change-of-basis matrix is singular over k."""


def field_inverse(field, a):
    """The inverse of the square matrix ``a`` over the field, or None when
    it is singular: the right half of the reduced [a | I]."""
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, linear.identity(field, n))]
    red, pivots = linear.rref(field, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def reconstruct(algebra, el) -> Polynomial:
    """The flat polynomial sum coords_m * label_m representing ``el``."""
    field = algebra.base.field
    out = Polynomial.zero(field)
    for i, lab in enumerate(algebra.labels):
        if lab == "1":
            out = out + el.coords[i]
        else:
            out = out + el.coords[i] * Polynomial.variable(field, lab)
    return out


def coordinate_rows(tower: OperatorTower):
    """``rows[i][k]`` = f_k(b_i) as an element of B (all indices 0-based)."""
    algebra = tower.algebra
    return tuple(
        tuple(map(algebra.coordinatize,
                  tower.f.apply(reconstruct(algebra, algebra.basis_el(i))).coords))
        for i in range(algebra.rank)
    )


# -- tensor compatibility --------------------------------------------------------


def _suffix_rename(names, taken, suffix):
    mapping = {}
    for v in names:
        w = f"{v}({suffix})"
        while w in taken:
            w = f"{w}'"
        mapping[v] = w
        taken.add(w)
    return mapping


def tensor_presented(S: PresentedRing, T: PresentedRing, base):
    """S tensor T over their common base ring.

    ``base`` names the variables of the shared base ring (``()`` for k);
    both factors must have them.  Returns ``(ring, map_S, map_T)`` where the
    maps send each factor's variables to their images in the tensor
    presentation.  Clashing non-base variables are renamed with positional
    suffixes ``(1)``/``(2)``.
    """
    base = tuple(base)
    if S.field != T.field or not set(base) <= set(S.variables) & set(T.variables):
        raise ValueError("tensor factors must share the base presentation")
    s_own = tuple(v for v in S.variables if v not in base)
    t_own = tuple(v for v in T.variables if v not in base)
    clash = set(s_own) & set(t_own)
    map_s = {v: v for v in S.variables}
    map_t = {v: v for v in T.variables}
    if clash:
        taken = set(base) | set(s_own) | set(t_own)
        ren_s = _suffix_rename([v for v in s_own if v in clash], taken, 1)
        ren_t = _suffix_rename([v for v in t_own if v in clash], taken, 2)
        map_s.update(ren_s)
        map_t.update(ren_t)
    variables = (
        tuple(base)
        + tuple(map_s[v] for v in s_own)
        + tuple(map_t[v] for v in t_own)
    )
    subs_s = {v: Polynomial.variable(S.field, w) for v, w in map_s.items()}
    subs_t = {v: Polynomial.variable(T.field, w) for v, w in map_t.items()}
    rels = [g.substitute(subs_s) for g in S.relations.generators]
    rels += [g.substitute(subs_t) for g in T.relations.generators]
    ring = PresentedRing.make(S.field, variables, rels)
    return ring, map_s, map_t


def tensor_structures(f: DStructure, g: DStructure, base):
    """The unique structure on S (x)_R T extending both factors.

    ``base`` names the variables of the shared base R, as for
    ``tensor_presented``; both structures must give them the same images.
    Returns (structure, map_S, map_T).
    """
    if f.coeff != g.coeff:
        raise CarrierMismatch("tensor factors use different coefficient algebras")
    if not set(base) <= set(f.carrier.variables) & set(g.carrier.variables):
        raise BaseMismatch("tensor factors have different base presentations")
    for v in base:
        for a, b in zip(f.images[v], g.images[v]):
            if (a is None) or (b is None) or not f.carrier.equal(a, f.carrier.nf(b)):
                raise BaseMismatch(f"images of base variable {v!r} disagree")
    ring, map_s, map_t = tensor_presented(f.carrier, g.carrier, base)
    field = ring.field

    def push(vec, mapping):
        if vec is None:
            return None
        subs = {v: Polynomial.variable(field, w) for v, w in mapping.items()}
        return tuple(c.substitute(subs) for c in vec)

    # f's base, if any, gives its own variables their images
    inherited = f.base.images if f.base is not None else {}
    images = {}
    for v in f.carrier.variables:
        images[map_s[v]] = push(f.images[v], map_s)
    for v in g.carrier.variables:
        images.setdefault(map_t[v], push(g.images[v], map_t))
    images = {v: vec for v, vec in images.items() if v not in inherited}
    return DStructure(ring, f.coeff, images, base=f.base), map_s, map_t


def tensor_compose_check(f1: DStructure, f2: DStructure,
                         g1: DStructure, g2: DStructure, base) -> dict:
    """Composition commutes with tensor products of structures.

    f1, f2 live on S; g1, g2 on T; S and T share the base named by
    ``base``; f1, g1 share the coefficient algebra D1 and f2, g2 share D2.
    Compares D1(f2 (x) g2) o (f1 (x) g1) with (D1(f2) o f1) (x) (D1(g2) o g1)
    on generators.
    """
    cc = tensor_coefficients(f2.coeff, f1.coeff)
    t1, _, _ = tensor_structures(f1, g1, base)
    t2, _, _ = tensor_structures(f2, g2, base)
    lhs = compose_structures(t1, t2, cc)
    rhs, _, _ = tensor_structures(compose_structures(f1, f2, cc),
                                  compose_structures(g1, g2, cc), base)
    return {"ok": lhs.agrees_with(rhs, lhs.carrier.variables)}


def check_tensor_associated_endos(f: DStructure, g: DStructure, base) -> bool:
    """Associated endomorphisms of a tensor structure over the base named by
    ``base`` act factorwise."""
    tens, map_s, map_t = tensor_structures(f, g, base)
    carrier = tens.carrier
    dk = difference_algebra(f.coeff.field)
    sigma = associated_endomorphisms(f, dk)
    tau = associated_endomorphisms(g, dk)
    rho = associated_endomorphisms(tens, dk)
    for factors, mapping in ((sigma, map_s), (tau, map_t)):
        subs = {v: carrier.var(w) for v, w in mapping.items()}
        for i, endo in enumerate(factors):
            for v, w in mapping.items():
                if not carrier.equal(rho[i].images[w][0], endo.images[v][0].substitute(subs)):
                    return False
    return True


# -- independence of the coefficient basis -----------------------------------------


def inflate(ring: PresentedRing, scalar_matrix, r: int) -> RingMatrix:
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
    y = field_inverse(field, x)
    if y is None:
        raise SingularBasisChange("the change of basis is singular over k")

    # eta_j eta_k in the eps basis by the table, then into the eta basis by Y
    columns = [list(col) for col in zip(*x)]
    cells_eta = []
    for xj in columns:
        row_eta = []
        for xk in columns:
            prod = linear.vec_mul(field, tower.coeff.cells, xj, xk)
            coords = [field.normalize(sum(ym * p for ym, p in zip(y_row, prod)))
                      for y_row in y]
            row_eta.append(tuple((m, c) for m, c in enumerate(coords) if c))
        cells_eta.append(row_eta)

    ring = tower.base_ring
    rows = coordinate_rows(tower)

    def lam_eta(n, k, i):
        acc = ring.zero
        for q in range(l):
            if not field.is_zero(y[k][q]):
                acc = acc + rows[i][q].coords[n].scale(y[k][q])
        return ring.nf(acc)

    m_eta = assemble_matrix(ring, r, l, cells_eta, lam_eta)
    m_eps = associated_matrix(tower).matrix
    x_big = inflate(ring, x, r)
    y_big = inflate(ring, y, r)
    return m_eta == y_big * m_eps * x_big


# -- descent of the associated endomorphisms ------------------------------------------


def associated_images(structure: DStructure, factor: int) -> dict:
    """Generator images of the associated endomorphism sigma_factor
    (0-based): the coordinate at the factor's unit."""
    unit = structure.coeff.factor_units[factor]
    out = {}
    for v in structure.carrier.variables:
        vec = structure.images[v]
        if vec is None:
            raise TruncationExceeded(f"no operator image assigned to {v!r}")
        out[v] = vec[unit]
    return out


def associated_endomorphisms(structure: DStructure, dk=None):
    """One difference structure per local factor of the coefficient
    algebra, each over ``dk``, the one D = k (built here when not given)."""
    if dk is None:
        dk = difference_algebra(structure.coeff.field)
    base = None if structure.base is None else associated_endomorphisms(structure.base, dk)
    inherited = {} if base is None else structure.base.images
    return [
        DStructure(structure.carrier, dk,
                   {v: (p,) for v, p in associated_images(structure, i).items()
                    if v not in inherited},
                   None if base is None else base[i])
        for i in range(structure.coeff.factor_count)
    ]


def difference_subtower(tower: OperatorTower, factor: int, dk) -> OperatorTower:
    """The (A, sigma_i) <= (B, tau_i) tower of one associated endomorphism,
    over ``dk``, the one D = k."""
    e_i = DStructure(
        tower.e.carrier, dk, {v: (p,) for v, p in associated_images(tower.e, factor).items()}
    )
    tau = associated_images(tower.f, factor)
    return OperatorTower(e_i, tower.algebra, {b: (tau[b],) for b in tower.algebra.labels[1:]})


def _is_identity(structure: DStructure) -> bool:
    """Is ``structure`` the identity x -> x (x) 1 on every carrier variable?"""
    carrier = structure.carrier
    return structure.agrees_with(DStructure.identity(carrier, structure.coeff), carrier.variables)


def descended_endomorphisms_check(result: DDescentResult) -> dict:
    """Factorwise: descending the associated endomorphism of (C, g) equals
    taking the associated endomorphism of the descended structure.  Every
    associated endomorphism and every difference subtower lives over one
    D = k, built once per call."""
    c = result.c
    tower = c.tower
    report = {"factors": [], "ok": True}
    dk = difference_algebra(tower.coeff.field)
    rho = associated_endomorphisms(result.structure, dk)
    eta = associated_endomorphisms(result.c_structure, dk)
    copies = [name for gen in c.generators for name in result.classical.copy_names[gen]]
    for factor in range(tower.coeff.factor_count):
        sub_c = PresentedBAlgebra(difference_subtower(tower, factor, dk), c.generators,
                                  c.relations_flat)
        eta_images = {gen: eta[factor].images[gen] for gen in c.generators}
        # the subtower keeps B, so W(C) is the one already computed
        sub_result = descend_d_structure(sub_c, sub_c.structure(eta_images), result.classical)
        agree = rho[factor].agrees_with(sub_result.structure, copies)
        entry = {"factor": factor + 1, "difference_descent_matches": agree}
        # trivial associated endomorphism descends to the identity
        if _is_identity(eta[factor]):
            identity_out = _is_identity(rho[factor])
            entry["identity_descends_to_identity"] = identity_out
            agree = agree and identity_out
        report["factors"].append(entry)
        report["ok"] = report["ok"] and agree
    return report


# -- functoriality of W ----------------------------------------------------------------


def descend_morphism(h_images: dict, source: WeilDescentResult,
                     target: WeilDescentResult) -> dict:
    """W(h) for a B-algebra map h: C -> C' given flat on generators, between
    the classical descents ``source`` of C and ``target`` of C'.

    Sends x(i) to lambda_i of the unit image of h(x) computed in W(C') (x) B.
    """
    out = {}
    for g in source.generators:
        image = target.evaluate_under_unit(h_images[g])
        for i, name in enumerate(source.copy_names[g]):
            out[name] = image.coords[i]
    env = source.pinned_env(out, target.descended.field)
    if source.ideal_violation(env, target.descended) is not None:
        raise NotAHomomorphism("descended morphism does not kill the descent ideal")
    return out
