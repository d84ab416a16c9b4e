"""Brute-force homomorphism enumeration and the left-adjoint obstruction.

Over a finite field with a finite-dimensional target, all algebra maps out
of a finitely presented source can be enumerated by trying every
assignment of generators to staircase combinations.  That turns the
Hom-set bijection of the descent into a checkable statement, and the
linear system behind a non-invertible matrix into concrete evidence that
no descent can exist.  That system's matrix is the tower's own descent
matrix, which ``associated_matrix`` builds and decides once per tower.

The enumeration works in the GF(p) coordinates of the target's staircase,
multiplying through ``linear.vec_mul`` with one table per target, kept in
the sparse (m, c) cells that every finite algebra of the package uses:
most products of staircase monomials have one nonzero coordinate or none.
A relation depends only on the images of the variables it mentions, so it
is evaluated once per assignment of those, and the search stops extending
a partial assignment as soon as a relation fails on it.  Polynomials are
built only for the maps that are returned.  The audit gates each algebra
map once and keeps the image the gate produced.
"""

from __future__ import annotations

import itertools

from . import linear
from .descent_matrix import associated_matrix
from .errors import (
    CombinatorialBudgetExceeded,
    NonInvertibleMatrix,
    NotADHomomorphism,
    NotAUnit,
    NotFiniteDimensional,
)
from .polynomials import Polynomial
from .presented import PresentedRing
from .tower import OperatorTower
from .weil_d import DDescentResult, tau_d_forward, tau_d_inverse, verify_d_hom

DEFAULT_BUDGET = 2**20


def _multiplication_table(target: PresentedRing, basis):
    """``table[i][j]``: the pairs (m, c), m ascending, of the nonzero
    staircase coordinates c of basis[i] * basis[j].

    One normal form per unordered pair of staircase monomials.
    """
    field = target.field
    n = len(basis)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            product = Polynomial(field, {basis[i].mul(basis[j]): field.one})
            coords = target.coordinates(product, basis)
            table[i][j] = table[j][i] = tuple((m, c) for m, c in enumerate(coords) if c)
    return table


def _evaluate(rel: Polynomial, env: dict, field, table, unit):
    """Staircase coordinates of ``rel`` with every variable mapped by ``env``
    to a coordinate vector; each power is computed once per call."""
    out = [field.zero] * len(unit)
    powers = {}  # v -> [v, v^2, ...] as far as computed

    for m, c in rel.terms.items():
        piece = None
        for v, e in m.exps.items():
            chain = powers.get(v)
            if chain is None:
                chain = powers[v] = [env[v]]
            while len(chain) < e:
                chain.append(linear.vec_mul(field, table, chain[-1], env[v]))
            factor = chain[e - 1]
            piece = factor if piece is None else linear.vec_mul(field, table, piece, factor)
        if piece is None:
            piece = unit
        out = [field.add(a, field.mul(c, b)) for a, b in zip(out, piece)]
    return out


def enumerate_homs(source: PresentedRing, target: PresentedRing, fixed: dict = None,
                   budget: int = DEFAULT_BUDGET):
    """All algebra homomorphisms source -> target with some generators pinned.

    ``fixed`` maps pinned source variables to target elements (the shared
    base variables of a flattened tower, typically to themselves).  Returns
    a deterministically ordered list of {variable: image} dicts: each free
    variable runs over the target's elements, their staircase coordinate
    tuples in lexicographic order over 0..p-1, and the free variables
    together in ``itertools.product`` order; every image is a normal form.

    Candidates are checked in staircase coordinates over GF(p).  Each
    relation is evaluated once per assignment of the free variables it
    mentions (once in all for a relation on pinned variables alone), as
    soon as the last of them is assigned, so a failing relation prunes
    every candidate that extends the partial assignment.
    """
    fixed = dict(fixed or {})
    field = target.field
    p = field.characteristic
    if p == 0:
        raise NotFiniteDimensional("the coefficient field is infinite")
    basis = target.staircase()
    free = [v for v in source.variables if v not in fixed]
    candidates = (p ** len(basis)) ** len(free)
    if candidates > budget:
        raise CombinatorialBudgetExceeded(candidates, budget)
    # GF(p) scalars are canonical residues, so these need no normalizing
    vectors = list(itertools.product(range(p), repeat=len(basis)))
    table = _multiplication_table(target, basis)
    unit = target.coordinates(target.one, basis)
    pinned = {v: target.nf(fixed[v]) for v in source.variables if v in fixed}
    pinned_env = {v: target.coordinates(x, basis) for v, x in pinned.items()}
    position = {v: k for k, v in enumerate(free)}

    # checks[d]: the relations whose last mentioned free variable is the
    # d-th, each with its mentioned positions and its memo of outcomes
    checks = [[] for _ in range(len(free) + 1)]
    for rel in source.relations.generators:
        mentioned = sorted(position[v] for v in rel.variables() if v in position)
        checks[mentioned[-1] + 1 if mentioned else 0].append((rel, mentioned, {}))

    def holds(depth, chosen):
        for rel, mentioned, memo in checks[depth]:
            key = tuple(chosen[k] for k in mentioned)
            ok = memo.get(key)
            if ok is None:
                env = dict(pinned_env)
                env.update((free[k], vectors[chosen[k]]) for k in mentioned)
                value = _evaluate(rel, env, field, table, unit)
                ok = memo[key] = all(field.is_zero(x) for x in value)
            if not ok:
                return False
        return True

    elements = {}

    def element(index):
        poly = elements.get(index)
        if poly is None:
            poly = elements[index] = Polynomial(field, dict(zip(basis, vectors[index])))
        return poly

    def accepted(chosen):
        images = dict(pinned)
        images.update((v, element(i)) for v, i in zip(free, chosen))
        return {v: images[v] for v in source.variables}

    if not holds(0, ()):
        return []
    if not free:
        return [accepted(())]
    # odometer over the free variables, the last one turning fastest
    out = []
    chosen = [-1] * len(free)
    depth = 0
    while depth >= 0:
        chosen[depth] += 1
        if chosen[depth] == len(vectors):
            chosen[depth] = -1
            depth -= 1
        elif holds(depth + 1, chosen):
            if depth + 1 == len(free):
                out.append(accepted(chosen))
            else:
                depth += 1
    return out


def enumerate_descended_homs(result: DDescentResult, u_structure, budget: int = DEFAULT_BUDGET):
    """Operator homomorphisms W(C) -> R: enumerate algebra maps, then gate.

    Returns the gated maps, each as a pair (phi, psi) with
    psi = tau_d_forward(phi), the image the gate produced.
    """
    target = u_structure.carrier
    fixed = {
        v: Polynomial.variable(target.field, v)
        for v in result.c.tower.base_ring.variables
    }
    gated = []
    for phi in enumerate_homs(result.descended, target, fixed, budget):
        try:
            psi = tau_d_forward(phi, u_structure, result)
        except NotADHomomorphism:
            continue
        gated.append((phi, psi))
    return gated


def enumerate_upstairs_homs(result: DDescentResult, u_structure, budget: int = DEFAULT_BUDGET):
    """Operator homomorphisms C -> R (x) B over B: enumerate, then gate.

    Returns the gated maps; images are AlgebraElements over R.
    """
    c = result.c
    tower = c.tower
    target = u_structure.carrier
    ext = tower.algebra.base_change(target)
    flat_target = ext.flat_ring()
    fixed = {
        v: Polynomial.variable(flat_target.field, v) for v in tower.flat_b.variables
    }
    gated = []
    for psi_flat in enumerate_homs(c.flat_ring, flat_target, fixed, budget):
        psi = {g: ext.coordinatize(psi_flat[g]) for g in c.generators}
        if verify_d_hom(psi, result.c_structure, u_structure, result.matrix,
                        result.classical):
            gated.append(psi)
    return gated


def adjunction_audit(result: DDescentResult, u_structure, budget: int = DEFAULT_BUDGET) -> dict:
    """Element-by-element audit of the restricted Hom-set bijection.

    Each downstairs algebra map is gated once by ``tau_d_forward``; the psi
    that gate produced is matched against the gated upstairs maps and sent
    back by ``tau_d_inverse``, which verifies it again on its own.
    """
    target = u_structure.carrier
    downstairs = enumerate_descended_homs(result, u_structure, budget)
    upstairs = enumerate_upstairs_homs(result, u_structure, budget)
    c_gens = result.c.generators

    def psi_key(psi):
        # coordinates are normal forms over the target, so equal maps have
        # equal coordinate tuples
        return tuple(psi[g].coords for g in c_gens)

    upstairs_keys = {psi_key(psi): idx for idx, psi in enumerate(upstairs)}
    matched = set()
    forward_ok = True
    roundtrip_ok = True
    for phi, psi in downstairs:
        key = psi_key(psi)
        if key not in upstairs_keys:
            forward_ok = False
            continue
        matched.add(key)
        phi_back = tau_d_inverse(psi, u_structure, result)
        for name in result.descended.variables:
            if name in result.c.tower.base_ring.variables:
                continue
            if not target.equal(phi_back[name], phi[name]):
                roundtrip_ok = False
    surjective = len(matched) == len(upstairs_keys)
    return {
        "downstairs_count": len(downstairs),
        "upstairs_count": len(upstairs),
        "counts_equal": len(downstairs) == len(upstairs),
        "forward_lands_in_gated_set": forward_ok,
        "forward_injective_onto": surjective,
        "roundtrips_exactly": roundtrip_ok,
        "ok": (
            len(downstairs) == len(upstairs)
            and forward_ok
            and surjective
            and roundtrip_ok
        ),
    }


def adjoint_evidence(tower: OperatorTower, z_coords) -> dict:
    """Concrete obstruction evidence for a non-invertible matrix.

    For the structure on B[t] sending t to the given z in D(B), the unit of
    any would-be descent forces the linear system a = M x over A, where a
    collects the basis coordinates of z.  The report states the system and
    whether it is solvable over A.  M is the tower's own descent matrix
    (``associated_matrix``).  When the elimination stalls on a non-unit
    entry, solvability is undecided and NonInvertibleMatrix names that
    entry.
    """
    ring = tower.base_ring
    dm = associated_matrix(tower)
    rhs = dm.pack(beta.coords for beta in z_coords)
    try:
        solution = linear.solve(ring, dm.matrix.rows, rhs)
    except NotAUnit as exc:
        raise NonInvertibleMatrix(
            f"cannot decide solvability: non-unit entry {exc.element_repr}",
            dm.matrix.render(),
        ) from None
    report = {
        "generator": "t",
        "z": [[ring.render(c) for c in beta.coords] for beta in z_coords],
        "system_rhs": [ring.render(x) for x in rhs],
        "system_matrix": dm.render(),
        "solvable": solution is not None,
    }
    if solution is not None:
        report["solution"] = [ring.render(x) for x in solution]
    return report
