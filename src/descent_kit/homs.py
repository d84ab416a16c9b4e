"""Brute-force homomorphism enumeration and the left-adjoint obstruction.

Over a finite field with a finite-dimensional target, all algebra maps out
of a finitely presented source can be enumerated by trying every
assignment of generators to staircase combinations.  That turns the
Hom-set bijection of the descent into a checkable statement, and the
linear system behind a non-invertible matrix into concrete evidence that
no descent can exist.
"""

from __future__ import annotations

import itertools

from .errors import (
    CombinatorialBudgetExceeded,
    NonInvertibleMatrix,
    NotADHomomorphism,
    NotAUnit,
    NotFiniteDimensional,
)
from .matrices import RingMatrix
from .polynomials import Polynomial
from .presented import PresentedRing
from .tower import OperatorTower
from .weil_d import DDescentResult, tau_d_forward, tau_d_inverse, verify_d_hom

DEFAULT_BUDGET = 2**20


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


def enumerate_homs(source: PresentedRing, target: PresentedRing, fixed: dict = None,
                   budget: int = DEFAULT_BUDGET):
    """All algebra homomorphisms source -> target with some generators pinned.

    ``fixed`` maps pinned source variables to target elements (the shared
    base variables of a flattened tower, typically to themselves).  Returns
    a deterministically ordered list of {variable: image} dicts.
    """
    fixed = dict(fixed or {})
    p = target.field.characteristic
    if p == 0:
        raise NotFiniteDimensional("the coefficient field is infinite")
    basis = target.staircase()
    free = [v for v in source.variables if v not in fixed]
    candidates = (p ** len(basis)) ** len(free)
    if candidates > budget:
        raise CombinatorialBudgetExceeded(candidates, budget)
    elements = target_elements(target)
    relations = source.relations.generators
    out = []
    for images in itertools.product(elements, repeat=len(free)):
        env = dict(fixed)
        env.update(zip(free, images))
        if all(target.is_zero(rel.substitute(env)) for rel in relations):
            out.append({v: target.nf(env[v]) for v in source.variables})
    return out


def enumerate_descended_homs(result: DDescentResult, u_structure, budget: int = DEFAULT_BUDGET):
    """Operator homomorphisms W(C) -> R: enumerate algebra maps, then gate."""
    target = u_structure.carrier
    fixed = {
        v: Polynomial.variable(target.field, v)
        for v in result.classical.source.tower.base_ring.variables
    }
    algebra_homs = enumerate_homs(result.descended, target, fixed, budget)
    gated = []
    for phi in algebra_homs:
        try:
            tau_d_forward(phi, u_structure, result)
        except NotADHomomorphism:
            continue
        gated.append(phi)
    return gated, algebra_homs


def enumerate_upstairs_homs(result: DDescentResult, u_structure, budget: int = DEFAULT_BUDGET):
    """Operator homomorphisms C -> R (x) B over B: enumerate, then gate.

    Returns (gated, all_b_algebra_homs); images are AlgebraElements over R.
    """
    c = result.classical.source
    tower = c.tower
    target = u_structure.carrier
    ext = tower.algebra.base_change(target)
    flat_target = ext.flat_ring()
    fixed = {
        v: Polynomial.variable(flat_target.field, v) for v in tower.flat_b.variables
    }
    algebra_homs = enumerate_homs(c.flat_ring, flat_target, fixed, budget)
    all_homs, gated = [], []
    for psi_flat in algebra_homs:
        psi = {g: ext.coordinatize(psi_flat[g]) for g in c.generators}
        all_homs.append(psi)
        if verify_d_hom(psi, result.c_structure, u_structure, result.matrix,
                        result.classical):
            gated.append(psi)
    return gated, all_homs


def adjunction_audit(result: DDescentResult, u_structure, budget: int = DEFAULT_BUDGET) -> dict:
    """Element-by-element audit of the restricted Hom-set bijection."""
    target = u_structure.carrier
    downstairs, _ = enumerate_descended_homs(result, u_structure, budget)
    upstairs, _ = enumerate_upstairs_homs(result, u_structure, budget)
    c_gens = result.classical.source.generators

    def psi_key(psi):
        return tuple(
            tuple(target.render(c) for c in psi[g].coords) for g in c_gens
        )

    upstairs_keys = {psi_key(psi): idx for idx, psi in enumerate(upstairs)}
    matched = set()
    forward_ok = True
    roundtrip_ok = True
    for phi in downstairs:
        psi = tau_d_forward(phi, u_structure, result)
        key = psi_key(psi)
        if key not in upstairs_keys:
            forward_ok = False
            continue
        matched.add(key)
        phi_back = tau_d_inverse(psi, u_structure, result)
        for name in result.descended.variables:
            if name in result.classical.source.tower.base_ring.variables:
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


def adjoint_evidence(tower: OperatorTower, z_coords, gen_name: str = "t") -> dict:
    """Concrete obstruction evidence for a non-invertible matrix.

    For the structure on B[t] sending t to the given z in D(B), the unit of
    any would-be descent forces the linear system a = M x over A, where a
    collects the basis coordinates of z.  The report states the system and
    whether it is solvable over A.
    """
    from .descent_matrix import associated_matrix

    ring = tower.base_ring
    r, l = tower.rank, tower.coeff.dim
    dm = associated_matrix(tower)
    rhs = [None] * (r * l)
    for j in range(l):
        beta = z_coords[j]
        for i in range(r):
            rhs[dm.position(i, j)] = ring.nf(beta.coords[i])
    solution = _solve_over_ring(dm.matrix, rhs)
    report = {
        "generator": gen_name,
        "z": [[ring.render(c) for c in beta.coords] for beta in z_coords],
        "system_rhs": [ring.render(x) for x in rhs],
        "system_matrix": dm.render(),
        "solvable": solution is not None,
    }
    if solution is not None:
        report["solution"] = [ring.render(x) for x in solution]
    return report


def _solve_over_ring(matrix: RingMatrix, rhs):
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
