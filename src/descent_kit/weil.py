"""Classical Weil restriction of a finitely presented algebra over B.

Given C = B[T]/(relations) with B free of rank r over A, the descended
algebra lives on r copies x(1)..x(r) of each generator x.  Substituting
x -> sum_i x(i) b_i into each relation and reading off basis coordinates
yields the descent ideal; the descended presentation is the quotient by
it.  The unit map x -> sum_i x(i) (x) b_i realizes one direction of the
Hom-set bijection, coordinate extraction the other.

W(C) depends only on C as a B-algebra, not on any operator structure or
tower, so a ``WeilDescentResult`` holds B, C's generators and C's flat
relations and nothing more: one object serves every structure on C, over
every tower with the same module algebra B.
"""

from __future__ import annotations

from .errors import CertificateFailure, NotAHomomorphism
from .polynomials import Polynomial, render
from .presented import PresentedRing
from .structure import AlgebraElement, StructureAlgebra
from .tower import PresentedBAlgebra


class WeilDescentResult:
    """The descended presentation, the descent ideal, and the unit map of
    C = B[generators]/(relations_flat), with B the module algebra."""

    __slots__ = ("algebra", "generators", "relations_flat", "descended", "ideal_generators",
                 "copy_names", "pre_ring", "_unit_maps")

    def __init__(self, algebra: StructureAlgebra, generators, relations_flat, copy_names,
                 pre_ring):
        self.algebra = algebra
        self.generators = generators
        self.relations_flat = relations_flat
        self.descended = None
        self.ideal_generators = ()
        self.copy_names = copy_names
        self.pre_ring = pre_ring
        self._unit_maps = {}

    def unit_map(self, ring: PresentedRing = None) -> dict:
        """The unit map {x: sum_i x(i) b_i} into W(C) (x) B (or into R (x) B
        for a supplied R that holds the copy variables).

        Built once per ring object and kept (each image keeps its ring
        alive, so the id cannot be reused); callers must not mutate it.
        """
        target = ring if ring is not None else self.descended
        units = self._unit_maps.get(id(target))
        if units is None:
            algebra = self.tensor_algebra(target)
            field = target.field
            units = self._unit_maps[id(target)] = {
                g: algebra.element([Polynomial.variable(field, name) for name in names])
                for g, names in self.copy_names.items()
            }
        return units

    def tensor_algebra(self, ring: PresentedRing = None) -> StructureAlgebra:
        """W(C) (x)_A B (or R (x)_A B for a supplied R)."""
        target = ring if ring is not None else self.descended
        return self.algebra.base_change(target)

    def evaluate_under_unit(self, flat: Polynomial, ring: PresentedRing = None) -> AlgebraElement:
        """Push a flat element of B[T] through the unit map into W(C) (x) B
        (or into R (x) B for a supplied R)."""
        return self.tensor_algebra(ring).coordinatize(flat, self.unit_map(ring))

    def pinned_env(self, images: dict, field) -> dict:
        """``images`` of the copy variables, with A's variables sent to themselves."""
        env = dict(images)
        for v in self.algebra.base.variables:
            env.setdefault(v, Polynomial.variable(field, v))
        return env

    def ideal_violation(self, env: dict, target: PresentedRing):
        """The first generator of the descent ideal that ``env`` does not send
        to zero in ``target``, or None when it kills them all."""
        for rel in self.descended.relations.generators:
            if not target.is_zero(rel.substitute(env)):
                return rel
        return None


def weil_descend(c: PresentedBAlgebra) -> WeilDescentResult:
    """Compute W(C): presentation, descent ideal, unit map."""
    tower = c.tower
    a_ring = tower.base_ring
    r = tower.rank
    copy_names = {g: tuple(f"{g}({i})" for i in range(1, r + 1)) for g in c.generators}
    all_names = [name for g in c.generators for name in copy_names[g]]
    pre_ring = a_ring.extend(tuple(all_names), (), base_vars=a_ring.variables)

    # the descent ideal is read off the unit map on pre_ring, so the result
    # holds that map before its descended ring exists
    result = WeilDescentResult(tower.algebra, c.generators, c.relations_flat, copy_names,
                               pre_ring)
    algebra_pre, unit_env = result.tensor_algebra(pre_ring), result.unit_map(pre_ring)
    result.ideal_generators = tuple(
        coord for rel in c.relations_flat
        for coord in algebra_pre.coordinatize(rel, unit_env).coords
    )
    # the descended ring is the pre-quotient ring's extension by the ideal, so
    # a quotient of a structure on pre_ring by the same ideal is this object
    result.descended = pre_ring.extend((), result.ideal_generators, base_vars=a_ring.variables)

    # the unit map must kill every relation of C in W(C) (x) B
    for rel in c.relations_flat:
        image = result.evaluate_under_unit(rel)
        if not image.is_zero():
            raise CertificateFailure(
                "classical_descent", "unit map does not kill a defining relation"
            )
    return result


def tau_forward(phi_images: dict, target: PresentedRing, result: WeilDescentResult) -> dict:
    """Turn phi: W(C) -> R into the B-algebra map C -> R (x) B.

    ``phi_images`` maps each copy variable x(i) to an element of the target;
    base variables are pinned to themselves.  Raises NotAHomomorphism when
    phi does not kill the descent ideal.
    """
    env = result.pinned_env(phi_images, target.field)
    for gen in result.descended.variables:
        if gen not in env:
            raise ValueError(f"no image supplied for {gen!r}")
    rel = result.ideal_violation(env, target)
    if rel is not None:
        raise NotAHomomorphism(
            f"image of descent-ideal element {render(rel, result.descended.order)} is nonzero"
        )
    ext = result.tensor_algebra(target)
    psi = {}
    for g in result.generators:
        psi[g] = ext.element([env[name] for name in result.copy_names[g]])
    # re-check: psi kills the relations of C inside R (x) B
    for rel in result.relations_flat:
        if not ext.coordinatize(rel, psi).is_zero():
            raise NotAHomomorphism("induced map does not kill a relation of C")
    return psi


def tau_inverse(psi_images: dict, target: PresentedRing, result: WeilDescentResult) -> dict:
    """Extract phi: W(C) -> R from the B-algebra map psi: C -> R (x) B.

    ``psi_images`` maps each generator of C to an AlgebraElement over the
    target.  The returned dict maps each copy variable x(i) to lambda_i of
    psi(x).
    """
    ext = result.tensor_algebra(target)
    for rel in result.relations_flat:
        if not ext.coordinatize(rel, psi_images).is_zero():
            raise NotAHomomorphism("psi does not kill a relation of C")
    phi = {}
    for g in result.generators:
        el = psi_images[g]
        for i, name in enumerate(result.copy_names[g]):
            phi[name] = el.coords[i]
    if result.ideal_violation(result.pinned_env(phi, target.field), target) is not None:
        raise NotAHomomorphism("coordinate map does not kill the descent ideal")
    return phi
