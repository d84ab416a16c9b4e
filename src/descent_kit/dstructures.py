"""Operator structures on presented rings.

A ``DStructure`` is an algebra homomorphism e from a presented carrier into
carrier (x) D, recorded by the coordinate images of each generator in a
fixed basis of the coefficient algebra D.  Applying e to an arbitrary
element is homomorphic evaluation; the coordinate maps e_j and their word
compositions fall out of that.
"""

from __future__ import annotations

from .dalgebra import DCoefficientAlgebra, difference_algebra
from .errors import (
    BaseMismatch,
    NotDIdeal,
    NotWellDefined,
    ResourceLimit,
    TruncationExceeded,
)
from .groebner import buchberger
from .polynomials import Polynomial, render
from .presented import PresentedRing
from .structure import _wrap, evaluate_poly


class DStructure:
    """Coordinate images of each carrier generator under e: R -> R (x) D."""

    __slots__ = ("carrier", "coeff", "images", "base", "_ext", "_certificates", "_applied")

    def __init__(self, carrier: PresentedRing, coeff: DCoefficientAlgebra, images, base=None):
        self.carrier = carrier
        self.coeff = coeff
        self.base = base
        norm = {}
        for v, vec in images.items():
            if v not in carrier.variables:
                raise ValueError(f"image given for unknown variable {v!r}")
            if vec is None:
                norm[v] = None  # unassigned (truncated window boundary)
            else:
                vec = tuple(carrier.nf(c) for c in vec)
                if len(vec) != coeff.dim:
                    raise ValueError(f"image of {v!r} must have {coeff.dim} coordinates")
                norm[v] = vec
        for v in carrier.variables:
            if v not in norm:
                raise ValueError(f"no image for variable {v!r}")
        self.images = norm
        self._ext = coeff.algebra.base_change(carrier)
        self._certificates = None
        self._applied = {}

    @staticmethod
    def identity(carrier: PresentedRing, coeff: DCoefficientAlgebra) -> "DStructure":
        """e(x) = x (x) 1: every coordinate operator is a scalar of the identity."""
        images = {
            v: tuple(
                Polynomial.variable(carrier.field, v).scale(u) for u in coeff.unit
            )
            for v in carrier.variables
        }
        return DStructure(carrier, coeff, images)

    @staticmethod
    def difference(carrier: PresentedRing, endo_images: dict) -> "DStructure":
        """A single-endomorphism structure (coefficient algebra k)."""
        coeff = difference_algebra(carrier.field)
        return DStructure(carrier, coeff, {v: (p,) for v, p in endo_images.items()})

    def _image_element(self, v: str):
        vec = self.images[v]
        if vec is None:
            raise TruncationExceeded(f"no operator image assigned to {v!r}")
        # the coordinates are normal forms over the carrier, set in __init__
        return _wrap(self._ext, vec)

    def apply(self, x: Polynomial):
        """e(x) as an element of carrier (x) D (an l-vector over the carrier).

        Each distinct input is evaluated once per structure; the image is
        kept on the structure, the way the validation certificate is.
        """
        image = self._applied.get(x)
        if image is None:
            env = {v: self._image_element(v) for v in x.variables()}
            image = self._applied[x] = evaluate_poly(x, env, self._ext)
        return image

    def coordinate_op(self, j: int, x: Polynomial) -> Polynomial:
        """The coordinate operator e_j (1-based j, matching the basis order)."""
        return self.apply(x).coords[j - 1]

    def agrees_with(self, other: "DStructure", variables) -> bool:
        """Does ``other``, a structure on the same carrier, give every one of
        ``variables`` the same image as this structure, coordinate by
        coordinate?"""
        equal = self.carrier.equal
        return all(equal(a, b) for v in variables
                   for a, b in zip(self.images[v], other.images[v]))

    # -- validation --------------------------------------------------------------

    def validate(self):
        """Certify well-definedness on the presentation and base compatibility.

        Runs once per object; later calls return a copy of the certificate.
        """
        if self._certificates is not None:
            return [dict(c) for c in self._certificates]
        certificates = []
        for gamma in self.carrier.relations.generators:
            try:
                image = self.apply(gamma)
            except TruncationExceeded:
                continue  # relations never touch window-boundary variables
            for j, c in enumerate(image.coords):
                if not c.is_zero():
                    raise NotWellDefined(render(gamma, self.carrier.order), j + 1)
        certificates.append({"check": "well_defined_on_relations", "ok": True})
        if self.base is not None:
            if self.base.coeff != self.coeff:
                raise BaseMismatch("base structure uses a different coefficient algebra")
            for v in self.base.carrier.variables:
                base_vec = self.base.images[v]
                vec = self.images[v]
                if vec is None or base_vec is None:
                    raise BaseMismatch(f"unassigned image for base variable {v!r}")
                for a, b in zip(vec, base_vec):
                    if not self.carrier.equal(a, b):
                        raise BaseMismatch(v)
            certificates.append({"check": "extends_base_structure", "ok": True})
        self._certificates = certificates
        return [dict(c) for c in certificates]

    # -- ideals and quotients ------------------------------------------------------

    def is_d_ideal(self, ideal_gens) -> bool:
        """Does every coordinate operator map the ideal into itself?

        Checked on the given generators; that suffices because the
        coordinatewise image of an ideal generates an ideal of carrier (x) D.
        Each image is computed on the carrier and reduced modulo a Groebner
        basis of its own, never a ring that ``extend`` has kept, so this
        check shares no basis with ``quotient``.
        """
        carrier = self.carrier
        gens = [carrier.nf(g) for g in ideal_gens]
        known = carrier.relations.generators
        basis = buchberger(known + tuple(gens), carrier.order, known=len(known))
        quotient = PresentedRing(carrier.field, basis)
        return all(quotient.is_zero(c) for g in gens for c in self.apply(g).coords)

    def quotient(self, ideal_gens) -> "DStructure":
        """The induced structure on carrier/(ideal); requires a D-ideal.

        The new carrier comes from ``carrier.extend``, so it is the ring
        already built for the same ideal (the descended ring of a Weil
        descent, for one).  The induced structure is built first, and the
        closure check runs on it: reduction modulo the ideal I is a ring map,
        so e(g) lies in I (x) D exactly when the induced image of g is zero.
        Its products are reduced modulo the larger basis as they are formed.
        """
        gens = [self.carrier.nf(g) for g in ideal_gens]
        new_carrier = self.carrier.extend((), gens)
        # the constructor reduces the images modulo the new relations
        induced = DStructure(new_carrier, self.coeff, self.images, base=self.base)
        if not all(induced.apply(g).is_zero() for g in gens):
            raise NotDIdeal("the ideal is not closed under the coordinate operators")
        return induced



# the most variables a truncated window may adjoin
MAX_WINDOW_VARIABLES = 2**14


def truncated_operator_polynomials(base_structure: DStructure, names, depth: int):
    """A finite window of the free operator-polynomial algebra.

    Adjoins variables ``t_w`` for every name t and operator word w of length
    at most ``depth``; e sends ``t_w`` to sum_j t_wj eps_j while it fits in
    the window, and variables at the boundary have unassigned images (using
    them raises TruncationExceeded).  The window has names x (1 + l + ... +
    l^depth) variables; each level of words is counted before it is built,
    and ResourceLimit is raised when the count passes MAX_WINDOW_VARIABLES.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    coeff = base_structure.coeff
    l = coeff.dim
    carrier = base_structure.carrier

    def var_name(name, word):
        return name if not word else f"{name}_{''.join(str(c) for c in word)}"

    words = [()]
    frontier = [()]
    for _ in range(depth if names else 0):
        if len(names) * (len(words) + l * len(frontier)) > MAX_WINDOW_VARIABLES:
            raise ResourceLimit(
                f"the operator-polynomial window of depth {depth} with {len(names)} name(s)"
                f" and l = {l} has more than {MAX_WINDOW_VARIABLES} variables"
            )
        frontier = [w + (j,) for w in frontier for j in range(1, l + 1)]
        words.extend(frontier)
    new_vars = [var_name(n, w) for n in names for w in words]
    ring = carrier.extend(tuple(new_vars))

    images = {v: base_structure.images[v] for v in carrier.variables}
    for n in names:
        for w in words:
            if len(w) < depth:
                images[var_name(n, w)] = tuple(
                    Polynomial.variable(ring.field, var_name(n, w + (j,)))
                    for j in range(1, l + 1)
                )
            else:
                images[var_name(n, w)] = None
    return DStructure(ring, coeff, images, base=base_structure)
