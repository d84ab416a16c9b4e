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
    CarrierMismatch,
    NotDIdeal,
    NotWellDefined,
    TruncationExceeded,
)
from .polynomials import Polynomial, render
from .presented import PresentedRing, tensor_presented
from .structure import evaluate_poly


class DStructure:
    """Coordinate images of each carrier generator under e: R -> R (x) D."""

    __slots__ = ("carrier", "coeff", "images", "base", "_ext", "_certificates")

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
        self._ext = coeff.over(carrier)
        self._certificates = None

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
    def difference(carrier: PresentedRing, endo_images: dict, base=None) -> "DStructure":
        """A single-endomorphism structure (coefficient algebra k)."""
        coeff = difference_algebra(carrier.field)
        return DStructure(carrier, coeff, {v: (p,) for v, p in endo_images.items()}, base)

    def _image_element(self, v: str):
        vec = self.images[v]
        if vec is None:
            raise TruncationExceeded(f"no operator image assigned to {v!r}")
        return self._ext.element(vec)

    def apply(self, x: Polynomial):
        """e(x) as an element of carrier (x) D (an l-vector over the carrier)."""
        env = {v: self._image_element(v) for v in x.variables()}
        return evaluate_poly(x, env, self._ext)

    def coordinate_op(self, j: int, x: Polynomial) -> Polynomial:
        """The coordinate operator e_j (1-based j, matching the basis order)."""
        return self.apply(x).coords[j - 1]

    def word_apply(self, word, x: Polynomial) -> Polynomial:
        """e_theta(x): letters act left to right, the empty word is the identity."""
        letters = [int(ch) for ch in word] if isinstance(word, str) else list(word)
        out = self.carrier.nf(x)
        for letter in letters:
            if not 1 <= letter <= self.coeff.dim:
                raise ValueError(f"letter {letter} outside 1..{self.coeff.dim}")
            out = self.coordinate_op(letter, out)
        return out

    # -- associated endomorphisms ---------------------------------------------

    def associated_images(self, factor: int) -> dict:
        """Generator images of the associated endomorphism sigma_factor (0-based)."""
        pi = self.coeff.projections[factor]
        out = {}
        for v in self.carrier.variables:
            vec = self.images[v]
            if vec is None:
                raise TruncationExceeded(f"no operator image assigned to {v!r}")
            acc = self.carrier.zero
            for k, c in enumerate(pi):
                if not self.carrier.field.is_zero(c):
                    acc = acc + vec[k].scale(c)
            out[v] = self.carrier.nf(acc)
        return out

    def associated_endomorphisms(self):
        """One difference structure per local factor of the coefficient algebra."""
        out = []
        base = None
        if self.base is not None:
            base = self.base.associated_endomorphisms()
        for i in range(self.coeff.factor_count):
            out.append(
                DStructure.difference(
                    self.carrier,
                    self.associated_images(i),
                    base=None if base is None else base[i],
                )
            )
        return out

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
        """
        gens = [self.carrier.nf(g) for g in ideal_gens]
        quotient = self.carrier.extend((), gens, base_vars=self.carrier.base_vars)
        return self._maps_into(gens, quotient)

    def quotient(self, ideal_gens) -> "DStructure":
        """The induced structure on carrier/(ideal); requires a D-ideal."""
        gens = [self.carrier.nf(g) for g in ideal_gens]
        new_carrier = self.carrier.extend((), gens, base_vars=self.carrier.base_vars)
        if not self._maps_into(gens, new_carrier):
            raise NotDIdeal("the ideal is not closed under the coordinate operators")
        images = {
            v: None if vec is None else tuple(new_carrier.nf(c) for c in vec)
            for v, vec in self.images.items()
        }
        return DStructure(new_carrier, self.coeff, images, base=self.base)

    def _maps_into(self, gens, quotient: PresentedRing) -> bool:
        """Does e send every generator into the ideal presented by ``quotient``?"""
        return all(
            quotient.is_zero(c) for g in gens for c in self.apply(g).coords
        )

    # -- tensor products -------------------------------------------------------------

    def tensor(self, other: "DStructure"):
        """The unique structure on S (x)_R T extending both factors.

        Both structures must extend the same structure on the shared base
        presentation.  Returns (structure, map_S, map_T).
        """
        if self.coeff != other.coeff:
            raise CarrierMismatch("tensor factors use different coefficient algebras")
        if self.carrier.base_vars != other.carrier.base_vars:
            raise BaseMismatch("tensor factors have different base presentations")
        for v in self.carrier.base_vars:
            for a, b in zip(self.images[v], other.images[v]):
                if (a is None) or (b is None) or not self.carrier.equal(a, self.carrier.nf(b)):
                    raise BaseMismatch(f"images of base variable {v!r} disagree")
        ring, map_s, map_t = tensor_presented(self.carrier, other.carrier)
        field = ring.field

        def push(vec, mapping):
            if vec is None:
                return None
            subs = {v: Polynomial.variable(field, w) for v, w in mapping.items()}
            return tuple(c.substitute(subs) for c in vec)

        images = {}
        for v in self.carrier.variables:
            images[map_s[v]] = push(self.images[v], map_s)
        for v in other.carrier.variables:
            images.setdefault(map_t[v], push(other.images[v], map_t))
        return DStructure(ring, self.coeff, images, base=self.base), map_s, map_t


def truncated_operator_polynomials(base_structure: DStructure, names, depth: int):
    """A finite window of the free operator-polynomial algebra.

    Adjoins variables ``t_w`` for every name t and operator word w of length
    at most ``depth``; e sends ``t_w`` to sum_j t_wj eps_j while it fits in
    the window, and variables at the boundary have unassigned images (using
    them raises TruncationExceeded).
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
    for _ in range(depth):
        frontier = [w + (j,) for w in frontier for j in range(1, l + 1)]
        words.extend(frontier)
    new_vars = [var_name(n, w) for n in names for w in words]
    ring = carrier.extend(tuple(new_vars), (), base_vars=carrier.base_vars)

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
