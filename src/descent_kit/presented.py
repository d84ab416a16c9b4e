"""Finitely presented commutative algebras over an exact field.

A ``PresentedRing`` is k[variables]/(relations) with the relations kept as
a reduced Groebner basis, so equality of elements is decidable via normal
forms.  The ring's variables and monomial order are those of its basis, so
its normal forms and its rendering share one order and one key memo.
Towers (an algebra over an algebra over k) are always flattened to a single
presentation over k.

A ring is built once per extension: ``extend`` keeps every ring it built
in a slot of the ring it extended, keyed by the new variables and the
nonzero new relations, and returns the same object when asked again.  New
variables go at the end of the monomial order, so the old relations stay a
Groebner basis and Buchberger starts from them as a known prefix.
``unit_inverse`` reuses that prefix too, and tracks only the cofactor of
the element it inverts.
"""

from __future__ import annotations

from .errors import CertificateFailure, NotAUnit, ParseError, VariableClash
from .groebner import GroebnerBasis, buchberger, buchberger_extended, normal_form, staircase
from .polynomials import DegRevLex, Polynomial, parse_polynomial, render
from .scalars import ScalarField


class PresentedRing:
    """k[variables]/(relations), with decidable element equality."""

    __slots__ = ("field", "variables", "relations", "order", "_extensions")

    def __init__(self, field: ScalarField, relations: GroebnerBasis):
        self.field = field
        self.relations = relations
        self.order = relations.order
        self.variables = self.order.variables
        self._extensions = {}

    @staticmethod
    def make(field, variables, relation_polys=()) -> "PresentedRing":
        return PresentedRing(field, buchberger(list(relation_polys), DegRevLex(variables)))

    @staticmethod
    def base_field(field: ScalarField) -> "PresentedRing":
        """The field k itself, presented with no variables."""
        return PresentedRing.make(field, ())

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PresentedRing)
            and self.field == other.field
            and self.variables == other.variables
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.relations))

    def __repr__(self):
        rel = ", ".join(render(g, self.order) for g in self.relations.generators)
        return f"{self.field}[{', '.join(self.variables)}]/({rel})"

    # -- elements -------------------------------------------------------------

    def nf(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.relations)

    def is_zero(self, p: Polynomial) -> bool:
        return self.nf(p).is_zero()

    def equal(self, p: Polynomial, q: Polynomial) -> bool:
        return self.nf(p - q).is_zero()

    def mul(self, p: Polynomial, q: Polynomial) -> Polynomial:
        """The normal form of p * q."""
        return self.nf(p * q)

    def sub(self, p: Polynomial, q: Polynomial) -> Polynomial:
        """The normal form of p - q."""
        return self.nf(p - q)

    @property
    def zero(self) -> Polynomial:
        return Polynomial.zero(self.field)

    @property
    def one(self) -> Polynomial:
        return Polynomial.constant(self.field, 1)

    def constant(self, c) -> Polynomial:
        return Polynomial.constant(self.field, c)

    def var(self, name: str) -> Polynomial:
        if name not in self.variables:
            raise ValueError(f"{name!r} is not a variable of {self!r}")
        return Polynomial.variable(self.field, name)

    def el(self, text: str) -> Polynomial:
        """Parse an element from the term grammar and normalize it.  A text
        that does not parse, or that names a variable the ring lacks, raises
        ParseError."""
        p = parse_polynomial(text, self.field)
        extra = p.variables() - set(self.variables)
        if extra:
            raise ParseError(f"unknown variables {sorted(extra)} in {text!r}")
        return self.nf(p)

    def render(self, p: Polynomial) -> str:
        return render(self.nf(p), self.order)

    # -- units ----------------------------------------------------------------

    def unit_inverse(self, a: Polynomial) -> Polynomial:
        """The inverse of ``a`` modulo the relations, if 1 lies in (a)+relations.

        A nonzero constant normal form c is inverted in the field.
        Otherwise a Groebner run on the relations (a known prefix) plus
        ``a`` tracks the cofactor of ``a`` alone; when 1 is in the ideal,
        that cofactor is the inverse.  Raises NotAUnit when it is not.
        """
        a = self.nf(a)
        if a.is_constant() and not a.is_zero():
            return self.constant(self.field.inv(a.constant_value()))
        inputs = list(self.relations.generators) + [a]
        gb, cofs = buchberger_extended(inputs, self.order, known=len(self.relations))
        for g, vec in zip(gb.generators, cofs):
            if g.is_constant() and not g.is_zero():
                c = g.constant_value()
                z = self.nf(vec[0].scale(self.field.inv(c)))
                if not self.equal(a * z, self.one):
                    raise CertificateFailure("unit_inverse", "a * inverse is not 1")
                return z
        raise NotAUnit(self.render(a))

    def is_unit(self, a: Polynomial) -> bool:
        try:
            self.unit_inverse(a)
            return True
        except NotAUnit:
            return False

    # -- vector-space structure -------------------------------------------------

    def staircase(self):
        """Monomial basis of the quotient as a k-vector space (if finite)."""
        return staircase(self.relations)

    def coordinates(self, p: Polynomial, basis) -> list:
        """Coordinates of nf(p) in a staircase monomial basis."""
        p = self.nf(p)
        index = {m: i for i, m in enumerate(basis)}
        out = [self.field.zero] * len(basis)
        for m, c in p.terms.items():
            out[index[m]] = c
        return out

    # -- construction of larger rings -------------------------------------------

    def extend(self, new_vars, new_relation_polys=()) -> "PresentedRing":
        """Adjoin variables and relations, flattening the tower over k.

        The same new variables and nonzero relations give the same ring
        object: it is built once and kept on this ring.  An extension that
        adds nothing is this ring itself.
        """
        new_vars = tuple(new_vars)
        for v in new_vars:
            if v in self.variables:
                raise VariableClash(f"variable {v!r} already present")
        new_rels = tuple(p for p in new_relation_polys if not p.is_zero())
        if not new_vars and not new_rels:
            return self
        key = (new_vars, new_rels)
        ring = self._extensions.get(key)
        if ring is None:
            known = self.relations.generators
            gb = buchberger(known + new_rels, DegRevLex(self.variables + new_vars),
                            known=len(known))
            ring = self._extensions[key] = PresentedRing(self.field, gb)
        return ring
