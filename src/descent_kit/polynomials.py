"""Sparse multivariate polynomials over an exact field.

Monomials map variable names to positive exponents.  A polynomial does not
own a monomial order; orders are supplied where they matter (Groebner bases,
canonical rendering) as a ``DegRevLex`` built over an explicit variable
sequence, which fixes the global variable numbering.

There is one ``Monomial`` object per exponent map.  Every route that makes
a monomial (the constructor, products, quotients, lcms, copies and
unpickling) returns the object kept in ``_INTERN``, keyed by the sorted
``(name, exponent)`` tuple, so monomials compare and hash by identity and
dict and set operations on them stay in C.  Each monomial also carries a
divisibility mask with one bit per variable name, the bits drawn from
``_BITS`` (Singular's short exponent vectors: Bachmann & Schoenemann,
ISSAC 1998), so that most failing divisibility tests cost one AND.  Both
tables are process-wide on purpose: a monomial's identity and its mask
must mean the same thing in every ring and every Groebner basis of a run,
since rings share variable names and pass terms between each other.
"""

from __future__ import annotations

import weakref

from .errors import ParseError
from .scalars import ScalarField

_INTERN = {}  # sorted (name, exponent) tuple -> its one Monomial
_BITS = {}  # variable name -> its bit in every mask


def _intern(key: tuple, degree: int) -> "Monomial":
    """The monomial of the sorted, zero-free exponent tuple ``key`` (of total
    degree ``degree``), made and kept on first sight."""
    m = _INTERN.get(key)
    if m is None:
        mask = 0
        for v, _ in key:
            bit = _BITS.get(v)
            if bit is None:
                bit = _BITS[v] = 1 << len(_BITS)
            mask |= bit
        m = object.__new__(Monomial)
        m.exps = dict(key)
        m.degree = degree
        m.mask = mask
        m._key = key
        m._products = {}
        _INTERN[key] = m
    return m


class Monomial:
    """A power product, stored as a name->exponent map with no zero entries.

    Monomials are interned: equal exponent maps give the same object, so
    ``==`` and ``hash`` are those of identity.  ``exps`` is shared and must
    never be mutated.  ``mask`` has the bit of every variable that occurs,
    so ``a`` cannot divide ``b`` when ``a.mask & ~b.mask`` is nonzero.
    ``_products`` maps each monomial this one has been multiplied by to the
    product, so each product is formed once per run.

    The public constructor checks and sorts what it is given; products,
    quotients and lcms are built through ``_canonical``, which trusts its
    input and sorts once.
    """

    __slots__ = ("exps", "degree", "mask", "_key", "_products")

    def __new__(cls, exps=()):
        if isinstance(exps, dict):
            items = exps.items()
        else:
            items = exps
        key = tuple(sorted((v, e) for v, e in items if e != 0))
        degree = 0
        for v, e in key:
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
            degree += e
        return _intern(key, degree)

    @staticmethod
    def _canonical(exps: dict, degree: int) -> "Monomial":
        """The monomial of ``exps`` (positive exponents only) of total degree
        ``degree``, both already known to be right."""
        return _intern(tuple(sorted(exps.items())), degree)

    def __reduce__(self):
        return Monomial, (self._key,)

    def __repr__(self):
        if not self._key:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self._key)

    def is_one(self) -> bool:
        return not self.exps

    def variables(self):
        return set(self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        m = self._products.get(other)
        if m is not None:
            return m
        if not other.degree:
            return self
        if not self.degree:
            return other
        exps = dict(self.exps)
        get = exps.get
        for v, e in other.exps.items():
            exps[v] = get(v, 0) + e
        m = self._products[other] = Monomial._canonical(exps, self.degree + other.degree)
        return m

    def divides(self, other: "Monomial") -> bool:
        if self.mask & ~other.mask or self.degree > other.degree:
            return False
        get = other.exps.get
        for v, e in self.exps.items():
            if get(v, 0) < e:
                return False
        return True

    def divide(self, other: "Monomial") -> "Monomial":
        """self / other; caller must ensure divisibility."""
        exps = dict(self.exps)
        for v, e in other.exps.items():
            e = exps[v] - e
            if e:
                exps[v] = e
            else:
                del exps[v]
        return Monomial._canonical(exps, self.degree - other.degree)

    def lcm(self, other: "Monomial") -> "Monomial":
        exps = dict(self.exps)
        get = exps.get
        degree = self.degree
        for v, e in other.exps.items():
            old = get(v, 0)
            if e > old:
                exps[v] = e
                degree += e - old
        return Monomial._canonical(exps, degree)


ONE = Monomial()


def add_multiple(terms: dict, p_terms: dict, c, field: ScalarField, m: Monomial = None) -> None:
    """terms += c * m * p in place, for a term dict, the terms of p, a field
    scalar c and a monomial m (None or degree 0 means 1); coefficients that
    cancel are dropped.

    The field arithmetic is inline: one ``% p`` per term over GF(p), plain
    int/Fraction arithmetic over QQ.  A shifted term is read from the
    product slot of ``m`` and formed through ``Monomial.mul`` only the first
    time.
    """
    p = field.characteristic
    get, pop = terms.get, terms.pop
    shift = m is not None and m.degree
    if shift:
        products, mul = m._products.get, m.mul
    if p:
        for pm, pc in p_terms.items():
            if shift:
                pm = products(pm) or mul(pm)
            s = (get(pm, 0) + pc * c) % p
            if s:
                terms[pm] = s
            else:
                pop(pm, None)
    else:
        for pm, pc in p_terms.items():
            if shift:
                pm = products(pm) or mul(pm)
            s = get(pm, 0) + pc * c
            if s:
                terms[pm] = s
            else:
                pop(pm, None)


def power(x, n: int):
    """x ** n for n >= 1 by square-and-multiply, for any x with ``*``: a
    polynomial or an element of a structure algebra.  The product x * x
    is not formed when n is 1, so x ** 1 is x itself."""
    if n < 1:
        raise ValueError(f"power needs n >= 1, got {n}")
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


class _KeyMemo(dict):
    """Order keys by monomial; a missing key is computed by ``order.key``
    once and kept.  The memo holds its order weakly, so the pair makes no
    reference cycle and is freed by reference counting alone."""

    __slots__ = ("order",)

    def __init__(self, order):
        super().__init__()
        self.order = weakref.ref(order)

    def __missing__(self, m):
        k = self[m] = self.order().key(m)
        return k


class DegRevLex:
    """Degree-reverse-lexicographic order over a fixed variable sequence.

    m1 > m2 iff deg m1 > deg m2, or degrees tie and the last position (in
    the variable sequence) where the exponents differ has the *smaller*
    exponent in m1.

    ``key_memo`` maps each monomial compared so far to its order key, kept on
    the order the way a ring keeps its extensions; ``key`` runs only for a
    monomial the memo has not seen.
    """

    __slots__ = ("variables", "_index", "key_memo", "__weakref__")

    def __init__(self, variables):
        self.variables = tuple(variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        if len(self._index) != len(self.variables):
            raise ValueError("duplicate variable in order")
        self.key_memo = _KeyMemo(self)

    def key(self, m: Monomial):
        idx = self._index
        vec = [0] * len(self.variables)
        for v, e in m.exps.items():
            try:
                vec[idx[v]] = e
            except KeyError:
                raise ValueError(f"monomial variable {v!r} outside order {self.variables}")
        return (m.degree, tuple(-e for e in reversed(vec)))

    def sorted_terms(self, poly: "Polynomial"):
        """Terms of ``poly`` as (monomial, coeff), leading term first."""
        keys = self.key_memo
        return sorted(poly.terms.items(), key=lambda t: keys[t[0]], reverse=True)

    def leading(self, poly: "Polynomial"):
        """(monomial, coeff) of the leading term; poly must be nonzero."""
        lm = max(poly.terms, key=self.key_memo.__getitem__)
        return lm, poly.terms[lm]

    def __eq__(self, other):
        return isinstance(other, DegRevLex) and self.variables == other.variables

    def __hash__(self):
        return hash(("DegRevLex", self.variables))

    def __repr__(self):
        return f"degrevlex{self.variables}"


class Polynomial:
    """A finite sum of scalar-weighted monomials over a ScalarField."""

    __slots__ = ("field", "terms")

    def __init__(self, field: ScalarField, terms=None):
        self.field = field
        clean = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                c = field.normalize(c)
                if not field.is_zero(c):
                    if m in clean:
                        c = field.add(clean[m], c)
                        if field.is_zero(c):
                            del clean[m]
                            continue
                    clean[m] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_terms(field: ScalarField, terms: dict) -> "Polynomial":
        """The polynomial owning ``terms`` as given: a dict of canonical,
        nonzero coefficients, neither copied nor normalized."""
        p = Polynomial.__new__(Polynomial)
        p.field = field
        p.terms = terms
        return p

    @staticmethod
    def zero(field: ScalarField) -> "Polynomial":
        return Polynomial.from_terms(field, {})

    @staticmethod
    def constant(field: ScalarField, c) -> "Polynomial":
        c = field.normalize(c)
        return Polynomial.from_terms(field, {ONE: c} if c else {})

    @staticmethod
    def variable(field: ScalarField, name: str) -> "Polynomial":
        return Polynomial.from_terms(field, {_intern(((name, 1),), 1): field.one})

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self.terms)

    def constant_value(self):
        return self.terms.get(ONE, self.field.zero)

    def variables(self):
        out = set()
        for m in self.terms:
            out |= m.variables()
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field is other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __repr__(self):
        return render(self, DegRevLex(sorted(self.variables())))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        fld = self.field
        out = dict(self.terms)
        add_multiple(out, other.terms, fld.one, fld)
        return Polynomial.from_terms(fld, out)

    def __neg__(self):
        fld = self.field
        return Polynomial.from_terms(fld, {m: fld.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        fld = self.field
        out = dict(self.terms)
        add_multiple(out, other.terms, fld.neg(fld.one), fld)
        return Polynomial.from_terms(fld, out)

    def __mul__(self, other):
        fld = self.field
        out = {}
        for m, c in self.terms.items():
            add_multiple(out, other.terms, c, fld, m)
        return Polynomial.from_terms(fld, out)

    def scale(self, c) -> "Polynomial":
        fld = self.field
        c = fld.normalize(c)
        if fld.is_zero(c):
            return Polynomial.zero(fld)
        return Polynomial.from_terms(fld, {m: fld.mul(cc, c) for m, cc in self.terms.items()})

    def term_mul(self, m: Monomial, c) -> "Polynomial":
        fld = self.field
        return Polynomial.from_terms(
            fld, {mm.mul(m): fld.mul(cc, c) for mm, cc in self.terms.items()}
        )

    def __pow__(self, n: int):
        return power(self, n) if n else Polynomial.constant(self.field, 1)

    def substitute(self, env: dict) -> "Polynomial":
        """Ring-homomorphic substitution; variables absent from env are kept.

        Each power ``env[v]**e`` is computed once per call and shared by the
        terms that use it; a term starts from its coefficient and its kept
        variables, and the terms are summed in place.
        """
        fld = self.field
        out = {}
        powers = {}
        for m, c in self.terms.items():
            piece, kept = None, {}
            for v, e in m.exps.items():
                if v not in env:
                    kept[v] = e
                    continue
                power = powers.get((v, e))
                if power is None:
                    power = powers[v, e] = env[v] ** e
                piece = power if piece is None else piece * power
            piece_terms = {ONE: fld.one} if piece is None else piece.terms
            add_multiple(out, piece_terms, c, fld, Monomial(kept))
        return Polynomial.from_terms(fld, out)


# -- text form -----------------------------------------------------------------

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789()[]")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^":
            tokens.append((ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            tokens.append(("num:" + text[i:j], i))
            i = j
        elif ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("var:" + text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_polynomial(text: str, field: ScalarField) -> Polynomial:
    """Parse the term grammar ``coef*var^k*... +/- ...`` used everywhere.

    A factor is an integer, a fraction ``a/b``, a variable, or ``var^k``;
    factors in a term are joined by ``*``.  ``0`` parses to the zero
    polynomial.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial string")
    poly = Polynomial.zero(field)
    pos = 0

    def term(negative):
        nonlocal pos
        coeff = field.neg(field.one) if negative else field.one
        exps = {}
        expect_factor = True
        while pos < len(tokens):
            tok, at = tokens[pos]
            if tok in ("+", "-") and not expect_factor:
                break
            if tok == "*":
                if expect_factor:
                    raise ParseError("unexpected '*'", at)
                pos += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ParseError("missing '*' between factors", at)
            if tok.startswith("num:"):
                coeff = field.mul(coeff, field.parse(tok[4:]))
                pos += 1
            elif tok.startswith("var:"):
                name = tok[4:]
                pos += 1
                power = 1
                if pos < len(tokens) and tokens[pos][0] == "^":
                    pos += 1
                    if pos >= len(tokens) or not tokens[pos][0].startswith("num:"):
                        raise ParseError("exponent must be an integer", at)
                    try:
                        power = int(tokens[pos][0][4:])
                    except ValueError:
                        raise ParseError("exponent must be an integer", at) from None
                    pos += 1
                exps[name] = exps.get(name, 0) + power
            else:
                raise ParseError(f"unexpected token {tok!r}", at)
            expect_factor = False
        if expect_factor:
            raise ParseError("dangling operator", tokens[pos - 1][1] if pos else 0)
        return Polynomial(field, {Monomial(exps): coeff})

    if tokens[0][0] == "+":
        raise ParseError("leading '+'", tokens[0][1])
    # a term ends at the end of the tokens or at the '+' or '-' that leads
    # the next one; only the first term may have no sign
    while pos < len(tokens):
        sign = tokens[pos][0]
        if sign in ("+", "-"):
            pos += 1
        poly = poly + term(sign == "-")
    return poly


def render(poly: Polynomial, order: DegRevLex) -> str:
    """Canonical string form: terms in decreasing order, re-parseable."""
    if poly.is_zero():
        return "0"
    fld = poly.field
    pieces = []
    for m, c in order.sorted_terms(poly):
        neg = fld.characteristic == 0 and c < 0
        mag = fld.neg(c) if neg else c
        factors = []
        if not (mag == fld.one and not m.is_one()):
            factors.append(fld.render(mag))
        for v in order.variables:
            e = m.exps.get(v, 0)
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        text = "*".join(factors)
        if not pieces:
            pieces.append(("-" if neg else "") + text)
        else:
            pieces.append((" - " if neg else " + ") + text)
    return "".join(pieces)
