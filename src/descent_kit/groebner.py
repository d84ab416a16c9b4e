"""Buchberger Groebner bases with optional cofactor tracking.

Everything here is deterministic: S-pairs are processed in normal strategy
(increasing lcm degree, ties broken by the first-indexed pair), the reducer
is always the first matching basis element, and the reduced basis is sorted
by decreasing leading monomial.  Cofactor tracking keeps, for every basis
element, an explicit representation over the *input* generators; that is
what turns "1 lies in the ideal" into a checkable inverse certificate.

An input list may begin with a known prefix, ``known`` generators that
already form a Groebner basis under the same order (say the relations of
a ring being extended by new variables appended at the end of the order:
monomials in the old variables compare as before).  Every S-pair inside
the prefix then reduces to zero, so Buchberger skips those pairs
(Buchberger's criterion).  Cofactors are tracked over the inputs after
the prefix only, modulo the ideal of the prefix.

The prefix must be a *reduced* basis (every caller passes the relations of
a ring): when no nonzero input lies beyond it, it is returned as the
basis with no pair formed and no interreduction.

A basis carries the leading term of every generator (``GroebnerBasis.leads``
and, while Buchberger runs, a list kept in step with the basis), so a
reduction never recomputes one.  A reduction returns at once for an empty
basis or a zero polynomial, and ``normal_form`` returns its input as it is
when no term is divisible by a leading monomial; otherwise a reduction
reduces one copy of the terms in place and collects the remainder in a
second dict.  Every basis ``buchberger`` returns is monic, and a step by a
monic leading term takes its factor without a field division.  Order keys
come from the memo kept on the order (``DegRevLex.key_memo``), so each
monomial's key is computed once per order, not once per reduction.

Every divisor search tests the divisibility masks of the monomials inline
(``Monomial.mask``, one bit per variable name) before it calls
``Monomial.divides``: a leading monomial with a variable the term lacks is
rejected by one AND, with no call.  The same masks decide whether two
leading monomials are coprime: no two variable names share a bit, so
disjoint masks mean disjoint supports.
"""

from __future__ import annotations

import heapq
import itertools

from .errors import ResourceLimit, NotFiniteDimensional
from .polynomials import DegRevLex, Monomial, Polynomial, add_multiple

DEFAULT_PAIR_BUDGET = 20000


class GroebnerBasis:
    """A reduced Groebner basis together with the order that produced it.

    ``leads[i]`` is the leading ``(monomial, coeff)`` of ``generators[i]``,
    computed once here so that no reduction rescans a generator.
    """

    __slots__ = ("generators", "order", "leads")

    def __init__(self, generators, order: DegRevLex):
        self.generators = tuple(generators)
        self.order = order
        self.leads = tuple(order.leading(g) for g in self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.order == other.order
            and set(self.generators) == set(other.generators)
        )

    def __hash__(self):
        return hash((self.order, frozenset(self.generators)))

    def __repr__(self):
        return f"GroebnerBasis({list(map(str, self.generators))})"


def _reduction_steps(terms, remainder, basis, leads, field, order):
    """Reduce the term dict ``terms`` to zero in place, moving irreducible
    terms into ``remainder``.  Yields every step as (gi, q, factor): the
    step subtracted ``factor * q * basis[gi]``.

    The leading term is reduced first, by the first basis element whose
    leading monomial divides it.  Over a monic leading term (every basis
    ``buchberger`` returns is monic) the factor is the leading coefficient
    itself, with no field division.
    """
    key = order.key_memo.__getitem__
    one = field.one
    while terms:
        lm = max(terms, key=key)
        lc = terms[lm]
        absent = ~lm.mask
        for gi, (glm, glc) in enumerate(leads):
            if not glm.mask & absent and glm.divides(lm):
                break
        else:
            remainder[lm] = terms.pop(lm)
            continue
        q = lm.divide(glm)
        factor = lc if glc == one else field.div(lc, glc)
        add_multiple(terms, basis[gi].terms, field.neg(factor), field, q)
        yield gi, q, factor


def _reduce_full(p, cof, basis, leads, basis_cofs, order):
    """Fully reduce p modulo basis; returns (remainder, cofactors).

    ``leads`` holds the leading terms of ``basis``; cof/basis_cofs are None
    when cofactors are not tracked.
    """
    if not basis or p.is_zero():
        return p, cof
    field = p.field
    terms, remainder = dict(p.terms), {}
    steps = _reduction_steps(terms, remainder, basis, leads, field, order)
    if cof is None:
        for _ in steps:
            pass
    else:
        cof_terms = [dict(c.terms) for c in cof]
        for gi, q, factor in steps:
            minus = field.neg(factor)
            for c, gc in zip(cof_terms, basis_cofs[gi]):
                add_multiple(c, gc.terms, minus, field, q)
        cof = [Polynomial.from_terms(field, c) for c in cof_terms]
    return Polynomial.from_terms(field, remainder), cof


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """The unique fully reduced remainder of p modulo the basis.

    A p with no term divisible by a leading monomial is already reduced and
    is returned as it is, with no copy.
    """
    leads = gb.leads
    if not leads:
        return p
    for m in p.terms:
        absent = ~m.mask
        for lm, _ in leads:
            if not lm.mask & absent and lm.divides(m):
                r, _ = _reduce_full(p, None, gb.generators, leads, None, gb.order)
                return r
    return p


def _spair(i, j, basis, leads, basis_cofs, track):
    f, g = basis[i], basis[j]
    flm, flc = leads[i]
    glm, glc = leads[j]
    lcm = flm.lcm(glm)
    field = f.field
    tf, tg = lcm.divide(flm), lcm.divide(glm)
    s = f.term_mul(tf, field.inv(flc)) - g.term_mul(tg, field.inv(glc))
    if not track:
        return s, None
    cf = [
        a.term_mul(tf, field.inv(flc)) - b.term_mul(tg, field.inv(glc))
        for a, b in zip(basis_cofs[i], basis_cofs[j])
    ]
    return s, cf


def _buchberger_core(gens, order, budget, track, known=0):
    """Unreduced basis, cofactors (None entries unless tracked) and the
    leading term of every basis element, kept in step with the basis.

    ``gens[:known]`` must already be a Groebner basis: no pair inside it is
    formed, and cofactors are vectors over ``gens[known:]`` (a prefix
    element's is zero).
    """
    basis, cofs, leads = [], [], []
    prefix = 0
    for idx, g in enumerate(gens):
        if g.is_zero():
            continue
        basis.append(g)
        leads.append(order.leading(g))
        if idx < known:
            prefix += 1
        if track:
            vec = [Polynomial.zero(g.field) for _ in gens[known:]]
            if idx >= known:
                vec[idx - known] = Polynomial.constant(g.field, 1)
            cofs.append(vec)
    if not basis:
        return [], [], []

    pairs = []
    for j in range(prefix, len(basis)):
        for i in range(j):
            lcm = leads[i][0].lcm(leads[j][0])
            heapq.heappush(pairs, (lcm.degree, i, j))

    processed = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > budget:
            raise ResourceLimit(f"Groebner pair budget {budget} exceeded")
        if not leads[i][0].mask & leads[j][0].mask:
            continue  # coprime leading terms: S-polynomial reduces to zero
        s, cf = _spair(i, j, basis, leads, cofs, track)
        r, cf = _reduce_full(s, cf, basis, leads, cofs, order)
        if r.is_zero():
            continue
        basis.append(r)
        leads.append(order.leading(r))
        if track:
            cofs.append(cf)
        new = len(basis) - 1
        rlm = leads[new][0]
        for k in range(new):
            lcm = leads[k][0].lcm(rlm)
            heapq.heappush(pairs, (lcm.degree, k, new))
    return basis, cofs, leads


def _interreduce(basis, cofs, leads, order, track):
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            other_leads = leads[:i] + leads[i + 1 :]
            other_cofs = (cofs[:i] + cofs[i + 1 :]) if track else None
            r, cf = _reduce_full(
                basis[i], cofs[i] if track else None, others, other_leads, other_cofs, order
            )
            if r.is_zero():
                del basis[i], leads[i]
                if track:
                    del cofs[i]
                changed = True
                break
            if r != basis[i]:
                changed = True
                leads[i] = order.leading(r)
            basis[i] = r
            if track:
                cofs[i] = cf
    # make monic and sort by decreasing leading monomial
    out = []
    for i, g in enumerate(basis):
        lm, lc = leads[i]
        field = g.field
        inv = field.inv(lc)
        g = g.scale(inv)
        c = [x.scale(inv) for x in cofs[i]] if track else None
        out.append((order.key_memo[lm], g, c))
    out.sort(key=lambda t: t[0], reverse=True)
    basis = [g for _, g, _ in out]
    cofs = [c for _, _, c in out] if track else None
    return basis, cofs


def _prefix_only(gens, known):
    """The nonzero inputs, when none lies beyond the known prefix (the
    prefix, a reduced basis, is then the answer); otherwise None."""
    if any(not g.is_zero() for g in gens[known:]):
        return None
    return [g for g in gens[:known] if not g.is_zero()]


def buchberger(gens, order: DegRevLex, budget: int = DEFAULT_PAIR_BUDGET,
               known: int = 0) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    ``gens[:known]`` must already be a reduced Groebner basis under ``order``.
    """
    gens = list(gens)
    basis = _prefix_only(gens, known)
    if basis is None:
        basis, _, leads = _buchberger_core(gens, order, budget, track=False, known=known)
        basis, _ = _interreduce(basis, None, leads, order, track=False)
    return GroebnerBasis(basis, order)


def buchberger_extended(gens, order: DegRevLex, budget: int = DEFAULT_PAIR_BUDGET,
                        known: int = 0):
    """Reduced basis plus, per element, its cofactors over the inputs.

    Returns (gb, cofactors) with ``gb.generators[i] == sum_j cofactors[i][j] * gens[j]``.
    With a known prefix (``gens[:known]`` already a reduced Groebner basis)
    the cofactors run over ``gens[known:]`` only, and the identity holds
    modulo the ideal of the prefix.
    """
    gens = list(gens)
    basis = _prefix_only(gens, known)
    if basis is not None:
        cofs = [tuple(Polynomial.zero(g.field) for _ in gens[known:]) for g in basis]
        return GroebnerBasis(basis, order), cofs
    basis, cofs, leads = _buchberger_core(gens, order, budget, track=True, known=known)
    basis, cofs = _interreduce(basis, cofs, leads, order, track=True)
    return GroebnerBasis(basis, order), [tuple(c) for c in cofs]


def staircase(gb: GroebnerBasis):
    """All monomials outside the leading-term ideal, if finitely many.

    Raises NotFiniteDimensional when some variable has no pure power among
    the leading monomials (the quotient is then infinite-dimensional).
    """
    variables = gb.order.variables
    leads = [lm for lm, _ in gb.leads]
    if any(lm.is_one() for lm in leads):
        return []
    bounds = {}
    for v in variables:
        bound = None
        for lm in leads:
            if set(lm.exps) == {v}:
                e = lm.exps[v]
                bound = e if bound is None else min(bound, e)
        if bound is None:
            raise NotFiniteDimensional(f"no pure power of {v} among leading terms")
        bounds[v] = bound

    out = []
    for exps in itertools.product(*(range(bounds[v]) for v in variables)):
        m = Monomial(zip(variables, exps))
        if not any(lm.divides(m) for lm in leads):
            out.append(m)
    out.sort(key=gb.order.key_memo.__getitem__)
    return out
