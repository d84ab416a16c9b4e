"""Parsing problem descriptions and rendering reports.

A problem file is one JSON document describing the coefficient algebra D,
the base pair (A, e), the module algebra (B, f), the target algebra
(C, g), and optionally a test algebra (R, u), an element z for obstruction
evidence, and a second structure set for composition checks.  Polynomials
are strings in the term grammar; scalars render canonically so identical
inputs produce byte-identical reports.
"""

from __future__ import annotations

import json

from .dalgebra import DCoefficientAlgebra, build_d_algebra
from .dstructures import DStructure
from .errors import ParseError
from .polynomials import _IDENT_CONT, _IDENT_START, parse_polynomial, render
from .presented import PresentedRing
from .scalars import GF, QQ, ScalarField
from .structure import StructureAlgebra
from .tower import OperatorTower, PresentedBAlgebra


class ProblemDescription:
    """A fully parsed and validated descent problem.  The tower carries D
    (``tower.coeff``), A (``tower.base_ring``) and e (``tower.e``)."""

    __slots__ = (
        "tower",
        "c",
        "g_structure",
        "u",
        "z_coords",
        "second",
        "certificates",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))


def _shape(value, kind, path):
    """``value`` if it is a JSON object (dict) or array (list), else a
    ParseError naming its JSON path."""
    if not isinstance(value, kind):
        raise ParseError(f"{path} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _names(values, path, start=0):
    """The names listed at ``path`` as strings; each from index ``start`` on
    must be an identifier of the term grammar, or a ParseError names it."""
    names = tuple(str(v) for v in _shape(values, list, path))
    for k in range(start, len(names)):
        name = names[k]
        if name[:1] not in _IDENT_START or any(ch not in _IDENT_CONT for ch in name):
            raise ParseError(f"{path}[{k}] must be an identifier, got {name!r}")
    return names


def _image_vector(images, name, dim, path):
    """The image of ``name`` in the JSON object at ``path``: an array of
    ``dim`` coordinates, or a ParseError naming its JSON path."""
    if name not in images:
        raise ParseError(f"missing operator image {path}.{name}")
    vec = _shape(images[name], list, f"{path}.{name}")
    if len(vec) != dim:
        raise ParseError(f"{path}.{name} needs {dim} coordinates")
    return vec


def _parse_field(data) -> ScalarField:
    """QQ for "rationals", GF(p) for {"prime": p}: p is a JSON integer or a
    decimal string, and a prime below 2^63."""
    if data == "rationals":
        return QQ
    if not isinstance(data, dict) or "prime" not in data:
        raise ParseError(f"field must be \"rationals\" or {{\"prime\": p}}, got {data!r}")
    p = data["prime"]
    try:
        if isinstance(p, str) and p.isascii() and p.isdigit():
            p = int(p)
        if type(p) is int:
            return GF(p)
    except ValueError:
        pass
    raise ParseError(f"field.prime must be a prime below 2^63, as a JSON integer or a"
                     f" decimal string, got {data['prime']!r}")


def _parse_table(products, n, path, message, parse):
    """The n x n table of coordinate vectors at ``path``, entries parsed by
    ``parse``.  Each distinct entry text is parsed once (most are "0"), so
    equal entries share one immutable value."""
    _shape(products, list, path)
    if len(products) != n or any(
        len(_shape(row, list, f"{path}[{i}]")) != n for i, row in enumerate(products)
    ):
        raise ParseError(message)
    parsed = {}

    def entry(text):
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse(text)
        return value

    table = [
        [
            [entry(str(c)) for c in _shape(products[i][j], list, f"{path}[{i}][{j}]")]
            for j in range(n)
        ]
        for i in range(n)
    ]
    if any(len(vec) != n for row in table for vec in row):
        raise ParseError(message)
    return table


def _parse_coefficient_algebra(data, field, path) -> DCoefficientAlgebra:
    _shape(data, dict, path)
    basis = [str(x) for x in _shape(data.get("basis"), list, f"{path}.basis")]
    l = len(basis)
    kk = PresentedRing.base_field(field)
    constants = _parse_table(data.get("products"), l, f"{path}.products",
                             "D.products must be an l x l table of coordinate vectors",
                             lambda text: kk.constant(field.parse(text)))
    if "unit" in data:
        unit = [
            kk.constant(field.parse(str(c)))
            for c in _shape(data["unit"], list, f"{path}.unit")
        ]
        if len(unit) != l:
            raise ParseError(f"{path}.unit needs {l} coordinates")
    elif basis[:1] == ["1"]:
        unit = None
    else:
        raise ParseError("D needs an explicit unit unless its first basis element is 1")
    algebra = StructureAlgebra(kk, basis, constants, unit)
    factors = []
    for n, fac in enumerate(_shape(data.get("factors"), list, f"{path}.factors")):
        fac_path = f"{path}.factors[{n}]"
        _shape(fac, dict, fac_path)
        idem = tuple(
            field.parse(str(c))
            for c in _shape(fac.get("idempotent"), list, f"{fac_path}.idempotent")
        )
        span = tuple(
            tuple(field.parse(str(c))
                  for c in _shape(vec, list, f"{fac_path}.maximal_ideal[{m}]"))
            for m, vec in enumerate(
                _shape(fac.get("maximal_ideal", []), list, f"{fac_path}.maximal_ideal")
            )
        )
        factors.append((idem, span))
    return build_d_algebra(algebra, factors)


def _parse_ring(data, field, path, base: PresentedRing = None) -> PresentedRing:
    variables = _names(data.get("variables", []), f"{path}.variables")
    allowed = set(variables) | (set(base.variables) if base else set())
    rels = []
    for text in _shape(data.get("relations", []), list, f"{path}.relations"):
        p = parse_polynomial(str(text), field)
        extra = p.variables() - allowed
        if extra:
            raise ParseError(f"unknown variables {sorted(extra)} in relation {text!r}")
        rels.append(p)
    if base is None:
        return PresentedRing.make(field, variables, rels)
    return base.extend(variables, rels, base_vars=base.variables)


def _parse_images(images, parse, dim, variables, path) -> dict:
    """The operator image of every variable, from the JSON object at ``path``."""
    _shape(images, dict, path)
    out = {}
    for v in variables:
        vec = _image_vector(images, v, dim, path)
        out[v] = tuple(parse(str(text)) for text in vec)
    return out


def _parse_f_images(images, algebra: StructureAlgebra, coeff: DCoefficientAlgebra, path):
    """The operator images of B's basis: the unit of D(B) at 1, and every
    other label's image from the JSON object at ``path``."""
    flat_b = algebra.flat_ring()
    unit = algebra.one_el()
    f_images = [tuple(unit.scale(algebra.base.constant(c)) for c in coeff.unit)]
    _shape(images, dict, path)
    for label in algebra.labels[1:]:
        vec = _image_vector(images, label, coeff.dim, path)
        f_images.append(tuple(
            algebra.coordinatize(_flat_poly(str(text), flat_b)) for text in vec
        ))
    return f_images


def _parse_module_algebra(data, a_ring, coeff, e) -> OperatorTower:
    _shape(data, dict, "B")
    labels = _names(data.get("basis"), "B.basis", start=1)
    if labels[:1] != ("1",):
        raise ParseError("the first basis element of B must be 1")
    r = len(labels)
    constants = _parse_table(data.get("products"), r, "B.products",
                             "B.products must be an r x r table of coordinate vectors",
                             a_ring.el)
    algebra = StructureAlgebra(a_ring, labels, constants)
    f_images = _parse_f_images(data.get("images", {}), algebra, coeff, "B.images")
    return OperatorTower(e, algebra, coeff, f_images)


def _flat_poly(text, ring: PresentedRing):
    p = parse_polynomial(text, ring.field)
    extra = p.variables() - set(ring.variables)
    if extra:
        raise ParseError(f"unknown variables {sorted(extra)} in {text!r}")
    return p


def load_problem(data: dict) -> ProblemDescription:
    """Build and validate every object named by a problem document, once:
    each object keeps its certificate for later ``validate()`` calls."""
    _shape(data, dict, "the problem document")
    field = _parse_field(data.get("field"))
    coeff = _parse_coefficient_algebra(data.get("D"), field, "D")
    a_data = _shape(data.get("A", {}), dict, "A")
    a_ring = _parse_ring(a_data, field, "A")
    e_images = _parse_images(a_data.get("images", {}), a_ring.el, coeff.dim, a_ring.variables,
                             "A.images")
    e = DStructure(a_ring, coeff, e_images)
    e.validate()
    tower = _parse_module_algebra(data.get("B"), a_ring, coeff, e)
    certificates = tower.validate()

    c_data = _shape(data.get("C", {}), dict, "C")
    generators = _names(c_data.get("generators", []), "C.generators")
    flat_free = tower.flat_b.extend(generators, (), base_vars=tower.flat_b.variables)
    relations = [
        _flat_poly(str(text), flat_free)
        for text in _shape(c_data.get("relations", []), list, "C.relations")
    ]
    c = PresentedBAlgebra(tower, generators, relations)

    def parse_c(text):
        return c.flat_ring.nf(_flat_poly(text, c.flat_ring))

    g_images = _parse_images(c_data.get("images", {}), parse_c, coeff.dim, generators, "C.images")
    g_structure = c.structure(g_images)
    certificates += [
        {"check": f"target_{d['check']}", "ok": True} for d in g_structure.validate()
    ]

    u = None
    if "R" in data:
        r_data = _shape(data["R"], dict, "R")
        r_ring = _parse_ring(r_data, field, "R", base=a_ring)
        u_own = _parse_images(
            r_data.get("images", {}), r_ring.el, coeff.dim,
            tuple(v for v in r_ring.variables if v not in a_ring.variables), "R.images",
        )
        u_images = {v: e.images[v] for v in a_ring.variables}
        u_images.update(u_own)
        u = DStructure(r_ring, coeff, u_images, base=e)
        certificates += [
            {"check": f"test_algebra_{d['check']}", "ok": True} for d in u.validate()
        ]

    z_coords = None
    if "z" in data:
        vec = _shape(data["z"], list, "z")
        if len(vec) != coeff.dim:
            raise ParseError(f"z needs {coeff.dim} coordinates")
        z_coords = [
            tower.algebra.coordinatize(_flat_poly(str(t), tower.flat_b)) for t in vec
        ]

    second = None
    if "second" in data:
        s = _shape(data["second"], dict, "second")
        coeff2 = _parse_coefficient_algebra(s.get("D"), field, "second.D")
        e2_images = _parse_images(s.get("A_images", {}), a_ring.el, coeff2.dim,
                                  a_ring.variables, "second.A_images")
        e2 = DStructure(a_ring, coeff2, e2_images)
        e2.validate()
        f2_images = _parse_f_images(s.get("B_images", {}), tower.algebra, coeff2,
                                    "second.B_images")
        tower2 = OperatorTower(e2, tower.algebra, coeff2, f2_images)
        tower2.validate()
        c2 = PresentedBAlgebra(tower2, generators, relations)
        g2_images = _parse_images(s.get("C_images", {}), parse_c, coeff2.dim, generators,
                                  "second.C_images")
        g2_structure = c2.structure(g2_images)
        g2_structure.validate()
        second = {"c": c2, "g_structure": g2_structure}

    return ProblemDescription(
        tower=tower,
        c=c,
        g_structure=g_structure,
        u=u,
        z_coords=z_coords,
        second=second,
        certificates=certificates,
    )


def problem_from_file(path) -> ProblemDescription:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
    return load_problem(data)


# -- report rendering ---------------------------------------------------------------


def render_presentation(ring: PresentedRing, structure: DStructure) -> dict:
    return {
        "variables": list(ring.variables),
        "relations": [render(g, ring.order) for g in ring.relations.generators],
        "images": {
            v: [ring.render(c) for c in structure.images[v]]
            for v in ring.variables
            if structure.images[v] is not None
        },
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
