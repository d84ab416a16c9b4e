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
from .polynomials import parse_polynomial
from .presented import PresentedRing
from .scalars import GF, QQ, ScalarField
from .structure import StructureAlgebra
from .tower import OperatorTower, PresentedBAlgebra


class ProblemDescription:
    """A fully parsed and validated descent problem."""

    __slots__ = (
        "field",
        "coeff",
        "a_ring",
        "e",
        "tower",
        "c",
        "g_images",
        "g_structure",
        "r_ring",
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


def _image_vector(images, name, dim, path):
    vec = _shape(images[name], list, f"{path}.{name}")
    if len(vec) != dim:
        raise ParseError(f"image of {name!r} needs {dim} coordinates")
    return vec


def _parse_field(data) -> ScalarField:
    if data == "rationals":
        return QQ
    if isinstance(data, dict) and isinstance(data.get("prime"), (int, str)):
        return GF(int(data["prime"]))
    raise ParseError(f"field must be \"rationals\" or {{\"prime\": p}}, got {data!r}")


def _parse_table(products, n, path, message, parse):
    """The n x n table of coordinate vectors at ``path``, entries parsed by ``parse``."""
    _shape(products, list, path)
    if len(products) != n or any(
        len(_shape(row, list, f"{path}[{i}]")) != n for i, row in enumerate(products)
    ):
        raise ParseError(message)
    table = [
        [
            [parse(str(c)) for c in _shape(products[i][j], list, f"{path}[{i}][{j}]")]
            for j in range(n)
        ]
        for i in range(n)
    ]
    if any(len(vec) != n for row in table for vec in row):
        raise ParseError(message)
    return table


def _parse_coefficient_algebra(data, field, path) -> DCoefficientAlgebra:
    _shape(data, dict, path)
    basis = [str(x) for x in _shape(data["basis"], list, f"{path}.basis")]
    l = len(basis)
    kk = PresentedRing.base_field(field)
    constants = _parse_table(data["products"], l, f"{path}.products",
                             "D.products must be an l x l table of coordinate vectors",
                             lambda text: kk.constant(field.parse(text)))
    if "unit" in data:
        unit = [
            kk.constant(field.parse(str(c)))
            for c in _shape(data["unit"], list, f"{path}.unit")
        ]
    elif basis[:1] == ["1"]:
        unit = None
    else:
        raise ParseError("D needs an explicit unit unless its first basis element is 1")
    algebra = StructureAlgebra(kk, basis, constants, unit)
    factors = []
    for n, fac in enumerate(_shape(data["factors"], list, f"{path}.factors")):
        fac_path = f"{path}.factors[{n}]"
        _shape(fac, dict, fac_path)
        idem = tuple(
            field.parse(str(c))
            for c in _shape(fac["idempotent"], list, f"{fac_path}.idempotent")
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
    variables = tuple(
        str(v) for v in _shape(data.get("variables", []), list, f"{path}.variables")
    )
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


def _parse_images(data, parse, dim, variables, path) -> dict:
    out = {}
    images = _shape(data.get("images", {}), dict, f"{path}.images")
    for v in variables:
        if v not in images:
            raise ParseError(f"missing operator image for generator {v!r}")
        vec = _image_vector(images, v, dim, f"{path}.images")
        out[v] = tuple(parse(str(text)) for text in vec)
    return out


def _parse_module_algebra(data, a_ring, coeff, e) -> OperatorTower:
    _shape(data, dict, "B")
    labels = tuple(str(x) for x in _shape(data["basis"], list, "B.basis"))
    if labels[:1] != ("1",):
        raise ParseError("the first basis element of B must be 1")
    r = len(labels)
    constants = _parse_table(data["products"], r, "B.products",
                             "B.products must be an r x r table of coordinate vectors",
                             a_ring.el)
    algebra = StructureAlgebra(a_ring, labels, constants)
    flat_b = algebra.flat_ring()
    f_images = [None] * r
    unit_row = []
    for k in range(coeff.dim):
        unit_row.append(algebra.one_el().scale(a_ring.constant(coeff.unit[k])))
    f_images[0] = tuple(unit_row)
    images = _shape(data.get("images", {}), dict, "B.images")
    for i in range(1, r):
        label = labels[i]
        if label not in images:
            raise ParseError(f"missing operator image for basis element {label!r}")
        vec = _image_vector(images, label, coeff.dim, "B.images")
        f_images[i] = tuple(
            algebra.coordinatize(
                _flat_poly(str(text), flat_b)
            )
            for text in vec
        )
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
    field = _parse_field(data["field"])
    coeff = _parse_coefficient_algebra(data["D"], field, "D")
    a_data = _shape(data.get("A", {}), dict, "A")
    a_ring = _parse_ring(a_data, field, "A")
    e_images = _parse_images(a_data, a_ring.el, coeff.dim, a_ring.variables, "A")
    e = DStructure(a_ring, coeff, e_images)
    e.validate()
    tower = _parse_module_algebra(data["B"], a_ring, coeff, e)
    certificates = tower.validate()

    c_data = _shape(data.get("C", {}), dict, "C")
    generators = tuple(
        str(g) for g in _shape(c_data.get("generators", []), list, "C.generators")
    )
    flat_free = tower.flat_b.extend(generators, (), base_vars=tower.flat_b.variables)
    relations = [
        _flat_poly(str(text), flat_free)
        for text in _shape(c_data.get("relations", []), list, "C.relations")
    ]
    c = PresentedBAlgebra(tower, generators, relations)
    g_images = _parse_images(
        c_data, lambda text: c.flat_ring.nf(_flat_poly(text, c.flat_ring)), coeff.dim,
        generators, "C",
    )
    g_structure = c.structure(g_images)
    certificates += [
        {"check": f"target_{d['check']}", "ok": True} for d in g_structure.validate()
    ]

    r_ring = None
    u = None
    if "R" in data:
        r_data = _shape(data["R"], dict, "R")
        r_ring = _parse_ring(r_data, field, "R", base=a_ring)
        u_own = _parse_images(
            r_data, r_ring.el, coeff.dim,
            tuple(v for v in r_ring.variables if v not in a_ring.variables), "R",
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
        coeff2 = _parse_coefficient_algebra(s["D"], field, "second.D")
        a_images = _shape(s.get("A_images", {}), dict, "second.A_images")
        e2_images = {
            v: tuple(
                a_ring.el(str(t)) for t in _shape(a_images[v], list, f"second.A_images.{v}")
            )
            for v in a_ring.variables
        }
        e2 = DStructure(a_ring, coeff2, e2_images)
        e2.validate()
        flat_b = tower.flat_b
        f2_images = [None] * tower.rank
        f2_images[0] = tuple(
            tower.algebra.one_el().scale(a_ring.constant(coeff2.unit[k]))
            for k in range(coeff2.dim)
        )
        for i in range(1, tower.rank):
            label = tower.algebra.labels[i]
            vec = _shape(s.get("B_images", {}), dict, "second.B_images").get(label)
            if vec is None:
                raise ParseError(f"second structure is missing the image of {label!r}")
            f2_images[i] = tuple(
                tower.algebra.coordinatize(_flat_poly(str(t), flat_b))
                for t in _shape(vec, list, f"second.B_images.{label}")
            )
        tower2 = OperatorTower(e2, tower.algebra, coeff2, f2_images)
        tower2.validate()
        g2_images = {}
        for g in generators:
            vec = _shape(s.get("C_images", {}), dict, "second.C_images").get(g)
            if vec is None:
                raise ParseError(f"second structure is missing the image of {g!r}")
            g2_images[g] = tuple(
                c.flat_ring.nf(_flat_poly(str(t), c.flat_ring))
                for t in _shape(vec, list, f"second.C_images.{g}")
            )
        second = {"coeff": coeff2, "tower": tower2, "g_images": g2_images}

    return ProblemDescription(
        field=field,
        coeff=coeff,
        a_ring=a_ring,
        e=e,
        tower=tower,
        c=c,
        g_images=g_images,
        g_structure=g_structure,
        r_ring=r_ring,
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


def render_presentation(ring: PresentedRing, structure: DStructure = None) -> dict:
    from .polynomials import render
    block = {
        "variables": list(ring.variables),
        "relations": [render(g, ring.order) for g in ring.relations.generators],
    }
    if structure is not None:
        block["images"] = {
            v: [ring.render(c) for c in structure.images[v]]
            for v in ring.variables
            if structure.images[v] is not None
        }
    return block


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
