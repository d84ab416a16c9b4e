"""Parsing problem descriptions and rendering reports.

A problem file is one JSON document describing the coefficient algebra D,
the base pair (A, e), the module algebra (B, f), the target algebra
(C, g), and optionally a test algebra (R, u), an element z for obstruction
evidence, and a second structure set for composition checks.  Polynomials
are strings in the term grammar; scalars render canonically so identical
inputs produce byte-identical reports.

Each kind of value has one reader: ``_read`` reads a term with ``ring.el``
in the ring it belongs to and a scalar of D with ``field.parse``, ``_names``
reads every list of names, ``_parse_table`` both tables of products, and
``_parse_structures`` both structure sets.  A read fault is a ParseError
whose detail begins with the JSON path of the value.  Each algebra is
validated by ``_validated`` as soon as its table is read, so a violated
axiom is an InvalidAlgebra whose detail begins with the table's path.
"""

from __future__ import annotations

import json

from .dalgebra import DCoefficientAlgebra, build_d_algebra
from .dstructures import DStructure
from .errors import DivisionByZero, InvalidAlgebra, ParseError
from .groebner import GroebnerBasis
from .polynomials import _IDENT_CONT, _IDENT_START, DegRevLex, render
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


def _names(values, path, taken=(), start=0):
    """The names listed at ``path`` as strings.  Each from index ``start`` on
    must be an identifier of the term grammar, and none may repeat an
    earlier name or one of ``taken``; a ParseError names the first that fails."""
    names = tuple(str(v) for v in _shape(values, list, path))
    seen = set(taken)
    for k, name in enumerate(names):
        if k >= start and (name[:1] not in _IDENT_START
                           or any(ch not in _IDENT_CONT for ch in name)):
            raise ParseError(f"{path}[{k}] must be an identifier, got {name!r}")
        if name in seen:
            raise ParseError(f"{path}[{k}] must be a new name, got {name!r}")
        seen.add(name)
    return names


def _read(parse, text, path):
    """``parse`` applied to the JSON value ``text`` at ``path`` as a string:
    ``ring.el`` for a term, ``field.parse`` for a scalar of D.  A read fault
    (bad syntax, an unknown variable, a denominator that vanishes mod p) is
    a ParseError whose detail begins with the path."""
    try:
        return parse(str(text))
    except (ParseError, DivisionByZero) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _vector(values, parse, path, dim=None):
    """The values listed in the JSON array at ``path``, each read by
    ``parse``; there must be ``dim`` of them when ``dim`` is given."""
    vec = _shape(values, list, path)
    if dim is not None and len(vec) != dim:
        raise ParseError(f"{path} needs {dim} coordinates")
    return tuple(_read(parse, text, f"{path}[{k}]") for k, text in enumerate(vec))


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


def _parse_table(products, n, path, size, parse):
    """The n x n table of coordinate vectors at ``path``, entries read by
    ``parse``; ``size`` names n in the report of a table of another shape.
    Each distinct entry text is read once (most are "0"), so equal entries
    share one immutable value."""
    message = f"{path} must be an {size} x {size} table of coordinate vectors"
    _shape(products, list, path)
    if len(products) != n or any(
        len(_shape(row, list, f"{path}[{i}]")) != n for i, row in enumerate(products)
    ):
        raise ParseError(message)
    parsed = {}

    def entry(text, i, j, m):
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = _read(parse, text, f"{path}[{i}][{j}][{m}]")
        return value

    table = [
        [
            [entry(str(c), i, j, m)
             for m, c in enumerate(_shape(products[i][j], list, f"{path}[{i}][{j}]"))]
            for j in range(n)
        ]
        for i in range(n)
    ]
    if any(len(vec) != n for row in table for vec in row):
        raise ParseError(message)
    return table


def _validated(algebra: StructureAlgebra, path) -> StructureAlgebra:
    """``algebra``, validated once; a violated axiom is an InvalidAlgebra
    naming ``path``, the JSON path of its table of products."""
    try:
        algebra.validate()
    except InvalidAlgebra as exc:
        raise InvalidAlgebra(exc.axiom, exc.indices, path) from None
    return algebra


def _parse_coefficient_algebra(data, field, path) -> DCoefficientAlgebra:
    _shape(data, dict, path)
    basis = [str(x) for x in _shape(data.get("basis"), list, f"{path}.basis")]
    l = len(basis)
    kk = PresentedRing.base_field(field)

    def scalar(text):
        return kk.constant(field.parse(text))

    constants = _parse_table(data.get("products"), l, f"{path}.products", "l", scalar)
    if "unit" in data:
        unit = _vector(data["unit"], scalar, f"{path}.unit", l)
    elif basis[:1] == ["1"]:
        unit = None
    else:
        raise ParseError(f"{path} needs an explicit unit unless its first basis element is 1")
    algebra = _validated(StructureAlgebra(kk, basis, constants, unit), f"{path}.products")
    factors = []
    for n, fac in enumerate(_shape(data.get("factors"), list, f"{path}.factors")):
        fac_path = f"{path}.factors[{n}]"
        _shape(fac, dict, fac_path)
        idem = _vector(fac.get("idempotent"), field.parse, f"{fac_path}.idempotent", l)
        span = _shape(fac.get("maximal_ideal", []), list, f"{fac_path}.maximal_ideal")
        factors.append((idem, tuple(
            _vector(vec, field.parse, f"{fac_path}.maximal_ideal[{m}]", l)
            for m, vec in enumerate(span)
        )))
    return build_d_algebra(algebra, factors)


def _parse_ring(data, field, path, base: PresentedRing = None, taken=()) -> PresentedRing:
    """The ring presented at ``path``, by one extension of ``base`` when it
    is given.  Its new variables may not be named like ``base``'s or like
    any of ``taken``.  Its relations are read in the free ring on all its
    variables, whose empty basis takes no Groebner run.  They may not
    generate the unit ideal, so no later layer meets a zero ring."""
    old = base.variables if base else ()
    variables = _names(data.get("variables", []), f"{path}.variables", old + taken)
    free = PresentedRing(field, GroebnerBasis((), DegRevLex(old + variables)))
    rels = _vector(data.get("relations", []), free.el, f"{path}.relations")
    ring = (PresentedRing.make(field, variables, rels) if base is None
            else base.extend(variables, rels))
    if any(g.is_constant() for g in ring.relations.generators):
        raise ParseError(f"{path}.relations generate the unit ideal")
    return ring


def _parse_images(images, ring, dim, variables, path) -> dict:
    """The operator image of every variable, ``dim`` terms read in ``ring``,
    from the JSON object at ``path``."""
    _shape(images, dict, path)
    out = {}
    for v in variables:
        if v not in images:
            raise ParseError(f"missing operator image {path}.{v}")
        out[v] = _vector(images[v], ring.el, f"{path}.{v}", dim)
    return out


def _parse_structures(values, paths, a_ring, algebra, generators, relations):
    """One structure set on A, B and C = B[generators]/(relations): D, read
    from ``values[0]``, and the images on A, B and C, from ``values[1:]``,
    whose JSON paths are ``paths``.  Builds e, the tower (B, f) and g, and
    validates each once; returns (tower, C, g, certificates)."""
    coeff = _parse_coefficient_algebra(values[0], a_ring.field, paths[0])
    e = DStructure(a_ring, coeff,
                   _parse_images(values[1], a_ring, coeff.dim, a_ring.variables, paths[1]))
    # f extends e by the images of B's labels, read in B's flat ring
    tower = OperatorTower(e, algebra, _parse_images(
        values[2], algebra.flat_ring(), coeff.dim, algebra.labels[1:], paths[2]))
    certificates = tower.validate()
    c = PresentedBAlgebra(tower, generators, relations)
    g = c.structure(_parse_images(values[3], c.flat_ring, coeff.dim, generators, paths[3]))
    certificates += [{"check": f"target_{d['check']}", "ok": True} for d in g.validate()]
    return tower, c, g, certificates


def load_problem(data: dict) -> ProblemDescription:
    """Build and validate every object named by a problem document, once:
    each object keeps its certificate for later ``validate()`` calls."""
    _shape(data, dict, "the problem document")
    field = _parse_field(data.get("field"))
    a_data = _shape(data.get("A", {}), dict, "A")
    a_ring = _parse_ring(a_data, field, "A")

    b_data = _shape(data.get("B"), dict, "B")
    labels = _names(b_data.get("basis"), "B.basis", a_ring.variables, start=1)
    if labels[:1] != ("1",):
        raise ParseError("the first basis element of B must be 1")
    constants = _parse_table(b_data.get("products"), len(labels), "B.products", "r", a_ring.el)
    algebra = _validated(StructureAlgebra(a_ring, labels, constants), "B.products")
    flat_b = algebra.flat_ring()

    c_data = _shape(data.get("C", {}), dict, "C")
    generators = _names(c_data.get("generators", []), "C.generators", flat_b.variables)
    relations = _vector(c_data.get("relations", []), flat_b.extend(generators).el, "C.relations")
    tower, c, g_structure, certificates = _parse_structures(
        (data.get("D"), a_data.get("images", {}), b_data.get("images", {}),
         c_data.get("images", {})),
        ("D", "A.images", "B.images", "C.images"), a_ring, algebra, generators, relations)

    u = None
    if "R" in data:
        r_data = _shape(data["R"], dict, "R")
        # R (x) B is flattened on R's variables and B's labels
        r_ring = _parse_ring(r_data, field, "R", base=a_ring, taken=labels)
        u = DStructure(r_ring, tower.coeff, _parse_images(
            r_data.get("images", {}), r_ring, tower.coeff.dim,
            r_ring.variables[len(a_ring.variables):], "R.images"), base=tower.e)
        certificates += [
            {"check": f"test_algebra_{d['check']}", "ok": True} for d in u.validate()
        ]

    z_coords = None
    if "z" in data:
        z_coords = [algebra.coordinatize(p)
                    for p in _vector(data["z"], flat_b.el, "z", tower.coeff.dim)]

    second = None
    if "second" in data:
        s = _shape(data["second"], dict, "second")
        _, c2, g2_structure, _ = _parse_structures(
            (s.get("D"), s.get("A_images", {}), s.get("B_images", {}), s.get("C_images", {})),
            ("second.D", "second.A_images", "second.B_images", "second.C_images"),
            a_ring, algebra, generators, relations)
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
        except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to read
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
