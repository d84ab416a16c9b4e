"""Operator structures: coordinate ops and their words, ideals, quotients, windows, tensors."""

import random

import pytest

from descent_kit import (
    GF,
    QQ,
    DStructure,
    PresentedRing,
    difference_algebra,
    dual_numbers,
    product_of_fields,
    truncated_operator_polynomials,
)
from descent_kit import dstructures
from descent_kit.errors import (
    BaseMismatch,
    NotDIdeal,
    NotWellDefined,
    ResourceLimit,
    TruncationExceeded,
)
from paper_checks import associated_endomorphisms, tensor_structures


@pytest.fixture
def qt():
    return PresentedRing.make(QQ, ("t",), [])


@pytest.fixture
def differential(qt):
    """sigma = id, delta(t) = t^2 on Q[t]."""
    return DStructure(qt, dual_numbers(QQ), {"t": (qt.var("t"), qt.el("t^2"))})


def test_twisted_leibniz_coordinate(qt, differential):
    rng = random.Random(3)
    pool = ["t", "t^2", "t+1", "2*t^2-t", "t^3+1"]
    for _ in range(8):
        p, q = qt.el(rng.choice(pool)), qt.el(rng.choice(pool))
        lhs = differential.coordinate_op(2, qt.nf(p * q))
        rhs = qt.nf(differential.coordinate_op(2, p) * q + p * differential.coordinate_op(2, q))
        assert qt.equal(lhs, rhs)


def test_unit_coordinate_of_identity_structure(qt):
    e = DStructure.identity(qt, dual_numbers(QQ))
    x = qt.el("t^2+3*t")
    assert qt.equal(e.coordinate_op(1, x), x)
    assert e.coordinate_op(2, x).is_zero()


def test_coordinate_op_homomorphic_expansion():
    f5 = GF(5)
    ring = PresentedRing.make(f5, ("x",), [])
    e = DStructure(ring, product_of_fields(f5, 2), {"x": (ring.var("x"), ring.el("x+1"))})
    assert ring.equal(e.coordinate_op(2, ring.el("x^2")), ring.el("x^2+2*x+1"))


def word_image(structure, word, x):
    """e_w(x) for a word w of coordinate indices: letters act left to right,
    and the empty word is the identity."""
    for letter in word:
        x = structure.coordinate_op(int(letter), x)
    return x


def test_coordinate_operators_compose(qt, differential):
    # e_{12} = e_2 after e_1; with sigma = id this is just delta
    t = qt.var("t")
    assert qt.equal(differential.coordinate_op(2, differential.coordinate_op(1, t)), qt.el("t^2"))
    assert qt.equal(differential.coordinate_op(2, differential.coordinate_op(2, t)),
                    qt.el("2*t^3"))


def test_structure_is_multiplicative(qt, differential):
    rng = random.Random(5)
    pool = ["t", "t^2-1", "t+2", "t^3"]
    for _ in range(6):
        x, y = qt.el(rng.choice(pool)), qt.el(rng.choice(pool))
        lhs = differential.apply(qt.nf(x * y))
        rhs = differential.apply(x) * differential.apply(y)
        assert lhs.equal(rhs)
        assert differential.apply(qt.one).equal(differential._ext.one_el())


def test_associated_endomorphisms(qt, differential):
    # dual numbers: the single associated endomorphism is sigma (here id)
    sigma = associated_endomorphisms(differential)
    assert len(sigma) == 1
    assert qt.equal(sigma[0].images["t"][0], qt.var("t"))
    # k^l: the endomorphisms themselves
    f5 = GF(5)
    ring = PresentedRing.make(f5, ("x",), [])
    e = DStructure(ring, product_of_fields(f5, 2), {"x": (ring.el("x^2"), ring.el("x+1"))})
    sigmas = associated_endomorphisms(e)
    assert ring.equal(sigmas[0].images["x"][0], ring.el("x^2"))
    assert ring.equal(sigmas[1].images["x"][0], ring.el("x+1"))
    for s in sigmas:
        a, b = ring.el("x+1"), ring.el("x^2")
        assert ring.equal(
            s.coordinate_op(1, ring.nf(a * b)),
            ring.nf(s.coordinate_op(1, a) * s.coordinate_op(1, b)),
        )
        assert ring.equal(s.coordinate_op(1, ring.one), ring.one)


def test_validate_well_definedness():
    f2 = GF(2)
    carrier = PresentedRing.make(f2, ("eps",), [PresentedRing.make(f2, ("eps",), []).el("eps^2")])
    tau = DStructure(carrier, difference_algebra(f2), {"eps": (carrier.zero,)})
    tau.validate()

    bad_carrier = PresentedRing.make(QQ, ("t",), [PresentedRing.make(QQ, ("t",), []).el("t^2")])
    with pytest.raises(NotWellDefined, match="coordinate 1 of the image of relation t\\^2 "):
        DStructure(bad_carrier, difference_algebra(QQ), {"t": (bad_carrier.one,)}).validate()

    DStructure.identity(bad_carrier, dual_numbers(QQ)).validate()


def test_base_compatibility():
    base = PresentedRing.make(QQ, ("a",), [])
    d = difference_algebra(QQ)
    e = DStructure(base, d, {"a": (base.el("a+1"),)})
    carrier = base.extend(("x",))
    good = DStructure(carrier, d, {"a": (carrier.el("a+1"),), "x": (carrier.el("x"),)}, base=e)
    good.validate()
    bad = DStructure(carrier, d, {"a": (carrier.el("a"),), "x": (carrier.el("x"),)}, base=e)
    with pytest.raises(BaseMismatch):
        bad.validate()
    # an image left unassigned on either side (a truncated window's
    # boundary) cannot be compared
    unassigned = DStructure(base, d, {"a": None})
    for images, base_structure in (({"a": None, "x": (carrier.el("x"),)}, e),
                                   ({"a": (carrier.el("a+1"),), "x": (carrier.el("x"),)},
                                    unassigned)):
        with pytest.raises(BaseMismatch, match="unassigned image for base variable 'a'"):
            DStructure(carrier, d, images, base=base_structure).validate()


def test_d_ideal_check(qt):
    sigma_sq = DStructure.difference(qt, {"t": qt.el("t^2")})
    assert sigma_sq.is_d_ideal([qt.var("t")])
    sigma_shift = DStructure.difference(qt, {"t": qt.el("t+1")})
    assert not sigma_shift.is_d_ideal([qt.var("t")])
    assert sigma_shift.is_d_ideal([])


def test_quotient_structure(qt):
    sigma_sq = DStructure.difference(qt, {"t": qt.el("t^2")})
    q = sigma_sq.quotient([qt.var("t")])
    assert q.images["t"][0].is_zero()
    q.validate()
    with pytest.raises(NotDIdeal):
        DStructure.difference(qt, {"t": qt.el("t+1")}).quotient([qt.var("t")])
    # zero ideal leaves the structure unchanged
    same = sigma_sq.quotient([])
    assert same.carrier == qt
    assert qt.equal(same.images["t"][0], qt.el("t^2"))


def test_quotient_checks_closure_on_the_quotient_carrier(qt, monkeypatch):
    """The closure check applies the induced structure, on carrier/(ideal),
    and never the structure on the carrier; a check on the carrier still
    decides a non-D-ideal the same way."""
    carriers = []
    original = DStructure.apply

    def recorded(self, x):
        carriers.append(self.carrier)
        return original(self, x)

    monkeypatch.setattr(DStructure, "apply", recorded)
    sigma_sq = DStructure.difference(qt, {"t": qt.el("t^2")})
    for ideal in ([qt.var("t")], [qt.el("t^3")], [qt.el("t^2 - t")]):
        carriers.clear()
        q = sigma_sq.quotient(ideal)
        assert carriers and all(c is q.carrier for c in carriers)
        assert q.carrier is not qt
    shift = DStructure.difference(qt, {"t": qt.el("t+1")})
    carriers.clear()
    with pytest.raises(NotDIdeal, match="not closed under the coordinate operators"):
        shift.quotient([qt.var("t")])
    assert carriers and qt not in carriers
    assert not shift.is_d_ideal([qt.var("t")])


@pytest.mark.parametrize("seed", range(6))
def test_quotient_agrees_with_the_audit_check(seed):
    """quotient raises NotDIdeal exactly when is_d_ideal says no."""
    rng = random.Random(seed)
    field = GF(7)
    ring = PresentedRing.make(field, ("s", "t"), [])
    structure = DStructure(ring, dual_numbers(field), {
        "s": (ring.var("s"), ring.el(rng.choice(["0", "s", "t^2", "s*t"]))),
        "t": (ring.var("t"), ring.el(rng.choice(["0", "t", "s^2", "s + 1"]))),
    })
    for ideal in (["s"], ["t"], ["s^2", "t^2"], ["s*t"], ["s - t"]):
        gens = [ring.el(g) for g in ideal]
        if structure.is_d_ideal(gens):
            structure.quotient(gens).validate()
        else:
            with pytest.raises(NotDIdeal):
                structure.quotient(gens)


def test_quotient_map_is_operator_homomorphism(qt):
    """Reducing then applying equals applying then reducing, per generator."""
    sigma_sq = DStructure.difference(qt, {"t": qt.el("t^2")})
    q = sigma_sq.quotient([qt.el("t^3")])
    quotient_ring = q.carrier
    for v in qt.variables:
        upstairs = sigma_sq.apply(qt.var(v))
        downstairs = q.apply(quotient_ring.var(v))
        for a, b in zip(upstairs.coords, downstairs.coords):
            assert quotient_ring.equal(quotient_ring.nf(a), b)


def test_truncated_window_depths():
    base = DStructure.identity(PresentedRing.base_field(QQ), dual_numbers(QQ))
    w0 = truncated_operator_polynomials(base, ["t"], 0)
    assert w0.carrier.variables == ("t",)
    with pytest.raises(TruncationExceeded):
        w0.coordinate_op(1, w0.carrier.var("t"))

    w1 = truncated_operator_polynomials(base, ["t"], 1)
    assert set(w1.carrier.variables) == {"t", "t_1", "t_2"}
    img = w1.images["t"]
    assert w1.carrier.render(img[0]) == "t_1"
    assert w1.carrier.render(img[1]) == "t_2"
    with pytest.raises(TruncationExceeded):
        w1.coordinate_op(1, w1.coordinate_op(1, w1.carrier.var("t")))


def test_truncated_window_bound(monkeypatch):
    """A window may have exactly MAX_WINDOW_VARIABLES variables, not one more:
    with two names and l = 2, depth 2 has 2 x 7 = 14 variables and depth 3
    has 30.  A window with no names adds no variables at any depth."""
    monkeypatch.setattr(dstructures, "MAX_WINDOW_VARIABLES", 14)
    base = DStructure.identity(PresentedRing.base_field(QQ), dual_numbers(QQ))
    assert len(truncated_operator_polynomials(base, ["s", "t"], 2).carrier.variables) == 14
    with pytest.raises(ResourceLimit):
        truncated_operator_polynomials(base, ["s", "t"], 3)
    assert truncated_operator_polynomials(base, [], 40).carrier.variables == ()


def test_window_evaluation_matches_words(qt):
    """ev(t_w) = f_w(a): the window really is a free object on its depth."""
    f = DStructure(qt, dual_numbers(QQ), {"t": (qt.var("t"), qt.el("t^2"))})
    base = DStructure.identity(PresentedRing.base_field(QQ), dual_numbers(QQ))
    window = truncated_operator_polynomials(base, ["t"], 2)
    a = qt.el("t")
    for name, word in (("t", ""), ("t_1", "1"), ("t_2", "2"),
                       ("t_11", "11"), ("t_12", "12"), ("t_21", "21"), ("t_22", "22")):
        expected = word_image(f, word, a)
        # evaluation sends the window variable to the word applied to a
        env = {name2: word_image(f, word2, a) for name2, word2 in (
            ("t", ""), ("t_1", "1"), ("t_2", "2"),
            ("t_11", "11"), ("t_12", "12"), ("t_21", "21"), ("t_22", "22"))}
        got = window.carrier.var(name).substitute(env)
        assert qt.equal(qt.nf(got), expected)
        # and the window structure itself mirrors word concatenation
        if len(word) < 2:
            for j in (1, 2):
                assert window.carrier.render(window.images[name][j - 1]) == (
                    f"t_{word}{j}" if word else f"t_{j}"
                )


def test_tensor_structures():
    s = PresentedRing.make(QQ, ("s",), [])
    t = PresentedRing.make(QQ, ("t",), [])
    dd = dual_numbers(QQ)
    f = DStructure(s, dd, {"s": (s.var("s"), s.el("s^2"))})
    g = DStructure(t, dd, {"t": (t.var("t"), t.one)})
    tens, _, _ = tensor_structures(f, g, ())
    tens.validate()
    carrier = tens.carrier
    assert carrier.equal(
        tens.coordinate_op(2, carrier.el("s*t")), carrier.el("s^2*t + s")
    )
    # difference structures tensor componentwise
    dk = difference_algebra(QQ)
    f2 = DStructure.difference(s, {"s": s.el("s^2")})
    g2 = DStructure.difference(t, {"t": t.el("t+1")})
    tens2, _, _ = tensor_structures(f2, g2, ())
    assert tens2.carrier.equal(
        tens2.coordinate_op(1, tens2.carrier.el("s*t")),
        tens2.carrier.el("s^2*t + s^2"),
    )
    # identity tensor identity = identity
    ti, _, _ = tensor_structures(DStructure.identity(s, dd), DStructure.identity(t, dd), ())
    for v in ti.carrier.variables:
        assert ti.carrier.equal(ti.images[v][0], ti.carrier.var(v))
        assert ti.images[v][1].is_zero()


def test_apply_keeps_each_image(qt, differential):
    """Applying the structure twice to equal inputs (distinct objects)
    evaluates once and gives the coordinates a fresh evaluation gives."""
    from descent_kit import evaluate_poly

    x, y = qt.el("t^3 - 2*t + 1"), qt.el("t^3 - 2*t + 1")
    assert x is not y
    first, second = differential.apply(x), differential.apply(y)
    assert second is first
    ext = differential.coeff.algebra.base_change(qt)
    env = {"t": ext.element(differential.images["t"])}
    assert first.coords == second.coords == evaluate_poly(x, env, ext).coords
    assert differential.apply(qt.el("t^2")).coords == evaluate_poly(qt.el("t^2"), env, ext).coords
