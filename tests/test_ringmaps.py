"""Ring maps out of a tower: field morphisms, bimodule left actions and
derivations are all evaluated from generator images.  These tests pin
the shared contract: the maps respect + and * on elements whose
denominators are not 1, twists act as sigma(x) Id, derivations obey
the Leibniz rule, and a denominator whose image vanishes (or is
singular) raises the caller's own error."""

import random

import pytest

from galbim.bimod import Bimodule, twist
from galbim.derivations import Derivation, m_of_d
from galbim.errors import NotAHomomorphism, NotInvertible
from galbim.fieldbase import GF, QQ
from galbim.matrix import Matrix
from galbim.morphisms import FieldMorphism
from galbim.poly import Polynomial
from galbim.towers import RationalFunctionField, extend


def _tower(base):
    """L = base(t)[s]/(s^2 - t) together with its layers."""
    Ft = RationalFunctionField(base, "t")
    t = Ft.gen()
    L = extend(Ft, Polynomial(Ft, [-t, 0, 1]), "s")
    return Ft, L


def _random_ratfunc(Ft, rng):
    """A rational function in t whose denominator is not 1."""
    k = Ft.coefficient_field
    while True:
        num = Polynomial(k, [rng.randrange(-3, 4) for _ in range(3)])
        den = Polynomial(k, [rng.randrange(1, 4), rng.randrange(-2, 3), 1])
        r = Ft.coerce(num) / Ft.coerce(den)
        if not r.is_polynomial():
            return r


def _random_element(Ft, L, rng):
    return L.from_coords([_random_ratfunc(Ft, rng) for _ in range(L.degree)])


def _cases():
    out = []
    for base in (QQ, GF(2)):
        Ft, L = _tower(base)
        t, s = L.coerce(Ft.gen()), L.gen()
        # t -> t^3, s -> s^3 moves the rational function layer
        cube = FieldMorphism(L, L, {Ft: t**3, L: s**3})
        morphisms = [cube]
        if base is QQ:
            morphisms.append(FieldMorphism(L, L, {L: -s}))
            # d/dt extended by D(s) = 1 / (2 s)
            D = Derivation(L, {Ft: L.one(), L: L.one() / (L.from_int(2) * s)})
        else:
            # s^2 - t is inseparable: D(t) = 0 and D(s) is free
            D = Derivation(L, {L: L.one()})
        out.append(pytest.param(Ft, L, morphisms, D, id=repr(base)))
    return out


def _pairs(Ft, L, seed, n=3):
    rng = random.Random(seed)
    xs = [_random_element(Ft, L, rng) for _ in range(n)]
    return [(x, y) for x in xs for y in xs]


@pytest.mark.parametrize("Ft, L, morphisms, D", _cases())
def test_ring_maps_respect_sum_and_product(Ft, L, morphisms, D):
    pairs = _pairs(Ft, L, 5100 + L.characteristic)
    for x, _ in pairs:
        assert not any(c.is_polynomial() for c in x.coords)
    bimodules = [twist(L, sigma) for sigma in morphisms] + [m_of_d(D)]
    for sigma in morphisms:
        for x, y in pairs:
            assert sigma.apply(x + y) == sigma.apply(x) + sigma.apply(y)
            assert sigma.apply(x * y) == sigma.apply(x) * sigma.apply(y)
    for P in bimodules:
        for x, y in pairs:
            assert P.phi(x + y) == P.phi(x) + P.phi(y)
            assert P.phi(x * y) == P.phi(x) * P.phi(y)


@pytest.mark.parametrize("Ft, L, morphisms, D", _cases())
def test_twist_acts_through_sigma(Ft, L, morphisms, D):
    rng = random.Random(5200 + L.characteristic)
    for sigma in morphisms:
        P = twist(L, sigma)
        for _ in range(4):
            x = _random_element(Ft, L, rng)
            assert P.phi(x) == Matrix.identity(L, 1).scale(sigma.apply(x))


@pytest.mark.parametrize("Ft, L, morphisms, D", _cases())
def test_derivation_leibniz(Ft, L, morphisms, D):
    assert not D.is_zero()
    for x, y in _pairs(Ft, L, 5300 + L.characteristic):
        assert D.apply(x + y) == D.apply(x) + D.apply(y)
        assert D.apply(x * y) == x * D.apply(y) + y * D.apply(x)


def test_vanishing_denominator_image_is_not_a_homomorphism():
    Ft = RationalFunctionField(QQ, "t")
    t = Ft.gen()
    f = FieldMorphism(Ft, Ft, {Ft: 1})
    assert f.apply(t * t + 1) == Ft.from_int(2)
    with pytest.raises(NotAHomomorphism):
        f.apply(Ft.one() / (t - 1))


def test_singular_denominator_image_is_not_invertible():
    Ft = RationalFunctionField(QQ, "t")
    t = Ft.gen()
    P = Bimodule(Ft, {Ft: Matrix(Ft, [[1]])})
    assert P.phi(t + 1) == Matrix(Ft, [[2]])
    with pytest.raises(NotInvertible):
        P.phi(Ft.one() / (t - 1))


def test_vanishing_denominator_in_a_relation_is_not_a_homomorphism():
    # t -> 1 sends the coefficient 1 / (t - 1) of x^2 - 1 / (t - 1) to
    # 1 / 0 while the relation is checked
    Ft = RationalFunctionField(QQ, "t")
    t = Ft.gen()
    L = extend(Ft, Polynomial(Ft, [-(Ft.one() / (t - 1)), 0, 1]), "x")
    with pytest.raises(NotAHomomorphism):
        FieldMorphism(L, L, {Ft: 1, L: L.gen()})
