"""The polynomial kernel's fast paths: a rational function knows whether
its denominator is 1 without testing it again, adding zero to it takes
no gcd, division by a monic polynomial takes no inverse, and all give
the same values as the general paths."""

import random
from fractions import Fraction

import pytest

from galbim import poly
from galbim.errors import FieldMismatch
from galbim.fieldbase import GF, QQ
from galbim.poly import Polynomial, poly_gcd
from galbim.towers import RationalFunctionField, extend


def _random_ratfunc(Ft, rng):
    """Polynomials, constants, zero and proper fractions, mixed."""
    k = Ft.coefficient_field
    num = Polynomial(k, [rng.randrange(-3, 4) for _ in range(rng.randrange(4))])
    kind = rng.randrange(3)
    if kind == 0:
        return Ft.coerce(num)
    if kind == 1:
        return Ft.coerce(rng.randrange(-3, 4))
    den = Polynomial(k, [rng.randrange(-3, 4) for _ in range(2)] + [1])
    return Ft.coerce(num) / Ft.coerce(den)


def _flag_matches(x):
    return x.is_polynomial() == x.den.is_one()


@pytest.mark.parametrize("base", [QQ, GF(2)], ids=repr)
def test_polynomial_flag_follows_every_operation(base):
    Ft = RationalFunctionField(base, "t")
    rng = random.Random(7300 + base.characteristic)
    xs = [_random_ratfunc(Ft, rng) for _ in range(12)]
    assert any(x.is_polynomial() for x in xs)
    assert any(not x.is_polynomial() for x in xs)
    coerced = [Ft.coerce(c) for c in (0, 1, 2, Fraction(1, 3))
               if base is QQ or not isinstance(c, Fraction)]
    coerced += [Ft.gen(), Ft.one(), Ft.zero()]
    coerced += [Ft.coerce(Polynomial(base, [1, 1]))]
    for x in xs + coerced:
        assert _flag_matches(x)
        assert _flag_matches(-x)
        assert _flag_matches(x**2)
        assert _flag_matches(x * 1) and _flag_matches(1 - x)
        if x:
            assert _flag_matches(x.inverse())
            assert _flag_matches(x**-1)
            assert _flag_matches(1 / x)
        for y in xs:
            assert _flag_matches(x + y)
            assert _flag_matches(x - y)
            assert _flag_matches(x * y)
            if y:
                assert _flag_matches(x / y)


def _proper_fractions(Ft, rng):
    out = []
    while len(out) < 6:
        x = _random_ratfunc(Ft, rng)
        if not x.is_polynomial():
            out.append(x)
    return out


def _normalised(x):
    return (
        x.den.leading() == x.den.field.one()
        and poly_gcd(x.num, x.den).is_one()
        and _flag_matches(x)
    )


@pytest.mark.parametrize("base", [QQ, GF(3)], ids=repr)
def test_adding_zero_returns_the_normalised_fraction(base):
    Ft = RationalFunctionField(base, "t")
    rng = random.Random(7600 + base.characteristic)
    zero = Ft.zero()
    for x in _proper_fractions(Ft, rng):
        for total in (zero + x, x + zero, 0 + x, x + 0, x - zero):
            assert total == x and _normalised(total)
    for total in (zero + 2, 2 + zero, zero + Ft.coerce(2)):
        assert total == Ft.coerce(2) and _normalised(total)
    assert _normalised(zero + zero) and not zero + zero


def test_adding_zero_from_another_field_still_raises():
    Fs = RationalFunctionField(QQ, "s")
    Ft = RationalFunctionField(QQ, "t")
    x = Ft.gen() / (Ft.gen() + 1)
    for a, b in ((Fs.zero(), x), (x, Fs.zero()), (Fs.zero(), Ft.zero())):
        with pytest.raises(FieldMismatch):
            a + b


@pytest.mark.parametrize("base", [QQ, GF(3)], ids=repr)
def test_adding_zero_takes_no_gcd(base, monkeypatch):
    Ft = RationalFunctionField(base, "t")
    xs = _proper_fractions(Ft, random.Random(7700 + base.characteristic))
    calls = []

    def counting_gcd(f, g):
        calls.append((f, g))
        return poly_gcd(f, g)

    monkeypatch.setattr(poly, "poly_gcd", counting_gcd)
    zero = Ft.zero()
    sums = [(x, [zero + x, x + zero, 0 + x, x + 0]) for x in xs]
    assert calls == []
    for x, totals in sums:
        assert all(total is x for total in totals)


def _fields():
    Qi = extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")
    Qi2 = extend(Qi, Polynomial(Qi, [-2, 0, 1]), "r")
    Ft = RationalFunctionField(GF(2), "t")
    Ls = extend(Ft, Polynomial(Ft, [-Ft.gen(), 0, 1]), "s", validate=False)
    return [
        pytest.param(QQ, id="Q"),
        pytest.param(GF(3), id="F3"),
        pytest.param(Qi2, id="Q(i)(sqrt2)"),
        pytest.param(Ls, id="F2(t)[s]"),
    ]


def _random_element(F, rng):
    if F is QQ:
        return Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    if hasattr(F, "p"):
        return F.from_int(rng.randrange(F.p))
    if isinstance(F, RationalFunctionField):
        k = F.coefficient_field
        num = Polynomial(k, [rng.randrange(-2, 3) for _ in range(3)])
        den = Polynomial(k, [1, rng.randrange(2), 1])
        return F.coerce(num) / F.coerce(den)
    return F.from_coords([_random_element(F.base, rng) for _ in range(F.degree)])


@pytest.mark.parametrize("F", _fields())
def test_divmod_with_monic_and_non_monic_divisors(F):
    rng = random.Random(7400)
    for _ in range(6):
        a = Polynomial(F, [_random_element(F, rng) for _ in range(6)])
        b = Polynomial(F, [_random_element(F, rng) for _ in range(3)]
                       + [F.one()])
        lead = F.zero()
        while not lead or lead == F.one():
            lead = _random_element(F, rng)
        for divisor in (b, b.scale(lead)):
            q, r = a.divmod(divisor)
            assert a == q * divisor + r
            assert r.degree < divisor.degree
        assert b.leading() == F.one() and b.scale(lead).leading() != F.one()
        assert 3 - a == -(a - 3)


def test_inverse_at_depth_three():
    Qi = extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")
    Qi2 = extend(Qi, Polynomial(Qi, [-2, 0, 1]), "r")
    K = extend(Qi2, Polynomial(Qi2, [-3, 0, 0, 1]), "c")
    rng = random.Random(7500)
    for _ in range(4):
        x = _random_element(K, rng)
        assert x * x.inverse() == K.one()
        assert x.inverse() * x == 1
