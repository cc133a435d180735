"""Squarefree parts and decompositions.

Oracles: sympy's ``sqf_list`` and ``sqf_part`` over Q and GF(5)
(skipped when sympy is missing).  sympy has no correct squarefree
algorithm over GF(9), so there the radical of f is gcd(f, rad N(f)),
with N(f) = f * frob(f) the norm to GF(3), its radical taken by sympy
over GF(3) and the gcd by sympy over GF(3)[t]/(t^2 + 1).
"""

import random
from fractions import Fraction

import pytest

from galbim.errors import UnsupportedBase
from galbim.fieldbase import GF, QQ
from galbim.poly import Polynomial, squarefree_decomposition
from galbim.towers import RationalFunctionField, extend

from oracles import squarefree_part


def test_pth_power_factors_over_an_imperfect_field():
    # over F2(t) the radical of x^9 and of (x^3 + 1)^5 needs no p-th
    # root of a coefficient; that of x^2 + t would
    F = RationalFunctionField(GF(2), "t")
    x = Polynomial.x(F)
    assert squarefree_part(x**9) == x
    assert squarefree_part((x**3 + 1) ** 5) == x**3 + 1
    with pytest.raises(UnsupportedBase):
        squarefree_part(x**2 + F.gen())


def test_squarefree_part_of_a_constant_is_one():
    assert squarefree_part(Polynomial.zero(QQ)) == Polynomial.one(QQ)
    assert squarefree_part(Polynomial.constant(QQ, 3)) == Polynomial.one(QQ)


GF5 = GF(5)
GF9 = extend(GF(3), Polynomial(GF(3), [1, 0, 1]), "j")


def _random_coeff(F, rng):
    if F is QQ:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
    if F is GF9:
        return F.from_coords([F.base.from_int(rng.randrange(3))
                              for _ in range(2)])
    return F.from_int(rng.randrange(F.p))


def _random_product(F, rng, p):
    """A monic product of 1 to 3 random monic factors of degree 1 or 2,
    each raised to a power up to 3 or to p (a p-th power in char p)."""
    f = Polynomial.one(F)
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 2)
        g = Polynomial(F, [_random_coeff(F, rng) for _ in range(d)] + [1])
        f = f * g ** rng.choice((1, 2, 3, p))
    return f


def _sqf_from_radicals(f, radical):
    """[(g_m, m)] from radicals alone: R_k = rad(f / (R_1 ... R_{k-1}))
    collects the factors of multiplicity >= k, and g_k = R_k / R_{k+1}."""
    rads = []
    while f.degree() > 0:
        r = radical(f)
        rads.append(r)
        f = f.quo(r)
    rads.append(f)  # the constant 1
    return [(rads[k].quo(rads[k + 1]), k + 1) for k in range(len(rads) - 1)
            if rads[k].degree() > rads[k + 1].degree()]


@pytest.mark.parametrize("F, p", [(QQ, 2), (GF5, 5)], ids=["Q", "GF5"])
def test_squarefree_matches_sympy(F, p):
    sp = pytest.importorskip("sympy")
    X = sp.Symbol("x")

    def to_sympy(f):
        if F is QQ:
            return sp.Poly([sp.Rational(c.numerator, c.denominator)
                            for c in reversed(f.coeffs)], X, domain=sp.QQ)
        return sp.Poly([c.value for c in reversed(f.coeffs)], X, modulus=5)

    def key(g):
        return [c % 5 if F is GF5 else c
                for c in g.monic().all_coeffs()]

    rng = random.Random(1306)
    for _ in range(12):
        f = _random_product(F, rng, p)
        _, parts = squarefree_decomposition(f)
        want = to_sympy(f).sqf_list()[1]
        assert [(key(to_sympy(g)), m) for g, m in parts] == [
            (key(g), m) for g, m in want
        ], f
        assert key(to_sympy(squarefree_part(f))) == key(
            to_sympy(f).sqf_part()
        ), f


def test_squarefree_matches_norm_oracle_over_gf9():
    sp = pytest.importorskip("sympy")
    from sympy.polys.agca.extensions import FiniteExtension
    from sympy.polys.polyclasses import DMP

    class Residues(FiniteExtension):
        # FiniteExtension.exquo divides representatives in GF(3)[t],
        # which fails unless they divide there; divide in the field
        def exquo(self, a, b):
            return a * b.inverse()

    T, X = sp.symbols("t x")
    K = Residues(sp.Poly(T**2 + 1, T, modulus=3))
    j = K.generator

    def to_k(f):
        return DMP([int(c.coords[0].value) * K.one
                    + int(c.coords[1].value) * j
                    for c in reversed(f.coeffs)], K)

    def conj(a):
        # the Frobenius a -> a^3 fixes GF(3) and sends j to -j
        return a**3

    def in_gf3(a):
        coeffs = a.rep.to_list()   # over GF(3), in powers of t
        assert len(coeffs) <= 1
        return int(coeffs[0]) if coeffs else 0

    def radical(f):
        norm = f * DMP([conj(c) for c in f.to_list()], K)
        gf3 = sp.Poly([in_gf3(c) for c in norm.to_list()], X, modulus=3)
        rad = DMP([int(c) * K.one for c in gf3.sqf_part().all_coeffs()], K)
        return f.gcd(rad).monic()

    rng = random.Random(1306)
    for _ in range(12):
        f = _random_product(GF9, rng, 3)
        fk = to_k(f)
        assert to_k(squarefree_part(f)) == radical(fk), f
        _, parts = squarefree_decomposition(f)
        want = _sqf_from_radicals(fk, radical)
        assert [(to_k(g), m) for g, m in parts] == [
            (g.monic(), m) for g, m in want
        ], f
