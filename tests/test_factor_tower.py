"""Factoring over number fields and Hensel lifting over the integers.

Oracles: sympy's ``factor_list(..., extension=...)`` for factorizations
over Q(i), Q(sqrt 2), Q(2^(1/3)) and the depth-2 tower Q(i)(sqrt 2)
(skipped when sympy is missing); the product f * conj(f) for the norm
from Q(i); and, for Hensel lifting, the defining congruences checked
directly on integer lists.
"""

import random
from fractions import Fraction

import pytest

from galbim.factor import (
    _factor_finite_squarefree,
    _hensel_lift_list,
    _hensel_lift_pair,
    _int_poly_mul,
    _norm_to_base,
    factor_poly,
)
from galbim.fieldbase import GF, QQ
from galbim.poly import Polynomial, poly_gcd
from galbim.towers import extend


def _fields():
    x = Polynomial.x(QQ)
    qi = extend(QQ, x**2 + 1, "i")
    y = Polynomial.x(qi)
    return {
        "i": qi,
        "sqrt2": extend(QQ, x**2 - 2, "r"),
        "cbrt2": extend(QQ, x**3 - 2, "c"),
        "i_sqrt2": extend(qi, y**2 - 2, "s"),
    }


def _random_element(K, rng):
    if K is QQ:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return K.from_coords([_random_element(K.base, rng) for _ in range(K.degree)])


def _random_product(K, rng, max_degree):
    """A monic product over K of random monic factors of degree 1 or 2,
    some of them squared, of degree at most max_degree."""
    f = Polynomial.one(K)
    while True:
        d = rng.randint(1, 2)
        if f.degree + d > max_degree:
            return f
        g = Polynomial(K, [_random_element(K, rng) for _ in range(d)] + [1])
        if f.degree + 2 * d <= max_degree and rng.random() < 0.25:
            g = g * g
        f = f * g


# (field, number of polynomials, degree cap); 20 in all
CASES = [("i", 6, 6), ("sqrt2", 6, 6), ("cbrt2", 4, 4), ("i_sqrt2", 4, 3)]


def test_tower_factoring_matches_sympy():
    sp = pytest.importorskip("sympy")
    X = sp.Symbol("x")
    exts = {
        "i": [sp.I],
        "sqrt2": [sp.sqrt(2)],
        "cbrt2": [sp.cbrt(2)],
        "i_sqrt2": [sp.I, sp.sqrt(2)],
    }

    def to_domain(c, dom, gens):
        # coordinates over the layer below, in powers of its generator
        if not gens:
            return dom.convert(sp.QQ(c.numerator, c.denominator))
        *below, top = gens
        out = dom.zero
        for j, a in enumerate(c.coords):
            out += to_domain(a, dom, below) * top**j
        return out

    rng = random.Random(2013)
    fields = _fields()
    for name, count, max_degree in CASES:
        K = fields[name]
        dom = sp.QQ.algebraic_field(*exts[name])
        gens = [dom.from_sympy(g) for g in exts[name]]

        def dom_coeffs(coeffs):
            # coefficients over dom, high degree first
            return [to_domain(c, dom, gens) for c in reversed(coeffs)]

        for _ in range(count):
            f = _random_product(K, rng, max_degree)
            lead, factors = factor_poly(f)
            assert lead == K.one()
            got = sorted((str(dom_coeffs(g.coeffs)), m) for g, m in factors)
            poly = sp.Poly.from_list(dom_coeffs(f.coeffs), X, domain=dom)
            want = sorted(
                (str(g.monic().rep.to_list()), m) for g, m in poly.factor_list()[1]
            )
            assert got == want, (name, f)


def test_norm_from_gaussian_field_is_f_times_conjugate():
    K = _fields()["i"]
    rng = random.Random(5)
    for _ in range(8):
        d = rng.randint(1, 4)
        f = Polynomial(K, [_random_element(K, rng) for _ in range(d)] + [1])
        conj = Polynomial(K, [K.from_coords([c.coords[0], -c.coords[1]]) for c in f.coeffs])
        product = f * conj
        assert all(c.coords[1] == 0 for c in product.coeffs)
        norm = _norm_to_base(f, K.relation)
        assert norm.field is QQ
        assert norm.degree == f.degree * K.relation.degree
        assert norm.leading() == 1
        assert norm == Polynomial(QQ, [c.coords[0] for c in product.coeffs])


# ------------------------------------------------------------ Hensel lifting


def _mod_list(f, m):
    out = [c % m for c in f]
    while out and not out[-1]:
        out.pop()
    return out


def _split_instances(count):
    """(target, modular factors, p) for seeded monic integer polynomials
    that stay squarefree mod p and split there into at least 3 factors."""
    rng = random.Random(40)
    found = []
    while len(found) < count:
        p = rng.choice((3, 5, 7))
        target = [1]
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(1, 2)
            target = _int_poly_mul(target, [rng.randint(-9, 9) for _ in range(d)] + [1])
        fp = Polynomial(GF(p), target)
        if not poly_gcd(fp, fp.derivative()).is_one():
            continue
        modular = _factor_finite_squarefree(fp, seed=0)
        if len(modular) >= 3:
            found.append((target, modular, p))
    return found


@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_hensel_lift_properties(k):
    for target, modular, p in _split_instances(6):
        pk = p**k
        lifted = _hensel_lift_list(target, modular, p, k)
        assert len(lifted) == len(modular)
        product = [1]
        for g, g_p in zip(lifted, modular):
            assert g[-1] == 1
            assert len(g) == g_p.degree + 1
            assert _mod_list(g, p) == [c.value for c in g_p.coeffs]
            product = _int_poly_mul(product, g)
        assert _mod_list(product, pk) == _mod_list(target, pk)


def test_hensel_lift_rejects_common_factor():
    F = GF(5)
    g = Polynomial(F, [1, 1])
    h = Polynomial(F, [4, 0, 1])  # x^2 - 1 shares x + 1 with g
    f_int = _int_poly_mul([1, 1], [-1, 0, 1])
    with pytest.raises(ArithmeticError):
        _hensel_lift_pair(f_int, g, h, 5, 10)
