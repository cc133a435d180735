"""Factoring over prime fields and their extensions, against sympy.

Oracles (skipped when sympy is missing):

* over GF(2), GF(3), GF(5) and GF(7), sympy's
  ``Poly(..., modulus=p).factor_list()``: the monic factors' coefficient
  lists and their multiplicities must agree;
* over GF(4), GF(9), GF(25) and the nested GF(3)[j][k] of order 81,
  where sympy cannot factor, the norm N(g) down to GF(p): the resultant
  with each layer's relation, top layer first, taken by sympy over
  GF(p).  A monic g of degree d over GF(p^n) is irreducible exactly
  when N(g) = h^m for one irreducible h over GF(p) and d = lcm(n, deg h)
  / n (every irreducible factor of g then has that degree: its roots
  are roots of h).  The factors, with multiplicity, multiply to f in
  ``oracles.TowerPolynomials``' schoolbook arithmetic.

The polynomials are seeded: random monic ones of degree 24, 20, 16 and
12 (the sizes of the benchmark's radical workload) and products of
random factors raised to powers, some of them to the p-th.
"""

import math
import random

import pytest

from galbim.factor import factor_poly
from galbim.fieldbase import GF
from galbim.poly import Polynomial
from galbim.towers import generator_layers

from oracles import TowerPolynomials, tower_ints
from test_finite_tables import FIELDS

sp = pytest.importorskip("sympy")
X = sp.Symbol("x")
GENS = sp.symbols("j k")


def _random_monic(F, degree, rng):
    q = F.finite_size
    return Polynomial(F, [F.element_from_index(rng.randrange(q))
                          for _ in range(degree)] + [F.one()])


def _polynomials(F, p, seed):
    """Four random monic polynomials of degree 24, 20, 16 and 12, and
    four products of random monic factors of degree 1 to 4, each raised
    to a power in (1, 2, 3, p), of degree at most 24."""
    rng = random.Random(seed)
    out = [_random_monic(F, d, rng) for d in (24, 20, 16, 12)]
    for _ in range(4):
        f = Polynomial.one(F)
        while True:
            g = _random_monic(F, rng.randint(1, 4), rng)
            g = g ** rng.choice((1, 2, 3, p))
            if f.degree + g.degree > 24:
                break
            f = f * g
        out.append(f)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_matches_sympy_over_prime_fields(p):
    F = GF(p)
    for f in _polynomials(F, p, 1306 + p):
        lead, parts = factor_poly(f)
        assert lead == 1
        got = sorted(([c.value for c in g.coeffs], m) for g, m in parts)
        _, want = sp.Poly([c.value for c in reversed(f.coeffs)], X,
                          modulus=p).factor_list()
        want = sorted(([c % p for c in reversed(g.monic().all_coeffs())], m)
                      for g, m in want)
        assert got == want, f


def _expr(c, gens):
    """An element of a finite tower as a sympy expression in ``gens``,
    the generators of its layers, bottom first."""
    coords = getattr(c, "coords", None)
    if coords is None:
        return c.value
    return sum(_expr(x, gens[:-1]) * gens[-1]**i
               for i, x in enumerate(coords))


def _norm(g):
    """N(g) down to GF(p), as a Poly in x: the resultant with each
    layer's relation, top layer first."""
    layers = generator_layers(g.field)
    gens = GENS[:len(layers)]
    p = g.field.characteristic
    expr = sum(_expr(c, gens) * X**k for k, c in enumerate(g.coeffs))
    for i in range(len(layers) - 1, -1, -1):
        rel = sum(_expr(c, gens[:i]) * gens[i]**k
                  for k, c in enumerate(layers[i].relation.coeffs))
        vars_ = (gens[i],) + gens[:i] + (X,)
        expr = sp.Poly(expr, *vars_, modulus=p).resultant(
            sp.Poly(rel, *vars_, modulus=p)).as_expr()
    return sp.Poly(expr, X, modulus=p)


@pytest.mark.parametrize("name, seed", [
    ("GF4", 1310), ("GF9", 1309), ("GF25", 1331), ("GF81", 1387)])
def test_factor_matches_norm_oracle_over_extensions(name, seed):
    F = FIELDS[name]()
    p = F.characteristic
    n = math.prod(layer.degree for layer in generator_layers(F))
    ref = TowerPolynomials(F)
    for f in _polynomials(F, p, seed):
        lead, parts = factor_poly(f)
        assert lead == F.one()
        product = [ref.one]
        for g, m in parts:
            assert g.leading() == F.one()
            (h, _), = _norm(g).factor_list()[1]
            assert h.is_irreducible, g
            assert g.degree * n == math.lcm(n, h.degree()), g
            for _ in range(m):
                product = ref.mul(product,
                                  [tower_ints(c) for c in g.coeffs])
        assert product == [tower_ints(c) for c in f.coeffs], f
