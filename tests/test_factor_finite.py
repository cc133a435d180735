"""Factoring over prime fields and over GF(9), against sympy.

Oracles (skipped when sympy is missing):

* over GF(2), GF(3), GF(5) and GF(7), sympy's
  ``Poly(..., modulus=p).factor_list()``: the monic factors' coefficient
  lists and their multiplicities must agree;
* over GF(9) = GF(3)[j]/(j^2 + 1), where sympy cannot factor, the norm
  N(g) = Res_j(g(x, j), j^2 + 1), taken by sympy over GF(3).  Each factor
  g is irreducible over GF(9) exactly when N(g) is irreducible over
  GF(3), or when g lies in GF(3)[x], is irreducible there and has odd
  degree (then N(g) = g^2).  The norms of the factors, with
  multiplicity, multiply to N(f).

The polynomials are seeded: random monic ones of degree 24, 20, 16 and
12 (the sizes of the benchmark's radical workload) and products of
random factors raised to powers, some of them to the p-th.
"""

import random

import pytest

from galbim.factor import factor_poly
from galbim.fieldbase import GF
from galbim.poly import Polynomial
from galbim.towers import extend

sp = pytest.importorskip("sympy")
X, J = sp.symbols("x j")


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


def _expr(g):
    """g(x, j) as a sympy expression, for g over GF(3)[j]/(j^2 + 1)."""
    return sum((c.coords[0].value + c.coords[1].value * J) * X**k
               for k, c in enumerate(g.coeffs))


def _norm(g):
    """Res_j(g(x, j), j^2 + 1) over GF(3), as a Poly in x."""
    res = sp.Poly(_expr(g), J, X, modulus=3).resultant(
        sp.Poly(J**2 + 1, J, X, modulus=3))
    return sp.Poly(res.as_expr(), X, modulus=3)


def test_factor_matches_norm_oracle_over_gf9():
    F3 = GF(3)
    F9 = extend(F3, Polynomial(F3, [1, 0, 1]), "j")
    for f in _polynomials(F9, 3, 1309):
        lead, parts = factor_poly(f)
        assert lead == F9.one()
        product = sp.Poly(1, X, modulus=3)
        for g, m in parts:
            assert g.leading() == F9.one()
            norm = _norm(g)
            if all(not c.coords[1] for c in g.coeffs):
                down = sp.Poly(_expr(g), X, modulus=3)
                assert norm == down**2, g
                assert down.is_irreducible and g.degree % 2 == 1, g
            else:
                assert norm.is_irreducible, g
            product = product * norm**m
        assert product == _norm(f), f
