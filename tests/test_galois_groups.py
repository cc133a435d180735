"""Galois groups over Q against sympy's, an independent algorithm.

``splitting_field`` builds the splitting field E of an irreducible
integer polynomial and ``automorphisms_over`` enumerates Aut(E/Q);
sympy's ``galois_group`` finds the group by resolvents, as permutations
of the roots, with no field arithmetic in common.  The two must agree on
the order, on the number of elements of each order (read off
``AutomorphismGroup.table()``) and on commutativity.  The polynomials
are seeded random cubics and quartics with coefficients in [-4, 4],
mostly S3 and S4, and chosen quartics with the groups V4, C4 and D4;
a group above order 24 is skipped, which bounds the cost."""

import random
from collections import Counter

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.numberfields.galoisgroups import galois_group

from galbim.fieldbase import QQ
from galbim.fieldops import splitting_field
from galbim.morphisms import automorphisms_over
from galbim.poly import Polynomial

X = sympy.Symbol("x")
SEED = 7
DRAWN = 16
MAX_ORDER = 24
# low coefficient first: x^4 + 1 (V4), x^4 - 4x^2 + 2 (C4),
# x^4 + x^3 + x^2 + x + 1 (C4), x^4 - 2 (D4), x^3 - 3x + 1 (C3)
CHOSEN = [[1, 0, 0, 0, 1], [2, 0, -4, 0, 1], [1, 1, 1, 1, 1],
          [-2, 0, 0, 0, 1], [1, -3, 0, 1]]


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X)


def _drawn():
    """DRAWN irreducible cubics and quartics, low coefficient first,
    every coefficient in [-4, 4] and the leading one nonzero."""
    rng = random.Random(SEED)
    out = []
    while len(out) < DRAWN:
        degree = rng.choice([3, 4])
        coeffs = [rng.randint(-4, 4) for _ in range(degree)]
        coeffs.append(rng.choice([c for c in range(-4, 5) if c]))
        if _sympy_poly(coeffs).is_irreducible:
            out.append(coeffs)
    return out


def _element_orders(table):
    """The order of each element of a group given by its table, with
    the identity at index 0."""
    def order(g):
        k, y = 1, g
        while y:
            y, k = table[y][g], k + 1
        return k
    return [order(g) for g in range(len(table))]


@pytest.mark.parametrize("coeffs", _drawn() + CHOSEN, ids=str)
def test_automorphism_group_matches_sympy(coeffs):
    G, _ = galois_group(_sympy_poly(coeffs), by_name=False)
    if G.order() > MAX_ORDER:
        pytest.skip("group of order %d" % G.order())
    E = splitting_field(Polynomial(QQ, coeffs)).field
    A = automorphisms_over(E, QQ)
    assert A.order == G.order()
    assert Counter(_element_orders(A.table())) == \
        Counter(g.order() for g in G.elements)
    assert A.is_abelian() is G.is_abelian
