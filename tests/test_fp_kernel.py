"""The int-list polynomial kernel of ``poly`` against sympy's galoistools.

Polynomials over GF(p) run their products, divisions, gcds and modular
powers on int lists; the oracle is ``sympy.polys.galoistools`` (lists
high degree first).  p = 65537 lies above ``TABLE_CAP``, where residues
are not interned; at or below it every result coefficient must be the
field's interned residue.  Over Z the same mul and divmod serve Hensel
lifting and recombination, checked by the division identity.
"""

import pytest
from hypothesis import given, settings, strategies as st

from galbim.fieldbase import GF, TABLE_CAP
from galbim.poly import (
    Polynomial,
    _int_poly_divmod,
    _int_poly_mul,
    poly_gcd,
    poly_pow_mod,
)

gt = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy").ZZ

PRIMES = (2, 3, 4093, 65537)
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def poly_pairs(draw, nonzero_b=True):
    """(p, a, b): a prime of PRIMES and two reduced coefficient lists,
    low degree first, b nonzero when asked."""
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(0, p - 1)
    a = draw(st.lists(coeff, max_size=14))
    b = draw(st.lists(coeff, min_size=1, max_size=9))
    if nonzero_b and not any(b):
        b[-1] = 1
    return p, a, b


def values(poly):
    """The coefficients of a polynomial over GF(p) as sympy's list."""
    F = poly.field
    if F.p <= TABLE_CAP:
        assert all(c is F._els[c.value] for c in poly.coeffs)
    return [c.value for c in reversed(poly.coeffs)]


def sympy_list(a, p):
    return gt.gf_strip([ZZ(c % p) for c in reversed(a)])


def ints(xs):
    return [int(c) for c in xs]


@SETTINGS
@given(poly_pairs(nonzero_b=False))
def test_mul_matches_gf_mul(case):
    p, a, b = case
    F = GF(p)
    got = values(Polynomial(F, a) * Polynomial(F, b))
    assert got == ints(gt.gf_mul(sympy_list(a, p), sympy_list(b, p), p, ZZ))


@SETTINGS
@given(poly_pairs())
def test_divmod_matches_gf_div_and_gf_rem(case):
    p, a, b = case
    F = GF(p)
    quo, rem = Polynomial(F, a).divmod(Polynomial(F, b))
    A, B = sympy_list(a, p), sympy_list(b, p)
    want_q, want_r = gt.gf_div(A, B, p, ZZ)
    assert values(quo) == ints(want_q)
    assert values(rem) == ints(want_r) == ints(gt.gf_rem(A, B, p, ZZ))


@SETTINGS
@given(poly_pairs(nonzero_b=False))
def test_gcd_matches_gf_gcd(case):
    p, a, b = case
    F = GF(p)
    got = values(poly_gcd(Polynomial(F, a), Polynomial(F, b)))
    assert got == ints(gt.gf_gcd(sympy_list(a, p), sympy_list(b, p), p, ZZ))


@SETTINGS
@given(poly_pairs(), st.integers(0, 3 * 65537))
def test_pow_mod_matches_gf_pow_mod(case, n):
    p, a, b = case
    F = GF(p)
    got = values(poly_pow_mod(Polynomial(F, a), n, Polynomial(F, b)))
    want = gt.gf_pow_mod(sympy_list(a, p), n, sympy_list(b, p), p, ZZ)
    assert got == ints(want)


@SETTINGS
@given(st.lists(st.integers(-10**6, 10**6), max_size=12),
       st.lists(st.integers(-10**3, 10**3), max_size=6))
def test_integer_divmod_by_monic(a, b):
    b = b + [1]
    quo, rem = _int_poly_divmod(a, b)
    assert len(rem) < len(b) and (not rem or rem[-1])
    product = _int_poly_mul(quo, b)
    width = max(len(a), len(product), len(rem))
    pad = lambda xs: xs + [0] * (width - len(xs))
    assert pad(a) == [x + y for x, y in zip(pad(product), pad(rem))]
