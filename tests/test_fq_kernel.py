"""The index-list polynomial kernel of ``poly`` over tabled GF(q).

Oracle: ``oracles.TowerPolynomials``, schoolbook polynomial arithmetic
on the int tuples of ``oracles.TowerArithmetic``.  Products, divisions,
gcds and modular powers over GF(4), GF(8), GF(9), GF(25), GF(27) and the
nested GF(3)[j][k] of order 81 run on element indices, characteristic 2
(where -1 = 1, so g^half is g^0) included; every result coefficient
must be the field's interned element.  GF(3^8), above ``TABLE_CAP``,
and the ring GF(3)[e]/(e^2 - 1) passed with ``validate=False`` compute
coefficient by coefficient and must give the same answers; over the
ring, where the reference finds a leading zero divisor, the library
raises NotInvertible.
"""

import pytest
from hypothesis import given, settings, strategies as st

from galbim.errors import NotInvertible
from galbim.fieldbase import GF, TABLE_CAP
from galbim.poly import (
    Polynomial,
    _FqLists,
    _list_arithmetic,
    poly_gcd,
    poly_pow_mod,
)
from galbim.towers import ExtElement, extend

from oracles import TowerPolynomials, tower_ints
from test_finite_tables import FIELDS


def _gf3_8():
    F3 = GF(3)
    return extend(F3, Polynomial(F3, [2, 0, 1, 0, 0, 0, 0, 0, 1]), "y")


def _ring():
    F3 = GF(3)
    return extend(F3, Polynomial(F3, [-1, 0, 1]), "e", validate=False)


TABLED = {name: make() for name, make in FIELDS.items()}
UNTABLED = {"GF6561": _gf3_8(), "ring9": _ring()}
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def cases(draw):
    """(field, a, b, n): two polynomials over one of the fields as index
    lists, low degree first (b nonzero), and an exponent."""
    name = draw(st.sampled_from(sorted(TABLED) + sorted(UNTABLED)))
    F = TABLED.get(name) or UNTABLED[name]
    index = st.integers(0, F.finite_size - 1)
    a = draw(st.lists(index, max_size=10))
    b = draw(st.lists(index, min_size=1, max_size=6))
    if not any(b):
        b[-1] = 1
    n = draw(st.integers(0, 3 * F.finite_size))
    return F, a, b, n


def _poly(F, idx):
    return Polynomial(F, [F.element_from_index(k) for k in idx])


def _values(F, poly):
    """The coefficients as ``tower_ints``; each interned where F has
    tables."""
    if F._exp is not None:
        assert all(c._index is not None
                   and c is F.element_from_index(c._index)
                   for c in poly.coeffs)
    return [tower_ints(c) for c in poly.coeffs]


def _agree(F, got, want):
    """got() over the library equals want() over the reference, or both
    fail to invert a leading coefficient."""
    try:
        expected = want()
    except ZeroDivisionError:
        with pytest.raises(NotInvertible):
            got()
        return
    result = got()
    if isinstance(result, tuple):
        assert [_values(F, r) for r in result] == list(expected)
    else:
        assert _values(F, result) == expected


@SETTINGS
@given(cases())
def test_list_kernel_matches_schoolbook_arithmetic(case):
    F, a, b, n = case
    ref = TowerPolynomials(F)
    A, B = _poly(F, a), _poly(F, b)
    ra, rb = ([tower_ints(c) for c in P.coeffs] for P in (A, B))
    _agree(F, lambda: A * B, lambda: ref.mul(ra, rb))
    _agree(F, lambda: A.divmod(B), lambda: ref.divmod(ra, rb))
    _agree(F, lambda: poly_gcd(A, B), lambda: ref.gcd(ra, rb))
    _agree(F, lambda: poly_pow_mod(A, n, B),
           lambda: ref.pow_mod(ra, n, rb))
    tabled = F in TABLED.values()
    assert (_list_arithmetic(F) is _FqLists) == tabled
    assert (F._exp is not None) == tabled


def test_uninterned_coefficients_meet_the_tables():
    F = TABLED["GF81"]
    a = [F.element_from_index(k) for k in (5, 0, 17, 80, 1)]
    b = [F.element_from_index(k) for k in (40, 3, 1)]
    twins = [Polynomial(F, [ExtElement(F, c.coords) for c in p])
             for p in (a, b)]
    assert all(t is not c and t._index == c._index
               for p, q in zip(twins, (a, b)) for t, c in zip(p.coeffs, q)
               if c)
    A, B = Polynomial(F, a), Polynomial(F, b)
    ta, tb = twins
    for got, want in ((ta * tb, A * B), (ta.divmod(tb), A.divmod(B)),
                      (poly_gcd(ta, tb), poly_gcd(A, B)),
                      (poly_pow_mod(ta, 9, tb), poly_pow_mod(A, 9, B))):
        assert got == want
        for r in got if isinstance(got, tuple) else (got,):
            _values(F, r)


def test_untabled_fields_keep_the_element_path():
    F, R = UNTABLED["GF6561"], UNTABLED["ring9"]
    assert F.finite_size > TABLE_CAP
    assert F._els is None and _list_arithmetic(F) is None
    assert R.finite_size <= TABLE_CAP
    assert _list_arithmetic(R) is None and R._els is None


def test_a_layer_over_an_untabled_ring_is_untabled():
    # GF(3)[x]/(x^2 - 1) has zero divisors, so it has no tables, and a
    # layer over it builds none either
    F3 = GF(3)
    R = extend(F3, Polynomial(F3, [-1, 0, 1]), "x", validate=False)
    S = extend(R, Polynomial(R, [1, 0, 1]), "y", validate=False)
    assert S.finite_size <= TABLE_CAP
    assert R._els is None and S._els is None
    assert _list_arithmetic(S) is None


def test_pow_mod_of_a_zero_modulus_raises():
    F = TABLED["GF9"]
    with pytest.raises(ZeroDivisionError):
        poly_pow_mod(Polynomial.x(F), 3, Polynomial.zero(F))
