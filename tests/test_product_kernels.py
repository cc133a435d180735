"""The products that cost only their contributing terms.

``hopf.sparse_product`` and ``hopf.tensor_product`` add or negate where
a structure constant is 1 or -1 and join a tensor product on its first
leg; oracle: the schoolbook products of ``oracles``, on random sparse
tables whose constants are 1, -1 and others, over Q, GF(2) (where
-1 = 1), GF(5) and Q(i).  A rational function times a constant scales
the other factor with no gcd; oracle: the normalised quotient of the
products of numerators and denominators.  ``ExtElement == int`` must
agree with ``== from_int``, ints compared mod p included.  A product
that falls back across tower layers formats nothing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galbim import poly
from galbim.errors import FieldMismatch
from galbim.fieldbase import GF, QQ
from galbim.hopf import sparse_product, structure_table, tensor_product
from galbim.poly import Polynomial, RationalFunction
from galbim.towers import ExtElement, RationalFunctionField, extend

from oracles import schoolbook_product, schoolbook_tensor_product

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _qi():
    return extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")


def _constants(F):
    """1 and -1 first, then constants that are neither."""
    one = F.one()
    others = [F.from_int(2), F.from_int(3)]
    if hasattr(F, "gen"):
        others += [F.gen(), F.gen() + one, -F.gen()]
    elif F is QQ:
        others.append(QQ.one() / 2)
    return [one, -one] + [c for c in others if c]


Qi = _qi()
FIELDS = {"QQ": QQ, "GF2": GF(2), "GF5": GF(5), "Qi": Qi}


def _sparse(draw, keys, pool):
    """About half of the keys, each with a constant from the pool."""
    picks = [draw(st.sampled_from([None, *pool])) for _ in keys]
    return {key: c for key, c in zip(keys, picks) if c is not None}


def _table(draw, F, dim, pool):
    """Random structure constants, normalised as a library table."""
    terms = st.lists(st.tuples(st.integers(0, dim - 1), st.sampled_from(pool)),
                     max_size=2)
    return structure_table(F, {(i, j): draw(terms) for i in range(dim)
                               for j in range(dim)}, dim)


@st.composite
def products(draw):
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    pool = _constants(F)
    dims = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    mult_a, mult_b = (_table(draw, F, d, pool) for d in dims)
    keys = [(a, b) for a in range(dims[0]) for b in range(dims[1])]
    x, y = (_sparse(draw, keys, pool) for _ in range(2))
    return F, mult_a, mult_b, x, y


@SETTINGS
@given(products())
def test_kernels_match_the_schoolbook_products(case):
    F, mult_a, mult_b, x, y = case
    got = tensor_product(mult_a, mult_b, x, y)
    assert got == schoolbook_tensor_product(mult_a, mult_b, x, y)
    first = ({a: c for (a, _), c in x.items()},
             {a: c for (a, _), c in y.items()})
    flat = sparse_product(mult_a, *first)
    assert flat == schoolbook_product(mult_a, *first)
    for out in (got, flat):
        assert all(out.values())
        if F is QQ:
            # Q's elements are ints and Fractions, never floats
            assert all(isinstance(c, (int, Fraction)) and c == QQ.coerce(c)
                       for c in out.values())
        else:
            assert all(type(c) is type(F.one()) for c in out.values())


def test_unit_constants_are_not_multiplied(monkeypatch):
    # Taft(2,2)-like signs over Q(i): every product by 1 or -1 is a sum
    mult = {(0, 0): ((0, Qi.one()),), (0, 1): ((1, -Qi.one()),),
            (1, 1): ((0, Qi.one()), (1, Qi.gen()))}
    x = {0: Qi.gen() + Qi.one(), 1: Qi.from_int(2)}
    y = {0: Qi.gen(), 1: Qi.from_int(3)}
    want = schoolbook_product(mult, x, y)
    calls = []
    real = type(Qi)._mul
    monkeypatch.setattr(type(Qi), "_mul",
                        lambda F, a, b: calls.append(1) or real(F, a, b))
    assert sparse_product(mult, x, y) == want
    # three coefficient products and one by the constant i, none by +-1
    assert len(calls) == 4


def test_tensor_product_skips_pairs_whose_first_legs_vanish():
    # A = F[e]/(e^2): every pair (e, e) on the first leg multiplies to 0
    one = QQ.one()
    mult_a = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),)}
    looked = []

    class Watched(dict):
        def get(self, key, default=None):
            looked.append(key)
            return dict.get(self, key, default)

    mult_b = Watched({(0, 0): ((0, one),)})
    x = {(1, 0): one}
    y = {(1, 0): one, (0, 0): one}
    assert tensor_product(mult_a, mult_b, x, y) == {(1, 0): one}
    assert looked == [(0, 0)]


# ---------------------------------------------------- rational functions


def _ratfunc_fields():
    return {"Qi(u)": RationalFunctionField(Qi, "u"),
            "F3(t)": RationalFunctionField(GF(3), "t")}


RATFUNC_FIELDS = _ratfunc_fields()


@st.composite
def scalings(draw):
    Ft = RATFUNC_FIELDS[draw(st.sampled_from(sorted(RATFUNC_FIELDS)))]
    K = Ft.coefficient_field
    pool = [K.zero()] + _constants(K)
    coeffs = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    num = Polynomial(K, draw(coeffs))
    den = Polynomial(K, draw(coeffs))
    if not den:
        den = Polynomial.one(K)
    a = RationalFunction(Ft, num, den)
    c = Ft.constant(draw(st.sampled_from(_constants(K))))
    return Ft, a, c


@SETTINGS
@given(scalings())
def test_rational_function_times_a_constant_needs_no_gcd(case):
    Ft, a, c = case
    want = RationalFunction(Ft, a.num * c.num, a.den * c.den)
    real = poly.poly_gcd
    poly.poly_gcd = None  # a gcd call fails the test
    try:
        products = [a * c, c * a]
    finally:
        poly.poly_gcd = real
    for got in products:
        assert (got.num, got.den) == (want.num, want.den)
        assert got.den.leading() == Ft.coefficient_field.one()
        assert poly.poly_gcd(got.num, got.den).is_one()
        assert got.is_polynomial() == want.den.is_one()


# ------------------------------------------------------ ExtElement == int


def _int_towers():
    F3 = GF(3)
    gf9 = extend(F3, Polynomial(F3, [1, 0, 1]), "j")
    F5t = RationalFunctionField(GF(5), "t")
    tower5 = extend(F5t, Polynomial(F5t, [-F5t.gen(), 0, 1]), "w",
                    validate=False)
    Fu = RationalFunctionField(Qi, "u")
    u = Fu.gen()
    taft = extend(Fu, Polynomial(Fu, [Fu.one() - u, 0, 2, 0, 1]), "z")
    return {"Qi": Qi, "GF9": gf9, "F5(t)(w)": tower5, "Qi(u)(z)": taft}


INT_TOWERS = _int_towers()


@SETTINGS
@given(st.sampled_from(sorted(INT_TOWERS)), st.integers(-12, 12),
       st.integers(-12, 12), st.booleans())
def test_ext_element_equals_int_as_from_int(name, m, n, shifted):
    F = INT_TOWERS[name]
    x = F.from_int(m)
    if shifted:
        x = x + F.gen()
    assert (x == n) is (x == F.from_int(n))
    assert (n == x) is (x == F.from_int(n))
    if F.characteristic and not shifted:
        assert (x == n) is ((m - n) % F.characteristic == 0)


# ----------------------------------------------- the coercion fallback


def test_cross_layer_product_formats_nothing(monkeypatch):
    Fu = RationalFunctionField(Qi, "u")
    u = Fu.gen()
    L = extend(Fu, Polynomial(Fu, [Fu.one() - u, 0, 2, 0, 1]), "z")
    r = (u + Fu.one()) / (u * u + Fu.from_int(3))
    w = L.gen() * L.gen() + L.coerce(u)
    want = L.coerce(r) * w

    def no_repr(self):
        raise AssertionError("an element was formatted")

    monkeypatch.setattr(ExtElement, "__repr__", no_repr)
    assert r * w == want
    assert w * r == want


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_failed_coercion_names_the_type(field):
    with pytest.raises(FieldMismatch, match="cannot coerce type object into"):
        field.coerce(object())
