"""``poly.power``, the binary power behind ``__pow__`` of polynomials,
rational functions, tower elements and matrices, equals the n-fold
product for n = 0..12: a hypothesis property over Q, GF(7), Q(i)(sqrt2),
polynomials over Q and 2x2 matrices over Q.  For an invertible element
of GF(7), Q(i)(sqrt2) or Mat2(Q), x**-2 is the square of its inverse."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from galbim.errors import NotInvertible
from galbim.fieldbase import GF, QQ
from galbim.matrix import Matrix
from galbim.poly import Polynomial, power
from galbim.towers import extend

F7 = GF(7)
QI = extend(QQ, Polynomial.x(QQ) ** 2 + 1, "i")
QI_S2 = extend(QI, Polynomial.x(QI) ** 2 - 2, "s2")

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _tower_element(c):
    i = QI_S2.coerce(QI.gen())
    s = QI_S2.gen()
    return c[0] + c[1] * i + c[2] * s + c[3] * i * s


CASES = {
    "Q": (small, Fraction(1)),
    "GF7": (st.integers(0, 6).map(F7.coerce), F7.one()),
    "Q(i)(sqrt2)": (
        st.lists(small, min_size=4, max_size=4).map(_tower_element),
        QI_S2.one(),
    ),
    "Q[x]": (
        st.lists(small, max_size=4).map(lambda c: Polynomial(QQ, c)),
        Polynomial.one(QQ),
    ),
    "Mat2(Q)": (
        st.lists(small, min_size=4, max_size=4).map(
            lambda c: Matrix(QQ, [c[:2], c[2:]])
        ),
        Matrix.identity(QQ, 2),
    ),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_power_is_the_repeated_product(kind):
    elements, one = CASES[kind]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(x=elements)
    def check(x):
        product = one
        for n in range(13):
            assert power(x, n, one) == product
            assert x**n == product
            product = product * x
        if kind in ("Q", "Q[x]"):
            return
        try:
            inverse = x.inverse()
        except NotInvertible:
            return
        assert x**-2 == inverse**2

    check()
