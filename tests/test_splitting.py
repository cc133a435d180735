"""Every computed splitting field really splits its polynomial: a
hypothesis property over Q, GF(3) and GF(5) on products of monic factors
of degree at most 2, drawn with repeated factors.  The returned roots
reproduce f, the field is built root by root, and it is normal over the
coefficient field: its automorphism count equals its degree, which also
runs the root search on the pool the splitting field seeds."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from galbim.fieldbase import GF, QQ
from galbim.fieldops import splitting_field
from galbim.morphisms import automorphisms_over
from galbim.poly import Polynomial
from galbim.towers import algebraic_degree

FIELDS = {"Q": QQ, "GF3": GF(3), "GF5": GF(5)}

# (coefficients below the leading 1, multiplicity); quadratics first, so
# that shrinking keeps the towers nontrivial
monic_factor = st.tuples(
    st.one_of(
        st.lists(st.integers(-4, 4), min_size=2, max_size=2),
        st.lists(st.integers(-4, 4), min_size=1, max_size=1),
    ),
    st.integers(1, 2),
)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_splitting_field_splits_f(name):
    F = FIELDS[name]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(factors=st.lists(monic_factor, min_size=1, max_size=3))
    # (x^2 + x + 1)(x^2 - 2)(x^2 + 1)^2: degree 8 over Q
    @example(factors=[([1, 1], 1), ([-2, 0], 1), ([1, 0], 2)])
    def check(factors):
        f = Polynomial.one(F)
        for low, mult in factors:
            g = Polynomial(F, [F.coerce(c) for c in low] + [F.one()])
            f = f * g**mult
        data = splitting_field(f)
        E = data.field
        x = Polynomial.x(E)
        product = Polynomial.one(E)
        for r, m in data.roots:
            product = product * (x - r) ** m
        assert product == f.map_coeffs(E, E.coerce)
        assert data.minimal is True
        degree = algebraic_degree(E, F)
        assert automorphisms_over(E, F).order == degree

    check()
