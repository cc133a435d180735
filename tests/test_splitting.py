"""Every computed splitting field really splits its polynomial: a
hypothesis property over Q, GF(3) and GF(5) on products of monic factors
of degree at most 2, drawn with repeated factors.  The returned roots
reproduce f, the field is built root by root, and it is normal over the
coefficient field: its automorphism count equals its degree, which also
runs the root search on the pool the splitting field seeds.

The conjugate step that ``splitting_field`` runs on each adjoined root
returns only roots: a property over the same fields on the irreducible
factors of drawn polynomials.  In a normal field E over K, the orbit
of any element z under Aut(E/K) is every root of its minimal
polynomial: a property over the normal fields of ``test_bimod``.

The root search of morphism enumeration and ``locate_roots``,
``morphisms._roots_in_pool``, agrees with the reference
``oracles.roots_in_pool`` over Q(i), GF(9) and Q(t) on products of
linear factors, inside and outside the candidate pool, and an
irreducible quadratic: the same (root, multiplicity) list in the same
order, and the same remainder."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from galbim.factor import factor_poly
from galbim.fieldbase import GF, QQ
from galbim.fieldops import min_poly_over, splitting_field
from galbim.morphisms import (
    _candidate_pool,
    _conjugates,
    _orbit,
    _roots_in_pool,
    automorphisms_over,
)
from galbim.poly import Polynomial
from galbim.towers import (
    RationalFunctionField,
    algebraic_degree,
    chain,
    extend,
    from_coords_over,
)

from oracles import roots_in_pool
from test_bimod import NORMAL_FIELDS

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


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_conjugate_is_a_root(name):
    F = FIELDS[name]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(low=st.lists(st.integers(-4, 4), min_size=2, max_size=6))
    # x^5 - 1 and x^9 - 1: the conjugates of r are powers of r, some
    # found only by the closure (r^4 for the fifth roots of unity)
    @example(low=[-1, 0, 0, 0, 0])
    @example(low=[-1, 0, 0, 0, 0, 0, 0, 0, 0])
    def check(low):
        f = Polynomial(F, [F.coerce(c) for c in low] + [F.one()])
        for g, _ in factor_poly(f)[1]:
            if g.degree < 2:
                continue
            E = extend(F, g, "r", validate=False)
            r = E.gen()
            gE = g.map_coeffs(E, E.coerce)
            found, remaining = _conjugates(gE, r)
            assert found[0] == (r, 1)
            x = Polynomial.x(E)
            product = remaining
            for y, m in found:
                assert m == 1 and not gE.evaluate(y)
                product = product * (x - y)
            assert product == gE
            assert len({repr(y) for y, _ in found}) == len(found)

    check()



@pytest.mark.parametrize("name", sorted(NORMAL_FIELDS))
def test_orbit_is_every_conjugate(name):
    E = NORMAL_FIELDS[name]()
    K = chain(E)[0]
    G = automorphisms_over(E, K)
    n = algebraic_degree(E, K)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(coords=st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    def check(coords):
        z = from_coords_over(E, [K.coerce(c) for c in coords], K)
        mu = min_poly_over(E, z, K)
        found, remaining = _orbit(mu.map_coeffs(E, E.coerce), z, G)
        assert remaining.degree == 0
        assert [m for _, m in found] == [1] * mu.degree
        assert len({repr(y) for y, _ in found}) == mu.degree

    check()


def _pool_search_cases():
    """name -> (field, its candidate pool, a generator "beyond" the
    prime field for elements outside the pool, an irreducible
    quadratic's constant c, for x^2 - c)."""
    x = Polynomial.x(QQ)
    Qi = extend(QQ, x**2 + 1, "i")
    y = Polynomial.x(GF(3))
    F9 = extend(GF(3), y**2 + 1, "j")
    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    return {
        "Q(i)": (Qi, _candidate_pool(Qi, ()), Qi.gen(), Qi.coerce(3)),
        # 1 + j generates GF(9)^*, so it is no square
        "GF9": (F9, _candidate_pool(F9, ()), F9.gen(), 1 + F9.gen()),
        "Q(t)": (Qt, _candidate_pool(Qt, [1, t]), t, t),
    }


@pytest.mark.parametrize("name", ["GF9", "Q(i)", "Q(t)"])
def test_root_search_matches_the_reference(name):
    F, pool, g, c = _pool_search_cases()[name]
    x = Polynomial.x(F)
    quadratic = x**2 - c

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        roots=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(range(len(pool))),
                    st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                ),
                st.integers(1, 2),
            ),
            max_size=3,
        ),
        lead=st.sampled_from([1, 2]),
    )
    # (x - 1)^2 (x - 2 - g) times the quadratic: in and out of the pool
    @example(roots=[((1, 0), 2), ((2, 1), 1)], lead=1)
    def check(roots, lead):
        f = F.coerce(lead) * quadratic
        for r, m in roots:
            if isinstance(r, int):
                r = pool[r]
            else:
                r = F.coerce(r[0]) + F.coerce(r[1]) * g
            f = f * (x - r) ** m
        found, remaining = _roots_in_pool(f, pool)
        assert (found, remaining) == roots_in_pool(f, F, pool)

    check()
