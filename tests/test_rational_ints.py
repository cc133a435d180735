"""Q's elements are ints and Fractions: results never hold a float, and
their meaning is that of the same computation on Fractions.

Over Q, Q(i), Q(cbrt2) and Q(i)(sqrt2), random elements, polynomials
and matrices with small coordinates go through products, inverses
(``one() / b``), quotients, ``Polynomial`` divmod, gcd and monic, and
``Matrix`` rref and inverse.  Oracle: the same computation with every
input coordinate wrapped as a ``Fraction`` (built without coercion,
which would turn an integral Fraction back into an int).  Each result
must hold only ints and Fractions, equal the oracle's and hash as it.
A ring map into Q divides the images of a numerator and a denominator
exactly, though both are ints."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from galbim.errors import NotInvertible
from galbim.fieldbase import QQ
from galbim.matrix import Matrix
from galbim.morphisms import FieldMorphism
from galbim.poly import Polynomial, poly_gcd
from galbim.towers import ExtElement, RationalFunctionField, extend

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

Qi = extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")
FIELDS = {
    "Q": QQ,
    "Q(i)": Qi,
    "Q(cbrt2)": extend(QQ, Polynomial(QQ, [-2, 0, 0, 1]), "c"),
    "Q(i)(sqrt2)": extend(Qi, Polynomial(Qi, [-2, 0, 1]), "s"),
}

rationals = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


def elements(F):
    if F is QQ:
        return rationals.map(QQ.coerce)
    return st.lists(elements(F.base), min_size=F.degree,
                    max_size=F.degree).map(F.from_coords)


def wrap(F, x):
    """x with every coordinate in Q a Fraction."""
    if F is QQ:
        return Fraction(x)
    return ExtElement(F, tuple(wrap(F.base, c) for c in x.coords))


def rationals_of(F, x):
    """The coordinates in Q of an element of F."""
    if F is QQ:
        return [x]
    return [q for c in x.coords for q in rationals_of(F.base, c)]


def assert_same(F, got, want):
    """got (an element, polynomial or matrix over F) holds only ints and
    Fractions, equals want and hashes as it."""
    if isinstance(got, Polynomial):
        entries = got.coeffs
    elif isinstance(got, Matrix):
        entries = [a for row in got.rows for a in row]
    else:
        entries = [got]
    for x in entries:
        assert all(type(q) in (int, Fraction) for q in rationals_of(F, x))
    assert got == want
    assert hash(got) == hash(want)


@st.composite
def cases(draw):
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    xs = draw(st.lists(elements(F), min_size=9, max_size=9))
    return F, xs


@SETTINGS
@given(cases())
def test_element_arithmetic_keeps_its_meaning(case):
    F, (a, b, *_) = case
    wa, wb = wrap(F, a), wrap(F, b)
    assert_same(F, a * b, wa * wb)
    assert_same(F, a + b, wa + wb)
    assert_same(F, a * 3, wa * 3)
    if b:
        assert_same(F, F.one() / b, F.one() / wb)
        assert_same(F, a * (F.one() / b), wa * (F.one() / wb))
        if F is not QQ:
            assert_same(F, b.inverse(), wb.inverse())
            assert_same(F, a / b, wa / wb)
            assert_same(F, a / 3, wa / 3)


@SETTINGS
@given(cases())
def test_polynomial_arithmetic_keeps_its_meaning(case):
    F, xs = case
    f, g = Polynomial(F, xs[:5]), Polynomial(F, xs[5:8])

    def wrapped(p):
        return Polynomial(F, tuple(wrap(F, c) for c in p.coeffs),
                          trusted=True)

    wf, wg = wrapped(f), wrapped(g)
    assert_same(F, f.monic(), wf.monic())
    if g:
        (q, r), (wq, wr) = f.divmod(g), wf.divmod(wg)
        assert_same(F, q, wq)
        assert_same(F, r, wr)
        assert_same(F, poly_gcd(f, g), poly_gcd(wf, wg))


@SETTINGS
@given(cases())
def test_matrix_elimination_keeps_its_meaning(case):
    F, xs = case
    M = Matrix(F, [xs[0:3], xs[3:6], xs[6:9]])
    W = Matrix(F, tuple(tuple(wrap(F, a) for a in row) for row in M.rows),
               trusted=True)
    (R, pivots), (WR, wpivots) = M.rref(), W.rref()
    assert pivots == wpivots
    assert_same(F, R, WR)
    try:
        inverse = M.inverse()
    except NotInvertible:
        assert len(pivots) < 3
        return
    assert_same(F, inverse, W.inverse())


def test_a_map_into_q_divides_exactly():
    # t -> 2 from Q(t) to Q: numerator and denominator images are ints
    K = RationalFunctionField(QQ)
    t = K.gen()
    f = FieldMorphism(K, QQ, {K: 2})
    assert f.apply(K.one() / t) == Fraction(1, 2)
    assert f.apply((t + 1) / (t * t + 1)) == Fraction(3, 5)
    assert type(f.apply((t * t - 1) / (t + 1))) in (int, Fraction)
