"""The root scan ``morphisms._divide_out`` agrees with the synthetic
division scan ``oracles.synthetic_divide_out``: the same (root,
multiplicity) list in the same order, and the same remainder, on
seeded sparse and dense polynomials with repeated roots, monic and
not, over Q(sqrt 2), the tabled GF(9), a Q(s)[t] tower with t^2 = s,
Q(sqrt 2, sqrt 3, sqrt 5) and the ring Q[e]/(e^2 - 1), which has zero
divisors.  The pool mixes the roots with non-roots, 0 and repeats.

Products are counted on ``ExtensionField._mul`` and ``_table_mul``: for
monic f the scan makes no more than the reference on each case, and a
non-root try of a binomial at depth 3 makes strictly fewer (the screen
at a place makes none).  Over Q(sqrt 2), where every product is one
call, one try of ``morphisms._root_quotient`` costs exactly what its
docstring states: one product per partial sum s_(k+1) other than 0 and
1, never more than the n of the reference, and exactly n when no sum
is 0 or 1.

The screen at a place (``morphisms._places``): the place map is a ring
map (a hypothesis property on every characteristic-0 field here and on
the rungs ``split_probe`` adjoins on radical's spectral bimodule, the
reducible x^2 + q2 included), every such rung has a place, a candidate
whose denominator vanishes at the place is tried exactly, a non-root
try at a place makes no tower product, and a field with no place (a
cubic layer, GF(9)) makes the products it makes unscreened."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import galbim.bimod as bimod_module
from galbim import morphisms
from galbim.bimod import Bimodule, split_probe
from galbim.errors import DegreeBound
from galbim.fieldbase import GF, QQ
from galbim.matrix import Matrix
from galbim.morphisms import _at_place, _divide_out, _places, _root_quotient
from galbim.poly import Polynomial
from galbim.towers import (
    ExtensionField,
    RationalFunctionField,
    broken_relation,
    chain,
    extend,
    from_coords_over,
    tower_basis,
)

from oracles import synthetic_divide_out


def _sqrt2():
    A = extend(QQ, Polynomial(QQ, [-2, 0, 1]), "a")
    a = A.gen()
    return A, [A.one(), -A.one(), a, -a, 1 + a, 2 - 3 * a, a / 3]


def _gf9():
    F = extend(GF(3), Polynomial(GF(3), [1, 0, 1]), "j")
    j = F.gen()
    return F, [F.one(), -F.one(), j, -j, 1 + j, 1 - j, 2 * j + 1]


def _radical_tower():
    Fs = RationalFunctionField(QQ, "s")
    L = extend(Fs, Polynomial(Fs, [-Fs.gen(), Fs.zero(), Fs.one()]), "t")
    t, s = L.gen(), L.coerce(Fs.gen())
    return L, [L.one(), t, -t, s, s * t + 1, t / (s + 1), 1 - s]


def _depth3():
    A = extend(QQ, Polynomial(QQ, [-2, 0, 1]), "a")
    B = extend(A, Polynomial(A, [A.from_int(-3), A.zero(), A.one()]), "b")
    C = extend(B, Polynomial(B, [B.from_int(-5), B.zero(), B.one()]), "c")
    a, b, c = C.coerce(A.gen()), C.coerce(B.gen()), C.gen()
    return C, [C.one(), a, b, c, a * b - c, 1 + a * c, b * c / 2]


def _zero_divisors():
    # x^2 - 1 = (x - 1)(x + 1): e - 1 and e + 1 are zero divisors
    R = extend(QQ, Polynomial(QQ, [-1, 0, 1]), "e", validate=False)
    e = R.gen()
    return R, [R.one(), -R.one(), e, -e, 1 + e, 1 - e, 2 * e + 3]


FIELDS = {
    "Q(sqrt2)": _sqrt2,
    "GF9": _gf9,
    "Q(s)[t]": _radical_tower,
    "Q(sqrt2,sqrt3,sqrt5)": _depth3,
    "Q[e]/(e^2-1)": _zero_divisors,
}


def _linear(F, r):
    return Polynomial(F, [-r, F.one()])


def _cases(F, elements, rng):
    """(label, f, pool) triples: dense and sparse f with repeated roots,
    each monic and times a non-unit-looking leading coefficient."""
    x = Polynomial.x(F)
    roots = rng.sample(elements, 3)
    dense = Polynomial.one(F)
    for r, m in zip(roots, (2, 1, 3)):
        dense = dense * _linear(F, r) ** m
    dense = dense * Polynomial(F, [rng.choice(elements),
                                   rng.choice(elements), F.one()])
    r = roots[0]
    # x^2 (x^4 - r^4)^2 (x^3 - r^3): r three times, 0 twice, 5 terms
    sparse = x**2 * (x**4 - r**4) ** 2 * (x**3 - r**3)
    lead = elements[-1]
    pool = elements + [F.zero(), -r] + rng.sample(elements, 3)
    rng.shuffle(pool)
    for label, f in (("dense", dense), ("sparse", sparse)):
        yield label + "-monic", f, pool
        yield label + "-lead", f * lead, pool


@pytest.fixture
def count_products(monkeypatch):
    """Run a callable and return (its value, the tower products it made)."""
    calls = [0]

    def counted(mul):
        def run(self, a, b):
            calls[0] += 1
            return mul(self, a, b)
        return run

    for name in ("_mul", "_table_mul"):
        monkeypatch.setattr(ExtensionField, name,
                            counted(getattr(ExtensionField, name)))

    def run(fn, *args):
        calls[0] = 0
        value = fn(*args)
        return value, calls[0]

    return run


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_divide_out_matches_synthetic_division(name, seed, count_products):
    F, elements = FIELDS[name]()
    rng = random.Random(seed)
    for label, f, pool in _cases(F, elements, rng):
        (found, remaining), ours = count_products(_divide_out, f, pool)
        (want, rest), theirs = count_products(synthetic_divide_out, f, pool)
        assert [m for _, m in found] == [m for _, m in want], label
        assert all(r == s for (r, _), (s, _) in zip(found, want)), label
        assert remaining.coeffs == rest.coeffs, label
        assert sum(m for _, m in found) >= 3, label   # repeated roots met
        if f.leading() == F.one():
            assert ours <= theirs, (label, ours, theirs)


def test_sparse_non_root_try_makes_fewer_products(count_products):
    C, (_, a, b, c, *_) = _depth3()
    x = Polynomial.x(C)
    f = x**8 - (a + b) ** 4          # a binomial over a depth-3 tower
    for r in (c, a * b - c, 1 + a * c):
        assert f.evaluate(r)         # not a root
        (found, rest), ours = count_products(_divide_out, f, [r])
        (want, same), theirs = count_products(synthetic_divide_out, f, [r])
        assert found == want == [] and rest.coeffs == same.coeffs == f.coeffs
        assert ours < theirs, (r, ours, theirs)


def _try_cost(f, r):
    """The products of one try by the docstring of ``_root_quotient``:
    one per partial sum s_(k+1), k < n, that is neither 0 nor 1, and
    whether there is such a 0 or 1."""
    s, paid, skipped = f.leading(), 0, False
    for c in reversed(f.coeffs[:-1]):
        if s == 0 or s == 1:
            skipped = True
        else:
            paid += 1
        s = s * r + c
    return paid, skipped


@pytest.mark.parametrize("coeffs, root", [
    ([-2, 0, 0, 0, 1, 1], 1),       # x^5 + x^4 - 2
    ([-1, 0, 0, 0, 0, 0, 1], 1),    # x^6 - 1
    ([0, -1, 0, 0, 1], 1),          # x^4 - x: c_0 = 0
    ([-6, 0, 0, 3, 0, 3], 1),       # non-monic, sparse
    ([-2, 3, -2, 1], 1),            # dense
    ([-5, 0, 1], None),             # x^2 - 5 has no root here
])
def test_try_cost_model(coeffs, root, count_products):
    F, _ = _sqrt2()
    a = F.gen()
    f = Polynomial(F, coeffs)
    n = f.degree
    tries = [a, 1 + a] + ([F.coerce(root)] if root is not None else [])
    for r in tries:
        is_root = not f.evaluate(r)
        assert is_root == (r is tries[-1] and root is not None)
        q, ours = count_products(_root_quotient, f.coeffs, r)
        _, theirs = count_products(synthetic_divide_out, f, [r])
        assert (q is not None) == is_root
        if is_root:
            assert Polynomial(F, q) * _linear(F, r) == f
        paid, skipped = _try_cost(f, r)
        assert ours == paid <= theirs, (r, ours, theirs)
        if not skipped:
            assert ours == n
        if not is_root:
            assert theirs == n


# ------------------------------------------------------------- places


@functools.cache
def _spectral_rungs():
    """[L, q1, ..., q5] for radical's spectral bimodule over L =
    Q(s)[t]/(t^2 - s): the fields ``split_probe`` adjoins at the
    default cap before it raises DegreeBound, the last of them the
    reducible rung x^2 + q2."""
    Fs = RationalFunctionField(QQ, "s")
    L = extend(Fs, Polynomial(Fs, [-Fs.gen(), Fs.zero(), Fs.one()]), "t")
    t, s, z = L.gen(), L.coerce(Fs.gen()), L.zero()
    P = Bimodule(L, {L: Matrix(L, [[s, z, z], [z, z, t], [z, L.one(), z]]),
                     Fs: Matrix.diagonal(L, [s * s, t, t])}, base=QQ)
    rungs = [L]

    def record(*args, **kw):
        rungs.append(extend(*args, **kw))
        return rungs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bimod_module, "extend", record)
        with pytest.raises(DegreeBound):
            split_probe(P)
    return rungs


def _bottom_elements(bottom):
    """Small nonzero elements of Q, or of Q(s) with denominator 1 or
    s + c, which vanishes at some places."""
    small = st.integers(-3, 3)
    if bottom is QQ:
        return st.fractions(min_value=-3, max_value=3,
                            max_denominator=3).filter(bool)
    k = bottom.coefficient_field
    den = st.one_of(st.just([1]), small.map(lambda c: [c, 1]))
    return st.tuples(st.lists(small, min_size=1, max_size=3)
                     .filter(any), den).map(
        lambda parts: bottom.coerce(Polynomial(k, parts[0]))
        / bottom.coerce(Polynomial(k, parts[1])))


def _tower_elements(field, bottom):
    """Elements of ``field`` with at most four nonzero coordinates over
    ``bottom``."""
    n = len(tower_basis(field, bottom))
    return st.dictionaries(st.integers(0, n - 1), _bottom_elements(bottom),
                           max_size=4).map(
        lambda coords: from_coords_over(
            field, [coords.get(k, 0) for k in range(n)], bottom))


RING_MAP_FIELDS = sorted(set(FIELDS) - {"GF9"}) + [
    "spectral-%d" % i for i in range(6)]


@pytest.mark.parametrize("name", RING_MAP_FIELDS)
def test_place_is_a_ring_map(name):
    if name.startswith("spectral"):
        field = _spectral_rungs()[int(name[-1])]
    else:
        field = FIELDS[name]()[0]
    bottom = next((layer for layer in chain(field)
                   if isinstance(layer, RationalFunctionField)), QQ)
    place = next(_places(field))
    F, images = place
    assert broken_relation(images, F.coerce) is None
    mapped = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(x=_tower_elements(field, bottom), y=_tower_elements(field, bottom))
    def check(x, y):
        xy = _at_place(place, field, [x, y])
        mapped.append(xy is not None)
        if xy is None:
            return
        a, b = xy
        assert _at_place(place, field, [x + y, x * y, -x]) == [
            (a + b) % F.p, a * b % F.p, -a % F.p]

    check()
    assert sum(mapped) >= len(mapped) // 3


def test_spectral_rungs_have_places():
    rungs = _spectral_rungs()
    assert repr(rungs[-1].relation) == "x^2 + q2"
    for field in rungs:
        F, images = next(_places(field))
        assert broken_relation(images, F.coerce) is None
        assert set(images) == set(chain(field)[1:])


def test_place_skips_a_relation_that_does_not_map():
    # y^2 = 1/(t - 2) has no image where t goes to 2, the first variable
    # image, so the first place of L sends t to 3
    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    L = extend(Qt, Polynomial(Qt, [-(Qt.one() / (t - Qt.from_int(2))),
                                   Qt.zero(), Qt.one()]), "y")
    F, images = next(_places(L))
    assert images[Qt] == F.from_int(3)
    assert images[L] * images[L] == F.from_int(1)


def test_unmapped_candidate_takes_the_exact_try():
    L, _ = _radical_tower()
    Fs = L.base
    place = next(_places(L))
    t, s = L.gen(), L.coerce(Fs.gen())
    r = t / (s - place[1][Fs].value)   # its denominator vanishes there
    assert _at_place(place, L, [r]) is None
    assert _at_place(place, L, [t, s]) is not None
    x = Polynomial.x(L)
    pool = [L.one(), r, t, -t, s, r * t, r]
    for f in ((x - r) * (x - t) ** 2 * (x - s),   # f does not map
              (x - t) ** 2 * (x - s) * x,         # f maps, r does not
              (x - r * t) * (x + t)):
        found, rest = _divide_out(f, pool)
        want, same = synthetic_divide_out(f, pool)
        assert found == want and rest.coeffs == same.coeffs
        assert found


@pytest.mark.parametrize("name", ["Q(s)[t]", "Q(sqrt2,sqrt3,sqrt5)"])
def test_non_root_try_at_a_place_makes_no_tower_product(name,
                                                        count_products):
    F, elements = FIELDS[name]()
    assert next(_places(F), None) is not None
    x = Polynomial.x(F)
    roots = elements[1:3]
    f = (x - roots[0]) ** 2 * (x - roots[1]) * (x**4 + elements[-1])
    for r in elements[3:]:
        assert f.evaluate(r)   # not a root
        (found, rest), products = count_products(_divide_out, f, [r])
        assert found == [] and rest.coeffs == f.coeffs
        assert products == 0, r
    (found, _), _ = count_products(_divide_out, f, elements)
    assert [m for _, m in found] == [2, 1]


def _cubic_tower():
    A = extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")
    B = extend(A, Polynomial(A, [A.from_int(-2), A.zero(), A.zero(),
                                 A.one()]), "c")
    i, c = B.coerce(A.gen()), B.gen()
    return B, [B.one(), -B.one(), i, c, i * c, c - i, c * c / 3]


@pytest.mark.parametrize("build", [_cubic_tower, _gf9],
                         ids=["Q(i)(cbrt2)", "GF9"])
def test_field_without_place_keeps_its_products(build, count_products,
                                                monkeypatch):
    F, elements = build()
    assert next(_places(F), None) is None
    runs = []
    for screened in (True, False):
        if not screened:
            monkeypatch.setattr(morphisms, "_places", lambda field: iter(()))
        rng = random.Random(5)
        runs.append([count_products(_divide_out, f, pool)
                     for _, f, pool in _cases(F, elements, rng)])
    for ((found, rest), ours), ((want, same), theirs) in zip(*runs):
        assert found == want and rest.coeffs == same.coeffs
        assert ours == theirs
