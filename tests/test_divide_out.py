"""The root scan ``morphisms._divide_out`` agrees with the synthetic
division scan ``oracles.synthetic_divide_out``: the same (root,
multiplicity) list in the same order, and the same remainder, on
seeded sparse and dense polynomials with repeated roots, monic and
not, over Q(sqrt 2), the tabled GF(9), a Q(s)[t] tower with t^2 = s,
Q(sqrt 2, sqrt 3, sqrt 5) and the ring Q[e]/(e^2 - 1), which has zero
divisors.  The pool mixes the roots with non-roots, 0 and repeats.

Products are counted on ``ExtensionField._mul`` and ``_table_mul``: for
monic f the scan makes no more than the reference on each case, and a
non-root try of a binomial at depth 3 makes strictly fewer.  Over
Q(sqrt 2), where every product is one call, one try of
``morphisms._root_quotient`` costs exactly what its docstring states,
against the n of synthetic division: a non-root never more, a root of
monic f n - 1 plus the powers past the leading run, so a root whose
later run is longer than the leading one costs more than n."""

import random

import pytest

from galbim.fieldbase import GF, QQ
from galbim.morphisms import _divide_out, _root_quotient
from galbim.poly import Polynomial
from galbim.towers import ExtensionField, RationalFunctionField, extend

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


def _try_cost(coeffs, root):
    """The products of one try by the docstring of ``_root_quotient``:
    G - 1 powers for the longest run G, one per run but the leading run
    of a monic f, and for a root the sums inside those runs."""
    n = len(coeffs) - 1
    ends = [k for k in range(n - 1, 0, -1) if coeffs[k]] + [0]
    runs = [i - j for i, j in zip([n] + ends, ends)] if n else []
    paid = runs[1:] if coeffs[n] == 1 else runs
    return (max(runs, default=1) - 1 + len(paid)
            + (sum(g - 1 for g in paid) if root else 0))


@pytest.mark.parametrize("coeffs, root", [
    ([-2, 0, 0, 0, 1, 1], 1),       # x^5 + x^4 - 2: later run of 4
    ([-1, 0, 0, 0, 0, 0, 1], 1),    # x^6 - 1
    ([0, -1, 0, 0, 1], 1),          # x^4 - x: c_0 = 0
    ([-6, 0, 0, 3, 0, 3], 1),       # non-monic, runs of 2 and 3
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
        q, ours = count_products(_root_quotient, F, f.coeffs, r)
        _, theirs = count_products(synthetic_divide_out, f, [r])
        assert (q is not None) == is_root
        if is_root:
            assert Polynomial(F, q) * _linear(F, r) == f
        assert ours == _try_cost(coeffs, is_root)
        if not is_root:
            assert ours <= theirs == n
