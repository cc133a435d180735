"""Small finite fields as tables of interned elements.

Oracle: ``oracles.TowerArithmetic``, products by convolution and
reduction on int tuples, checked on every pair of elements of GF(4),
GF(8), GF(9), GF(25), GF(27) and the nested GF(3)[j][k] of order 81.
Also checked: every result is interned, equal and hash-equal to an
element built from its coordinates; the prime-field and cross-layer
contracts; that tables are built with the field, never above the cap,
and do not keep a dropped field alive.
"""

import gc
import random
import weakref

import pytest

from galbim.errors import NotInvertible
from galbim.fieldbase import GF, TABLE_CAP, PrimeField, PrimeFieldElement
from galbim.poly import Polynomial
from galbim.towers import ExtElement, extend

from oracles import TowerArithmetic, tower_ints


def _gf(p, relation, var="j"):
    return extend(GF(p), Polynomial(GF(p), relation), var)


def _gf81():
    F9 = _gf(3, [1, 0, 1])
    j = F9.gen()
    # 1 + j generates GF(9)*, so it is not a square there
    return extend(F9, Polynomial(F9, [-(1 + j), 0, 1]), "k")


FIELDS = {
    "GF4": lambda: _gf(2, [1, 1, 1]),
    "GF8": lambda: _gf(2, [1, 1, 0, 1]),
    "GF9": lambda: _gf(3, [1, 0, 1]),
    "GF25": lambda: _gf(5, [2, 0, 1]),
    "GF27": lambda: _gf(3, [1, 2, 0, 1]),
    "GF81": _gf81,
}


def _check_interned(F, r):
    """r is F's interned element and equals its uninterned twin."""
    twin = ExtElement(F, r.coords)
    assert r == twin and twin == r
    assert hash(r) == hash(twin)
    assert F.from_coords(list(r.coords)) is r


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_tables_match_tower_arithmetic(name):
    F = FIELDS[name]()
    oracle = TowerArithmetic(F)
    q = F.finite_size
    assert F.gen() * F.one() is F.gen()
    els = [F.element_from_index(k) for k in range(q)]
    ints = [tower_ints(x) for x in els]
    assert len(set(ints)) == q
    for a, ia in zip(els, ints):
        r = -a
        assert tower_ints(r) == oracle.neg(ia)
        _check_interned(F, r)
        if not a:
            with pytest.raises(NotInvertible):
                a.inverse()
        else:
            r = a.inverse()
            assert oracle.mul(tower_ints(r), ia) == tower_ints(F.one())
            _check_interned(F, r)
        for b, ib in zip(els, ints):
            results = [(a * b, oracle.mul(ia, ib)),
                       (a + b, oracle.add(ia, ib)),
                       (a - b, oracle.add(ia, oracle.neg(ib)))]
            for r, want in results:
                assert tower_ints(r) == want, (a, b)
                _check_interned(F, r)
            if not b:
                with pytest.raises(NotInvertible):
                    a / b
            else:
                r = a / b
                assert oracle.mul(tower_ints(r), ib) == ia, (a, b)
                _check_interned(F, r)
    # operands built from coordinates meet the tables too (a sum with a
    # zero operand returns the other operand, interned or not)
    rng = random.Random(q)
    for _ in range(50):
        a, b = rng.choice(els[1:]), rng.choice(els[1:])
        a2, b2 = ExtElement(F, a.coords), ExtElement(F, b.coords)
        for r, want in ((a2 * b2, a * b), (a2 + b, a + b), (a - b2, a - b)):
            assert r is want


def test_interned_elements_keep_their_identities():
    F = FIELDS["GF9"]()
    zero, one, gen = F.zero(), F.one(), F.gen()
    assert gen * gen == -one
    assert (F.zero(), F.one(), F.gen()) == (zero, one, gen)
    assert F.zero() is zero and F.one() is one and F.gen() is gen
    assert F.element_from_index(0) is zero
    assert F.element_from_index(1) is one
    assert F.element_from_index(3) is gen
    assert F.coerce(2) is F.element_from_index(2)
    assert F.coerce(F.base.from_int(2)) is -one
    assert F.from_int(4) is one


def test_prime_field_contracts():
    F5 = GF(5)
    three = F5.from_int(3)
    assert three == 3 and three == 8 and 3 == three
    assert three is F5.from_int(8) is F5.coerce(-2)
    direct = PrimeFieldElement(F5, 3)
    assert direct == three and hash(direct) == hash(three)
    assert direct * 2 is F5.one()
    assert 1 - three is F5.from_int(3)
    assert three.inverse() is F5.from_int(2)
    assert three**3 is F5.from_int(2)
    assert 2 / three is F5.from_int(4)
    assert list(F5.elements()) == [F5.element_from_index(k) for k in range(5)]


def test_cross_layer_hash_contract():
    F81 = FIELDS["GF81"]()
    F9, F3 = F81.base, F81.base.base
    k = F81.gen()
    assert k * k != F81.one()   # builds every layer's tables
    two = F3.from_int(2)
    for x, up in ((two, F9.coerce(two)), (two, F81.coerce(two)),
                  (F9.gen(), F81.coerce(F9.gen()))):
        assert up == x and x == up and hash(up) == hash(x)
    assert F81.coerce(F9.gen()) is F81.element_from_index(3)


def test_tables_are_built_with_the_field():
    F = FIELDS["GF8"]()
    assert F._exp is not None and len(F._els) == 8
    assert F._els[:3] == [F.zero(), F.one(), F.gen()]
    w = F.gen()
    s = w + F.one() + F.coerce(1)
    assert s is w and F.from_coords([1, 1]) - w is F.one()
    assert w * w is F.from_coords([0, 0, 1])
    fresh = PrimeField(4093)
    assert len(fresh._els) == 4093 and fresh._els[1] is fresh.one()
    assert fresh.from_int(2) * fresh.from_int(3) == 6
    assert fresh.from_int(6) is fresh.from_int(4099)
    assert PrimeField(4099)._els is None


def test_no_tables_above_the_cap():
    big = PrimeField(4099)
    assert big.p > TABLE_CAP
    a, b = big.from_int(4000), big.from_int(3000)
    assert (a * b).value == 4000 * 3000 % 4099
    assert (a - b).value == 1000 and (-a).value == 99
    assert a.inverse() * a == 1
    assert big._els is None
    assert big.from_int(5) is not big.from_int(5)

    F7 = GF(7)
    F = extend(F7, Polynomial(F7, [1, 3, 0, 0, 0, 1]), "y")
    assert F.finite_size == 16807 > TABLE_CAP
    oracle = TowerArithmetic(F)
    rng = random.Random(16807)
    for _ in range(40):
        a = F.element_from_index(rng.randrange(F.finite_size))
        b = F.element_from_index(rng.randrange(1, F.finite_size))
        assert tower_ints(a * b) == oracle.mul(tower_ints(a), tower_ints(b))
        assert oracle.mul(tower_ints(b.inverse()), tower_ints(b)) == \
            tower_ints(F.one())
    assert F._exp is None and F._els is None


def test_unvalidated_ring_with_zero_divisors_keeps_coordinates():
    F3 = GF(3)
    # x^2 - 1 = (x - 1)(x + 1): a ring of order 9 that is not a field
    R = extend(F3, Polynomial(F3, [-1, 0, 1]), "e", validate=False)
    e = R.gen()
    assert e * e == R.one()
    assert R._exp is None
    with pytest.raises(NotInvertible):
        (e - R.one()).inverse()


def test_dropped_tower_is_freed():
    F = FIELDS["GF9"]()
    j = F.gen()
    assert j * j * j * j == F.one()
    assert F._exp is not None
    # a tabled field dropped without any product, and a prime field built
    # directly, not through GF: each is a cycle through its own elements
    unused = extend(GF(3), Polynomial(GF(3), [2, 2, 0, 1]), "w")
    assert unused._exp is not None
    Fp = PrimeField(4093)
    assert Fp._els is not None
    refs = [weakref.ref(x) for x in (F, unused, Fp)]
    del F, j, unused, Fp
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3
