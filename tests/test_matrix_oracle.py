"""sympy oracle for the matrix kernels: ``rref`` (form and pivots),
``det``, ``charpoly``, ``inverse`` and ``__mul__`` on seeded sparse
matrices over Q (up to 8x8) and over Q(t) (up to 4x4), compared with
sympy's DomainMatrix over QQ and QQ(t), whose elements are canonical,
so equality is exact."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix

from galbim.errors import NotInvertible
from galbim.fieldbase import QQ
from galbim.matrix import Matrix
from galbim.poly import Polynomial
from galbim.towers import RationalFunctionField

T = sympy.Symbol("t")
QT = RationalFunctionField(QQ, "t")
SQQ = sympy.QQ
SQT = sympy.QQ.frac_field(T)


def _q_entry(rng):
    if rng.random() < 0.55:
        return Fraction(0)
    return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))


def _qt_entry(rng):
    if rng.random() < 0.55:
        return QT.zero()
    k = QT.coefficient_field
    num = Polynomial(k, [rng.randrange(-2, 3) for _ in range(2)])
    den = Polynomial(k, [rng.randrange(-2, 3), 1] if rng.random() < 0.5
                     else [1])
    return QT.coerce(num) / QT.coerce(den)


def _to_sympy_poly(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * T**i
                for i, c in enumerate(p.coeffs)), sympy.Integer(0))


def _q_to_sympy(c):
    return SQQ(c.numerator, c.denominator)


def _qt_to_sympy(x):
    return SQT.from_sympy(_to_sympy_poly(x.num) / _to_sympy_poly(x.den))


# name -> (field, sympy domain, entry sampler, largest size, conversion)
CASES = {
    "Q": (QQ, SQQ, _q_entry, 8, _q_to_sympy),
    "Q(t)": (QT, SQT, _qt_entry, 4, _qt_to_sympy),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matrix_kernels_match_sympy(name):
    field, domain, entry, max_n, convert = CASES[name]
    rng = random.Random(8100 + max_n)

    def sample(n, m):
        return Matrix(field, [[entry(rng) for _ in range(m)]
                              for _ in range(n)])

    def oracle(M):
        rows = [[convert(a) for a in row] for row in M.rows]
        return DomainMatrix(rows, (M.nrows, M.ncols), domain)

    square = singular = 0
    for _ in range(14):
        n = rng.randrange(1, max_n + 1)
        m = rng.choice([n, rng.randrange(1, max_n + 1)])
        M = sample(n, m)
        N = sample(m, rng.randrange(1, max_n + 1))
        S = oracle(M)
        R, pivots = M.rref()
        SR, spivots = S.rref()
        assert oracle(R) == SR and tuple(pivots) == spivots
        assert oracle(M * N) == S.matmul(oracle(N))
        if n != m:
            continue
        square += 1
        assert convert(M.det()) == S.det()
        charpoly = [convert(c) for c in reversed(M.charpoly().coeffs)]
        assert charpoly == S.charpoly()
        if S.det():
            assert oracle(M.inverse()) == S.inv()
        else:
            singular += 1
            with pytest.raises(NotInvertible):
                M.inverse()
    assert square >= 5 and singular >= 1
