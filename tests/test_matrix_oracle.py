"""sympy oracles for the matrix kernels and the resultant.

``rref`` (form and pivots), ``rank``, ``kernel``, ``solve``, ``det``,
``charpoly``, ``inverse``, ``__mul__`` and ``__truediv__`` run on seeded
sparse matrices over Q (up to 8x8) and over Q(t) (up to 4x4), and the
first five also over GF(3) and GF(5) (up to 8x8), compared with sympy's
DomainMatrix over QQ, QQ(t) and GF(p), whose elements are canonical, so
equality is exact.
``minpoly`` runs on seeded conjugates of block matrices over Q and GF(p)
up to 8x8, compared with the least annihilating product of the factors
of sympy's characteristic polynomial; ``poly.resultant`` runs on seeded
polynomials over Q and GF(p), compared with ``sympy.resultant``."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix

from sympy.polys.densearith import dup_mul, dup_pow
from sympy.polys.densetools import dup_monic

from galbim.errors import NotInvertible
from galbim.fieldbase import GF, QQ
from galbim.matrix import Echelon, Matrix
from galbim.poly import Polynomial, resultant
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


def _fp_case(p):
    field = GF(p)

    def entry(rng):
        return field.coerce(0 if rng.random() < 0.55
                            else rng.randrange(1, p))

    return field, sympy.GF(p), entry, 8, lambda c: sympy.GF(p)(c.value)


# name -> (field, sympy domain, entry sampler, largest size, conversion)
CASES = {
    "Q": (QQ, SQQ, _q_entry, 8, _q_to_sympy),
    "Q(t)": (QT, SQT, _qt_entry, 4, _qt_to_sympy),
}
# the kernel test also runs over the prime fields of PRIME_CASES
KERNEL_CASES = dict(CASES, **{"GF(%d)" % p: _fp_case(p) for p in (3, 5)})


def _sympy_kernel(S, spivots, m):
    """sympy's nullspace of S, normalised to 1 at each free column and
    0 at the others, one vector per free column in order."""
    free = [c for c in range(m) if c not in spivots]
    if not free:
        return []
    basis = S.nullspace()
    # the basis restricted to the free columns is invertible
    at_free = basis.extract(list(range(len(free))), free)
    return at_free.inv().matmul(basis).to_list()


def _sympy_solve(S, b, domain):
    """The solution of S x = b with every free variable 0, read off the
    rref of [S | b], or None when b pivots."""
    n, m = S.shape
    aug = S.hstack(DomainMatrix([[c] for c in b], (n, 1), domain))
    R, pivots = aug.rref()
    if m in pivots:
        return None
    x = [domain.zero] * m
    for r, pc in enumerate(pivots):
        x[pc] = R.to_list()[r][m]
    return x


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_matrix_kernels_match_sympy(name):
    """rref, rank, kernel and solve on every field, with rank-deficient
    products among the draws; the square ones also check det, charpoly
    and inverse (over Q and Q(t))."""
    field, domain, entry, max_n, convert = KERNEL_CASES[name]
    rng = random.Random("kernels " + name)

    def sample(n, m):
        return Matrix(field, [[entry(rng) for _ in range(m)]
                              for _ in range(n)])

    def oracle(M):
        rows = [[convert(a) for a in row] for row in M.rows]
        return DomainMatrix(rows, (M.nrows, M.ncols), domain)

    def vector(x):
        return [convert(a) for a in x]

    square = singular = deficient = inconsistent = 0
    for _ in range(14):
        n = rng.randrange(1, max_n + 1)
        m = rng.choice([n, rng.randrange(1, max_n + 1)])
        if min(n, m) > 1 and rng.random() < 0.5:
            # rank below min(n, m): a product through a thinner middle
            k = rng.randrange(1, min(n, m))
            M = sample(n, k) * sample(k, m)
        else:
            M = sample(n, m)
        N = sample(m, rng.randrange(1, max_n + 1))
        S = oracle(M)
        R, pivots = M.rref()
        SR, spivots = S.rref()
        assert oracle(R) == SR and tuple(pivots) == spivots
        assert M.rank() == S.rank()
        deficient += M.rank() < min(n, m)
        assert [vector(v) for v in M.kernel()] == \
            _sympy_kernel(S, spivots, m)
        x0 = [entry(rng) for _ in range(m)]
        for b in (M.mul_vec(x0), [entry(rng) for _ in range(n)]):
            x = M.solve(b)
            want = _sympy_solve(S, vector(b), domain)
            assert (x if x is None else vector(x)) == want
            inconsistent += want is None
        assert oracle(M * N) == S.matmul(oracle(N))
        assert oracle(-M) == -S
        if n != m or name not in CASES:
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
    assert deficient >= 4 and inconsistent >= 2
    assert name not in CASES or (square >= 5 and singular >= 1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_division_matches_sympy(name):
    field, domain, entry, max_n, convert = CASES[name]
    rng = random.Random(8200 + max_n)

    def sample(n, m):
        return Matrix(field, [[entry(rng) for _ in range(m)]
                              for _ in range(n)])

    def oracle(M):
        rows = [[convert(a) for a in row] for row in M.rows]
        return DomainMatrix(rows, (M.nrows, M.ncols), domain)

    invertible = singular = 0
    for _ in range(20):
        n = rng.randrange(1, max_n + 1)
        A = sample(rng.randrange(1, max_n + 1), n)
        B = sample(n, n)
        SB = oracle(B)
        if SB.det():
            invertible += 1
            assert oracle(A / B) == oracle(A).matmul(SB.inv())
        else:
            singular += 1
            with pytest.raises(NotInvertible):
                A / B
    assert invertible >= 5 and singular >= 1
    with pytest.raises(NotInvertible):
        sample(2, 2) / sample(2, 3)
    empty = Matrix(field, [], ncols=2) / Matrix.identity(field, 2)
    assert (empty.nrows, empty.ncols) == (0, 2)


# name -> (field, sympy domain, conversion of one entry)
PRIME_CASES = {
    "Q": (QQ, SQQ, _q_to_sympy),
    "GF(3)": (GF(3), sympy.GF(3), lambda c: sympy.GF(3)(c.value)),
    "GF(5)": (GF(5), sympy.GF(5), lambda c: sympy.GF(5)(c.value)),
}


def _block_conjugate(field, rng, n):
    """P B P^-1 for B block diagonal with a repeated random block, a
    Jordan block and scalars, so that the minimal polynomial is often a
    proper divisor of the characteristic polynomial."""
    def small():
        return rng.randrange(-2, 3)

    k = rng.randrange(1, 4)
    block = [[small() for _ in range(k)] for _ in range(k)]
    B = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        kind = rng.randrange(3)
        if kind == 0 and i + k <= n:
            for r in range(k):
                B[i + r][i:i + k] = block[r]
            i += k
        elif kind == 1 and i + 2 <= n:
            lam = small()
            B[i][i] = B[i + 1][i + 1] = lam
            B[i][i + 1] = 1
            i += 2
        else:
            B[i][i] = small()
            i += 1
    # unit triangular factors make P invertible over every field
    lower = [[small() if c < r else int(c == r) for c in range(n)]
             for r in range(n)]
    upper = [[small() if c > r else int(c == r) for c in range(n)]
             for r in range(n)]
    P = Matrix(field, lower) * Matrix(field, upper)
    return P * Matrix(field, B) * P.inverse()


def _sympy_minpoly(S, domain):
    """For each irreducible factor of the characteristic polynomial, the
    least power whose product with the other factors annihilates S."""
    S = S.to_dense()
    n = S.shape[0]
    one = DomainMatrix.eye(n, domain).to_dense()

    def eval_poly(coeffs):
        acc = DomainMatrix.zeros((n, n), domain).to_dense()
        for c in coeffs:
            acc = acc.matmul(S) + one * c
        return acc

    def product(factors, exps):
        out = [domain.one]
        for (f, _), e in zip(factors, exps):
            out = dup_mul(out, dup_pow(f, e, domain), domain)
        return out

    factors = S.charpoly_factor_list()
    exps = [k for _, k in factors]
    for i, (_, k) in enumerate(factors):
        for e in range(1, k):
            trial = exps[:i] + [e] + exps[i + 1:]
            if eval_poly(product(factors, trial)).is_zero_matrix:
                exps[i] = e
                break
    return dup_monic(product(factors, exps), domain)


@pytest.mark.parametrize("name", sorted(PRIME_CASES))
def test_minpoly_matches_sympy(name):
    field, domain, convert = PRIME_CASES[name]
    rng = random.Random(8400 + len(name))
    proper = 0
    for _ in range(12):
        n = rng.randrange(1, 9)
        M = _block_conjugate(field, rng, n)
        S = DomainMatrix([[convert(a) for a in row] for row in M.rows],
                         (n, n), domain)
        mu = M.minpoly()
        assert [convert(c) for c in reversed(mu.coeffs)] == \
            _sympy_minpoly(S, domain)
        assert [convert(c) for c in reversed(M.charpoly().coeffs)] == \
            S.charpoly()
        proper += mu.degree < n
    assert proper >= 3


@pytest.mark.parametrize("name", sorted(PRIME_CASES))
def test_resultant_matches_sympy(name):
    field, domain, convert = PRIME_CASES[name]
    rng = random.Random(8500 + len(name))
    X = sympy.Symbol("x")

    def sample(degree):
        coeffs = [rng.randrange(-3, 4) for _ in range(degree)]
        lead = rng.choice([c for c in range(1, 4)
                           if field is QQ or c % field.p])
        return Polynomial(field, coeffs + [lead])

    zero = 0
    for _ in range(20):
        f, g = sample(rng.randrange(7)), sample(rng.randrange(7))
        if rng.random() < 0.3:
            common = sample(rng.randrange(1, 3))
            f, g = f * common, g * common
        got = resultant(f, g)
        sf, sg = (
            sympy.Poly([convert(c) for c in reversed(h.coeffs)], X,
                       domain=domain)
            for h in (f, g)
        )
        # sympy 1.14 returns res(g, f) for res(f, g) when deg f < deg g
        # (res(x + 1, x^3) comes out 1, not -1), so call it with the
        # higher degree first and restore the sign of the swap
        if f.degree >= g.degree:
            want = sf.resultant(sg)
        else:
            want = sg.resultant(sf) * (-1) ** (f.degree * g.degree)
        assert convert(got) == domain.convert(want)
        zero += not got
    assert zero >= 3


@pytest.mark.parametrize("name", sorted(PRIME_CASES))
def test_echelon_insert_tracks_sympy_rank(name):
    """insert accepts exactly the vectors that raise sympy's rank, and
    coords rebuilds each vector inside the span from the accepted ones,
    equals the solution read off sympy's rref and is None outside."""
    field, domain, convert = PRIME_CASES[name]
    rng = random.Random(8600 + len(name))

    def rank(rows):
        if not rows:
            return 0
        return DomainMatrix([[convert(a) for a in row] for row in rows],
                            (len(rows), len(rows[0])), domain).rank()

    def sympy_coords(cols, v):
        # [cols | v] has independent cols: the solution is the last
        # column of the rref unless v pivots
        aug = DomainMatrix(
            [[convert(c[i]) for c in cols] + [convert(v[i])]
             for i in range(len(v))], (len(v), len(cols) + 1), domain)
        R, pivots = aug.rref()
        if len(cols) in pivots:
            return None
        return [row[-1] for row in R.to_list()[:len(cols)]]

    inside = 0
    for _ in range(6):
        n = rng.randrange(1, 9)
        span = Echelon(field)
        rows, accepted = [], []
        for _ in range(n + 2):
            if rows and rng.random() < 0.4:
                # a combination of the vectors so far, inside the span
                v = [field.zero()] * n
                for row in rows:
                    c = field.coerce(rng.randrange(-2, 3))
                    v = [a + c * b for a, b in zip(v, row)]
            else:
                v = [field.coerce(rng.choice([0, 0, 1, -1, 2]))
                     for _ in range(n)]
            before = rank(rows)
            rows.append(v)
            after = rank(rows)
            coords = span.coords(v)
            want = sympy_coords(accepted, v)
            if after > before:
                assert coords is None and want is None
            else:
                inside += 1
                rebuilt = [field.zero()] * n
                for c, w in zip(coords, accepted):
                    rebuilt = [a + c * b for a, b in zip(rebuilt, w)]
                assert rebuilt == v
                assert [convert(c) for c in coords] == want
            assert (span.insert(v) is not None) == (after > before)
            if after > before:
                accepted.append(v)
            assert not any(span.reduce(v))
    assert inside >= 6
