"""Exact arithmetic kernel: polynomials, matrices, factorization.

Oracles here are deliberately independent of the implementations they
check: determinants come from cofactor expansion, characteristic
polynomials from a symbolic Leibniz expansion, factorizations from
exhaustive root searches or brute-force coefficient scans.  Expected
values are frozen literals.
"""

import random
from fractions import Fraction

import pytest

from galbim.errors import FieldMismatch, NotInvertible, Reducible
from galbim.factor import factor_poly, roots_in_coefficient_field
from galbim.fieldbase import GF, QQ
from galbim.matrix import Matrix
from galbim.poly import (
    Polynomial,
    poly_ext_gcd,
    poly_gcd,
    resultant,
    squarefree_decomposition,
)

from oracles import (
    is_irreducible,
    kron,
    mat_is_semisimple,
    qbinom,
    squarefree_part,
)

F5 = GF(5)
F2 = GF(2)
F3 = GF(3)


# ----------------------------------------------------------- oracles


def oracle_det(M):
    """Cofactor-expansion determinant, usable up to 4x4."""
    n = M.nrows
    if n == 1:
        return M[0, 0]
    acc = M.field.zero()
    sign = M.field.one()
    for j in range(n):
        minor = M.submatrix(
            range(1, n), [c for c in range(n) if c != j]
        )
        term = sign * M[0, j] * oracle_det(minor)
        acc = acc + term
        sign = -sign
    return acc


def oracle_charpoly(M):
    """det(x I - M) computed with polynomial entries via cofactors."""
    field = M.field
    n = M.nrows
    x = Polynomial.x(field)

    def det_poly(rows):
        k = len(rows)
        if k == 1:
            return rows[0][0]
        acc = Polynomial.zero(field)
        for j in range(k):
            minor = [
                [row[c] for c in range(k) if c != j] for row in rows[1:]
            ]
            term = rows[0][j] * det_poly(minor)
            if j % 2 == 1:
                term = -term
            acc = acc + term
        return acc

    rows = [
        [
            x - Polynomial.constant(field, M[i, i])
            if i == j
            else Polynomial.constant(field, -M[i, j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det_poly(rows)


def rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rand_matrix(rng, field, n, entry):
    return Matrix(field, [[entry(rng) for _ in range(n)] for _ in range(n)])


# ---------------------------------------------------------- polynomials


def test_polynomial_ring_basics():
    x = Polynomial.x(QQ)
    f = x**2 + 3 * x + 2
    g = x + 1
    q, r = f.divmod(g)
    assert r.is_zero()
    assert q == x + 2
    assert f == q * g
    assert (f - f).is_zero()
    assert f.degree == 2
    assert Polynomial.zero(QQ).degree == -1


def test_exact_addition_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        a = Polynomial(QQ, [rand_fraction(rng) for _ in range(rng.randint(0, 6))])
        b = Polynomial(QQ, [rand_fraction(rng) for _ in range(rng.randint(0, 6))])
        assert (a + b) - b == a
        assert a * b == b * a
        if not b.is_zero():
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_gcd_properties():
    rng = random.Random(7)
    x = Polynomial.x(QQ)
    for _ in range(25):
        a = Polynomial(QQ, [rand_fraction(rng) for _ in range(rng.randint(1, 5))])
        b = Polynomial(QQ, [rand_fraction(rng) for _ in range(rng.randint(1, 5))])
        c = x + rng.randint(-3, 3)
        g = poly_gcd(a * c, b * c)
        if not a.is_zero() and not b.is_zero():
            assert g % c == Polynomial.zero(QQ)
        d, s, t = poly_ext_gcd(a, b)
        assert s * a + t * b == d


def test_evaluate_and_compose():
    x = Polynomial.x(QQ)
    f = x**3 - 2 * x + 1
    assert f.evaluate(Fraction(2)) == Fraction(5)
    g = f.compose(x + 1)
    for v in range(-3, 4):
        assert g.evaluate(Fraction(v)) == f.evaluate(Fraction(v + 1))


def test_derivative_leibniz():
    rng = random.Random(3)
    for _ in range(20):
        a = Polynomial(QQ, [rand_fraction(rng) for _ in range(rng.randint(1, 5))])
        b = Polynomial(QQ, [rand_fraction(rng) for _ in range(rng.randint(1, 5))])
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_qbinom_frozen_values():
    # [2 1]_q = 1 + q, and the q -> 1 limit recovers binomials
    q = Polynomial.x(QQ)
    assert qbinom(2, 1, q) == 1 + q
    assert qbinom(4, 2, q) == 1 + q + 2 * q**2 + q**3 + q**4
    assert qbinom(4, 2, 1) == 6
    assert qbinom(5, 2, 1) == 10


def test_qbinom_at_root_of_unity_vanishes():
    # [m i]_q = 0 for 0 < i < m when q is a primitive m-th root of 1;
    # check m = 2 at q = -1 exactly
    assert qbinom(2, 1, Fraction(-1)) == 0


def test_binomial_divisibility_char_p():
    # binom(p-1+j, j) = 0 mod p for 1 <= j <= p-1 drives p-th power
    # collapse arguments in characteristic p
    from math import comb

    for p in (2, 3, 5, 7):
        for j in range(1, p):
            assert comb(p - 1 + j, j) % p == 0


def test_squarefree_part_and_decomposition():
    x = Polynomial.x(QQ)
    f = (x - 1) ** 3 * (x + 2) ** 2 * (x**2 + 1)
    sf = squarefree_part(f)
    expected = ((x - 1) * (x + 2) * (x**2 + 1)).monic()
    assert sf == expected
    lead, parts = squarefree_decomposition(f)
    assert lead == Fraction(1)
    rebuilt = Polynomial.one(QQ)
    for g, m in parts:
        rebuilt = rebuilt * g**m
    assert rebuilt == f.monic()
    assert sorted(m for _, m in parts) == [1, 2, 3]


def test_squarefree_char_p_pth_power():
    # (x + 1)^2 over F_2 has zero derivative; deflation must find x + 1
    x = Polynomial.x(F2)
    f = x**2 + 1  # equals (x + 1)^2 in characteristic 2
    assert f.derivative().is_zero()
    assert squarefree_part(f) == x + 1
    lead, parts = squarefree_decomposition(f)
    assert parts == [(x + 1, 2)]


def test_resultant_vs_root_products():
    # res(f, g) = lead(f)^deg g * prod g(root_i) over roots of f
    x = Polynomial.x(QQ)
    f = (x - 1) * (x - 2)
    g = (x - 3) * (x + 1)
    # prod over roots 1, 2 of g(r): g(1) = -2*2 = -4, g(2) = -1*3 = -3
    assert resultant(f, g) == Fraction(12)
    assert resultant(f, f) == 0


def test_rational_function_field_arithmetic():
    from galbim.towers import RationalFunctionField

    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    a = (t**2 - 1) / (t + 1)
    assert a == t - 1  # cancellation to canonical form
    b = 1 / (t - 1)
    assert a * b == Qt.one()
    assert (a + b) - b == a
    with pytest.raises(NotInvertible):
        Qt.zero().inverse()


# -------------------------------------------------------------- matrices


def test_matrix_det_against_cofactor_oracle():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            M = rand_matrix(rng, QQ, n, rand_fraction)
            assert M.det() == oracle_det(M)


def test_matrix_inverse_and_solve():
    rng = random.Random(5)
    count = 0
    while count < 12:
        n = rng.randint(1, 4)
        M = rand_matrix(rng, QQ, n, rand_fraction)
        if M.det() == 0:
            continue
        count += 1
        Minv = M.inverse()
        assert (M * Minv).is_identity()
        b = [rand_fraction(rng) for _ in range(n)]
        x = M.solve(b)
        assert M.mul_vec(x) == [QQ.coerce(c) for c in b]


def test_singular_matrix_raises():
    M = Matrix(QQ, [[1, 2], [2, 4]])
    assert M.det() == 0
    with pytest.raises(NotInvertible):
        M.inverse()
    assert M.rank() == 1
    ker = M.kernel()
    assert len(ker) == 1
    assert M.mul_vec(ker[0]) == [Fraction(0), Fraction(0)]


def test_inconsistent_solve_returns_none():
    M = Matrix(QQ, [[1, 2], [2, 4]])
    assert M.solve([Fraction(1), Fraction(3)]) is None


def test_charpoly_matches_leibniz_oracle():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            M = rand_matrix(rng, QQ, n, rand_fraction)
            assert M.charpoly() == oracle_charpoly(M)
    # more than one Krylov chain: zero, scalar, nilpotent, non-cyclic
    jordan = [[int(c == r + 1) for c in range(4)] for r in range(4)]
    for M in (Matrix.zeros(QQ, 3), Matrix.diagonal(QQ, [5] * 3),
              Matrix(QQ, jordan), Matrix.diagonal(QQ, [1, 2, 2])):
        assert M.charpoly() == oracle_charpoly(M)
    assert Matrix.identity(QQ, 0).charpoly() == Polynomial.one(QQ)


def test_charpoly_of_companion_is_the_polynomial():
    x = Polynomial.x(QQ)
    for f in (x**2 + 3 * x + 1, x**3 - 2, x**4 + x + 7, x**5 - x - 1):
        C = Matrix.companion(f)
        assert C.charpoly() == f
        assert C.minpoly() == f


def test_cayley_hamilton():
    rng = random.Random(29)
    for n in (2, 3, 4):
        for _ in range(4):
            M = rand_matrix(rng, QQ, n, rand_fraction)
            chi = M.charpoly()
            value = chi.evaluate(
                M, lift=lambda c: Matrix.identity(QQ, n).scale(c)
            )
            assert value.is_zero()


def test_minpoly_divides_charpoly_and_annihilates():
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        for _ in range(4):
            M = rand_matrix(rng, QQ, n, rand_fraction)
            mu = M.minpoly()
            chi = M.charpoly()
            assert (chi % mu).is_zero()
            value = mu.evaluate(
                M, lift=lambda c: Matrix.identity(QQ, n).scale(c)
            )
            assert value.is_zero()


def test_minpoly_detects_diagonalizable_defect():
    # nilpotent Jordan block: minpoly x^2, not semisimple
    N = Matrix(QQ, [[0, 1], [0, 0]])
    x = Polynomial.x(QQ)
    assert N.minpoly() == x**2
    assert not mat_is_semisimple(N)
    D = Matrix.diagonal(QQ, [1, 2, 2])
    assert D.minpoly() == (x - 1) * (x - 2)
    assert mat_is_semisimple(D)


def test_rank_nullity_random():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        M = Matrix(
            QQ, [[rand_fraction(rng) for _ in range(m)] for _ in range(n)]
        )
        assert M.rank() + len(M.kernel()) == m


def test_kron_multiplicative():
    rng = random.Random(43)
    A = rand_matrix(rng, QQ, 2, rand_fraction)
    B = rand_matrix(rng, QQ, 2, rand_fraction)
    C = rand_matrix(rng, QQ, 2, rand_fraction)
    D = rand_matrix(rng, QQ, 2, rand_fraction)
    assert kron(A * C, B * D) == kron(A, B) * kron(C, D)


def test_field_mismatch_is_loud():
    a = Matrix(QQ, [[1]])
    b = Matrix(F5, [[1]])
    with pytest.raises(FieldMismatch):
        a + b


# ---------------------------------------------------------- factorization


def test_factor_x2_plus_1_mod_5_exhaustive_oracle():
    # oracle: exhaustive root search over all of F_5
    x = Polynomial.x(F5)
    f = x**2 + 1
    roots = [v for v in F5.elements() if not f.evaluate(v)]
    assert sorted(r.value for r in roots) == [2, 3]
    lead, factors = factor_poly(f)
    assert lead == F5.one()
    assert [(g.degree, m) for g, m in factors] == [(1, 1), (1, 1)]
    product = Polynomial.one(F5)
    for g, m in factors:
        product = product * g**m
    assert product == f
    found_roots = sorted((-g.coeff(0)).value for g, _ in factors)
    assert found_roots == [2, 3]


def test_factor_irreducible_quadratic_mod_3():
    x = Polynomial.x(F3)
    f = x**2 + 1
    assert all(f.evaluate(v) for v in F3.elements())
    assert is_irreducible(f)


def test_factor_finite_field_mixed_degrees():
    # freeze: x^6 - 1 over F_5 splits as (x-1)(x+1)(x^2+x+1)(x^2-x+1)
    x = Polynomial.x(F5)
    f = x**6 - 1
    lead, factors = factor_poly(f)
    degrees = sorted(g.degree for g, _ in factors)
    assert degrees == [1, 1, 2, 2]
    product = Polynomial.one(F5)
    for g, m in factors:
        product = product * g**m
    assert product == f


def test_factor_char2_trace_map_path():
    x = Polynomial.x(F2)
    f = x**4 + x  # x (x+1) (x^2+x+1)
    lead, factors = factor_poly(f)
    assert sorted(g.degree for g, _ in factors) == [1, 1, 2]
    product = Polynomial.one(F2)
    for g, m in factors:
        product = product * g**m
    assert product == f


def test_x4_plus_1_irreducible_over_Q_by_brute_force():
    # oracle: no factorization with integer coefficients bounded by 3
    # exists in degree split 1+3 or 2+2, checked exhaustively
    def brute_force_has_factor():
        import itertools

        coeffs = range(-3, 4)
        # linear factor: integer root of x^4 + 1 -- impossible since
        # x^4 + 1 >= 1, but scan anyway
        for r in range(-3, 4):
            if r**4 + 1 == 0:
                return True
        for b, c in itertools.product(coeffs, repeat=2):
            # (x^2 + b x + c)(x^2 - b x + d): match x^4 + 0 x^3 + ... + 1
            if c == 0:
                continue
            if 1 % c:
                continue
            d = 1 // c
            if c + d - b * b == 0 and b * (d - c) == 0:
                return True
        return False

    assert not brute_force_has_factor()
    x = Polynomial.x(QQ)
    assert is_irreducible(x**4 + 1)


def test_zassenhaus_frozen_small_cases():
    x = Polynomial.x(QQ)
    cases = [
        (x**2 - 1, [(x - 1, 1), (x + 1, 1)]),
        (x**2 - 2, [(x**2 - 2, 1)]),
        (x**3 - 1, [(x - 1, 1), (x**2 + x + 1, 1)]),
        (x**4 - 2, [(x**4 - 2, 1)]),
        (x**6 - 1, None),  # degrees checked below
        ((x**2 + 1) ** 2 * (x - 5), None),
    ]
    for f, expected in cases:
        lead, factors = factor_poly(f)
        product = Polynomial.constant(QQ, lead)
        for g, m in factors:
            product = product * g**m
        assert product == f
        for g, _ in factors:
            assert is_irreducible(g)
        if expected is not None:
            assert sorted(factors, key=lambda p: (p[0].degree, str(p[0]))) == sorted(
                expected, key=lambda p: (p[0].degree, str(p[0]))
            )


def test_zassenhaus_needs_recombination():
    # x^4 + 1 factors mod every prime but is irreducible over Q, so the
    # subset recombination must reject all proper subsets
    x = Polynomial.x(QQ)
    lead, factors = factor_poly(x**4 + 1)
    assert len(factors) == 1 and factors[0][1] == 1


def test_rational_roots_and_multiplicity():
    x = Polynomial.x(QQ)
    f = (x - Fraction(1, 2)) ** 2 * (x + 3)
    roots = roots_in_coefficient_field(f)
    assert sorted(roots, key=lambda rm: rm[0]) == [
        (Fraction(-3), 1),
        (Fraction(1, 2), 2),
    ]


def test_factor_degree_cap():
    from galbim.errors import DegreeBound

    x = Polynomial.x(QQ)
    f = x**25 - 2
    with pytest.raises(DegreeBound):
        factor_poly(f)


def test_factor_rejects_rational_function_base():
    from galbim.errors import UnsupportedBase
    from galbim.towers import RationalFunctionField

    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    x = Polynomial.x(Qt)
    with pytest.raises(UnsupportedBase):
        factor_poly(x**2 - t)


def test_factor_determinism():
    x = Polynomial.x(F5)
    f = x**6 - 1
    first = factor_poly(f)
    second = factor_poly(f)
    assert first == second
