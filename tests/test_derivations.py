"""Derivations of field towers, their rank-two bimodule blocks, and
closure of the contained-block family under commutators and p-th
powers, with hand-frozen witness vectors."""

import math
import random
from fractions import Fraction

import pytest

from galbim.errors import AxiomViolation, FieldMismatch, UnsupportedBase
from galbim.fieldbase import GF, QQ
from galbim.fieldops import Subfield
from galbim.matrix import Matrix
from galbim.morphisms import automorphisms_over
from galbim.poly import Polynomial
from galbim.towers import RationalFunctionField, evaluate, extend
from galbim.bimod import (
    Bimodule,
    bimodule_of_group,
    direct_sum,
    min_poly_right,
    regular_over,
    tensor,
    tensor_power,
    twist,
)
from galbim.derivations import (
    Derivation,
    commutator,
    contains_m_of_d,
    m_of_d,
    m_of_d_isomorphic,
    p_power,
    p_power_compatible,
)
from golden_analyze import biquadratic


def ratfunc(p):
    return RationalFunctionField(GF(p), "t")


# ----------------------------------------------------------- evaluation


@pytest.mark.parametrize("p", [2, 3])
def test_ddt_values(p):
    L = ratfunc(p)
    t = L.gen()
    D = Derivation(L, {L: L.one()})
    assert D.apply(t) == L.one()
    assert D.apply(t * t) == L.coerce(2) * t
    assert D.apply(t**3) == L.coerce(3) * t * t
    assert D.apply(L.one() / t) == -(L.one() / (t * t))
    rng = random.Random(9100 + p)
    samples = []
    for _ in range(6):
        num = Polynomial(GF(p), [rng.randrange(p) for _ in range(3)] + [1])
        den = Polynomial(GF(p), [rng.randrange(1, p)] + [rng.randrange(p)] + [1])
        samples.append(L.coerce(num) / L.coerce(den))
    for a in samples:
        for b in samples:
            assert D.apply(a * b) == D.apply(a) * b + a * D.apply(b)
            assert D.apply(a + b) == D.apply(a) + D.apply(b)


def test_relation_constraint_checked():
    # s^2 = t in characteristic 2: the relation forces D(t) = 0 and
    # leaves D(s) free
    Ft = ratfunc(2)
    t = Ft.gen()
    N = extend(Ft, Polynomial(Ft, [-t, Ft.zero(), Ft.one()]), "s")
    D = Derivation(N, {N: N.one()})
    assert D.apply(N.coerce(t)) == N.zero()
    s = N.coerce(N.gen())
    assert D.apply(s) == N.one()
    assert D.apply(s**3) == N.coerce(t)
    with pytest.raises(AxiomViolation):
        Derivation(N, {Ft: N.one()})


def test_separable_layers_admit_no_derivation():
    L = extend(QQ, Polynomial(QQ, [-2, 0, 1]), "r")
    with pytest.raises(AxiomViolation):
        Derivation(L, {L: L.one()})
    assert Derivation(L).is_zero()


def test_foreign_layer_rejected():
    L = ratfunc(2)
    other = ratfunc(3)
    with pytest.raises(FieldMismatch):
        Derivation(L, {other: L.one()})


# ----------------------------------------------- Lie and p-th power ops


def test_linear_structure():
    L = ratfunc(3)
    t = L.gen()
    X = Derivation(L, {L: L.one()})
    Y = X.scale(t)
    assert (X + Y).apply(t) == L.one() + t
    assert (Y - Y).is_zero()
    assert X and not Y - Y
    assert [repr(D) for D in (X, Y, Y - Y)] == [
        "Derivation(t -> 1)", "Derivation(t -> t)", "Derivation(0)"]
    assert (-X).apply(t) == L.coerce(-1)
    assert X != Y
    assert X == Derivation(L, {L: L.one()})


def test_commutator_euler_relation():
    # [t d/dt, d/dt] = -d/dt
    L = ratfunc(3)
    t = L.gen()
    X = Derivation(L, {L: L.one()})
    Y = X.scale(t)
    assert commutator(Y, X) == -X
    assert commutator(X, Y) == X
    assert commutator(X, X).is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_p_power(p):
    L = ratfunc(p)
    t = L.gen()
    X = Derivation(L, {L: L.one()})
    assert p_power(X).is_zero()
    Y = X.scale(t)
    assert p_power(Y) == Y
    rng = random.Random(9200 + p)
    for _ in range(4):
        a = L.coerce(Polynomial(GF(p), [rng.randrange(p), 1]))
        w = a * a
        for _ in range(p):
            w = Y.apply(w)
        assert w == p_power(Y).apply(a * a)


def test_p_power_needs_positive_characteristic():
    Fw = RationalFunctionField(QQ, "w")
    D = Derivation(Fw, {Fw: Fw.one()})
    with pytest.raises(UnsupportedBase):
        p_power(D)


# -------------------------------------------------- derivation bimodules


def test_apply_reads_the_corner_of_the_block():
    # s^2 = t over F_3(t) is separable, so D(s) = D(t) / (2 s)
    Ft = ratfunc(3)
    t = Ft.gen()
    N = extend(Ft, Polynomial(Ft, [-t, Ft.zero(), Ft.one()]), "s")
    s = N.gen()
    D = Derivation(N, {Ft: N.one(), N: N.one() / (N.from_int(2) * s)})
    M = m_of_d(D)
    for a in (s, N.coerce(t), s**3 + N.one() / (s + N.coerce(t)),
              N.one() / (s - N.one())):
        assert M.phi(a) == Matrix(N, [[a, D.apply(a)], [N.zero(), a]])
    assert D.apply(s) * 2 * s == N.one()
    with pytest.raises(AxiomViolation, match=r"relation.*\bs\b"):
        Derivation(N, {Ft: N.one()})


@pytest.mark.parametrize("p", [2, 3])
def test_m_of_d_shape(p):
    L = ratfunc(p)
    t = L.gen()
    M = m_of_d(Derivation(L, {L: L.one()}))
    assert M.rank == 2
    assert M.phi(t) == Matrix(L, [[t, L.one()], [L.zero(), t]])
    # nonsplit self-extension: the right minimal polynomial is a square
    mu = min_poly_right(M, t)
    assert mu == Polynomial(L, [-t, L.one()]) ** 2


def test_m_of_d_zero_is_trivial():
    L = ratfunc(2)
    t = L.gen()
    Z = Derivation(L)
    M = m_of_d(Z)
    assert M.phi(t) == Matrix.diagonal(L, [t, t])
    ok, pair = contains_m_of_d(M, Z)
    assert ok and len(pair) == 2


def test_m_of_d_isomorphic_both_directions():
    L = ratfunc(2)
    t = L.gen()
    X = Derivation(L, {L: L.one()})
    unit = t * t + L.one()
    Y = X.scale(unit)
    ok, a = m_of_d_isomorphic(X, Y)
    assert ok and a == unit
    ok, a = m_of_d_isomorphic(Y, X)
    assert ok and a * unit == L.one()
    ok, a = m_of_d_isomorphic(X, Derivation(L))
    assert (ok, a) == (False, None)
    ok, a = m_of_d_isomorphic(Derivation(L), Derivation(L))
    assert ok and a == L.one()


def test_m_of_d_isomorphic_independent_directions():
    Ft = ratfunc(2)
    N = RationalFunctionField(Ft, "v")
    Dt = Derivation(N, {Ft: N.one()})
    Dv = Derivation(N, {N: N.one()})
    assert m_of_d_isomorphic(Dt, Dv) == (False, None)
    assert m_of_d_isomorphic(Dv, Dt) == (False, None)
    assert m_of_d_isomorphic(Dt, Dt + Dv) == (False, None)


# ------------------------------------------------------ block containment


def test_contains_in_trivial_bimodule_only_zero():
    L = ratfunc(2)
    t = L.gen()
    P = Bimodule(L, {L: Matrix.diagonal(L, [t, t, t])})
    X = Derivation(L, {L: L.one()})
    ok, pair = contains_m_of_d(P, Derivation(L))
    assert ok and pair is not None
    assert contains_m_of_d(P, X) == (False, None)


def test_contains_needs_trivial_eigenvectors():
    L = ratfunc(2)
    t = L.gen()
    # D = 0 needs a two dimensional trivial eigenspace; rank 1 has one
    P = Bimodule(L, {L: Matrix(L, [[t]])})
    assert contains_m_of_d(P, Derivation(L)) == (False, None)
    # the twist t -> t + 1 has no trivial eigenvector at all: W = 0
    P = Bimodule(L, {L: Matrix(L, [[t + L.one()]])})
    assert contains_m_of_d(P, Derivation(L, {L: L.one()})) == (False, None)


def test_contains_with_witness_identity():
    L = ratfunc(2)
    t = L.gen()
    X = Derivation(L, {L: L.one()})
    trivial = Bimodule(L, {L: Matrix(L, [[t]])})
    # with the trivial summand first the trivial eigenspace is spanned
    # by e0 and e1, and only v1 = e1 extends to a block
    for P in (direct_sum(m_of_d(X), trivial), direct_sum(trivial, m_of_d(X))):
        ok, (v1, v2) = contains_m_of_d(P, X)
        assert ok
        for a in [t, t * t + t, L.one() / (t + L.one())]:
            A = P.phi(a)
            assert A.mul_vec(v1) == [a * c for c in v1]
            da = X.apply(a)
            assert A.mul_vec(v2) == [a * y + da * c
                                     for y, c in zip(v2, v1)]
    # scaled blocks are isomorphic, so they are found as well
    ok, _ = contains_m_of_d(P, X.scale(t))
    assert ok


def test_commutator_closure_on_fourfold_tensor():
    # the commutator block sits inside M(X) (x) M(Y) (x) M(X) (x) M(Y),
    # spanned by the all-x monomial and (x1-x2)(y1-y2); p = 3
    L = ratfunc(3)
    t = L.gen()
    X = Derivation(L, {L: L.one()})
    Y = X.scale(t)
    T4 = tensor(tensor(tensor(m_of_d(X), m_of_d(Y)), m_of_d(X)), m_of_d(Y))
    assert T4.rank == 16
    c = commutator(Y, X)
    assert not c.is_zero()
    ok, _ = contains_m_of_d(T4, c)
    assert ok
    # frozen witness: x-coordinates are index 0 within each factor and
    # factor 1 is the most significant digit
    zero, one = L.zero(), L.one()
    v1 = [zero] * 16
    v1[0] = one
    v2 = [zero] * 16
    v2[3] = one       # x1 y1
    v2[6] = -one      # x1 y2
    v2[9] = -one      # x2 y1
    v2[12] = one      # x2 y2
    for a in [t, t * t]:
        A = T4.phi(a)
        assert A.mul_vec(v1) == [a * w for w in v1]
        da = c.apply(a)
        assert A.mul_vec(v2) == [a * y + da * w for y, w in zip(v2, v1)]


def test_p_power_block_inside_threefold_tensor_p2():
    # D = d/dt with D^2 = 0: rank-8 tensor cube, witness vectors are
    # the symmetric functions e_1 and e_3 of the x's
    L = ratfunc(2)
    t = L.gen()
    X = Derivation(L, {L: L.one()})
    assert p_power(X).is_zero()
    T3 = tensor_power(m_of_d(X), 3)
    assert T3.rank == 8
    ok, _ = contains_m_of_d(T3, p_power(X))
    assert ok
    zero, one = L.zero(), L.one()
    v1 = [zero] * 8
    v1[0] = one                    # e_3 = x1 x2 x3
    v2 = [zero] * 8
    for i in (3, 5, 6):            # e_1 = x1 + x2 + x3
        v2[i] = one
    for a in [t, t * t + t]:
        A = T3.phi(a)
        assert A.mul_vec(v1) == [a * w for w in v1]
        assert A.mul_vec(v2) == [a * w for w in v2]


def test_p_power_block_inside_fivefold_tensor_p3():
    # E = t d/dt with E^3 = E: the middle binomials vanish mod 3 and
    # e_2 maps onto e_5 with coefficient E^3(a)
    L = ratfunc(3)
    t = L.gen()
    Y = Derivation(L, {L: t})
    Yp = p_power(Y)
    assert Yp == Y
    T5 = tensor_power(m_of_d(Y), 5)
    assert T5.rank == 32
    ok, _ = contains_m_of_d(T5, Yp)
    assert ok
    zero, one = L.zero(), L.one()
    v1 = [zero] * 32
    v1[0] = one                    # e_5
    v2 = [zero] * 32
    for i in (7, 11, 13, 14, 19, 21, 22, 25, 26, 28):
        v2[i] = one                # e_2: zero digits at two factors
    for a in [t, t + L.one()]:
        A = T5.phi(a)
        assert A.mul_vec(v1) == [a * w for w in v1]
        da = Yp.apply(a)
        assert A.mul_vec(v2) == [a * y + da * w for y, w in zip(v2, v1)]


def test_p_power_compatible_verdicts():
    L2 = ratfunc(2)
    t2 = L2.gen()
    X = Derivation(L2, {L2: L2.one()})
    trivial = Bimodule(L2, {L2: Matrix(L2, [[t2]])})
    P = direct_sum(m_of_d(X), trivial)
    assert p_power_compatible(P, X) is True
    assert p_power_compatible(P, Derivation(L2)) is True
    # not contained: vacuously compatible
    assert p_power_compatible(trivial, X) is True
    L3 = ratfunc(3)
    Y = Derivation(L3, {L3: L3.gen()})
    P3 = direct_sum(m_of_d(Y), Bimodule(L3, {L3: Matrix(L3, [[L3.gen()]])}))
    assert p_power_compatible(P3, Y) is True


def test_symmetric_function_binomials():
    # e_{p-1} e_j = binom(p-1+j, j) e_{p-1+j}: the middle coefficients
    # vanish mod p and the top one is 1
    for p in (2, 3, 5, 7):
        for j in range(1, p):
            assert math.comb(p - 1 + j, j) % p == 0
        assert math.comb(2 * p - 1, p) % p == 1


# ------------------------------------- tensor phi through its factors


def _fractions(L, rng, n=3):
    """n elements num/den of F_p(t) with a quadratic denominator."""
    p = L.coefficient_field.p
    out = []
    for _ in range(n):
        num = Polynomial(GF(p), [rng.randrange(p) for _ in range(3)] + [1])
        den = Polynomial(GF(p), [rng.randrange(1, p), rng.randrange(p), 1])
        out.append(L.coerce(num) / L.coerce(den))
    return out


def assert_phi_is_evaluate(T, samples):
    """T.phi, composed from its factors, equals towers.evaluate on the
    generator images."""
    assert T._factors is not None
    for a in samples:
        assert T.phi(a) == evaluate(a, T.field, T.images, T._scalar)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("coeff", ["1", "t", "t^2+1"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_tensor_power_phi_is_evaluate(p, coeff, k):
    L = ratfunc(p)
    t = L.gen()
    c = {"1": L.one(), "t": t, "t^2+1": t * t + L.one()}[coeff]
    T = tensor_power(m_of_d(Derivation(L, {L: c})), k)
    samples = _fractions(L, random.Random(9400 + 10 * p + k))
    assert any(not a.is_polynomial() for a in samples)
    assert_phi_is_evaluate(T, samples + [t, L.zero()])


def test_fourfold_commutator_tensor_phi_is_evaluate():
    L = ratfunc(3)
    X = Derivation(L, {L: L.one()})
    Y = X.scale(L.gen())
    T4 = tensor(tensor(tensor(m_of_d(X), m_of_d(Y)), m_of_d(X)), m_of_d(Y))
    assert_phi_is_evaluate(T4, _fractions(L, random.Random(9431)))


def test_two_layer_tensor_phi_is_evaluate():
    # L = F_3(t)(u) with u^3 = t and D = d/du: both evaluate branches
    F = ratfunc(3)
    L = extend(F, Polynomial(F, [-F.gen(), F.zero(), F.zero(), F.one()]),
               "u")
    D = Derivation(L, {L: L.one()})
    T = tensor_power(m_of_d(D), 3)
    rng = random.Random(9432)
    x, y, z = (L.from_coords(_fractions(F, rng)) for _ in range(3))
    assert_phi_is_evaluate(T, [x / y, y / z, z * x])


def test_number_field_tensor_phi_is_evaluate():
    # L = Q(a)(b), a^2 = 2, b^2 = 3, with its four automorphisms
    L, _ = biquadratic()
    G = automorphisms_over(L, QQ)
    rng = random.Random(9433)

    def element():
        A = L.base
        return L.from_coords([
            A.from_coords([QQ.coerce(Fraction(rng.randrange(-9, 10),
                                              rng.randrange(1, 7)))
                           for _ in range(2)])
            for _ in range(2)
        ])

    samples = [element() / element() for _ in range(3)]
    for g in G:
        for h in G:
            assert_phi_is_evaluate(tensor(twist(L, g), twist(L, h)),
                                   samples)
    # factors of different ranks, neither of them diagonal in the first
    R = regular_over(L, Subfield.from_layer(L, L.base))
    for T in (tensor(R, bimodule_of_group(L, G)),
              tensor(bimodule_of_group(L, G[1:3]), R)):
        assert_phi_is_evaluate(T, samples)


def test_unequal_rank_derivation_tensor_phi_is_evaluate():
    L = ratfunc(3)
    t = L.gen()
    X = m_of_d(Derivation(L, {L: t}))
    Y = m_of_d(Derivation(L, {L: t * t + L.one()}))
    samples = _fractions(L, random.Random(9434))
    for T in (tensor(X, tensor_power(Y, 2)), tensor(tensor_power(Y, 2), X)):
        assert_phi_is_evaluate(T, samples)
