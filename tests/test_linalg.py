"""Linear algebra for commuting families: kernels, joint eigenspaces,
simultaneous triangularization, and the central-element solver."""

import random

import pytest

from galbim.errors import EigenvalueOutsideField, NotAField
from galbim.fieldbase import GF, QQ
from galbim.linalg import (
    center_kernel,
    eigenspace,
    extend_to_basis,
    joint_eigenspace,
    restriction_matrix,
    simultaneous_triangularize,
    stack_kernel,
)
from galbim.matrix import Matrix
from galbim.poly import Polynomial
from galbim.towers import extend
from oracles import diagonal_character_multiset, generalized_eigenspace


def test_stack_kernel_intersects():
    A = Matrix(QQ, [[1, 0, -1], [0, 0, 0], [0, 0, 0]])
    B = Matrix(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    ker = stack_kernel([A, B])
    assert len(ker) == 1
    v = ker[0]
    assert A.mul_vec(v) == [QQ.zero()] * 3
    assert B.mul_vec(v) == [QQ.zero()] * 3


def test_eigenspace_and_generalized():
    # Jordan block: eigenspace dim 1, generalized dim 2
    J = Matrix(QQ, [[3, 1], [0, 3]])
    assert len(eigenspace(J, QQ.coerce(3))) == 1
    assert len(generalized_eigenspace(J, QQ.coerce(3))) == 2
    assert len(eigenspace(J, QQ.coerce(2))) == 0


def test_joint_eigenspace():
    A = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 5]])
    B = Matrix(QQ, [[2, 0, 0], [0, 3, 0], [0, 0, 3]])
    assert len(joint_eigenspace([A, B], [QQ.coerce(1), QQ.coerce(2)])) == 1
    assert len(joint_eigenspace([A, B], [QQ.coerce(1), QQ.coerce(3)])) == 1
    assert len(joint_eigenspace([A, B], [QQ.coerce(5), QQ.coerce(2)])) == 0


def test_restriction_matrix_acts_on_invariant_subspace():
    A = Matrix(QQ, [[2, 1, 0], [0, 2, 0], [0, 0, 7]])
    basis = [[QQ.one(), QQ.zero(), QQ.zero()],
             [QQ.zero(), QQ.one(), QQ.zero()]]
    R = restriction_matrix(A, basis)
    assert R == Matrix(QQ, [[2, 1], [0, 2]])


def test_extend_to_basis():
    vs = [[QQ.one(), QQ.one(), QQ.zero()]]
    full = extend_to_basis(QQ, vs, 3)
    assert len(full) == 3
    assert Matrix.from_cols(QQ, full).rank() == 3


def test_triangularize_diagonalizable_family():
    rng = random.Random(4100)
    for _ in range(8):
        d1 = [QQ.coerce(rng.randint(-3, 3)) for _ in range(4)]
        d2 = [QQ.coerce(rng.randint(-3, 3)) for _ in range(4)]
        D1, D2 = Matrix.diagonal(QQ, d1), Matrix.diagonal(QQ, d2)
        # random unimodular conjugation keeps everything rational
        U = Matrix.identity(QQ, 4)
        for _ in range(6):
            i, j = rng.randrange(4), rng.randrange(4)
            if i == j:
                continue
            E = Matrix.identity(QQ, 4).rows
            E = [list(r) for r in E]
            E[i][j] = QQ.coerce(rng.randint(-2, 2))
            U = U * Matrix(QQ, E)
        Ui = U.inverse()
        mats = [U * D1 * Ui, U * D2 * Ui]
        _, tri = simultaneous_triangularize(mats)
        multiset = diagonal_character_multiset(tri)
        want = {}
        for pair in zip(d1, d2):
            want[pair] = want.get(pair, 0) + 1
        assert multiset == want


def test_triangularize_jordan_pair():
    A = Matrix(QQ, [[1, 1], [0, 1]])
    B = Matrix(QQ, [[2, 3], [0, 2]])
    T, tri = simultaneous_triangularize([A, B])
    assert diagonal_character_multiset(tri) == {
        (QQ.one(), QQ.coerce(2)): 2,
    }
    Ti = T.inverse()
    for M, R in zip([A, B], tri):
        assert Ti * M * T == R


def test_triangularize_eigenvalue_escape():
    # rotation by 90 degrees has no rational eigenvalues
    R = Matrix(QQ, [[0, -1], [1, 0]])
    with pytest.raises(EigenvalueOutsideField):
        simultaneous_triangularize([R])


def test_triangularize_over_extension():
    Qi = extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")
    i = Qi.coerce(Qi.gen())
    R = Matrix(Qi, [[Qi.zero(), -Qi.one()], [Qi.one(), Qi.zero()]])
    _, tri = simultaneous_triangularize([R])
    assert diagonal_character_multiset(tri) == {(i,): 1, (-i,): 1}


def test_center_kernel_of_galois_twist():
    # diag(r, -r) image: central elements are the rationals
    L = extend(QQ, Polynomial(QQ, [-2, 0, 1]), "r")
    r = L.coerce(L.gen())

    def phi(a):
        a = L.coerce(a)
        conj = L.from_coords([a.coords[0], -a.coords[1]])
        return Matrix.diagonal(L, [a, conj])

    vecs = center_kernel(L, phi)
    assert len(vecs) == 1
    assert vecs[0] * r == r * vecs[0]


def test_center_kernel_full_field():
    L = extend(QQ, Polynomial(QQ, [-2, 0, 1]), "r")

    def phi(a):
        return Matrix(L, [[L.coerce(a)]])

    vecs = center_kernel(L, phi)
    assert len(vecs) == 2  # the whole quadratic field is central


def test_center_kernel_char_p():
    F4 = extend(GF(2), Polynomial(GF(2), [1, 1, 1]), "w")
    w = F4.coerce(F4.gen())

    def phi(a):
        a = F4.coerce(a)
        frob = a * a
        return Matrix.diagonal(F4, [a, frob])

    vecs = center_kernel(F4, phi)
    # fixed field of Frobenius on F4 is F2
    assert len(vecs) == 1
    assert (vecs[0] * w) * vecs[0] == vecs[0] * (w * vecs[0])
