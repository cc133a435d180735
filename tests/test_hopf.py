"""Hopf algebra constructors, duality, antipode derivation and the
action-to-coaction bridge."""

import random
import re

import pytest

from galbim import hopf
from galbim.errors import (
    AxiomViolation,
    NotModuleAlgebra,
    NotPrimitiveRoot,
    UnsupportedBase,
)
from galbim.fieldbase import GF, QQ
from galbim.hopf import (
    HopfAlgebra,
    action_to_coaction,
    dual,
    group_algebra,
    nichols16,
    sparse_kernel,
    taft,
)
from galbim.matrix import Matrix
from galbim.poly import Polynomial
from galbim.towers import extend

from oracles import (
    exhaustive_hopf_check,
    qbinom,
    radford_antipode_full,
    tensor_square_product,
)

ONE = QQ.one()
ZERO = QQ.zero()


def sparse(H, i):
    return {(j, k): c for j, k, c in H.coprod[i]}


def s3_table():
    perms = [
        (0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1),
    ]
    def compose(p, q):
        return tuple(p[q[x]] for x in range(3))
    return [
        [perms.index(compose(p, q)) for q in perms] for p in perms
    ], perms


@pytest.fixture(scope="module")
def nich():
    return nichols16(QQ)


@pytest.fixture(scope="module")
def taft22():
    return taft(QQ, 2, 2, QQ.from_int(-1))


def test_group_algebra_trivial():
    H = group_algebra(QQ, [[0]])
    assert H.dim == 1
    assert H.names == ["1"]
    assert H.is_semisimple()


def test_group_algebra_z2_and_function_dual():
    H = group_algebra(QQ, [[0, 1], [1, 0]])
    assert H.dim == 2
    assert H.antipode == Matrix.identity(QQ, 2)
    K = dual(H)
    # functions on the two-element group: pointwise product
    assert K.basis_product(0, 0) == ((0, ONE),)
    assert K.basis_product(1, 1) == ((1, ONE),)
    assert K.basis_product(0, 1) == ()
    assert K.unit == [ONE, ONE]
    assert K.counit == [ONE, ZERO]


def test_group_algebra_s3_antipode_inverts():
    table, perms = s3_table()
    H = group_algebra(QQ, table)
    assert H.dim == 6
    for i, p in enumerate(perms):
        inv = tuple(p.index(x) for x in range(3))
        j = perms.index(inv)
        col = H.antipode.col(i)
        assert [k for k, c in enumerate(col) if c] == [j]
    assert H.is_semisimple()


def test_group_algebra_needs_identity():
    with pytest.raises(ValueError):
        group_algebra(QQ, [[1, 1], [1, 1]])


def test_broken_counit_rejected():
    mult = {(0, 0): ((0, 1),), (0, 1): ((1, 1),),
            (1, 0): ((1, 1),), (1, 1): ((0, 1),)}
    coprod = [((0, 0, 1),), ((1, 0, 1),)]  # Delta(g) = g (x) 1
    with pytest.raises(AxiomViolation):
        HopfAlgebra(QQ, ["1", "g"], mult, coprod,
                    counit=[ONE, ONE], unit=[ONE, ZERO],
                    antipode=Matrix.identity(QQ, 2))


MONOIDS_WITHOUT_INVERSES = [
    # {1, g} with g g = g: the integrals are lines, g and the dual of 1,
    # that pair to zero
    [[0, 1], [1, 1]],
    # {1, a, b} with a x = a and b x = b: the integrals Lambda with
    # Lambda h = eps(h) Lambda span the plane of a and b
    [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
]


def test_monoid_without_inverses_has_no_antipode():
    for table in MONOIDS_WITHOUT_INVERSES:
        n = len(table)
        mult = {(i, j): ((table[i][j], 1),)
                for i in range(n) for j in range(n)}
        coprod = [((i, i, 1),) for i in range(n)]
        with pytest.raises(AxiomViolation, match="admits no antipode"):
            HopfAlgebra(QQ, ["1"] + ["m%d" % i for i in range(1, n)],
                        mult, coprod, counit=[ONE] * n,
                        unit=[ONE] + [ZERO] * (n - 1))


def fun_s3():
    """Functions on S3 from raw structure constants, with no antipode
    supplied: the dual basis e_g multiplies pointwise and
    Delta(e_g) = sum of e_a (x) e_b over a b = g."""
    table, _ = s3_table()
    mult = {(g, g): ((g, 1),) for g in range(6)}
    coprod = [[(a, b, 1) for a in range(6) for b in range(6)
               if table[a][b] == g] for g in range(6)]
    counit = [ONE] + [ZERO] * 5
    return HopfAlgebra(QQ, ["e%d" % g for g in range(6)], mult, coprod,
                       counit, unit=[ONE] * 6)


def test_function_algebra_antipode_inverts():
    # not pointed: its group-likes are the two characters of S3
    table, _ = s3_table()
    H = fun_s3()
    for g in range(6):
        inverse = table[g].index(0)
        assert H.antipode.col(g) == [ONE if k == inverse else ZERO
                                     for k in range(6)]


def _taft_over_q_omega(n):
    W = extend(QQ, Polynomial(QQ, [1, 1, 1]), "w")
    return taft(W, 3, n, W.gen())


ANTIPODE_CORPUS = {
    "Fun(S3)": fun_s3,
    "S3 over GF(3)": lambda: group_algebra(GF(3), s3_table()[0]),
    "Taft(3,2) over GF(7)": lambda: taft(GF(7), 3, 2, GF(7).coerce(2)),
    # d = 27 and not unimodular: the left and right integrals differ
    "Taft(3,3) over Q(w)": lambda: _taft_over_q_omega(3),
}


@pytest.mark.parametrize("name", sorted(ANTIPODE_CORPUS))
def test_derived_antipode_passes_exhaustive_check(name):
    exhaustive_hopf_check(ANTIPODE_CORPUS[name]())


# every Hopf algebra the tests build without an antipode
BUILT_WITHOUT_S = {
    **ANTIPODE_CORPUS,
    "Taft(2,2) over Q": lambda: taft(QQ, 2, 2, QQ.from_int(-1)),
    "Taft(2,2) over Q(i)": lambda: taft(
        extend(QQ, Polynomial(QQ, [1, 0, 1]), "i"), 2, 2, -1),
    "Taft(3,2) over Q(w)": lambda: _taft_over_q_omega(2),
    "Nichols-16": lambda: nichols16(QQ),
    "S3 over Q": lambda: group_algebra(QQ, s3_table()[0]),
}


@pytest.mark.parametrize("name", sorted(BUILT_WITHOUT_S))
def test_antipode_matches_all_basis_integral_oracle(name, monkeypatch):
    # the library solves the right integral against the generators only;
    # the oracle solves it against every basis element
    kernels = []

    def recorded(*args):
        kernels.append(sparse_kernel(*args))
        return kernels[-1]

    monkeypatch.setattr(hopf, "sparse_kernel", recorded)
    H = BUILT_WITHOUT_S[name]()
    monkeypatch.undo()
    right, S = radford_antipode_full(H)
    assert len(kernels) == 2 and len(right) == 1
    assert kernels[0] == right
    assert H.antipode == S


def test_generators_are_computed_once_per_construction(monkeypatch):
    # _solve_antipode and _verify share one _generators() run, the only
    # caller of multiply during construction
    calls = []
    multiply = HopfAlgebra.multiply

    def counted(self, x, y):
        calls.append(1)
        return multiply(self, x, y)

    monkeypatch.setattr(HopfAlgebra, "multiply", counted)
    T = taft(QQ, 2, 2, QQ.from_int(-1))
    built = len(calls)
    rebuilt = HopfAlgebra(QQ, T.names, T.mult, T.coprod, T.counit, T.unit,
                          antipode=T.antipode, check=False)
    del calls[:]
    assert rebuilt._generators() == T._generators() == [1, 2]
    assert len(calls) == built > 0
    assert T._generators() is T._generators()


def _random_system(rng, field, dim):
    """((row, column), c) entries of a sparse system with repeated
    entries, a pair cancelling to zero and a row whose entries all
    cancel, and its dense matrix with every row key, zero rows too."""
    entries = []
    for r in range(rng.randrange(1, 2 * dim)):
        for col in rng.sample(range(dim), rng.randrange(1, dim + 1)):
            c = field.coerce(rng.randrange(-3, 4))
            entries.append(((("row", r), col), c))
            if rng.random() < 0.3:
                # the same entry split in two, and a cancelling pair
                entries.append(((("row", r), col), c))
                entries.append(((("row", r), col), -c - c))
                entries.append(((("row", r), col), c))
    entries += [((("cancel", 0), 0), field.one()),
                ((("cancel", 0), 0), -field.one())]
    rng.shuffle(entries)
    keys = sorted({row for (row, _), _ in entries})
    dense = [[field.zero()] * dim for _ in keys]
    for (row, col), c in entries:
        dense[keys.index(row)][col] += c
    return entries, Matrix(field, dense, ncols=dim)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF(5)"])
def test_sparse_kernel_matches_dense_kernel(field):
    rng = random.Random("sparse_kernel %d" % field.characteristic)
    for _ in range(40):
        dim = rng.randrange(1, 7)
        entries, dense = _random_system(rng, field, dim)
        assert sparse_kernel(field, dim, entries) == dense.kernel()
    # no nonzero row: the whole space
    cancelled = [(((0, 0), 1), field.one()), (((0, 0), 1), -field.one())]
    identity = [list(row) for row in Matrix.identity(field, 3).rows]
    for entries in ([], cancelled):
        assert sparse_kernel(field, 3, entries) == identity


Z2 = [[0, 1], [1, 0]]
Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("table, dualize, part, key, value, message", [
    # g g = 1 in Z3
    (Z3, False, "mult", (1, 1), ((0, ONE),), "associativity fails"),
    # a new leg e1 (x) e1 in the coproduct of e0, functions on Z3
    (Z3, True, "coprod", 0, ((1, 1, ONE),), "coassociativity fails"),
    # the e1 (x) e1 leg of the coproduct of e0 doubled, functions on Z2
    (Z2, True, "coprod", 0, ((1, 1, ONE),),
     r"coproduct of the unit is not 1 \(x\) 1"),
    # g g = 2 in Z2
    (Z2, False, "mult", (1, 1), ((0, 2 * ONE),),
     "coproduct is not multiplicative"),
    # g g = 0 in Z2: the coproduct stays multiplicative, the counit not
    (Z2, False, "mult", (1, 1), (), "counit is not multiplicative"),
    # S(g) = -g in Z2
    (Z2, False, "antipode", (1, 1), -ONE, "antipode identity fails"),
])
def test_verify_names_the_broken_axiom(table, dualize, part, key, value,
                                       message):
    H = group_algebra(QQ, table)
    if dualize:
        H = dual(H)
    mult, coprod = dict(H.mult), list(H.coprod)
    S = [list(row) for row in H.antipode.rows]
    if part == "mult":
        mult[key] = value
    elif part == "coprod":
        coprod[key] = coprod[key] + value
    else:
        S[key[0]][key[1]] = value
    with pytest.raises(AxiomViolation, match=message):
        HopfAlgebra(QQ, H.names, mult, coprod, H.counit, H.unit,
                    antipode=Matrix(QQ, S))


def test_taft_2_2_structure(taft22):
    T = taft22
    assert T.dim == 8
    assert T.names == ["1", "x", "g", "g x", "g^2", "g^2 x", "g^3",
                       "g^3 x"]
    one, x, g = 0, 1, 2
    g2, g3x = 4, 7
    # x^2 = g^2 - 1 and the q-commutation x g = -g x
    assert T.basis_product(x, x) == ((one, -ONE), (g2, ONE))
    assert T.basis_product(x, g) == ((3, -ONE),)
    assert T.basis_product(g, x) == ((3, ONE),)
    # skew-primitive coproduct
    assert sparse(T, x) == {(one, x): ONE, (x, g): ONE}
    # antipode: S(g) = g^3, S(x) = -x g^{-1} = g^3 x
    assert T.antipode.col(g) == [ZERO] * 6 + [ONE, ZERO]
    assert T.antipode.col(x) == [ZERO] * g3x + [ONE]
    assert not T.is_semisimple()


def test_taft_2_2_square_of_skew_primitive(taft22):
    T = taft22
    dx = T.coproduct_sparse(1)
    got = tensor_square_product(T, dx, dx)
    # x^2 (x) g^2 + (1+q) x (x) gx + 1 (x) x^2 collapses at q = -1 to
    # g^2 (x) g^2 - 1 (x) 1 once x^2 = g^2 - 1 is substituted
    assert got == {(4, 4): ONE, (0, 0): -ONE}


def test_taft_3_2_qbinomial_coproduct():
    L = extend(QQ, Polynomial(QQ, [1, 1, 1]), "w")
    q = L.gen()
    T = taft(L, 3, 2, q)
    assert T.dim == 18
    one, x, xx = 0, 1, 2
    g, gx, g2 = 3, 4, 6
    # with g x = q x g and Delta(x) = x (x) g + 1 (x) x the cross terms
    # collect a Gaussian binomial in q^{-1}: (1 (x) x)(x (x) g) rewrites
    # the second legs as x g = q^{-1} g x
    qinv = q ** 2
    assert qinv * q == L.one()
    mid = qbinom(2, 1, qinv)
    assert mid == L.one() + qinv == -q
    want = {(xx, g2): L.one(), (x, gx): mid, (one, xx): L.one()}
    assert sparse(T, xx) == want
    dx = T.coproduct_sparse(x)
    assert tensor_square_product(T, dx, dx) == want


def test_taft_rejects_bad_roots():
    with pytest.raises(NotPrimitiveRoot):
        taft(QQ, 2, 2, QQ.from_int(1))
    with pytest.raises(NotPrimitiveRoot):
        taft(QQ, 3, 2, QQ.from_int(-1))
    with pytest.raises(NotPrimitiveRoot):
        taft(QQ, 2, 2, QQ.from_int(2))
    with pytest.raises(ValueError):
        taft(QQ, 1, 2, QQ.from_int(1))


def test_double_dual_recovers_taft(taft22):
    T = taft22
    K = dual(T)
    assert K.dim == T.dim
    assert not K.is_semisimple()
    assert dual(K).structure_key() == T.structure_key()


def test_nichols_structure(nich):
    N = nich
    assert N.dim == 16
    g = N.names.index("g")
    x = [N.names.index("x%d" % i) for i in range(3)]
    assert N.basis_product(g, g) == ((0, ONE),)
    for i in range(3):
        assert N.basis_product(x[i], x[i]) == ()
        assert N.basis_product(g, x[i]) == ((8 + (1 << i), ONE),)
        assert N.basis_product(x[i], g) == ((8 + (1 << i), -ONE),)
        assert sparse(N, x[i]) == {(0, x[i]): ONE, (x[i], g): ONE}
        # S(x_i) = -x_i g^{-1} = g x_i
        col = N.antipode.col(x[i])
        assert [k for k, c in enumerate(col) if c] == [8 + (1 << i)]
        assert col[8 + (1 << i)] == ONE
    for i in range(3):
        for j in range(i + 1, 3):
            ij = N.basis_product(x[i], x[j])
            ji = N.basis_product(x[j], x[i])
            assert ij == ((x[i] | x[j], ONE),)
            assert ji == ((x[i] | x[j], -ONE),)
    assert N.counit == [ONE if i in (0, 8) else ZERO for i in range(16)]
    assert not N.is_semisimple()


def test_nichols_needs_characteristic_zero():
    with pytest.raises(UnsupportedBase):
        nichols16(GF(5))


def test_dual_of_nichols_verifies(nich):
    K = dual(nich)
    assert K.dim == 16
    assert K.unit == nich.counit
    assert K.counit == nich.unit


def coaction_invariants(K, rho, dim_a):
    """Kernel of a |-> rho(a) - a (x) 1 on coordinate columns."""
    F = K.field
    rows = []
    for t in range(dim_a):
        for i in range(K.dim):
            row = []
            for s in range(dim_a):
                c = rho[s].get((t, i), F.zero())
                if t == s:
                    c = c - K.unit[i]
                row.append(c)
            rows.append(row)
    return Matrix(F, rows).kernel()


DIAG_ALGEBRA = {(0, 0): ((0, 1),), (1, 1): ((1, 1),)}


def test_action_to_coaction_swap():
    H = group_algebra(QQ, [[0, 1], [1, 0]])
    swap = Matrix(QQ, [[0, 1], [1, 0]])
    K, rho = action_to_coaction(
        H, [Matrix.identity(QQ, 2), swap], DIAG_ALGEBRA, [ONE, ONE]
    )
    assert K.dim == 2
    assert rho[0] == {(0, 0): ONE, (1, 1): ONE}
    assert rho[1] == {(1, 0): ONE, (0, 1): ONE}
    inv = coaction_invariants(K, rho, 2)
    assert len(inv) == 1
    v = inv[0]
    assert v[0] == v[1] != ZERO


def test_action_to_coaction_trivial():
    H = group_algebra(QQ, [[0, 1], [1, 0]])
    ident = Matrix.identity(QQ, 2)
    K, rho = action_to_coaction(H, [ident, ident], DIAG_ALGEBRA,
                                [ONE, ONE])
    for s in range(2):
        assert rho[s] == {(s, 0): ONE, (s, 1): ONE}
    inv = coaction_invariants(K, rho, 2)
    assert len(inv) == 2


def test_action_to_coaction_rejections():
    H = group_algebra(QQ, [[0, 1], [1, 0]])
    ident = Matrix.identity(QQ, 2)
    # g^2 would act by a non-identity matrix
    shear = Matrix(QQ, [[1, 1], [0, 1]])
    with pytest.raises(NotModuleAlgebra):
        action_to_coaction(H, [ident, shear], DIAG_ALGEBRA, [ONE, ONE])
    # involution, but it neither fixes the unit nor respects products
    sign = Matrix(QQ, [[1, 0], [0, -1]])
    with pytest.raises(NotModuleAlgebra):
        action_to_coaction(H, [ident, sign], DIAG_ALGEBRA, [ONE, ONE])
    with pytest.raises(ValueError):
        action_to_coaction(H, [ident], DIAG_ALGEBRA, [ONE, ONE])


def test_action_matrices_act_on_the_algebra():
    # each action matrix maps the 2-dimensional algebra to itself
    H = group_algebra(QQ, [[0, 1], [1, 0]])
    ident = Matrix.identity(QQ, 2)
    for M in (Matrix.identity(QQ, 3), Matrix(QQ, [[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(ValueError, match="2 x 2"):
            action_to_coaction(H, [ident, M], DIAG_ALGEBRA, [ONE, ONE])


def mat2_basis_algebra():
    # 2 x 2 matrix units E11, E12, E21, E22
    mult = {}
    def idx(a, b):
        return 2 * a + b
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for e in range(2):
                    if b == c:
                        mult[(idx(a, b), idx(c, e))] = ((idx(a, e), 1),)
    return mult, [ONE, ZERO, ZERO, ONE]


def test_nichols_adjoint_action_on_mat2(nich):
    N = nich
    amult, aunit = mat2_basis_algebra()
    # representation: g is the parity matrix, x0 a square-zero raiser
    rep = {}
    parity = Matrix(QQ, [[1, 0], [0, -1]])
    raiser = Matrix(QQ, [[0, 1], [0, 0]])
    zero2 = Matrix.zeros(QQ, 2)
    for a in range(2):
        for bits in range(8):
            img = parity ** a if a else Matrix.identity(QQ, 2)
            if bits == 1:
                img = img * raiser
            elif bits:
                img = zero2
            rep[a * 8 + bits] = img

    def rep_of(vec):
        out = Matrix.zeros(QQ, 2)
        for l, c in enumerate(vec):
            if c:
                out = out + rep[l].scale(c)
        return out

    def flat(M):
        return [M[0, 0], M[0, 1], M[1, 0], M[1, 1]]

    action = []
    for i in range(16):
        cols = []
        for s in range(4):
            Mb = Matrix(QQ, [[1 if 2 * r + c == s else 0
                              for c in range(2)] for r in range(2)])
            out = Matrix.zeros(QQ, 2)
            for j, k, c in N.coprod[i]:
                term = rep[j] * Mb * rep_of(N.antipode.col(k))
                out = out + term.scale(c)
            cols.append(flat(out))
        action.append(Matrix.from_cols(QQ, cols))

    g = N.names.index("g")
    assert action[g] == Matrix.diagonal(QQ, [ONE, -ONE, -ONE, ONE])
    K, rho = action_to_coaction(N, action, amult, aunit)
    assert K.dim == 16
    inv = coaction_invariants(K, rho, 4)
    assert len(inv) == 1
    w = inv[0]
    assert w[1] == w[2] == ZERO and w[0] == w[3] != ZERO


def test_adjoint_helpers_match_inline_construction(nich):
    # dual route: the packaged matrix_algebra/adjoint_action helpers
    # must reproduce the hand-built action above
    from galbim.hopf import adjoint_action, matrix_algebra

    amult, aunit = matrix_algebra(QQ, 2)
    inline_mult, inline_unit = mat2_basis_algebra()
    assert amult == {k: v for k, v in inline_mult.items()}
    assert aunit == inline_unit

    parity = Matrix(QQ, [[1, 0], [0, -1]])
    raiser = Matrix(QQ, [[0, 1], [0, 0]])
    zero2 = Matrix.zeros(QQ, 2)
    rep = []
    for idx in range(16):
        a, bits = divmod(idx, 8)
        img = parity if a else Matrix.identity(QQ, 2)
        if bits == 1:
            img = img * raiser
        elif bits:
            img = zero2
        rep.append(img)
    packaged = adjoint_action(nich, rep)

    def rep_of(vec):
        out = Matrix.zeros(QQ, 2)
        for l, c in enumerate(vec):
            if c:
                out = out + rep[l].scale(c)
        return out

    for i in range(16):
        cols = []
        for s in range(4):
            Mb = Matrix(QQ, [[1 if 2 * r + c == s else 0
                              for c in range(2)] for r in range(2)])
            out = Matrix.zeros(QQ, 2)
            for j, k, c in nich.coprod[i]:
                out = out + (rep[j] * Mb * rep_of(nich.antipode.col(k))).scale(c)
            cols.append([out[0, 0], out[0, 1], out[1, 0], out[1, 1]])
        assert packaged[i] == Matrix.from_cols(QQ, cols)


# ------------------------------------------ reduced against exhaustive


def _family(build):
    """The axiom family ``build()`` reports broken, or None."""
    try:
        build()
    except AxiomViolation as exc:
        return re.sub(r" at .*", "", str(exc))
    return None


def _rebuild(H, mult, coprod, check):
    return HopfAlgebra(QQ, H.names, mult, coprod, H.counit, H.unit,
                       antipode=H.antipode, check=check)


def _corruptions(H):
    """Every single-entry corruption of the multiplication and coproduct
    tables: one product or one coproduct dropped, doubled, or moved to
    the next basis index (a zero product becomes its left factor)."""
    d = H.dim
    for key in sorted(H.mult) + [(i, j) for i in range(d)
                                 for j in range(d) if (i, j) not in H.mult]:
        terms = H.mult.get(key, ())
        for new in (
            (),
            tuple((k, 2 * c) for k, c in terms),
            tuple(((k + 1) % d, c) for k, c in terms) or ((key[0], ONE),),
        ):
            if new != terms:
                yield {**H.mult, key: new}, H.coprod
    for i, legs in enumerate(H.coprod):
        for new in (
            legs[:-1],
            tuple((j, k, 2 * c) for j, k, c in legs),
            tuple((j, (k + 1) % d, c) for j, k, c in legs),
        ):
            coprod = list(H.coprod)
            coprod[i] = new
            yield H.mult, coprod


CORPUS = {
    "Z2": lambda: group_algebra(QQ, Z2),
    "Z3": lambda: group_algebra(QQ, Z3),
    "S3": lambda: group_algebra(QQ, s3_table()[0]),
    "Z2*": lambda: dual(group_algebra(QQ, Z2)),
    "Z3*": lambda: dual(group_algebra(QQ, Z3)),
    "S3*": lambda: dual(group_algebra(QQ, s3_table()[0])),
    "taft22": lambda: taft(QQ, 2, 2, QQ.from_int(-1)),
    "nichols16": lambda: nichols16(QQ),
}


def test_reduced_verify_matches_exhaustive_oracle():
    families = set()
    for name in sorted(CORPUS):
        H = CORPUS[name]()
        for mult, coprod in _corruptions(H):
            want = _family(lambda: exhaustive_hopf_check(
                _rebuild(H, mult, coprod, False)))
            got = _family(lambda: _rebuild(H, mult, coprod, True))
            assert got == want, name
            families.add(want)
    assert {"associativity fails", "coproduct is not multiplicative",
            "counit is not multiplicative"} <= families


def test_corrupted_product_of_non_generators_is_caught(taft22):
    # Taft(2,2) is generated by x and g; g^2, g^3, g x and g^3 x are not
    # generators, so no check takes them as left factor
    T = taft22
    x, g, gx, g2, g3, g3x = 1, 2, 3, 4, 6, 7
    assert T._generators() == [x, g]
    assert T.basis_product(g3, g3) == ((g2, ONE),)
    assert T.basis_product(g2, gx) == ((g3x, ONE),)
    # g^3 g^3 = 2 g^2 breaks associativity
    mult = {**T.mult, (g3, g3): ((g2, 2 * ONE),)}
    # Delta(g^3 x) = g^3 x (x) g^2 + g^3 (x) g^3 x in place of
    # g^3 x (x) 1 + g^3 (x) g^3 x is still coassociative with counit,
    # and g^3 x is a leg of no other coproduct: only the coproduct of
    # g^2 . g x breaks
    coprod = list(T.coprod)
    coprod[g3x] = ((g3, g3x, ONE), (g3x, g2, ONE))
    for broken, family in [
        ((mult, T.coprod), "associativity fails"),
        ((T.mult, coprod), "coproduct is not multiplicative"),
    ]:
        assert _family(lambda: exhaustive_hopf_check(
            _rebuild(T, *broken, False))) == family
        assert _family(lambda: _rebuild(T, *broken, True)) == family
