"""Comodule algebras: coaction verification, invariants, the attached
bimodule, integrality certificates, Galois groups, divisibility, the
semisimple bound and the truncated counterexample fixtures."""

import random
from fractions import Fraction

import pytest

from galbim import coact as co
from galbim.bimod import analyze, bimodule_of_group, is_galois
from galbim.errors import (
    AxiomViolation,
    CoefficientEscapesZ,
    FieldMismatch,
    UnsupportedBase,
    Violated,
)
from galbim.fieldbase import QQ
from galbim.fieldops import min_poly_over
from galbim.hopf import (
    HopfAlgebra,
    action_to_coaction,
    adjoint_action,
    dual,
    group_algebra,
    matrix_algebra,
    nichols16,
    taft,
)
from galbim.matrix import Matrix
from galbim.morphisms import automorphisms_over
from galbim.poly import Polynomial
from galbim.towers import RationalFunctionField, extend

from oracles import (
    composition_table,
    factor_multiplicities,
    full_polynomial_dims,
    horner_coact,
    multiset_key,
    psi_xi_tau_reference,
)

Z2_TABLE = [[0, 1], [1, 0]]


# ------------------------------------------------------- Taft fixture
# K = T_{2,2} at q = -1 coacting on L = Q(i)(u)[z]/(z^4 + 2z^2 + 1 - u)
# by rho(z) = z (x) g + 1 (x) x; the invariants are exactly the base,
# since u = (z^2 + 1)^2 inside L.

@pytest.fixture(scope="module")
def taft_fix():
    k = extend(QQ, [1, 0, 1], "i")
    B = RationalFunctionField(k, "u")
    u = B.gen()
    L = extend(
        B, [B.one() - u, B.zero(), B.coerce(2), B.zero(), B.one()], "z"
    )
    K = taft(k, 2, 2, -1)
    # basis order g^a x^b at index 2a + b: x sits at 1, g at 2
    C = co.field_coaction(L, K, {2: L.gen(), 1: L.one()})
    E1 = extend(B, [-u, B.zero(), B.one()], "s")
    s = E1.gen()
    E2 = extend(E1, [E1.one() - s, E1.zero(), E1.one()], "w1")
    E = extend(E2, [E2.one() + E2.coerce(s), E2.zero(), E2.one()], "w2")
    w1, w2 = E.coerce(E2.gen()), E.gen()
    hints = (w1, -w1, w2, -w2, E.coerce(s), -E.coerce(s))
    return C, E, hints


def test_taft_coaction_verifies(taft_fix):
    C, _, _ = taft_fix
    report = co.verify_coaction(C)
    assert report.kind == "field"
    assert report.relation_image == ()


def test_taft_counit_violation(taft_fix):
    C, _, _ = taft_fix
    L, K = C.field, C.hopf
    bad = co.field_coaction(L, K, {1: L.gen()})  # z (x) x
    with pytest.raises(AxiomViolation, match="counit"):
        co.verify_coaction(bad)


def test_taft_coassociativity_violation(taft_fix):
    # z (x) (g + x) passes the counit law but the second leg is not
    # grouplike, which coassociativity detects
    C, _, _ = taft_fix
    L, K = C.field, C.hopf
    bad = co.field_coaction(L, K, {2: L.gen(), 1: L.gen()})
    with pytest.raises(AxiomViolation, match="coassociativity"):
        co.verify_coaction(bad)


def test_taft_relation_violation(taft_fix):
    # z (x) g is a perfectly coassociative comodule map, but it does
    # not kill z^4 + 2z^2 + (1 - u), so it is no algebra map
    C, _, _ = taft_fix
    L, K = C.field, C.hopf
    bad = co.field_coaction(L, K, {2: L.gen()})
    with pytest.raises(AxiomViolation, match="relation"):
        co.verify_coaction(bad)


def test_taft_invariants_are_base(taft_fix):
    C, _, _ = taft_fix
    inv = co.invariants(C)
    assert len(inv) == 1
    coords = C.field.coords(inv[0])
    assert not any(coords[1:])
    assert coords[0]


def test_taft_bimodule_rank_and_center(taft_fix):
    C, _, _ = taft_fix
    P = co.bimodule_from_coaction(C)
    assert P.rank == 8
    center, exact = P.center()
    assert exact
    assert center.degree_in_ambient() == 4
    assert center.field is C.base


def test_taft_bimodule_is_galois(taft_fix):
    C, E, hints = taft_fix
    P = co.bimodule_from_coaction(C)
    ana = analyze(P, E=E, hints=hints, expected_gamma=8)
    assert ana.gamma.order == 8
    # Gamma = Aut(E/Q(i)(u)), tabled from generators, against all pairs
    assert ana.gamma.table() == composition_table(ana.gamma)
    assert len(ana.h_indices) == 2
    assert not ana.h_normal
    assert ana.semisimple
    assert factor_multiplicities(ana) == [(1, 2), (1, 2), (2, 2)]
    assert is_galois(P, analysis=ana)


def test_taft_galois_group_is_dihedral(taft_fix):
    # Z/2 acting on (Z/2)^2 by swapping the factors: order 8,
    # nonabelian, five involutions separate it from the quaternions
    C, E, hints = taft_fix
    G = co.galois_group_of_coaction(C, E=E, hints=hints, expected=8)
    assert G.order == 8
    table = G.table()
    assert table == composition_table(G)
    assert any(
        table[i][j] != table[j][i] for i in range(8) for j in range(8)
    )
    involutions = [i for i in range(1, 8) if i and table[i][i] == 0]
    assert len(involutions) == 5


def test_supplied_tower_must_extend_the_base(taft_fix):
    # a tower over Q(i)(v) instead of the base Q(i)(u) is refused
    # before the relation's roots are searched for in it
    C, _, _ = taft_fix
    V = RationalFunctionField(C.base.coefficient_field, "v")
    E = extend(V, [-V.gen(), V.zero(), V.one()], "s")
    with pytest.raises(FieldMismatch, match="built over the declared base"):
        co.galois_group_of_coaction(C, E=E)


def test_taft_integrality_certificate(taft_fix):
    C, _, _ = taft_fix
    L, B = C.field, C.base
    z = L.gen()
    cert = co.integrality_certificate(C, z)
    assert cert.monic and cert.annihilates
    assert cert.coefficients_invariant and cert.coefficients_in_base
    assert cert.escapes == () and cert.failure is None
    assert cert.min_poly.degree == 4
    u = B.gen()
    expected = [B.one() - u, B.zero(), B.coerce(2), B.zero(), B.one()]
    got = [cert.min_poly.coeff(j) for j in range(5)]
    assert got == [L.coerce(c) for c in expected]
    # independent oracle: the field-theoretic minimal polynomial of z
    # over the base must coincide with the matrix route
    mu = min_poly_over(L, z, B)
    assert [L.coerce(mu.coeff(j)) for j in range(mu.degree + 1)] == got


def test_taft_psi_xi_tau(taft_fix):
    C, _, _ = taft_fix
    report = co.verify_psi_xi_tau(C)
    assert report.psi_xi_identity
    assert report.dimension_checked == 32
    assert report.tau_well_defined and report.tau_left_linear
    assert report.tau_rank is None
    assert "1024" in report.tau_skipped


def test_taft_divisibility(taft_fix):
    C, _, _ = taft_fix
    verdict = co.divisibility_coaction(C)
    assert (verdict.degree, verdict.hopf_dim, verdict.quotient) == (4, 8, 2)


# -------------------------------------------- Fun(Z/2) on Q(sqrt 2)

@pytest.fixture(scope="module")
def fun_fix():
    L = extend(QQ, [-2, 0, 1], "r")
    K = dual(group_algebra(QQ, Z2_TABLE))
    return co.field_coaction(L, K, {0: L.gen(), 1: -L.gen()})


def test_fun_z2_verifies_with_base_invariants(fun_fix):
    co.verify_coaction(fun_fix)
    assert len(co.invariants(fun_fix)) == 1


def test_fun_z2_tau_is_bijective(fun_fix):
    report = co.verify_psi_xi_tau(fun_fix)
    assert report.psi_xi_identity and report.dimension_checked == 4
    assert report.tau_well_defined and report.tau_left_linear
    assert report.tau_rank == 8 == report.tau_target_dim
    assert report.tau_bijective


def test_fun_z2_bimodule_matches_group_bimodule(fun_fix):
    # the coaction of the function Hopf algebra dual to Z/2 encodes the
    # sign action on sqrt 2; its bimodule is the group bimodule of the
    # full automorphism group
    P = co.bimodule_from_coaction(fun_fix)
    ana = analyze(P)
    L = fun_fix.field
    Pg = bimodule_of_group(L, automorphisms_over(L, QQ))
    assert multiset_key(ana) == multiset_key(analyze(Pg))
    assert is_galois(P, analysis=ana)


def test_fun_z2_galois_group_computed(fun_fix):
    G = co.galois_group_of_coaction(fun_fix)
    assert G.order == 2
    v = co.divisibility_coaction(fun_fix)
    assert (v.degree, v.hopf_dim, v.quotient) == (2, 2, 1)


# -------------------------------------------------- trivial coaction

@pytest.fixture(scope="module")
def trivial_fix():
    L = extend(QQ, [-2, 0, 1], "t")
    K = group_algebra(QQ, Z2_TABLE)
    return co.field_coaction(L, K, {0: L.gen()})


def test_trivial_coaction_everything_invariant(trivial_fix):
    co.verify_coaction(trivial_fix)
    assert len(co.invariants(trivial_fix)) == 2
    G = co.galois_group_of_coaction(trivial_fix)
    assert G.order == 1
    v = co.divisibility_coaction(trivial_fix)
    assert (v.degree, v.hopf_dim, v.quotient) == (1, 2, 2)


def test_trivial_certificate_is_linear(trivial_fix):
    L = trivial_fix.field
    cert = co.integrality_certificate(trivial_fix, L.gen())
    assert cert.min_poly.degree == 1
    assert cert.monic and cert.annihilates and cert.coefficients_invariant
    assert cert.min_poly.coeff(0) == -L.gen()
    report = co.verify_psi_xi_tau(trivial_fix)
    assert report.psi_xi_identity and report.tau_bijective


def test_intermediate_invariants_refused():
    # rho(z) = z (x) (e_0 - e_1) on Q[z]/(z^4 - 2) fixes the even part,
    # a proper intermediate field; the closure is only computed over a
    # presentation whose base is the invariant subfield
    L = extend(QQ, [-2, 0, 0, 0, 1], "z")
    K = dual(group_algebra(QQ, Z2_TABLE))
    C = co.field_coaction(L, K, {0: L.gen(), 1: -L.gen()})
    co.verify_coaction(C)
    assert len(co.invariants(C)) == 2
    with pytest.raises(UnsupportedBase, match="intermediate"):
        co.galois_group_of_coaction(C)


@pytest.fixture(scope="module")
def cyclic_cubic():
    # Fun(Z/3) coacting on Q[z]/(z^3 - 3z - 1) through sigma: z -> 2 - z^2,
    # the cyclic group of the cubic; its splitting closure is L itself
    L = extend(QQ, [-1, -3, 0, 1], "z")
    z = L.gen()
    K = dual(group_algebra(QQ, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]))
    return co.field_coaction(L, K, {0: z, 1: 2 - z**2, 2: z**2 - z - 2})


def test_cyclic_cubic_galois_group_computed(cyclic_cubic):
    C = cyclic_cubic
    co.verify_coaction(C)
    assert len(co.invariants(C)) == 1
    assert co.galois_group_of_coaction(C).order == 3


CUBIC_ELEMENTS = {
    "z": lambda z: z,
    "z^2": lambda z: z**2,
    "z+1": lambda z: z + 1,
    "z^2-2z": lambda z: z**2 - 2 * z,
    "3": lambda z: 3,
}


@pytest.mark.parametrize("name", sorted(CUBIC_ELEMENTS))
def test_integrality_certificate_is_the_orbit_polynomial(cyclic_cubic,
                                                         name):
    # the legs of rho(x) are the conjugates sigma^k(x), so x is integral
    # over the invariants Q with minimal polynomial prod (X - w) over
    # the distinct legs w
    C = cyclic_cubic
    L = C.field
    x = L.coerce(CUBIC_ELEMENTS[name](L.gen()))
    orbit = Polynomial.one(L)
    for w in dict.fromkeys(co.coact_element(C, x).values()):
        orbit = orbit * Polynomial(L, [-w, L.one()])
    cert = co.integrality_certificate(C, x)
    assert cert.min_poly == orbit
    assert cert.failure is None


def test_field_coaction_validation():
    L = extend(QQ, [-2, 0, 1], "t")
    K = group_algebra(QQ, Z2_TABLE)
    with pytest.raises(ValueError, match="leg"):
        co.field_coaction(L, K, {5: L.gen()})
    with pytest.raises(UnsupportedBase):
        co.field_coaction(QQ, K, {0: 1})
    with pytest.raises(FieldMismatch):
        co.field_coaction(L, "not a hopf algebra", {0: L.gen()})


# ------------------------------- rho from cached powers, against oracles

FIELD_FIXTURES = ["taft_fix", "fun_fix", "trivial_fix", "cyclic_cubic"]


def _field_record(request, name):
    C = request.getfixturevalue(name)
    return C[0] if name == "taft_fix" else C


def _base_draw(B, rng):
    """Zero a third of the time, else a small element of the base: a
    rational number over Q, a polynomial of degree <= 1 in u over
    Q(i)(u)."""
    if not rng.randrange(3):
        return B.zero()
    if B is QQ:
        return Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
    k = B.coefficient_field
    i = k.gen()
    return B.coerce(Polynomial(k, [rng.randint(-2, 2) + rng.randint(-1, 1) * i,
                                   rng.randint(-1, 1)]))


def _seeded_elements(C, seed):
    """0, the generator, and four seeded elements of L whose
    coordinates over the base are zero about a third of the time."""
    L, B = C.field, C.base
    rng = random.Random(seed)
    return [L.zero(), L.gen()] + [
        L.from_coords([_base_draw(B, rng) for _ in range(L.degree)])
        for _ in range(4)
    ]


@pytest.mark.parametrize("name", FIELD_FIXTURES)
def test_coact_element_matches_horner(request, name):
    C = _field_record(request, name)
    L = C.field
    for x in _seeded_elements(C, 1306):
        assert co.coact_element(C, x) == horner_coact(C, L.coords(x))
    image = horner_coact(C, L.relation.coeffs)
    assert image == {}
    assert co.verify_coaction(C).relation_image == tuple(sorted(image.items()))


@pytest.mark.parametrize("name", FIELD_FIXTURES)
def test_certificate_chain_matches_matrix_minpoly(request, name):
    # the bimodule's phi(x) is right multiplication by rho(x), so the
    # Krylov chain from 1 (x) 1 must give its matrix minimal polynomial
    C = _field_record(request, name)
    P = co.bimodule_from_coaction(C)
    for x in _seeded_elements(C, 3821):
        assert co.integrality_certificate(C, x).min_poly == \
            P.phi(x).minpoly()


@pytest.mark.parametrize("name", FIELD_FIXTURES)
def test_bimodule_center_is_the_invariant_subfield(request, name):
    # the certificate does not build the bimodule, so its center check
    # runs here, on every record
    C = _field_record(request, name)
    L = C.field
    P = co.bimodule_from_coaction(C)
    center, exact = P.center()
    assert exact
    assert center.degree_in_ambient() == L.degree // len(co.invariants(C))
    fresh = co.field_coaction(L, C.hopf, C.rho_gen)
    for x in _seeded_elements(C, 3205):
        cert = co.integrality_certificate(fresh, x)
        assert cert.monic and cert.annihilates
    assert fresh._bimodule is None


@pytest.mark.parametrize("name", FIELD_FIXTURES)
def test_psi_xi_tau_matches_reference(request, name):
    C = _field_record(request, name)
    report = co.verify_psi_xi_tau(C)
    assert report == psi_xi_tau_reference(C)
    # Fun(Z/2) and the trivial coaction are small enough for tau's rank
    assert (report.tau_rank is None) == (name in ("taft_fix",
                                                  "cyclic_cubic"))


def test_wrong_antipode_breaks_psi_xi(fun_fix):
    # Fun(Z/2) with S swapping e_0 and e_1 instead of the identity
    K = fun_fix.hopf
    wrong = HopfAlgebra(QQ, K.names, K.mult, K.coprod, K.counit, K.unit,
                        antipode=Matrix(QQ, [[0, 1], [1, 0]]), check=False)
    L = fun_fix.field
    C = co.field_coaction(L, wrong, fun_fix.rho_gen)
    for check in (co.verify_psi_xi_tau, psi_xi_tau_reference):
        with pytest.raises(AxiomViolation,
                           match="psi and xi are not mutually inverse"):
            check(C)


def test_rho_power_cache_is_bounded_and_exact(taft_fix):
    C, _, _ = taft_fix
    L, B = C.field, C.base
    co.verify_coaction(C)
    co.invariants(C)
    report = co.verify_psi_xi_tau(C)
    co.integrality_certificate(C, L.gen() + 1)
    assert 0 < len(C._powers) <= L.degree + 1
    for j, power in enumerate(C._powers):
        assert power == horner_coact(C, [B.zero()] * j + [B.one()])
    assert co.verify_psi_xi_tau(C) == report


# --------------------------------------- the 5x5 escape counterexample

def test_endomorphism_certificate_five_by_five():
    # over Z = Q[x^2, x^3] (not integrally closed) the minimal
    # polynomial (t + x)(t^3 - x^3) of the block matrix escapes Z while
    # the characteristic polynomial (t^2 - x^2)(t^3 - x^3) stays inside
    F = RationalFunctionField(QQ, "x")
    x = F.gen()
    zero, one = F.zero(), F.one()
    rows = [[zero] * 5 for _ in range(5)]
    rows[0][1] = one
    rows[1][0] = x * x
    rows[2][3] = one
    rows[3][4] = one
    rows[4][2] = x ** 3
    M = Matrix(F, rows)

    def in_ring(c):  # Q[x^2, x^3]: polynomials without a linear term
        return c.is_polynomial() and not c.num.coeff(1)

    cert = co.endomorphism_certificate(M, in_ring)
    mu, chi = cert.min_poly, cert.char_poly
    assert [mu.coeff(j) for j in range(5)] == [
        -(x ** 4), -(x ** 3), zero, x, one
    ]
    assert [chi.coeff(j) for j in range(6)] == [
        x ** 5, zero, -(x ** 3), -(x ** 2), zero, one
    ]
    assert not cert.min_poly_in_ring
    assert cert.char_poly_in_ring
    assert cert.min_escapes == ((3, x),)
    assert cert.char_escapes == ()
    assert isinstance(cert.failure, CoefficientEscapesZ)


# ------------------------------------------------- finite kind fixtures

def fun_z2_hopf():
    return dual(group_algebra(QQ, Z2_TABLE))


DIAG_MULT = {(0, 0): ((0, 1),), (1, 1): ((1, 1),)}


def test_finite_swap_coaction_and_bound():
    K = fun_z2_hopf()
    rho = [{(0, 0): 1, (1, 1): 1}, {(1, 0): 1, (0, 1): 1}]
    C = co.finite_coaction(K, DIAG_MULT, [1, 1], rho)
    report = co.verify_coaction(C)
    assert report.multiplicativity_checked == 4
    inv = co.invariants(C)
    assert len(inv) == 1
    assert inv[0][0] == inv[0][1] != QQ.zero()
    bound = co.semisimple_bound(C)
    assert bound.applicable
    assert (bound.invariant_dim, bound.hopf_dim, bound.algebra_dim) == (
        1, 2, 2)
    assert bound.holds


def test_finite_trivial_coaction_bound():
    K = fun_z2_hopf()
    rho = [{(0, 0): 1, (0, 1): 1}, {(1, 0): 1, (1, 1): 1}]
    C = co.finite_coaction(K, DIAG_MULT, [1, 1], rho)
    co.verify_coaction(C)
    assert len(co.invariants(C)) == 2
    bound = co.semisimple_bound(C)
    assert bound.applicable and bound.holds
    assert bound.invariant_dim * bound.hopf_dim == 4


def test_finite_coaction_violations():
    K = fun_z2_hopf()
    # the Z2-action diag(1, -1) moves 1; it is no algebra map either,
    # and the unit law is checked before multiplicativity
    bad = co.finite_coaction(
        K, DIAG_MULT, [1, 1],
        [{(0, 0): 1, (0, 1): 1}, {(1, 0): 1, (1, 1): -1}],
    )
    with pytest.raises(AxiomViolation, match="1 \\(x\\) 1"):
        co.verify_coaction(bad)
    # dropping a leg starves the unit of its k_1 component, and the k_1
    # leg stops being a coaction: coassociativity is checked first
    bad = co.finite_coaction(
        K, DIAG_MULT, [1, 1],
        [{(0, 0): 1}, {(1, 0): 1, (1, 1): 1}],
    )
    with pytest.raises(AxiomViolation, match="coassociativity"):
        co.verify_coaction(bad)
    # swapping the k_0 legs keeps the unit law but breaks the counit
    bad = co.finite_coaction(
        K, DIAG_MULT, [1, 1],
        [{(1, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 1): 1}],
    )
    with pytest.raises(AxiomViolation, match="counit"):
        co.verify_coaction(bad)
    # the involution a0 -> -a0, a1 -> 2 a0 + a1 fixes 1 and is a Z2
    # action, but not by algebra maps: multiplicativity alone fails
    bad = co.finite_coaction(
        K, DIAG_MULT, [1, 1],
        [{(0, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): 2, (1, 1): 1}],
    )
    with pytest.raises(AxiomViolation, match="multiplicative"):
        co.verify_coaction(bad)
    # spreading half of 1 on each k_1 leg passes the unit and counit
    # laws, but the k_1 components T give T^2 = T, not the identity
    half = {(0, 1): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    bad = co.finite_coaction(
        K, DIAG_MULT, [1, 1],
        [{**half, (0, 0): 1}, {**half, (1, 0): 1}],
    )
    with pytest.raises(AxiomViolation, match="coassociativity"):
        co.verify_coaction(bad)
    # k_1 leg all of 1 on one basis vector and nothing on the other:
    # an algebra map with the right unit and counit, yet the second
    # coproduct leg disagrees with the first
    bad = co.finite_coaction(
        K, DIAG_MULT, [1, 1],
        [{(0, 0): 1, (0, 1): 1, (1, 1): 1}, {(1, 0): 1}],
    )
    with pytest.raises(AxiomViolation, match="coassociativity"):
        co.verify_coaction(bad)
    with pytest.raises(ValueError, match="one image"):
        co.finite_coaction(K, DIAG_MULT, [1, 1], [{}])


def _one_dim_hopf(mult=None, coprod=None):
    # Q as a Hopf algebra on the basis {1}
    return HopfAlgebra(QQ, ["1"], mult or {(0, 0): ((0, 1),)},
                       coprod or [((0, 0, 1),)], counit=[1], unit=[1])


def _one_dim_coaction(mult=None, rho=None):
    # the trivial coaction of functions on Z2 on the algebra Q
    return co.finite_coaction(fun_z2_hopf(), mult or {(0, 0): ((0, 1),)},
                              [1], rho or [{(0, 0): 1, (0, 1): 1}])


BAD_INDEX_CASES = {
    "hopf factor i": (lambda: _one_dim_hopf(mult={(1, 0): ((0, 1),)}),
                      "factor index 1"),
    "hopf factor j": (lambda: _one_dim_hopf(mult={(0, -1): ((0, 1),)}),
                      "factor index -1"),
    "hopf product k": (lambda: _one_dim_hopf(mult={(0, 0): ((2, 1),)}),
                       "product index 2"),
    "hopf first leg": (lambda: _one_dim_hopf(coprod=[((4, 0, 1),)]),
                       "coproduct leg index 4"),
    "hopf second leg": (lambda: _one_dim_hopf(coprod=[((0, 4, 1),)]),
                        "coproduct leg index 4"),
    "algebra factor j": (
        lambda: _one_dim_coaction(mult={(0, 1): ((0, 1),)}),
        "factor index 1"),
    "algebra product k": (
        lambda: _one_dim_coaction(mult={(0, 0): ((0, 1), (3, 1))}),
        "product index 3"),
    "rho algebra key": (lambda: _one_dim_coaction(rho=[{(1, 0): 1}]),
                        "rho algebra index 1"),
    "rho Hopf key": (lambda: _one_dim_coaction(rho=[{(0, 2): 1}]),
                     "rho Hopf index 2"),
    "field coaction leg": (
        lambda: co.field_coaction(extend(QQ, Polynomial(QQ, [1, 0, 1]), "i"),
                                  fun_z2_hopf(), {2: 1}),
        "coaction leg index 2"),
}


@pytest.mark.parametrize("name", sorted(BAD_INDEX_CASES))
def test_structure_indices_are_range_checked(name):
    # each case is a valid structure with one index moved out of range
    build, message = BAD_INDEX_CASES[name]
    with pytest.raises(ValueError, match=message):
        build()


def test_one_dimensional_structures_are_valid():
    assert _one_dim_hopf().dim == 1
    co.verify_coaction(_one_dim_coaction())


def nichols_mat4_rep():
    def units(entries):
        rows = [[QQ.zero()] * 4 for _ in range(4)]
        for r, c in entries:
            rows[r][c] = QQ.one()
        return Matrix(QQ, rows)

    parity = Matrix.diagonal(QQ, [1, 1, -1, -1])
    xmats = [
        units([(0, 2), (1, 3)]),  # identity in the off block
        units([(0, 3), (1, 2)]),  # the swap matrix
        units([(0, 3)]),          # the nilpotent raiser
    ]
    rep = []
    for idx in range(16):
        a, bits = divmod(idx, 8)
        chosen = [i for i in range(3) if bits >> i & 1]
        if len(chosen) >= 2:
            rep.append(Matrix.zeros(QQ, 4))
            continue
        acc = parity if a else Matrix.identity(QQ, 4)
        if chosen:
            acc = acc * xmats[chosen[0]]
        rep.append(acc)
    return rep


def test_nichols_mat4_invariants_are_scalars():
    # adjoint action of the 16-dimensional Nichols Hopf algebra on
    # Mat_4 through a block representation whose off-diagonal pair
    # generates Mat_2: invariant matrices commute with that pair, so
    # only scalars survive
    nich = nichols16(QQ)
    amult, aunit = matrix_algebra(QQ, 4)
    K, rho = action_to_coaction(
        nich, adjoint_action(nich, nichols_mat4_rep()), amult, aunit
    )
    C = co.finite_coaction(K, amult, aunit, rho)
    report = co.verify_coaction(C)
    assert report.multiplicativity_checked == 256
    inv = co.invariants(C)
    assert len(inv) == 1
    nonzero = {i for i, c in enumerate(inv[0]) if c}
    assert nonzero == {0, 5, 10, 15}
    assert len({inv[0][i] for i in nonzero}) == 1
    bound = co.semisimple_bound(C)
    assert not bound.applicable
    assert (bound.invariant_dim * bound.hopf_dim, bound.algebra_dim) == (
        16, 16)
    assert bound.holds


def test_divisibility_components():
    v = co.divisibility_components([(1, 2), (1, 2)], 8)
    assert (v.degree, v.quotient) == (2, 4)
    v = co.divisibility_components([(2, 3), (1, 6), (1, 3)], 21)
    # m_* = 3: 2 + 4 + 1 = 7 divides 21
    assert (v.degree, v.quotient) == (7, 3)
    with pytest.raises(Violated):
        co.divisibility_components([(1, 2), (1, 3)], 16)
    with pytest.raises(ValueError):
        co.divisibility_components([], 4)
    with pytest.raises(ValueError):
        co.divisibility_components([(0, 1)], 4)


# ------------------------------------------------- truncated fixtures

def test_truncated_reflections_leave_only_constants():
    # f(t) = f(-t) = f(1 - t) forces f constant: the two reflections
    # generate an infinite group containing the shift t -> t + 1
    C = co.truncated_action(
        QQ, 1, [[{(1,): -1}], [{(0,): 1, (1,): -1}]]
    )
    out = co.truncated_invariants(C, 8)
    assert out.dims == (1,) * 9
    assert out.basis == ({(0,): QQ.one()},)


def test_truncated_shear_invariants_have_constant_slice():
    # sigma(x, y) = (x, x - y) invariance plus the gluing condition
    # f(0, y) = f(1, y): every invariant has constant f(0, y)
    sigma = [{(1, 0): 1}, {(1, 0): 1, (0, 1): -1}]
    left = [{}, {(0, 1): 1}]
    right = [{(0, 0): 1}, {(0, 1): 1}]
    C = co.truncated_action(QQ, 2, [sigma], pairs=[(left, right)])
    out = co.truncated_invariants(C, 6)
    assert out.dims == (1, 1, 2, 3, 5, 7, 10)
    for poly in out.basis:
        slice_monomials = {m for m in poly if m[0] == 0}
        assert all(sum(m) == 0 for m in slice_monomials)
    # x^2 - x is invariant and must lie in the computed span
    col_of = {m: j for j, m in enumerate(out.monomials)}
    vecs = []
    for poly in out.basis:
        v = [QQ.zero()] * len(out.monomials)
        for m, c in poly.items():
            v[col_of[m]] = c
        vecs.append(v)
    probe = [QQ.zero()] * len(out.monomials)
    probe[col_of[(2, 0)]] = QQ.one()
    probe[col_of[(1, 0)]] = -QQ.one()
    assert Matrix.from_cols(QQ, vecs).solve(probe) is not None


def test_truncated_trivial_action_full_dimensions():
    C = co.truncated_action(QQ, 2, [])
    out = co.truncated_invariants(C, 4)
    assert out.dims == full_polynomial_dims(2, 4) == (1, 3, 6, 10, 15)


def test_truncated_rejects_degree_raising_substitutions():
    with pytest.raises(ValueError, match="degree at most one"):
        co.truncated_action(QQ, 1, [[{(2,): 1}]])


# --------------------------------------------- one record per function

def _records():
    """One record of each shape: Fun(Z/2) on Q(sqrt 2), the swap
    coaction on Q x Q, and the trivial substitution action."""
    L = extend(QQ, [-2, 0, 1], "r")
    K = fun_z2_hopf()
    return {
        "field": co.field_coaction(L, K, {0: L.gen(), 1: -L.gen()}),
        "finite": co.finite_coaction(
            K, DIAG_MULT, [1, 1], [{(0, 0): 1, (1, 1): 1},
                                   {(1, 0): 1, (0, 1): 1}]),
        "substitution": co.truncated_action(QQ, 1, []),
    }


# each function and the record shapes it accepts
SHAPED = [
    (co.coact_element, lambda C: co.coact_element(C, 1), {"field"}),
    (co.verify_coaction, co.verify_coaction, {"field", "finite"}),
    (co.invariants, co.invariants, {"field", "finite"}),
    (co.bimodule_from_coaction, co.bimodule_from_coaction, {"field"}),
    (co.verify_psi_xi_tau, co.verify_psi_xi_tau, {"field"}),
    (co.integrality_certificate,
     lambda C: co.integrality_certificate(C, 1), {"field"}),
    (co.galois_group_of_coaction, co.galois_group_of_coaction, {"field"}),
    (co.divisibility_coaction, co.divisibility_coaction, {"field"}),
    (co.semisimple_bound, co.semisimple_bound, {"finite"}),
    (co.truncated_invariants, lambda C: co.truncated_invariants(C, 2),
     {"substitution"}),
]


@pytest.mark.parametrize("call, shapes",
                         [pytest.param(call, shapes, id=fn.__name__)
                          for fn, call, shapes in SHAPED])
def test_functions_refuse_other_records(call, shapes):
    records = _records()
    assert set(records) > shapes
    for shape, C in records.items():
        if shape in shapes:
            call(C)
        else:
            with pytest.raises(UnsupportedBase):
                call(C)
