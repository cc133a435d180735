"""Bimodule construction, composition-series analysis, and the Galois
property checks, against hand-frozen fixtures."""

import random

import pytest

import galbim.bimod as bimod_module
from galbim import factor, fieldops, morphisms
from galbim.errors import (
    ClassificationFailed,
    CoefficientEscapesZ,
    DegreeBound,
    EigenvalueOutsideField,
    NotAHomomorphism,
    NotInvertible,
    ResolutionError,
    UnsupportedBase,
)
from galbim.fieldbase import GF, QQ
from galbim.fieldops import (
    Subfield,
    locate_roots,
    scalar_layer,
    splitting_field,
)
from galbim.linalg import simultaneous_triangularize
from galbim.matrix import Matrix
from galbim.morphisms import (
    automorphisms_over,
    embeddings_over,
    identity_morphism,
)
from galbim.poly import Polynomial
from galbim.towers import (
    RationalFunctionField,
    chain,
    extend,
    generator_layers,
    is_layer_of,
)
from galbim.bimod import (
    Bimodule,
    analyze,
    base_change,
    bimodule_of_group,
    classify,
    direct_sum,
    galois_verdict,
    is_galois,
    is_weakly_galois,
    min_poly_right,
    regular_over,
    restrict_scalars,
    split_analysis,
    split_probe,
    tensor,
    twist,
    verify_central_coefficients,
)
import golden_analyze
from golden_analyze import (
    GOLDEN,
    biquadratic,
    record,
    supplied_group_bimodules,
)
from oracles import (
    NotAPower,
    char_poly_right,
    kernel_dimensions,
    left_cosets,
    support,
)


@pytest.fixture(scope="module")
def quad():
    L = extend(QQ, Polynomial(QQ, [-2, 0, 1]), "r")
    G = automorphisms_over(L, QQ)
    return L, G


@pytest.fixture(scope="module")
def quartic_tower():
    # L of degree 4 over F = Q(i)(u) with a non-normal extension:
    # (z^2+1)^2 = u, splitting tower of degree 8 with s^2 = u,
    # a^2 = s - 1, b^2 = -s - 1
    Qi = extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")
    Fu = RationalFunctionField(Qi, "u")
    u = Fu.gen()
    rel = Polynomial(
        Fu, [Fu.one() - u, Fu.zero(), Fu.coerce(2), Fu.zero(), Fu.one()]
    )
    L = extend(Fu, rel, "z")
    Es = extend(Fu, Polynomial(Fu, [-u, Fu.zero(), Fu.one()]), "s")
    s = Es.coerce(Es.gen())
    Ea = extend(Es, Polynomial(Es, [Es.one() - s, Es.zero(), Es.one()]), "a")
    sa = Ea.coerce(s)
    E = extend(Ea, Polynomial(Ea, [Ea.one() + sa, Ea.zero(), Ea.one()]), "b")
    iota_images = {
        Qi: E.coerce(Qi.gen()),
        Fu: E.coerce(Fu.gen()),
        L: E.coerce(Ea.gen()),
    }
    return Qi, Fu, L, E, iota_images


# ------------------------------------------------- construction checks


def test_twist_rank_and_center(quad):
    L, G = quad
    sigma = next(g for g in G if not g.is_identity())
    T = twist(L, sigma)
    assert T.rank == 1
    sub, exact = T.center()
    assert exact
    assert sub.field is QQ
    assert sub.degree_in_ambient() == 2


def test_twist_composition_convention(quad):
    # tensor(twist(g), twist(h)) acts through g then h: twist(g * h)
    L, G = quad
    r = L.coerce(L.gen())
    for g in G:
        for h in G:
            TT = tensor(twist(L, g), twist(L, h))
            want = twist(L, g * h)
            assert TT.phi(r) == want.phi(r)


def test_noncommuting_images_rejected():
    L = extend(QQ, Polynomial(QQ, [-2, 0, 1]), "r2")
    M = extend(L, Polynomial(L, [L.coerce(-3), L.zero(), L.one()]), "r3")
    r2 = M.coerce(L.gen())
    z, o = M.zero(), M.one()
    a = Matrix(M, [[z, r2], [r2, z]])    # squares to 2: valid for r2
    b = Matrix(M, [[z, M.coerce(3)], [o, z]])  # squares to 3: valid for r3
    assert a * b != b * a
    with pytest.raises(NotAHomomorphism):
        Bimodule(M, {L: a, M: b})


def test_relation_violation_rejected(quad):
    L, _ = quad
    bad = Matrix(L, [[3]])  # 3^2 != 2
    with pytest.raises(NotAHomomorphism):
        Bimodule(L, {L: bad})


def test_singular_ratfunc_image_rejected():
    Ft = RationalFunctionField(QQ, "t")
    z = Ft.zero()
    with pytest.raises(NotInvertible):
        Bimodule(Ft, {Ft: Matrix(Ft, [[Ft.gen(), z], [z, z]])})


def test_noncentral_base_rejected(quad):
    L, G = quad
    sigma = next(g for g in G if not g.is_identity())
    with pytest.raises(NotAHomomorphism):
        twist(L, sigma, base=L)


def test_phi_ring_map_sampled(quad):
    L, G = quad
    P = bimodule_of_group(L, G)
    rng = random.Random(7700)
    for _ in range(12):
        x = L.from_coords([QQ.coerce(rng.randint(-4, 4)) for _ in range(2)])
        y = L.from_coords([QQ.coerce(rng.randint(-4, 4)) for _ in range(2)])
        assert P.phi(x + y) == P.phi(x) + P.phi(y)
        assert P.phi(x * y) == P.phi(x) * P.phi(y)
        if x:
            assert P.phi(L.one() / x) == P.phi(x).inverse()


def test_group_bimodule_split_witness(quad):
    # column s of the group bimodule is a split factor twisted by the
    # s-th automorphism: phi(a) e_s = sigma_s(a) e_s
    L, G = quad
    P = bimodule_of_group(L, G)
    r = L.coerce(L.gen())
    M = P.phi(r)
    for s, sigma in enumerate(G):
        col = [M.rows[i][s] for i in range(P.rank)]
        want = [L.zero()] * P.rank
        want[s] = sigma.apply(r)
        assert col == want


# ----------------------------------------------- derived constructions


def test_regular_over_rank_and_minpoly(quad):
    L, _ = quad
    R = regular_over(L, Subfield.from_layer(L, QQ))
    assert R.rank == 2
    r = L.coerce(L.gen())
    assert min_poly_right(R, r) == Polynomial(L, [-2, 0, 1])
    mu, k = char_poly_right(R, r)
    assert (mu.degree, k) == (2, 1)


def test_char_poly_right_not_a_power(quad):
    L, G = quad
    ident = next(g for g in G if g.is_identity())
    P = direct_sum(twist(L, ident), bimodule_of_group(L, G))
    # phi(r) = diag(r, r, -r): charpoly (x-r)^2 (x+r) is not a power
    # of the minimal polynomial x^2 - 2
    with pytest.raises(NotAPower):
        char_poly_right(P, L.coerce(L.gen()))


def test_verify_central_coefficients(quad):
    L, _ = quad
    center = Subfield.from_layer(L, QQ)
    ok = Polynomial(L, [L.coerce(3), L.one()])
    assert verify_central_coefficients(ok, center)
    escaping = Polynomial(L, [L.coerce(L.gen()), L.one()])
    with pytest.raises(CoefficientEscapesZ):
        verify_central_coefficients(escaping, center)


def test_base_change_rank_and_ring_map(quad):
    L, G = quad
    P = bimodule_of_group(L, G)
    E = extend(L, Polynomial(L, [L.coerce(-3), L.zero(), L.one()]), "r3")
    Q = base_change(P, E)
    assert Q.rank == 4
    rng = random.Random(7701)
    for _ in range(6):
        x = E.from_coords([
            L.from_coords([QQ.coerce(rng.randint(-3, 3)) for _ in range(2)])
            for _ in range(2)
        ])
        y = E.from_coords([
            L.from_coords([QQ.coerce(rng.randint(-3, 3)) for _ in range(2)])
            for _ in range(2)
        ])
        assert Q.phi(x * y) == Q.phi(x) * Q.phi(y)
        assert Q.phi(x + y) == Q.phi(x) + Q.phi(y)


def test_restrict_scalars_rank_and_ring_map(quad):
    L, G = quad
    E = extend(L, Polynomial(L, [L.coerce(-3), L.zero(), L.one()]), "r3")
    sigma = next(
        g for g in automorphisms_over(E, QQ)
        if not g.is_identity() and g.fixes(E.coerce(L.gen()))
    )
    T = twist(E, sigma)
    R = restrict_scalars(T, L)
    assert R.rank == 2
    rng = random.Random(7702)
    for _ in range(8):
        x = L.from_coords([QQ.coerce(rng.randint(-3, 3)) for _ in range(2)])
        y = L.from_coords([QQ.coerce(rng.randint(-3, 3)) for _ in range(2)])
        assert R.phi(x * y) == R.phi(x) * R.phi(y)


# ------------------------------------------------------ small analyses


def test_single_twist_not_weakly_galois(quad):
    L, G = quad
    sigma = next(g for g in G if not g.is_identity())
    T = twist(L, sigma)
    an = analyze(T)
    # both factors of x^2 - 2 are reported, one with multiplicity zero
    assert sorted(f.multiplicity for f in an.factors) == [0, 1]
    assert is_weakly_galois(T, analysis=an) is False
    assert is_galois(T, analysis=an) is False
    with pytest.raises(ClassificationFailed):
        classify(T, analysis=an)


def test_group_bimodule_galois(quad):
    L, G = quad
    P = bimodule_of_group(L, G)
    an = analyze(P)
    assert an.is_split and an.semisimple
    assert [f.multiplicity for f in an.factors] == [1, 1]
    assert is_weakly_galois(P, analysis=an) is True
    assert is_galois(P, analysis=an) is True
    c = classify(P, analysis=an)
    assert (c.degree, c.multiplicity) == (2, 1)
    v = galois_verdict(P)
    assert v.decided and v.weakly_galois and v.galois
    assert v.analysis is not None


def test_group_bimodule_multiplicity_function(quad):
    # per-element multiplicities stay weakly Galois but are never
    # Galois unless constant
    L, G = quad
    P = bimodule_of_group(L, G, multiplicity=[1, 2])
    assert P.rank == 3
    an = analyze(P)
    assert sorted(f.multiplicity for f in an.factors) == [1, 2]
    assert is_weakly_galois(P, analysis=an) is True
    assert is_galois(P, analysis=an) is False
    with pytest.raises(ValueError):
        bimodule_of_group(L, G, multiplicity=[1])


@pytest.mark.parametrize("mults, got", [([3, 1], 3), ([1, 3], 1)])
def test_classify_compares_each_factor_multiplicity(quad, mults, got):
    # rank 4 = 2 * [L : Q] passes the rank check, so each factor must
    # occur twice, as in two copies of L (x)_Q L
    L, G = quad
    P = bimodule_of_group(L, G, multiplicity=mults)
    an = analyze(P)
    with pytest.raises(
        ClassificationFailed,
        match="has multiplicity %d, expected 2" % got,
    ):
        classify(P, analysis=an)


def test_classify_constant_group_multiplicity(quad):
    L, G = quad
    P = bimodule_of_group(L, G, multiplicity=[2, 2])
    c = classify(P, analysis=analyze(P))
    assert (c.degree, c.multiplicity) == (2, 2)


def test_min_poly_right_central_check(quad):
    L, G = quad
    r = L.coerce(L.gen())
    P = bimodule_of_group(L, G)
    mu = min_poly_right(P, r, require_central=True)
    assert mu.degree == 2
    sigma = next(g for g in G if not g.is_identity())
    with pytest.raises(CoefficientEscapesZ):
        min_poly_right(twist(L, sigma), r, require_central=True)


def test_split_analysis_witnesses(quad):
    L, G = quad
    P = bimodule_of_group(L, G)
    an = analyze(P)
    sd = split_analysis(P, analysis=an)
    assert sd.is_split is True
    assert sd.h_normal_in_closure is True
    w = sd.trivial_witness
    assert w is not None
    r = L.coerce(L.gen())
    assert P.phi(r).mul_vec(w) == [r * c for c in w]
    # the supported characters generate the whole splitting tower
    assert sd.minimal_field.field is an.splitting.field
    # a lone twist is split but has no trivial subbimodule
    sigma = next(g for g in G if not g.is_identity())
    T = twist(L, sigma)
    sdT = split_analysis(T)
    assert sdT.is_split is True
    assert sdT.h_normal_in_closure is True
    assert sdT.trivial_witness is None


def test_tensor_square_of_twist_is_trivial(quad):
    # sigma^2 = id, so the tensor square is the trivial rank-one
    # bimodule: center is all of L and the single factor is x - 1
    L, G = quad
    sigma = next(g for g in G if not g.is_identity())
    TT = tensor(twist(L, sigma), twist(L, sigma))
    an = analyze(TT)
    assert an.center.degree_in_ambient() == 1
    assert [(str(f.min_poly), f.multiplicity) for f in an.factors] == [
        ("x - 1", 1)
    ]
    assert is_galois(TT, analysis=an) is True


def test_expected_gamma_mismatch_raises(quad):
    L, G = quad
    P = bimodule_of_group(L, G)
    with pytest.raises(ResolutionError,
                       match="found 2 automorphisms but expected 3"):
        analyze(P, expected_gamma=3)


def test_split_probe_resolves_split_case(quad):
    L, G = quad
    P = bimodule_of_group(L, G)
    res = split_probe(P)
    assert res.resolved and res.steps == 0 and res.field is L


# ------------------------------------- quartic non-normal tower (slow)


def test_quartic_nonnormal_regular_and_double(quartic_tower):
    Qi, Fu, L, E, iota_images = quartic_tower
    F = Subfield.from_layer(L, Fu)
    R = regular_over(L, F)
    assert R.rank == 4
    an = analyze(R, E=E, iota_images=iota_images, expected_gamma=8)

    assert an.gamma.order == 8
    assert not an.gamma.is_abelian()
    assert len(an.h_indices) == 2
    assert an.h_normal is False
    assert an.is_split is False
    assert an.semisimple is True
    assert an.center.degree_in_ambient() == 4
    got = sorted((str(f.min_poly), f.multiplicity) for f in an.factors)
    assert got == [("x + z", 1), ("x - z", 1), ("x^2 + z^2 + 2", 1)]
    assert is_galois(R, analysis=an) is True

    sd = split_analysis(R, analysis=an)
    assert sd.is_split is False
    # order-8 closure against the non-normal order-2 stabilizer
    assert len(sd.closure_indices) == 8
    assert sd.h_normal_in_closure is False
    w = sd.trivial_witness
    assert w is not None
    z = L.coerce(L.gen())
    assert R.phi(z).mul_vec(w) == [z * c for c in w]
    assert sd.minimal_field.field is E

    P = direct_sum(R, R)
    anP = analyze(P, E=E, iota_images=iota_images, expected_gamma=8)
    gotP = sorted((str(f.min_poly), f.multiplicity) for f in anP.factors)
    assert gotP == [("x + z", 2), ("x - z", 2), ("x^2 + z^2 + 2", 2)]
    assert is_weakly_galois(P, analysis=anP) is True
    assert is_galois(P, analysis=anP) is True
    c = classify(P, analysis=anP)
    assert (c.degree, c.multiplicity) == (4, 2)


def test_quartic_twisted_column_not_galois(quartic_tower):
    # a single non-identity twist summand breaks constant multiplicity
    Qi, Fu, L, E, iota_images = quartic_tower
    conj = next(
        g for g in automorphisms_over(L, Fu) if not g.is_identity()
    )
    F = Subfield.from_layer(L, Fu)
    R = regular_over(L, F)
    P = direct_sum(R, twist(L, conj))
    an = analyze(P, E=E, iota_images=iota_images, expected_gamma=8)
    mults = sorted(f.multiplicity for f in an.factors)
    assert mults == [1, 1, 2]
    assert is_weakly_galois(P, analysis=an) is True
    assert is_galois(P, analysis=an) is False
    with pytest.raises(ClassificationFailed):
        classify(P, analysis=an)


def test_supplied_iota_must_fix_the_center(quartic_tower):
    # i -> -i with u and z as before is a field map L -> E, but it
    # moves the center Q(i)(u), whose basis over its scalar layer is [1]
    Qi, Fu, L, E, iota_images = quartic_tower
    R = regular_over(L, Subfield.from_layer(L, Fu))
    bad = dict(iota_images)
    bad[Qi] = -iota_images[Qi]
    with pytest.raises(ResolutionError):
        analyze(R, E=E, iota_images=bad, expected_gamma=8)


# --------------------------------- characters against an oracle


def _check_characters(an, iota_supplied):
    """The characters of ``an`` are the embeddings of L in E over the
    center, as ``embeddings_over`` enumerates them; each fibre of rho
    is a right coset H*sigma in the table's left-to-right product; and
    a found iota is the character of least key."""
    L, E, center = an.bimodule.field, an.splitting.field, an.center
    if is_layer_of(center.field, L):
        want = embeddings_over(L, E, center.field)
    else:
        gens = [center.field.coerce(layer.gen())
                for layer in generator_layers(center.field)]
        want = [
            g for g in embeddings_over(L, E, scalar_layer(L))
            if all(g.apply(center.embed(x)) == E.coerce(x) for x in gens)
        ]
    chars = [g for f in an.factors for g in f.characters]
    assert sorted(g.key() for g in chars) == [g.key() for g in want]
    for gi, ci in enumerate(an.rho):
        assert chars[ci] == an.iota * an.gamma[gi]
    tab = an.gamma.table()
    for ci in range(len(chars)):
        fibre = {gi for gi, r in enumerate(an.rho) if r == ci}
        sigma = min(fibre)
        assert fibre == {tab[h][sigma] for h in an.h_indices}
    if not iota_supplied:
        assert an.iota.key() == min(g.key() for g in chars)


def test_quartic_characters_oracle(quartic_tower):
    Qi, Fu, L, E, iota_images = quartic_tower
    R = regular_over(L, Subfield.from_layer(L, Fu))
    conj = next(
        g for g in automorphisms_over(L, Fu) if not g.is_identity()
    )
    for P in (R, direct_sum(R, twist(L, conj))):
        an = analyze(P, E=E, iota_images=iota_images, expected_gamma=8)
        _check_characters(an, True)
    # H is not normal, so the fibres H*sigma are not the cosets sigma*H
    fibres = sorted(
        sorted(gi for gi, r in enumerate(an.rho) if r == ci)
        for ci in set(an.rho)
    )
    assert sorted(left_cosets(an.gamma, an.h_indices)) != fibres
    _check_characters(analyze(R, E=E, expected_gamma=8), False)


def test_group_bimodule_characters_oracle():
    E = splitting_field(Polynomial(QQ, [-2, 0, 0, 1])).field
    P = bimodule_of_group(E, automorphisms_over(E, QQ))
    _check_characters(analyze(P), False)
    L, G = biquadratic()
    _check_characters(analyze(bimodule_of_group(L, G)), False)


# ------------------------------------ normal fields: roots by the group


def _split(coeffs):
    return lambda: splitting_field(Polynomial(QQ, coeffs)).field


def _q_sqrt2_sqrt_minus3():
    L = extend(QQ, Polynomial(QQ, [-2, 0, 1]), "r")
    return extend(L, Polynomial(L, [L.from_int(3), L.zero(), L.one()]), "r3")


# every field of these tests that is normal over its bottom field
NORMAL_FIELDS = {
    "Q(sqrt2)": lambda: extend(QQ, Polynomial(QQ, [-2, 0, 1]), "r"),
    "Q(sqrt2,sqrt-3)": _q_sqrt2_sqrt_minus3,
    "Q(sqrt2,sqrt3)": lambda: biquadratic()[0],
    "GF9": lambda: extend(GF(3), Polynomial(GF(3), [1, 0, 1]), "j"),
    "x^3-2": _split([-2, 0, 0, 1]),
    "x^4+1": _split([1, 0, 0, 0, 1]),
    "x^5-1": _split([-1, 0, 0, 0, 0, 1]),
    "x^6+x^3+1": _split([1, 0, 0, 1, 0, 0, 1]),
    "x^4-2": _split([-2, 0, 0, 0, 1]),
    "x^4-x^2-1": _split([-1, 0, -1, 0, 1]),
}


def _no_factoring(*args, **kwargs):
    raise AssertionError("a normal field needs no factoring")


def _basis_free(P, an):
    """What an analysis says whatever tower E presents the characters:
    |Gamma|, |H|, each factor's (degree, multiplicity, inseparable
    exponent), the three flags and both verdicts."""
    factors = sorted((f.min_poly.degree, f.multiplicity, f.insep_exponent)
                     for f in an.factors)
    return (an.gamma.order, len(an.h_indices), factors, an.semisimple,
            an.is_split, an.h_normal, is_weakly_galois(P, analysis=an),
            is_galois(P, analysis=an))


@pytest.mark.parametrize("name", sorted(NORMAL_FIELDS))
def test_computed_mode_matches_a_supplied_splitting_field(monkeypatch, name):
    # a normal L is analysed in E = L, with no factoring, exactly as
    # supplying E = L analyses it (any other L goes through
    # splitting_field); in the splitting field of mu that
    # splitting_field builds, the analysis must say the same about
    # Gamma, H, the factors and the verdicts.  Aut(L/K) is enumerated
    # once: the group that shows L normal is Gamma
    L = NORMAL_FIELDS[name]()
    G = automorphisms_over(L, chain(L)[0])
    P = direct_sum(bimodule_of_group(L, G), twist(L, G[0]))
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(bimod_module, "splitting_field", _no_factoring)
        patch.setattr(bimod_module, "automorphisms_over",
                      lambda *a, **kw: calls.append(a)
                      or automorphisms_over(*a, **kw))
        an = analyze(P)
    assert len(calls) == 1 and an.gamma.order == G.order
    # L = K(a) is generated by the roots of mu: a minimal splitting field
    assert an.splitting.field is L and an.splitting.minimal is True
    assert record(P, an) == record(P, analyze(P, E=L))
    E = splitting_field(an.min_poly).field
    assert _basis_free(P, an) == _basis_free(P, analyze(P, E=E))


@pytest.mark.parametrize("coeffs", [[-2, 0, 0, 0, 1], [-1, 0, -1, 0, 1]],
                         ids=["x^4-2", "x^4-x^2-1"])
def test_dihedral_group_bimodule_is_galois(coeffs):
    L = _split(coeffs)()
    P = bimodule_of_group(L, automorphisms_over(L, QQ))
    an = analyze(P)
    assert an.gamma.order == 8 and an.is_split
    assert is_weakly_galois(P, analysis=an) is True
    assert is_galois(P, analysis=an) is True


def test_supplied_splitting_field_needs_no_factoring(monkeypatch):
    # with E = L supplied, the roots of mu are the Gamma-orbit of
    # iota(a), so no root search factors anything; the answers are the
    # golden records, made when the roots were still factored
    golden = dict(line.split(" ", 1)
                  for line in GOLDEN.read_text().splitlines())
    cases = supplied_group_bimodules()   # before the patches: it factors
    monkeypatch.setattr(morphisms, "roots_in_coefficient_field",
                        _no_factoring)
    monkeypatch.setattr(fieldops, "factor_poly", _no_factoring)
    monkeypatch.setattr(factor, "factor_poly", _no_factoring)
    for label, P, L in cases:
        an = analyze(P, E=L)
        assert an.splitting.field is L and an.splitting.minimal is None
        assert record(P, an) == golden["supplied/" + label]


def test_non_normal_field_still_splits_by_factoring(monkeypatch):
    # Q(2^(1/3)) has no automorphism but the identity, so mu is split
    # by splitting_field, with the answers it gave before
    L = extend(QQ, Polynomial(QQ, [-2, 0, 0, 1]), "c")
    calls = []
    real = bimod_module.splitting_field
    monkeypatch.setattr(bimod_module, "splitting_field",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    R = regular_over(L, QQ)
    Q = direct_sum(R, twist(L, automorphisms_over(L, QQ)[0]))
    for P, mults, galois in ((R, [1, 1], True), (Q, [2, 1], False)):
        an = analyze(P)
        assert an.gamma.order == 6 and not an.is_split
        assert [(str(f.min_poly), f.multiplicity) for f in an.factors] == \
            [("x - c", mults[0]), ("x^2 + c*x + c^2", mults[1])]
        assert is_weakly_galois(P, analysis=an) is True
        assert is_galois(P, analysis=an) is galois
    assert len(calls) == 2


def test_normal_over_a_rational_function_field():
    # Q(t)(sqrt t) is normal over Q(t): computed mode needs no
    # factoring over Q(t), which is not supported
    Ft = RationalFunctionField(QQ, "t")
    L = extend(Ft, Polynomial(Ft, [-Ft.gen(), Ft.zero(), Ft.one()]), "u")
    P = regular_over(L, Subfield.from_layer(L, Ft))
    an = analyze(P)
    assert an.gamma.order == 2 and an.is_split
    assert sorted(str(f.min_poly) for f in an.factors) == ["x + u", "x - u"]
    assert is_galois(P, analysis=an) is True


def test_normal_quartic_over_a_rational_function_field():
    # L = Q(i)(t)[a]/(a^4 - t) is normal over Q(i)(t): Aut(L) sends a
    # to a, -a, i*a and -i*a, and i*a is a product of two generators,
    # which only the candidate pool's product rounds supply
    Qi = extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")
    Ft = RationalFunctionField(Qi, "t")
    L = extend(Ft, Polynomial(Ft, [-Ft.gen()] + [Ft.zero()] * 3 + [Ft.one()]),
               "a")
    G = automorphisms_over(L, Ft)
    assert G.order == 4
    for P in (regular_over(L, Subfield.from_layer(L, Ft)),
              bimodule_of_group(L, G)):
        an = analyze(P)
        assert an.splitting.field is L and an.gamma.order == 4
        assert is_galois(P, analysis=an) is True


def test_center_that_is_not_a_layer():
    # the fixed field of {id, sigma} on Q(sqrt 2)(sqrt 3) is Q(sqrt 6)
    L, G = biquadratic()
    P = bimodule_of_group(L, G)
    an = analyze(P)
    F = an.center
    assert not is_layer_of(F.field, L) and F.field.var == "w2"
    w = F.embed(F.field.gen())
    assert w * w == L.from_int(6)
    assert sum(len(f.characters) for f in an.factors) == 2
    assert is_weakly_galois(P, analysis=an) is True
    assert is_galois(P, analysis=an) is True
    Q = direct_sum(P, twist(L, G[0]))
    an = analyze(Q)
    assert [f.multiplicity for f in an.factors] == [2, 1]
    assert is_weakly_galois(Q, analysis=an) is True
    assert is_galois(Q, analysis=an) is False


def test_regular_over_a_subfield_that_is_not_a_layer():
    # K = Q(sqrt 6) = Q[w2]/(w2^2 - 6) is no layer of L, so the right
    # basis is picked from L's basis over Q, one product per candidate
    L, G = biquadratic()
    K = fieldops.fixed_field(L, list(G))
    assert not is_layer_of(K.field, L)
    R = regular_over(L, K)
    assert R.rank == 2
    assert {str(k): str(M) for k, M in R.images.items()} == {
        "Q[a]/(a^2 - 2)": "[0, 2; 1, 0]",
        "Q[a]/(a^2 - 2)[b]/(b^2 - 3)": "[0, a*b; 1/2*a*b, 0]",
    }
    an = analyze(R)
    assert an.center.dimension() == 2
    assert [(str(f.min_poly), f.multiplicity) for f in an.factors] == \
        [("x - b", 1), ("x + b", 1)]
    assert is_galois(R, analysis=an) is True


# --------------------------------------------- inseparable towers


@pytest.mark.parametrize("p", [2, 3])
def test_inseparable_regular(p):
    Fp = GF(p)
    Ft = RationalFunctionField(Fp, "t")
    t = Ft.gen()
    rel = Polynomial(Ft, [-t] + [Ft.zero()] * (p - 1) + [Ft.one()])
    L = extend(Ft, rel, "u")
    u = L.coerce(L.gen())
    P = regular_over(L, Subfield.from_layer(L, Ft))
    assert P.rank == p
    an = analyze(P, E=L, hints=[u])
    assert an.gamma.order == 1
    assert an.semisimple is False
    assert an.is_split is True
    assert len(an.factors) == 1
    f = an.factors[0]
    assert f.min_poly == Polynomial(L, [-u, L.one()])
    assert f.multiplicity == p
    assert is_galois(P, analysis=an) is True
    c = classify(P, analysis=an, hints=[u])
    assert (c.degree, c.multiplicity) == (p, 1)


def test_inseparable_descent_in_regular_bimodule():
    # over F2(t), mu = x^4 + t x^2 + t factors over L as
    # (x + a)^2 (x^2 + a^2 + t); the second factor is the square of
    # (x + a + r) with r^2 = t, so its orbit polynomial descends to L
    # only after one Frobenius step
    F2 = GF(2)
    Ft = RationalFunctionField(F2, "t")
    t = Ft.gen()
    L = extend(Ft, Polynomial(Ft, [t, Ft.zero(), t, Ft.zero(), Ft.one()]), "a")
    N = extend(L, Polynomial(L, [L.coerce(t), L.zero(), L.one()]), "r")
    a, r = N.coerce(L.gen()), N.coerce(N.gen())
    hints = [a, a + r, r]
    P = regular_over(L, Subfield.from_layer(L, Ft))
    an = analyze(P, E=N, hints=hints)
    assert an.gamma.order == 2
    got = [
        (str(f.min_poly), f.multiplicity, f.insep_exponent)
        for f in an.factors
    ]
    assert got == [("x + a", 2, 0), ("x^2 + a^2 + t", 1, 1)]
    assert an.semisimple is False
    c = classify(P, analysis=an, hints=hints)
    assert (c.degree, c.multiplicity) == (4, 1)
    Q = direct_sum(P, P)
    c = classify(Q, analysis=analyze(Q, E=N, hints=hints), hints=hints)
    assert (c.degree, c.multiplicity) == (4, 2)


def f2t_quartic():
    """(L, F2(t), N, hints): L = F2(t)[a]/(a^4 + t a^2 + t) inside
    N = L[r]/(r^2 - t), where mu = x^4 + t x^2 + t has the roots a and
    a + r, each twice; the hints [a, a + r, r] reach them."""
    Ft = RationalFunctionField(GF(2), "t")
    t = Ft.gen()
    L = extend(Ft, Polynomial(Ft, [t, Ft.zero(), t, Ft.zero(), Ft.one()]), "a")
    N = extend(L, Polynomial(L, [L.coerce(t), L.zero(), L.one()]), "r")
    a, r = N.coerce(L.gen()), N.coerce(N.gen())
    return L, Ft, N, [a, a + r, r]


def repeated_factor_bimodules(L, Ft):
    """(P, Q) over the L of ``f2t_quartic``: Q has rank 2 with phi(a) = A,
    A^2 = a^2 + t, and P = twist(L, id) + Q."""
    a = L.coerce(L.gen())
    A = Matrix(L, [[L.zero(), a * a + L.coerce(Ft.gen())],
                   [L.one(), L.zero()]])
    Q = Bimodule(L, {L: A}, base=Ft)
    return direct_sum(twist(L, identity_morphism(L)), Q), Q


def test_semisimple_with_a_repeated_factor_of_mu():
    # mu_L = (x + a)^2 (x^2 + a^2 + t) is not squarefree, so P's
    # semisimplicity is decided at phi(a) = diag(a, A): the product
    # (x + a)(x^2 + a^2 + t) of its supported factors kills it
    L, Ft, N, hints = f2t_quartic()
    P, Q = repeated_factor_bimodules(L, Ft)
    an = analyze(P, E=N, hints=hints)
    got = [
        (str(f.min_poly), f.multiplicity, f.insep_exponent)
        for f in an.factors
    ]
    assert got == [("x + a", 1, 0), ("x^2 + a^2 + t", 1, 1)]
    mu_L = an.min_poly.map_coeffs(L, an.center.embedding.apply)
    assert bimod_module._multiplicity_in(mu_L, an.factors[0].min_poly) == 2
    assert an.semisimple is True
    an = analyze(Q, E=N, hints=hints)
    assert [f.multiplicity for f in an.factors] == [0, 1]
    assert an.semisimple is True


def _multiplicity_by_division(f, g):
    """The generic loop: divide by g while the remainder is zero."""
    m, (quotient, rest) = 0, f.divmod(g)
    while rest.is_zero():
        m, (quotient, rest) = m + 1, quotient.divmod(g)
    return m


@pytest.mark.parametrize("over", ["Q", "Q(a)(b)"])
def test_linear_multiplicity_matches_the_division_loop(over):
    # a linear g is read as the root -g0/g1 by synthetic division; on
    # planted roots it must agree with dividing by g itself
    L = QQ if over == "Q" else biquadratic()[0]
    gens = [L.one()] + [L.coerce(layer.gen()) for layer in chain(L)[1:]]
    rng = random.Random(2300 + len(over))

    def element():
        return sum((L.from_int(rng.randrange(-3, 4)) * g for g in gens),
                   L.zero())

    x = Polynomial.x(L)
    for _ in range(8):
        roots = [element() for _ in range(3)]
        f = Polynomial.constant(L, L.from_int(rng.randrange(1, 5)))
        for r in roots:
            f = f * (x - Polynomial.constant(L, r)) ** rng.randrange(0, 4)
        f = f * Polynomial(L, [element() for _ in range(rng.randrange(1, 4))]
                           + [L.one()])
        for r in roots + [element()]:
            c = L.from_int(rng.choice([1, 2, -3]))
            g = Polynomial(L, [-c * r, c])
            assert bimod_module._multiplicity_in(f, g) == \
                _multiplicity_by_division(f, g)



def assert_rank_oracle_agrees(P, an):
    """The generalized kernel dimensions and the semisimple flag read
    by ranks (``oracles.kernel_dimensions``) match the analysis."""
    dims, semisimple = kernel_dimensions(P, an)
    assert [dim for _, dim in dims] == [
        f.min_poly.degree * f.multiplicity for f in an.factors
    ]
    assert an.semisimple is semisimple


def inseparable_fixtures():
    """(label, P, analyze keywords) for the bimodules over inseparable
    extensions above."""
    out = []
    for p in (2, 3):
        Ft = RationalFunctionField(GF(p), "t")
        rel = Polynomial(Ft, [-Ft.gen()] + [Ft.zero()] * (p - 1) + [Ft.one()])
        L = extend(Ft, rel, "u")
        P = regular_over(L, Subfield.from_layer(L, Ft))
        out.append(("regular-F%d" % p, P,
                    dict(E=L, hints=[L.coerce(L.gen())])))
    L, Ft, N, hints = f2t_quartic()
    R = regular_over(L, Subfield.from_layer(L, Ft))
    P, Q = repeated_factor_bimodules(L, Ft)
    for label, B in (("regular", R), ("regular^2", direct_sum(R, R)),
                     ("id+Q", P), ("Q", Q)):
        out.append(("quartic-" + label, B, dict(E=N, hints=hints)))
    return out


@pytest.mark.parametrize("P, kw", [
    pytest.param(P, kw, id=label) for label, P, kw in inseparable_fixtures()
])
def test_rank_oracle_agrees_on_inseparable_fixtures(P, kw):
    assert_rank_oracle_agrees(P, analyze(P, **kw))


def test_rank_oracle_agrees_on_the_golden_corpus(monkeypatch):
    seen = []
    analyze_ = bimod_module.analyze

    def recorded(P, *args, **kw):
        an = analyze_(P, *args, **kw)
        seen.append((P, an))
        return an

    monkeypatch.setattr(bimod_module, "analyze", recorded)
    lines = golden_analyze.records()
    assert len(seen) == sum("iota=" in line for line in lines) > 0
    for P, an in seen:
        assert_rank_oracle_agrees(P, an)


# --------------------------------------------- base change fixtures


def test_base_change_normal_stays_split(quad):
    L, G = quad
    P = bimodule_of_group(L, G)
    E = extend(L, Polynomial(L, [L.coerce(-3), L.zero(), L.one()]), "r3")
    Q = base_change(P, E)
    assert Q.rank == 4
    an = analyze(Q)
    assert an.gamma.order == 4
    assert an.gamma.is_abelian()
    assert an.is_split is True
    assert an.h_normal is True
    assert len(support(an)) == 4
    assert is_galois(Q, analysis=an) is True
    c = classify(Q, analysis=an)
    assert (c.degree, c.multiplicity) == (4, 1)

    # the split case also triangularizes over E itself, realizing all
    # four characters on the diagonal
    r2, r3 = E.coerce(L.gen()), E.coerce(E.gen())
    _, tri = simultaneous_triangularize([Q.phi(r2), Q.phi(r3)])
    diag = {
        (tri[0].rows[i][i], tri[1].rows[i][i]) for i in range(4)
    }
    assert len(diag) == 4

    # dual construction: the full automorphism bimodule over E has the
    # same factor shape
    PE = bimodule_of_group(E, automorphisms_over(E, QQ))
    anPE = analyze(PE)
    assert sorted(
        (f.min_poly.degree, f.multiplicity) for f in an.factors
    ) == sorted((f.min_poly.degree, f.multiplicity) for f in anPE.factors)


def test_base_change_nonnormal_not_split():
    # t -> -t on a quadratic layer over Q(w); adjoining sqrt(1+t)
    # yields a rank-4 bimodule whose Galois closure has degree 8 and
    # whose characters do not all land in the field
    Fw = RationalFunctionField(QQ, "w")
    w = Fw.gen()
    L = extend(Fw, Polynomial(Fw, [-w, Fw.zero(), Fw.one()]), "t")
    t = L.coerce(L.gen())
    G = automorphisms_over(L, Fw)
    assert G.order == 2
    P = bimodule_of_group(L, G)
    E = extend(L, Polynomial(L, [-(L.one() + t), L.zero(), L.one()]), "u")
    u = E.coerce(E.gen())
    tE = E.coerce(t)
    Q = base_change(P, E)
    assert Q.rank == 4

    Ebar = extend(
        E, Polynomial(E, [-(E.one() - tE), E.zero(), E.one()]), "v"
    )
    for sign in (E.one(), -E.one()):
        found = locate_roots(
            Polynomial(E, [-(E.one() + sign * tE), E.zero(), E.one()]), Ebar
        )
        assert [m for _, m in found] == [1, 1]

    iota_images = {Fw: Ebar.coerce(w), L: Ebar.coerce(tE),
                   E: Ebar.coerce(u)}
    an = analyze(Q, E=Ebar, iota_images=iota_images, expected_gamma=8)
    assert an.gamma.order == 8
    assert not an.gamma.is_abelian()
    assert len(an.h_indices) == 2
    assert an.h_normal is False
    assert an.is_split is False
    got = sorted((str(f.min_poly), f.multiplicity) for f in an.factors)
    assert got == [("x + u", 1), ("x - u", 1), ("x^2 + t - 1", 1)]
    assert is_galois(Q, analysis=an) is True
    c = classify(Q, analysis=an, iota_images=iota_images, expected_gamma=8)
    assert (c.degree, c.multiplicity) == (4, 1)

    # over E itself two of the four needed eigenvalues are missing
    with pytest.raises(EigenvalueOutsideField):
        simultaneous_triangularize([Q.phi(tE), Q.phi(u)])


# --------------------------------------------- undecidable spectra


def _spectral_bimodule():
    """phi sends the transcendental s to diag(s^2, t, t) over
    L = Q(s)[t]/(t^2 - s)."""
    Fs = RationalFunctionField(QQ, "s")
    L = extend(Fs, Polynomial(Fs, [-Fs.gen(), Fs.zero(), Fs.one()]), "t")
    t = L.coerce(L.gen())
    s = L.coerce(Fs.gen())
    z = L.zero()
    phi_t = Matrix(L, [[s, z, z], [z, z, t], [z, L.one(), z]])
    phi_s = Matrix.diagonal(L, [s * s, t, t])
    return Bimodule(L, {L: phi_t, Fs: phi_s}, base=QQ), s, t


def _companion_bimodule(n):
    """Rank n over Q(s) with s acting as the companion of x^n - s."""
    Fs = RationalFunctionField(QQ, "s")
    rows = [[Fs.zero()] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fs.one()
    rows[0][n - 1] = Fs.gen()
    return Bimodule(Fs, {Fs: Matrix(Fs, rows)}, base=QQ)


def test_spectral_recursion_is_undecidable_within_bounds():
    # resolving the right spectra needs s^(1/2^k) for every k, so the
    # splitting ladder must overrun any degree cap
    P, s, t = _spectral_bimodule()
    sub, exact = P.center()
    assert exact is False

    assert min_poly_right(P, s).degree == 2
    assert min_poly_right(P, t).degree == 3

    with pytest.raises(UnsupportedBase):
        analyze(P)
    assert is_weakly_galois(P) is None
    assert is_galois(P) is None
    with pytest.raises(DegreeBound):
        split_probe(P)
    v = galois_verdict(P)
    assert v.weakly_galois is None and v.galois is None
    assert isinstance(v.obstruction, DegreeBound)


@pytest.fixture
def adjoined(monkeypatch):
    """Relations that split_probe hands to extend, in order."""
    rels = []
    real = bimod_module.extend

    def record(base, rel, var, **kw):
        rels.append(repr(rel))
        return real(base, rel, var, **kw)

    monkeypatch.setattr(bimod_module, "extend", record)
    return rels


@pytest.mark.parametrize("build, ladder", [
    (lambda: _spectral_bimodule()[0],
     ["x^2 - t", "x^2 - q1", "x^2 + q1", "x^2 - q2"]),
    (lambda: _companion_bimodule(2),
     ["x^2 - s", "x^2 - q1", "x^2 + q1", "x^2 - q2", "x^2 + q2"]),
], ids=["spectral", "rank2"])
def test_split_probe_ladder_is_pinned(adjoined, build, ladder):
    P = build()
    with pytest.raises(DegreeBound, match="tower degree 32 exceeds the cap 16"):
        split_probe(P, cap=16)
    assert adjoined == ladder
    del adjoined[:]
    with pytest.raises(ResolutionError,
                       match="made no decision within 2 steps"):
        split_probe(P, cap=16, max_steps=2)
    assert adjoined == ladder[:2]


@pytest.mark.parametrize("n, message", [
    (3, "only follows binomial ladders"),
    (4, "cannot bound the spectrum"),
])
def test_split_probe_stops_off_binomial_ladders(adjoined, n, message):
    with pytest.raises(ResolutionError, match=message):
        split_probe(_companion_bimodule(n), cap=16)
    assert adjoined == ["x^%d - s" % n]
