"""Extension towers, morphisms, automorphism groups, subfield ops.

Frozen values used as oracles: the minimal polynomial of sqrt2 + sqrt3
over Q is x^4 - 10 x^2 + 1; the Galois group of Q(i, 2^(1/4)) over Q is
dihedral of order 8 with the conjugation subgroup non-normal; cyclotomic
polynomials for small indices are written out literally.
"""

import gc
import weakref

import pytest
from fractions import Fraction

from galbim import fieldops, morphisms
from galbim.errors import (
    DegreeBound,
    FieldMismatch,
    NotAHomomorphism,
    NotASubgroup,
    NotInvertible,
    Reducible,
    ResolutionError,
    UnsupportedBase,
)
from galbim.factor import (
    _elem_sort_key,
    factor_poly,
    roots_in_coefficient_field,
)
from galbim.fieldbase import GF, QQ
from galbim.fieldops import (
    Subfield,
    cached_basis,
    fixed_field,
    locate_roots,
    min_poly_over,
    scalar_layer,
    splitting_field,
    subfield_coords,
)
from galbim.morphisms import (
    AutomorphismGroup,
    FieldMorphism,
    _candidate_pool,
    _roots_in_pool,
    automorphisms_over,
    identity_morphism,
)
from galbim.poly import Polynomial
from galbim.towers import (
    RationalFunctionField,
    algebraic_degree,
    chain,
    coords_over,
    cyclotomic_polynomial,
    extend,
    from_coords_over,
    tower_basis,
)

from oracles import (
    composition_table,
    inseparable_degree,
    left_cosets,
    pool_by_key,
)


def make_qi():
    x = Polynomial.x(QQ)
    return extend(QQ, x**2 + 1, "i")


def make_sqrt_tower():
    x = Polynomial.x(QQ)
    K1 = extend(QQ, x**2 - 2, "s2")
    x1 = Polynomial.x(K1)
    return extend(K1, x1**2 - 3, "s3")


def make_quartic_tower():
    """Q(i)(2^(1/4)), a degree-8 normal extension of Q."""
    Qi = make_qi()
    xi = Polynomial.x(Qi)
    return extend(Qi, xi**4 - 2, "r")


def make_rational_quartic_tower():
    """(F, E, hints): F = Q(i)(u) and its degree-8 normal extension E,
    s^2 = u, a^2 = s - 1, b^2 = -s - 1 (the splitting tower of
    (z^2 + 1)^2 - u), with the root hints +-a, +-b, +-s."""
    Fu = RationalFunctionField(make_qi(), "u")
    Es = extend(Fu, Polynomial(Fu, [-Fu.gen(), Fu.zero(), Fu.one()]), "s")
    s = Es.coerce(Es.gen())
    Ea = extend(Es, Polynomial(Es, [Es.one() - s, Es.zero(), Es.one()]), "a")
    E = extend(Ea, Polynomial(Ea, [Ea.one() + Ea.coerce(s), Ea.zero(),
                                   Ea.one()]), "b")
    a, b, sE = E.coerce(Ea.gen()), E.gen(), E.coerce(s)
    return Fu, E, (a, -a, b, -b, sE, -sE)


# ----------------------------------------------------------------- towers


def test_gaussian_arithmetic():
    Qi = make_qi()
    i = Qi.gen()
    assert i * i == -1
    a = 1 + i
    b = 1 - i
    assert a * b == 2
    assert a.inverse() == b / 2
    assert (a / a) == Qi.one()


def test_extension_rejects_reducible_relation():
    x = Polynomial.x(QQ)
    with pytest.raises(Reducible):
        extend(QQ, x**2 - 1, "e")


def test_tower_degree_cap():
    K = QQ
    with pytest.raises(DegreeBound):
        for n, p in enumerate((2, 3, 5, 7, 11)):
            xk = Polynomial.x(K)
            K = extend(K, xk**2 - p, "g%d" % n, max_degree=16)


def test_coords_roundtrip_and_basis():
    K = make_sqrt_tower()
    assert algebraic_degree(K, QQ) == 4
    basis = tower_basis(K, QQ)
    assert len(basis) == 4
    assert basis[0] == K.one()
    s3 = K.gen()
    s2 = K.coerce(K.base.gen())
    v = 3 + 2 * s2 - s3 + 5 * s2 * s3
    cs = coords_over(K, v, QQ)
    assert cs == [Fraction(3), Fraction(2), Fraction(-1), Fraction(5)]
    assert from_coords_over(K, cs, QQ) == v


def test_cached_basis_is_freed_with_its_tower():
    K = make_sqrt_tower()
    assert cached_basis(K, QQ) == tower_basis(K, QQ)
    assert cached_basis(K, QQ) is cached_basis(K, QQ)
    ref = weakref.ref(K)
    del K
    gc.collect()
    assert ref() is None


def test_unrelated_fields_do_not_mix():
    A = make_qi()
    B = make_qi()
    with pytest.raises(FieldMismatch):
        A.gen() + B.gen()


def test_cross_layer_arithmetic_coerces_up():
    K = make_sqrt_tower()
    s2 = K.base.gen()  # element of the middle layer
    s3 = K.gen()
    v = s2 + s3  # reflected operator must lift s2 into K
    assert v.field is K
    assert coords_over(K, v, QQ) == [
        Fraction(0),
        Fraction(1),
        Fraction(1),
        Fraction(0),
    ]


def _lower_layer_scalars():
    """(elements, scalars) of quartic's L = Q(i)(u)[z]/((z^2+1)^2 - u)
    and of radical's Q(s)[t]/(t^2 - s), with scalars from lower layers."""
    Qi = make_qi()
    Fu = RationalFunctionField(Qi, "u")
    u, i = Fu.gen(), Qi.gen()
    L = extend(Fu, Polynomial(Fu, [1 - u, 0, 2, 0, 1]), "z")
    z = L.gen()
    Fs = RationalFunctionField(QQ, "s")
    s = Fs.gen()
    T = extend(Fs, Polynomial(Fs, [-s, 0, 1]), "t")
    t = T.gen()
    return [
        ([z, z**3 / (u + 1) - i * z, L.one() + z * z], [
            Fraction(-3, 7), 5, 2 - 3 * i, (u + i) / (u * u - 2)]),
        ([t, s * t + 1 / (s - 1), T.zero()], [
            Fraction(5, 2), -4, (s * s + 1) / (s - 3)]),
    ]


def test_lower_layer_scalar_scales_coordinates():
    for elements, scalars in _lower_layer_scalars():
        for x in elements:
            F = x.field
            for c in scalars:
                lifted = F._mul(x, F.coerce(c))
                for product in (x * c, c * x):
                    assert product.field is F
                    assert product.coords == lifted.coords
                    assert bool(product) == bool(lifted)


def test_equal_elements_of_different_layers_hash_alike():
    K = make_sqrt_tower()
    a = K.base.gen()
    b = K.coerce(a)
    assert a == b and len({a, b}) == 1
    assert len({K.one(), K.base.one(), Fraction(1), 1}) == 1
    assert len({K.zero(), Fraction(0)}) == 1
    Ft = RationalFunctionField(K, "t")
    c = Ft.coerce(b)
    assert c == a and len({a, b, c}) == 1
    assert len({Ft.one(), K.one(), Fraction(1)}) == 1
    # elements off the base layer keep distinct hashes
    assert len({K.gen(), K.gen() + 1, a, Ft.gen()}) == 4


def test_cyclotomic_polynomials_frozen():
    x = Polynomial.x(QQ)
    assert cyclotomic_polynomial(1) == x - 1
    assert cyclotomic_polynomial(2) == x + 1
    assert cyclotomic_polynomial(3) == x**2 + x + 1
    assert cyclotomic_polynomial(4) == x**2 + 1
    assert cyclotomic_polynomial(6) == x**2 - x + 1
    assert cyclotomic_polynomial(12) == x**4 - x**2 + 1


def test_finite_extension_field():
    F2 = GF(2)
    x = Polynomial.x(F2)
    F4 = extend(F2, x**2 + x + 1, "w")
    seen = set()
    for k in range(4):
        seen.add(F4.element_from_index(k))
    assert len(seen) == 4
    w = F4.gen()
    assert w**3 == F4.one()
    assert F4.finite_size == 4
    assert F4.pth_root(w * w) == w  # Frobenius inverse


def test_rational_function_layer_in_tower():
    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    x = Polynomial.x(Qt)
    K = extend(Qt, x**2 - t, "s", validate=True)
    # the base cannot be factored over, so validation is best-effort
    assert K.validated is False
    s = K.gen()
    assert s * s == K.coerce(t)
    assert (1 / s) * s == K.one()
    assert scalar_layer(K) is Qt


# -------------------------------------------------------------- morphisms


def test_conjugation_morphism():
    Qi = make_qi()
    i = Qi.gen()
    conj = FieldMorphism(Qi, Qi, {Qi: -i})
    assert conj.apply(3 + 2 * i) == 3 - 2 * i
    assert repr(conj) == "{i -> -i}"
    assert (conj * conj).is_identity()
    with pytest.raises(NotAHomomorphism):
        FieldMorphism(Qi, Qi, {Qi: Qi.coerce(2)})


def test_composition_is_left_to_right():
    E = make_quartic_tower()
    Qi = E.base
    r = E.gen()
    i = E.coerce(Qi.gen())
    sigma = FieldMorphism(E, E, {Qi: Qi.gen(), E: i * r})
    tau = FieldMorphism(E, E, {Qi: -Qi.gen(), E: r})
    # (sigma * tau)(r) = tau(sigma(r)) = tau(i r) = -i r
    assert (sigma * tau).apply(r) == -i * r
    # the other order gives tau-then-sigma: sigma(tau(r)) = i r
    assert (tau * sigma).apply(r) == i * r


def test_klein_four_group():
    K = make_sqrt_tower()
    G = automorphisms_over(K, QQ, expected=4)
    assert G.order == 4
    assert G.is_abelian()
    assert G[0].is_identity()
    # every non-identity element has order 2
    for idx in range(1, 4):
        assert G.table()[idx][idx] == 0


def test_quartic_tower_galois_group_dihedral():
    E = make_quartic_tower()
    G = automorphisms_over(E, QQ, expected=8)
    assert G.order == 8
    assert not G.is_abelian()
    i = E.coerce(E.base.gen())
    r = E.gen()
    # subgroup fixing Q(i) pointwise: cyclic of order 4, normal
    H = G.pointwise_stabilizer([i])
    assert len(H) == 4
    assert G.is_normal_subgroup(H)
    # subgroup fixing 2^(1/4): order 2, not normal in the dihedral group
    S = G.pointwise_stabilizer([r])
    assert len(S) == 2
    assert not G.is_normal_subgroup(S)
    # coset count
    assert len(left_cosets(G, S)) == 4


def test_s3_galois_group():
    Qz = extend(QQ, cyclotomic_polynomial(3), "z")
    xz = Polynomial.x(Qz)
    E = extend(Qz, xz**3 - 2, "c")
    G = automorphisms_over(E, QQ, expected=6)
    assert G.order == 6
    assert not G.is_abelian()
    subgroup_over_qz = G.pointwise_stabilizer([E.coerce(Qz.gen())])
    assert len(subgroup_over_qz) == 3
    assert G.is_normal_subgroup(subgroup_over_qz)


def _split_field(coeffs):
    return lambda: splitting_field(Polynomial(QQ, coeffs)).field


# fields whose automorphism groups over Q the group-table tests read
GROUP_FIELDS = {
    "klein": make_sqrt_tower,
    "quartic": make_quartic_tower,
    "x^3-2": _split_field([-2, 0, 0, 1]),
    "x^4-2": _split_field([-2, 0, 0, 0, 1]),
    "x^4-x^2-1": _split_field([-1, 0, -1, 0, 1]),
    "x^5-1": _split_field([-1, 0, 0, 0, 0, 1]),
    "x^5+x+1": _split_field([1, 1, 0, 0, 0, 1]),   # order 12
}


@pytest.mark.parametrize("name", sorted(GROUP_FIELDS))
def test_group_table_matches_all_pairs(name):
    G = automorphisms_over(GROUP_FIELDS[name](), QQ)
    assert G.table() == composition_table(G)


@pytest.mark.parametrize("name", ["quartic", "x^5+x+1"])
def test_group_table_composes_only_generator_columns(monkeypatch, name):
    # |G| compositions per generator, and a greedy generating set has
    # at most log2 |G| elements; all pairs would be |G|^2
    G = automorphisms_over(GROUP_FIELDS[name](), QQ)
    calls = []
    compose = FieldMorphism.__mul__
    monkeypatch.setattr(FieldMorphism, "__mul__",
                        lambda a, b: calls.append(1) or compose(a, b))
    G.table()
    n = G.order
    assert len(calls) <= n * (n.bit_length() - 1)


def test_group_table_checks_closure():
    # {1, sigma} with sigma of order 4 in D4 lacks sigma^2
    E = make_quartic_tower()
    D4 = automorphisms_over(E, QQ, expected=8)
    sigma = next(g for g in D4 if not (g * g).is_identity()
                 and (g * g * g * g).is_identity())
    with pytest.raises(NotASubgroup, match="not closed under composition"):
        AutomorphismGroup(E, [sigma]).table()


def test_expected_order_mismatch_raises():
    K = make_sqrt_tower()
    with pytest.raises(ResolutionError):
        automorphisms_over(K, QQ, expected=8)


def test_frobenius_on_finite_tower():
    F3 = GF(3)
    x = Polynomial.x(F3)
    F9 = extend(F3, x**2 + 1, "j")
    G = automorphisms_over(F9, F3, expected=2)
    assert G.order == 2
    frob = G[1]
    j = F9.gen()
    assert frob.apply(j) == -j


# ------------------------------- identity is == and hash; keys only sort


def _ratfunc_pool_case():
    F = RationalFunctionField(QQ, "t")
    return F, [1, F.gen()]


POOL_CASES = {
    "quartic E": lambda: (make_rational_quartic_tower()[1], ()),
    "quartic E, hints": lambda: make_rational_quartic_tower()[1:],
    "x^4-2": lambda: (GROUP_FIELDS["x^4-2"](), ()),
    "x^5+x+1": lambda: (GROUP_FIELDS["x^5+x+1"](), ()),
    "GF9": lambda: (extend(GF(3), Polynomial(GF(3), [1, 0, 1]), "j"), ()),
    "Q(t)": _ratfunc_pool_case,
}


@pytest.mark.parametrize("name", sorted(POOL_CASES))
def test_candidate_pool_matches_dedup_by_key(name):
    # deduplication by == keeps the same elements, in the same order,
    # as deduplication by the sort key
    field, hints = POOL_CASES[name]()
    got = _candidate_pool(field, hints)
    want = pool_by_key(field, hints)
    assert [_elem_sort_key(x) for x in got] == \
        [_elem_sort_key(x) for x in want]
    assert all(x.field is field for x in got)


def _quartic_gamma():
    Fu, E, hints = make_rational_quartic_tower()
    return automorphisms_over(E, Fu, hints=hints, expected=8)


IDENTITY_GROUPS = {
    "quartic": _quartic_gamma,
    "x^4-2": lambda: automorphisms_over(GROUP_FIELDS["x^4-2"](), QQ),
    "x^5+x+1": lambda: automorphisms_over(GROUP_FIELDS["x^5+x+1"](), QQ),
}


def _check_identity(m, n):
    assert (m == n) == (m.key() == n.key())
    if m == n:
        assert hash(m) == hash(n)


@pytest.mark.parametrize("name", sorted(IDENTITY_GROUPS))
def test_morphism_identity_agrees_with_key(name):
    G = IDENTITY_GROUPS[name]()
    tab = G.table()
    for i, m in enumerate(G):
        for j, n in enumerate(G):
            _check_identity(m, n)
            product, entry = m * n, G[tab[i][j]]
            assert product is not entry and product == entry
            _check_identity(product, entry)


@pytest.mark.parametrize("name", ["quartic", "x^3-2"])
def test_subgroup_closure_matches_exhaustive_closure(name):
    # every subset of the group, closed by multiplying all pairs of the
    # exactly composed table until nothing new appears
    G = (_quartic_gamma() if name == "quartic"
         else automorphisms_over(GROUP_FIELDS[name](), QQ))
    assert G.order == {"quartic": 8, "x^3-2": 6}[name]
    tab = composition_table(G)
    for mask in range(1 << G.order):
        subset = [i for i in range(G.order) if mask >> i & 1]
        closed = {0, *subset}
        while True:
            grown = closed | {tab[i][j] for i in closed for j in closed}
            if grown == closed:
                break
            closed = grown
        assert G.subgroup_closure(subset) == sorted(closed)


# ------------------------------------------------------------- fieldops


def test_min_poly_frozen_sqrt2_plus_sqrt3():
    K = make_sqrt_tower()
    s2 = K.coerce(K.base.gen())
    s3 = K.gen()
    mu = min_poly_over(K, s2 + s3, QQ)
    x = Polynomial.x(QQ)
    assert mu == x**4 - 10 * x**2 + 1
    assert min_poly_over(K, s2, QQ) == x**2 - 2
    assert min_poly_over(K, K.coerce(7), QQ) == x - 7


def test_fixed_field_recognizes_layer():
    E = make_quartic_tower()
    G = automorphisms_over(E, QQ, expected=8)
    i = E.coerce(E.base.gen())
    H = G.pointwise_stabilizer([i])
    sub = fixed_field(E, [G[h] for h in H])
    assert sub.field is E.base  # recognized as the Q(i) layer
    assert subfield_coords(sub, i) is not None
    assert subfield_coords(sub, E.gen()) is None


def test_fixed_field_synthesizes_primitive_element():
    K = make_sqrt_tower()
    G = automorphisms_over(K, QQ, expected=4)
    s2 = K.coerce(K.base.gen())
    s3 = K.gen()
    # the automorphism negating s2 and fixing s3
    sigma = next(
        m
        for m in G
        if m.apply(s2) == -s2 and m.apply(s3) == s3
    )
    sub = fixed_field(K, [sigma])
    assert sub.field is not K.base  # Q(s3) is not a tower layer
    assert algebraic_degree(sub.field, QQ) == 2
    x = Polynomial.x(QQ)
    assert sub.field.relation == x**2 - 3
    assert sub.embed(sub.field.gen()) == s3
    # minimal polynomial over the synthesized subfield:
    # (x - (s2+s3))(x - (-s2+s3)) = x^2 - 2 s3 x + 1
    mu = min_poly_over(K, s2 + s3, sub)
    assert mu.degree == 2
    w = sub.field.gen()
    assert mu.coeff(1) == -2 * w
    assert mu.coeff(0) == sub.field.one()


def test_splitting_field_computed_cubic():
    x = Polynomial.x(QQ)
    data = splitting_field(x**3 - 2)
    assert algebraic_degree(data.field, QQ) == 6
    assert sum(m for _, m in data.roots) == 3
    assert data.minimal is True
    for r, _ in data.roots:
        assert r**3 == data.field.coerce(2)


def test_splitting_field_x4_plus_1():
    x = Polynomial.x(QQ)
    data = splitting_field(x**4 + 1)
    assert algebraic_degree(data.field, QQ) == 4
    assert sum(m for _, m in data.roots) == 4


# Frozen presentations of computed splitting fields: for each polynomial
# (coefficient field, coefficients from the constant term up), the
# adjoined relations bottom up and the (root, multiplicity) list.  The
# tower and the root order are part of the output callers index by.
SPLITTING_PRESENTATIONS = [
    ("QQ", [-2, 0, 0, 1], ["x^3 - 2", "x^2 + r1*x + r1^2"],
     [("r1", 1), ("r2", 1), ("-r2 - r1", 1)]),
    ("QQ", [1, 0, 0, 0, 1], ["x^4 + 1"],
     [("r1", 1), ("r1^3", 1), ("-r1^3", 1), ("-r1", 1)]),
    ("QQ", [-2, 0, 0, 0, 1], ["x^4 - 2", "x^2 + r1^2"],
     [("r1", 1), ("r2", 1), ("-r2", 1), ("-r1", 1)]),
    ("QQ", [-1, -3, 0, 1], ["x^3 - 3*x - 1"],
     [("-r1^2 + 2", 1), ("r1", 1), ("r1^2 - r1 - 2", 1)]),
    ("QQ", [-1, 0, 0, 0, 0, 1], ["x^4 + x^3 + x^2 + x + 1"],
     [("1", 1), ("r1", 1), ("r1^2", 1), ("r1^3", 1),
      ("-r1^3 - r1^2 - r1 - 1", 1)]),
    ("QQ", [1, 0, 0, 1, 0, 0, 1], ["x^6 + x^3 + 1"],
     [("r1", 1), ("r1^2", 1), ("r1^4", 1), ("r1^5", 1),
      ("-r1^5 - r1^2", 1), ("-r1^4 - r1", 1)]),
    ("QQ", [-1, -1, 0, 1], ["x^3 - x - 1", "x^2 + r1*x + r1^2 - 1"],
     [("r1", 1), ("r2", 1), ("-r2 - r1", 1)]),
    ("QQ", [-1, 0, -1, 0, 1], ["x^4 - x^2 - 1", "x^2 + r1^2 - 1"],
     [("r1", 1), ("r2", 1), ("-r2", 1), ("-r1", 1)]),
    # (x^2 - 2)^2 and x^5 - 2x^2: repeated factors
    ("QQ", [4, 0, -4, 0, 1], ["x^2 - 2"], [("r1", 2), ("-r1", 2)]),
    ("QQ", [0, 0, -2, 0, 0, 1], ["x^3 - 2", "x^2 + r1*x + r1^2"],
     [("r1", 1), ("r2", 1), ("0", 2), ("-r2 - r1", 1)]),
    # (x^2 + 1)(x^2 + 4): the second factor splits over the first layer
    ("QQ", [4, 0, 5, 0, 1], ["x^2 + 1"],
     [("2*r1", 1), ("r1", 1), ("-r1", 1), ("-2*r1", 1)]),
    # (x^2 + x + 1)(x^3 + x + 1) over F_2
    ("GF2", [1, 0, 0, 0, 1, 1], ["x^2 + x + 1", "x^3 + x + 1"],
     [("r2^2", 1), ("r2", 1), ("r2^2 + r2", 1), ("r1", 1), ("r1 + 1", 1)]),
    # (x^2 + 1)(x^3 - x + 1) over F_3
    ("GF3", [1, 2, 1, 0, 0, 1], ["x^2 + 1", "x^3 + 2*x + 1"],
     [("r2", 1), ("2*r1", 1), ("r1", 1), ("r2 + 2", 1), ("r2 + 1", 1)]),
    # (x^2 + 1)(x^2 + x + 2) over F_3, both split over F_9
    ("GF3", [2, 1, 0, 1, 1], ["x^2 + 1"],
     [("2*r1", 1), ("r1", 1), ("2*r1 + 1", 1), ("r1 + 1", 1)]),
    # (x^2 + 2)^2 (x^3 + x + 1) over F_5
    ("GF5", [4, 4, 4, 3, 1, 0, 0, 1], ["x^2 + 2", "x^3 + x + 1"],
     [("r2", 1), ("4*r1", 2), ("r1", 2), ("r2^2 + 3*r2 + 4", 1),
      ("4*r2^2 + r2 + 1", 1)]),
]

COEFFICIENT_FIELDS = {"QQ": QQ, "GF2": GF(2), "GF3": GF(3), "GF5": GF(5)}


@pytest.mark.parametrize(
    "name, coeffs, relations, roots", SPLITTING_PRESENTATIONS
)
def test_splitting_field_presentation_frozen(name, coeffs, relations, roots):
    F = COEFFICIENT_FIELDS[name]
    data = splitting_field(Polynomial(F, [F.coerce(c) for c in coeffs]))
    adjoined = chain(data.field)[1:]
    assert [repr(layer.relation) for layer in adjoined] == relations
    assert [(repr(r), m) for r, m in data.roots] == roots


@pytest.mark.parametrize(
    "coeffs, calls, relations",
    [
        # x^3 - 2: f over Q, then the quadratic cofactor over Q(r1); the
        # last cofactor is linear, so Q(r1, r2) is never factored over
        ([-2, 0, 0, 1], [(0, 3), (1, 2)], ["x^3 - 2", "x^2 + r1*x + r1^2"]),
        # x^6 + x^3 + 1 splits over Q(r1): r1^2 is a root, and the map
        # r1 -> r1^2 carries it to every other one, so nothing is
        # factored over Q(r1)
        ([1, 0, 0, 1, 0, 0, 1], [(0, 6)], ["x^6 + x^3 + 1"]),
        # no conjugate of r1 among +-r1^k: the cofactor is factored
        ([-1, -1, 0, 1], [(0, 3), (1, 2)],
         ["x^3 - x - 1", "x^2 + r1*x + r1^2 - 1"]),
        # -r1 is a root; the leftover x^2 + r1^2 is factored
        ([-2, 0, 0, 0, 1], [(0, 4), (1, 2)], ["x^4 - 2", "x^2 + r1^2"]),
        # S_4: no conjugate found on any layer
        ([1, 1, 0, 0, 1], [(0, 4), (1, 3), (2, 2)],
         ["x^4 + x + 1", "x^3 + r1*x^2 + r1^2*x + r1^3 + 1",
          "x^2 + (r2 + r1)*x + r2^2 + r1*r2 + r1^2"]),
    ],
    ids=["x^3-2", "x^6+x^3+1", "x^3-x-1", "x^4-2", "x^4+x+1"],
)
def test_splitting_field_factors_only_the_unsplit_cofactors(
    monkeypatch, coeffs, calls, relations
):
    seen = []

    def recording(h, *args, **kwargs):
        seen.append((h.field, h.degree))
        return factor_poly(h, *args, **kwargs)

    monkeypatch.setattr(fieldops, "factor_poly", recording)
    f = Polynomial(QQ, coeffs)
    layers = chain(splitting_field(f).field)
    assert [(layers.index(F), n) for F, n in seen] == calls
    assert [repr(layer.relation) for layer in layers[1:]] == relations


@pytest.mark.parametrize(
    "coeffs, degree",
    [
        ([-2, 0, 0, 1], 6),
        ([-2, 0, 0, 0, 1], 8),
        ([1, 0, 0, 1, 0, 0, 1], 6),
        ([1, 1, 0, 0, 0, 1], 12),
        ([1, 1, 0, 0, 1], 24),      # group S_4
    ],
    ids=["x^3-2", "x^4-2", "x^6+x^3+1", "x^5+x+1", "x^4+x+1"],
)
def test_splitting_field_automorphisms_come_from_its_roots(
    monkeypatch, coeffs, degree
):
    f = Polynomial(QQ, coeffs)
    data = splitting_field(f)
    E = data.field
    assert algebraic_degree(E, QQ) == degree
    x = Polynomial.x(E)
    product = Polynomial.one(E)
    for r, m in data.roots:
        product = product * (x - r) ** m
    assert product == f.map_coeffs(E, E.coerce)
    fallbacks = []
    original = morphisms.roots_in_coefficient_field
    monkeypatch.setattr(
        morphisms, "roots_in_coefficient_field",
        lambda h: fallbacks.append(h) or original(h),
    )
    assert automorphisms_over(E, QQ).order == degree
    assert fallbacks == []


def test_splitting_field_leaves_a_splitting_base_alone():
    Qi = make_qi()
    i = Qi.gen()
    x = Polynomial.x(Qi)
    data = splitting_field((x - i) * (x + 1))
    assert data.field is Qi
    assert sorted(repr(r) for r, _ in data.roots) == ["-1", "i"]
    linear = splitting_field(2 * x - i)
    assert linear.field is Qi and linear.roots == [(i / 2, 1)]
    assert "_split_roots" not in vars(Qi)


def test_locate_roots_in_supplied_tower():
    E = make_quartic_tower()
    x = Polynomial.x(QQ)
    found = locate_roots(x**4 - 2, E)
    assert [m for _, m in found] == [1, 1, 1, 1]
    roots = [y for y, _ in found]
    r = E.gen()
    i = E.coerce(E.base.gen())
    for expected in (r, -r, i * r, -i * r):
        assert any(expected == found for found in roots)


def test_locate_roots_failure_is_loud():
    Qi = make_qi()
    x = Polynomial.x(QQ)
    with pytest.raises(ResolutionError):
        locate_roots(x**2 - 3, Qi)


def test_roots_in_pool_splits_with_multiplicity():
    Qi = make_qi()
    i = Qi.gen()
    x = Polynomial.x(Qi)
    pool = _candidate_pool(Qi, ())
    f = (x - i) ** 2 * (x + i) * (x - 1)
    found, remaining = _roots_in_pool(f, pool)
    assert found == [(i, 2), (-i, 1), (Qi.one(), 1)]
    assert remaining.degree == 0
    # 2 and 3 are not in the pool: the quadratic leftover is factored
    found, remaining = _roots_in_pool(
        (x - 2) * (x - 3) * (x - i) ** 2, pool
    )
    assert sorted((repr(r), m) for r, m in found) == [
        ("2", 1), ("3", 1), ("i", 2)
    ]
    assert remaining.degree == 0


def test_roots_in_pool_completes_a_linear_leftover():
    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    x = Polynomial.x(Qt)
    f = (x - 1) ** 2 * (x - t - 1)
    with pytest.raises(UnsupportedBase):
        roots_in_coefficient_field(f)
    found, remaining = _roots_in_pool(f, _candidate_pool(Qt, [1]))
    assert found == [(Qt.one(), 2), (t + 1, 1)]
    assert remaining.degree == 0
    assert locate_roots(f, Qt, hints=[1]) == found


def test_linear_root_over_a_rational_function_field():
    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    x = Polynomial.x(Qt)
    assert roots_in_coefficient_field(x - t) == [(t, 1)]
    assert roots_in_coefficient_field(2 * x + t) == [(-t / 2, 1)]


def test_roots_in_pool_reports_what_it_missed():
    Qt = RationalFunctionField(QQ, "t")
    t = Qt.gen()
    x = Polynomial.x(Qt)
    f = (x - 1) * (x - t - 1) * (x + t + 1)
    found, remaining = _roots_in_pool(f, _candidate_pool(Qt, [1]))
    assert found == [(Qt.one(), 1)]
    assert remaining == x**2 - (t + 1)**2
    with pytest.raises(ResolutionError, match="2 degrees unaccounted"):
        locate_roots(f, Qt, hints=[1])


def test_inseparable_degree():
    F3 = GF(3)
    Qt = RationalFunctionField(F3, "t")
    t = Qt.gen()
    x = Polynomial.x(Qt)
    mu = x**3 - t
    nu, e = inseparable_degree(mu)
    assert e == 1
    assert nu == x - t
    sep, e0 = inseparable_degree(x**2 - t)
    assert e0 == 0
    assert sep == x**2 - t


def test_splitting_rejects_rational_function_base():
    Qt = RationalFunctionField(QQ, "t")
    x = Polynomial.x(Qt)
    with pytest.raises(UnsupportedBase):
        splitting_field(x**2 - Qt.gen())
