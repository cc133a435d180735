"""Factoring over number fields and Hensel lifting over the integers.

Oracles: sympy's ``factor_list(..., extension=...)`` for factorizations
over Q(i), Q(sqrt 2), Q(2^(1/3)) and the depth-2 tower Q(i)(sqrt 2)
(skipped when sympy is missing); the product f * conj(f) for the norm
from Q(i); and, for Hensel lifting, the defining congruences checked
directly on integer lists.  The mod-p screen that picks Trager's shift
is checked against the exact norm over Q at every shift it accepts, and
the exact fallback against the screened factorizations.  Recombination's
constant-term test keeps the factors and their order (x^3 + 3x^2 - x
still splits off x) while it cuts the trial divisions over Z.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galbim import factor
from galbim.factor import (
    SCREEN_PRIME,
    _factor_finite_squarefree,
    _hensel_lift_list,
    _hensel_lift_pair,
    _int_poly_divmod,
    _int_poly_mul,
    _norm_to_base,
    _screen,
    _screen_relation,
    _shift_by_generator,
    _squarefree_norm,
    factor_poly,
)
from galbim.fieldbase import GF, QQ
from galbim.fieldops import splitting_field
from galbim.poly import Polynomial, poly_gcd
from galbim.towers import extend


def _fields():
    x = Polynomial.x(QQ)
    qi = extend(QQ, x**2 + 1, "i")
    y = Polynomial.x(qi)
    return {
        "i": qi,
        "sqrt2": extend(QQ, x**2 - 2, "r"),
        "cbrt2": extend(QQ, x**3 - 2, "c"),
        "i_sqrt2": extend(qi, y**2 - 2, "s"),
    }


def _random_element(K, rng):
    if K is QQ:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return K.from_coords([_random_element(K.base, rng) for _ in range(K.degree)])


def _random_product(K, rng, max_degree):
    """A monic product over K of random monic factors of degree 1 or 2,
    some of them squared, of degree at most max_degree."""
    f = Polynomial.one(K)
    while True:
        d = rng.randint(1, 2)
        if f.degree + d > max_degree:
            return f
        g = Polynomial(K, [_random_element(K, rng) for _ in range(d)] + [1])
        if f.degree + 2 * d <= max_degree and rng.random() < 0.25:
            g = g * g
        f = f * g


# (field, number of polynomials, degree cap); 20 in all
CASES = [("i", 6, 6), ("sqrt2", 6, 6), ("cbrt2", 4, 4), ("i_sqrt2", 4, 3)]


SYMPY_EXTENSIONS = {
    "i": ["I"],
    "sqrt2": ["sqrt2"],
    "cbrt2": ["cbrt2"],
    "i_sqrt2": ["I", "sqrt2"],
}


def _sympy_matcher(name):
    """A function that takes f over the field ``name`` of ``_fields`` to
    (our sorted factor list, sympy's sorted factor list), each factor as
    the string of its coefficients over sympy's algebraic field, high
    degree first."""
    sp = pytest.importorskip("sympy")
    X = sp.Symbol("x")
    known = {"I": sp.I, "sqrt2": sp.sqrt(2), "cbrt2": sp.cbrt(2)}
    exts = [known[e] for e in SYMPY_EXTENSIONS[name]]
    dom = sp.QQ.algebraic_field(*exts)
    gens = [dom.from_sympy(g) for g in exts]

    def to_domain(c, gens):
        # coordinates over the layer below, in powers of its generator
        if not gens:
            return dom.convert(sp.QQ(c.numerator, c.denominator))
        *below, top = gens
        out = dom.zero
        for j, a in enumerate(c.coords):
            out += to_domain(a, below) * top**j
        return out

    def dom_coeffs(coeffs):
        return [to_domain(c, gens) for c in reversed(coeffs)]

    def match(f):
        lead, factors = factor_poly(f)
        assert lead == f.field.one()
        got = sorted((str(dom_coeffs(g.coeffs)), m) for g, m in factors)
        poly = sp.Poly.from_list(dom_coeffs(f.coeffs), X, domain=dom)
        want = sorted(
            (str(g.monic().rep.to_list()), m) for g, m in poly.factor_list()[1]
        )
        return got, want

    return match


def test_tower_factoring_matches_sympy():
    rng = random.Random(2013)
    fields = _fields()
    for name, count, max_degree in CASES:
        match = _sympy_matcher(name)
        for _ in range(count):
            f = _random_product(fields[name], rng, max_degree)
            got, want = match(f)
            assert got == want, (name, f)


def test_norm_from_gaussian_field_is_f_times_conjugate():
    K = _fields()["i"]
    rng = random.Random(5)
    for _ in range(8):
        d = rng.randint(1, 4)
        f = Polynomial(K, [_random_element(K, rng) for _ in range(d)] + [1])
        conj = Polynomial(K, [K.from_coords([c.coords[0], -c.coords[1]]) for c in f.coeffs])
        product = f * conj
        assert all(c.coords[1] == 0 for c in product.coeffs)
        norm = _norm_to_base(f, K.relation)
        assert norm.field is QQ
        assert norm.degree == f.degree * K.relation.degree
        assert norm.leading() == 1
        assert norm == Polynomial(QQ, [c.coords[0] for c in product.coeffs])


# ------------------------------------------------- the shift screen mod p
# Trager's method picks the shift s by the norm of f(x - s*alpha) mod p
# and computes one norm over Q, for the first shift the screen accepts.


def _random_squarefree(K, rng, max_degree, rational=False):
    """A monic squarefree product over K of distinct random monic factors
    of degree 1 or 2, of degree 2..max_degree; with coefficients in Q
    when ``rational``, so that its norm at shift 0, a power of f, is not
    squarefree."""
    if rational:
        draw = lambda: K.coerce(_random_element(QQ, rng))
    else:
        draw = lambda: _random_element(K, rng)
    while True:
        f = Polynomial.one(K)
        while True:
            d = rng.randint(1, 2)
            if f.degree + d > max_degree:
                break
            f = f * Polynomial(K, [draw() for _ in range(d)] + [1])
        if f.degree >= 2 and poly_gcd(f, f.derivative()).is_one():
            return f


@pytest.mark.parametrize("name,max_degree", [("cbrt2", 4), ("i_sqrt2", 4)])
def test_squarefree_factoring_matches_sympy(name, max_degree):
    match = _sympy_matcher(name)
    K = _fields()[name]
    rng = random.Random(4093)
    for k in range(6):
        f = _random_squarefree(K, rng, max_degree, rational=k % 2 == 1)
        got, want = match(f)
        assert got == want, (name, f)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["i", "sqrt2", "cbrt2"]), st.integers(0, 2**32),
       st.booleans())
def test_screen_accepts_only_squarefree_norms(name, seed, rational):
    K = _fields()[name]
    mu = K.relation
    f = _random_squarefree(K, random.Random(seed), 4, rational)
    mu_p = _screen_relation(f, mu)
    assert mu_p.field.p == SCREEN_PRIME
    if rational:
        assert not _screen(f, mu_p)
    for s in range(4):
        shifted = _shift_by_generator(f, s)
        if _screen(shifted, mu_p):
            norm = _norm_to_base(shifted, mu)
            assert poly_gcd(norm, norm.derivative()).is_one(), (f, s)
    s, norm = _squarefree_norm(f, mu)
    assert _screen(_shift_by_generator(f, s), mu_p)
    assert norm == _norm_to_base(_shift_by_generator(f, s), mu)


def test_screen_steps_aside_off_its_ground():
    fields = _fields()
    # a denominator divisible by the screen's prime
    K = fields["sqrt2"]
    f = Polynomial(K, [Fraction(1, SCREEN_PRIME), 0, 1])
    assert _screen_relation(f, K.relation) is None
    got, want = _sympy_matcher("sqrt2")(f * (f + 1))
    assert got == want
    # a base other than Q
    L = fields["i_sqrt2"]
    g = _random_squarefree(L, random.Random(7), 3)
    assert _screen_relation(g, L.relation) is None


def test_exact_fallback_gives_identical_factors(monkeypatch):
    rng = random.Random(2013)
    fields = _fields()
    inputs = [
        _random_product(fields[name], rng, max_degree)
        for name, count, max_degree in CASES
        for _ in range(count)
    ]
    inputs += [_random_squarefree(fields[name], rng, 4, rational=True)
               for name in ("i", "sqrt2", "cbrt2")]
    want = [repr(factor_poly(f)) for f in inputs]
    screened = []

    def reject(shifted, mu_p):
        screened.append(shifted)
        return False

    monkeypatch.setattr(factor, "_screen", reject)
    assert [repr(factor_poly(f)) for f in inputs] == want
    assert screened


# ------------------------------------------------------------ Hensel lifting


def _mod_list(f, m):
    out = [c % m for c in f]
    while out and not out[-1]:
        out.pop()
    return out


def _split_instances(count):
    """(target, modular factors, p) for seeded monic integer polynomials
    that stay squarefree mod p and split there into at least 3 factors."""
    rng = random.Random(40)
    found = []
    while len(found) < count:
        p = rng.choice((3, 5, 7))
        target = [1]
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(1, 2)
            target = _int_poly_mul(target, [rng.randint(-9, 9) for _ in range(d)] + [1])
        fp = Polynomial(GF(p), target)
        if not poly_gcd(fp, fp.derivative()).is_one():
            continue
        modular = _factor_finite_squarefree(fp)
        if len(modular) >= 3:
            found.append((target, modular, p))
    return found


@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_hensel_lift_properties(k):
    for target, modular, p in _split_instances(6):
        pk = p**k
        lifted = _hensel_lift_list(target, modular, p, k)
        assert len(lifted) == len(modular)
        product = [1]
        for g, g_p in zip(lifted, modular):
            assert g[-1] == 1
            assert len(g) == g_p.degree + 1
            assert _mod_list(g, p) == [c.value for c in g_p.coeffs]
            product = _int_poly_mul(product, g)
        assert _mod_list(product, pk) == _mod_list(target, pk)


def test_hensel_lift_rejects_common_factor():
    F = GF(5)
    g = Polynomial(F, [1, 1])
    h = Polynomial(F, [4, 0, 1])  # x^2 - 1 shares x + 1 with g
    f_int = _int_poly_mul([1, 1], [-1, 0, 1])
    with pytest.raises(ArithmeticError):
        _hensel_lift_pair(f_int, g, h, 5, 10)


def test_recombination_splits_off_a_zero_constant_term():
    """A subset whose constant terms multiply to 0 mod p^k is tried only
    against a remainder with constant term 0: x^3 + 3x^2 - x still
    splits off x, over Q and in its splitting field."""
    f = Polynomial(QQ, [0, -1, 3, 1])
    assert factor_poly(f) == (1, [(Polynomial(QQ, [0, 1]), 1),
                                  (Polynomial(QQ, [-1, 3, 1]), 1)])
    data = splitting_field(f)
    assert data.field.degree == 2
    assert sorted(map(str, (r for r, _ in data.roots))) == \
        ["-r1 - 3", "0", "r1"]


def test_constant_term_test_skips_trial_divisions(monkeypatch):
    """Splitting x^8 - 10x^6 + 47x^4 - 110x^2 + 841 factors its degree-6
    leftover over its stem field, a norm of degree 48 with many modular
    factors.  The roots come out as before, in the same order, with
    far fewer trial divisions over Z (88 here; 4,229 without the
    constant-term test)."""
    divisions = []

    def counted(a, b, p=None):
        if p is None:
            divisions.append(1)
        return _int_poly_divmod(a, b, p)

    monkeypatch.setattr(factor, "_int_poly_divmod", counted)
    mu = Polynomial(QQ, [841, 0, -110, 0, 47, 0, -10, 0, 1])
    data = splitting_field(mu)
    assert str(data.field) == \
        "Q[r1]/(r1^8 - 10*r1^6 + 47*r1^4 - 110*r1^2 + 841)"
    assert [(str(r), m) for r, m in data.roots] == [(r, 1) for r in (
        "7/12644*r1^7 + 55/3161*r1^5 - 923/6322*r1^3 + 15325/12644*r1",
        "35/37932*r1^7 + 275/9483*r1^5 - 4615/18966*r1^3 + 8683/12644*r1",
        "-7/9483*r1^7 - 220/9483*r1^5 + 1846/9483*r1^3 + 160/3161*r1",
        "r1",
        "-r1",
        "7/9483*r1^7 + 220/9483*r1^5 - 1846/9483*r1^3 - 160/3161*r1",
        "-35/37932*r1^7 - 275/9483*r1^5 + 4615/18966*r1^3 - 8683/12644*r1",
        "-7/12644*r1^7 - 55/3161*r1^5 + 923/6322*r1^3 - 15325/12644*r1",
    )]
    assert 0 < len(divisions) <= 200
