"""The benchmark's four workloads, each a list of problems with frozen
answers.

``build(name, seed)`` constructs a workload's inputs (towers with their
validation, Hopf algebras, bimodules with their ``__init__`` checks) and
returns ``[(problem_name, solve), ...]``.  ``solve()`` does the timed
work and raises ``Mismatch`` when the answer differs from the frozen
one; any other exception is an unexpected failure.  Every galbim
function is reached through its module attribute, so the wrappers that
``layertrace.py`` installs see the benchmark's own calls too.

The named inputs are fixed.  The seed drives only the random
polynomials that ``radical`` factors over finite fields and the sample
elements on which it checks derivation witnesses.  Why each workload
exists and what it leaves out is recorded in README.md.
"""

import random

from galbim import bimod, coact, derivations, factor, fieldops, hopf
from galbim import morphisms, towers
from galbim.errors import DegreeBound
from galbim.fieldbase import GF, QQ
from galbim.fieldops import Subfield
from galbim.matrix import Matrix
from galbim.poly import Polynomial


class Mismatch(Exception):
    """An answer differs from the frozen expected result."""


def expect(got, want, what):
    if got != want:
        raise Mismatch("%s: got %r, want %r" % (what, got, want))


def build(name, seed):
    return BUILDERS[name](seed)


# ------------------------------------------------------------- quartic
# L = Q(i)(u)[z]/((z^2+1)^2 - u), non-normal of degree 4 over Q(i)(u),
# with the degree-8 splitting tower E: s^2 = u, a^2 = s - 1, b^2 = -s - 1.


def _taft_coaction():
    """L and the Taft(2,2) coaction on it, rho(z) = z (x) g + 1 (x) x
    (basis g^a x^b at index 2a + b)."""
    Qi = towers.extend(QQ, Polynomial(QQ, [1, 0, 1]), "i")
    Fu = towers.RationalFunctionField(Qi, "u")
    u = Fu.gen()
    L = towers.extend(
        Fu,
        Polynomial(Fu, [Fu.one() - u, Fu.zero(), Fu.coerce(2), Fu.zero(),
                        Fu.one()]),
        "z",
    )
    K = hopf.taft(Qi, 2, 2, Qi.from_int(-1))
    return L, coact.field_coaction(L, K, {2: L.gen(), 1: L.one()})


def _quartic(seed):
    L, C = _taft_coaction()
    Fu = L.base
    Qi = Fu.coefficient_field
    u = Fu.gen()
    Es = towers.extend(Fu, Polynomial(Fu, [-u, Fu.zero(), Fu.one()]), "s")
    s = Es.coerce(Es.gen())
    Ea = towers.extend(
        Es, Polynomial(Es, [Es.one() - s, Es.zero(), Es.one()]), "a")
    E = towers.extend(
        Ea, Polynomial(Ea, [Ea.one() + Ea.coerce(s), Ea.zero(), Ea.one()]),
        "b")
    a, sE = E.coerce(Ea.gen()), E.coerce(s)
    iota = {Qi: E.coerce(Qi.gen()), Fu: E.coerce(u), L: a}
    hints = (a, -a, E.gen(), -E.gen(), sE, -sE)
    R = bimod.regular_over(L, Subfield.from_layer(L, Fu))

    def regular():
        an = bimod.analyze(R, E=E, iota_images=iota, expected_gamma=8)
        expect(an.gamma.order, 8, "|Gamma|")
        expect(an.gamma.is_abelian(), False, "Gamma abelian")
        expect(sorted((str(f.min_poly), f.multiplicity) for f in an.factors),
               [("x + z", 1), ("x - z", 1), ("x^2 + z^2 + 2", 1)],
               "factors")
        expect(an.is_split, False, "split")
        expect(bimod.is_galois(R, analysis=an), True, "Galois")
        sd = bimod.split_analysis(R, analysis=an)
        expect(len(sd.closure_indices), 8, "closure order")
        expect(sd.h_normal_in_closure, False, "H normal in closure")
        w = sd.trivial_witness
        z = L.coerce(L.gen())
        expect(R.phi(z).mul_vec(w), [z * c for c in w], "trivial witness")

    def twisted():
        conj = next(g for g in morphisms.automorphisms_over(L, Fu)
                    if not g.is_identity())
        P = bimod.direct_sum(R, bimod.twist(L, conj))
        an = bimod.analyze(P, E=E, iota_images=iota, expected_gamma=8)
        expect(sorted(f.multiplicity for f in an.factors), [1, 1, 2],
               "multiplicities")
        expect(bimod.is_weakly_galois(P, analysis=an), True, "weakly Galois")
        expect(bimod.is_galois(P, analysis=an), False, "Galois")

    def taft_group():
        G = coact.galois_group_of_coaction(C, E=E, hints=hints, expected=8)
        expect(G.order, 8, "|G|")
        table = G.table()
        expect(any(table[i][j] != table[j][i]
                   for i in range(8) for j in range(8)), True,
               "non-abelian")
        expect(sum(1 for i in range(1, 8) if table[i][i] == 0), 5,
               "involutions")

    return [("regular", regular), ("twisted", twisted),
            ("taft_group", taft_group)]


# ------------------------------------------------------------ numfield
# Splitting fields over Q with the degree of each, frozen.  Left out
# because one problem would swamp a run: x^5+x+1 (about 100 s),
# x^4+x+1 (S_4, degree 24; no result after 120 s) and the group-bimodule
# analysis of x^4-2 (no result after 200 s).

NUMFIELD_SPLIT = [
    ([-2, 0, 0, 1], 6),           # x^3 - 2
    ([1, 0, 0, 0, 1], 4),         # x^4 + 1
    ([-2, 0, 0, 0, 1], 8),        # x^4 - 2
    ([-1, -3, 0, 1], 3),          # x^3 - 3x - 1
    ([-1, 0, 0, 0, 0, 1], 4),     # x^5 - 1
    ([1, 0, 0, 1, 0, 0, 1], 6),   # x^6 + x^3 + 1
    ([-1, -1, 0, 1], 6),          # x^3 - x - 1
    ([-1, 0, -1, 0, 1], 8),       # x^4 - x^2 - 1
]
NUMFIELD_BIMODULE = [
    ([-2, 0, 0, 1], 6),
    ([-1, 0, 0, 0, 0, 1], 4),
    ([1, 0, 0, 1, 0, 0, 1], 6),
]


def _splits(f, data):
    E = data.field
    x = Polynomial.x(E)
    prod = Polynomial.one(E)
    for r, m in data.roots:
        prod = prod * (x - r) ** m
    return prod == f.map_coeffs(E, E.coerce)


def _numfield(seed):
    polys = [(Polynomial(QQ, c), deg) for c, deg in NUMFIELD_SPLIT]

    def split(f, deg):
        def solve():
            data = fieldops.splitting_field(f)
            expect(towers.algebraic_degree(data.field, QQ), deg, "degree")
            expect(_splits(f, data), True, "prod (x - r) = f")
            G = morphisms.automorphisms_over(data.field, QQ, expected=deg)
            expect(G.order, deg, "|Aut|")
        return solve

    def group_bimodule(f, deg):
        def solve():
            E = fieldops.splitting_field(f).field
            P = bimod.bimodule_of_group(E, morphisms.automorphisms_over(E, QQ))
            an = bimod.analyze(P)
            expect(an.gamma.order, deg, "|Gamma|")
            expect(bimod.is_galois(P, analysis=an), True, "Galois")
        return solve

    out = [("split:%s" % f, split(f, deg)) for f, deg in polys]
    for c, deg in NUMFIELD_BIMODULE:
        f = Polynomial(QQ, c)
        out.append(("group_bimodule:%s" % f, group_bimodule(f, deg)))
    return out


# ------------------------------------------------------------ coaction


def _nichols_mat4_rep():
    def units(entries):
        rows = [[QQ.zero()] * 4 for _ in range(4)]
        for r, c in entries:
            rows[r][c] = QQ.one()
        return Matrix(QQ, rows)

    parity = Matrix.diagonal(QQ, [1, 1, -1, -1])
    xmats = [
        units([(0, 2), (1, 3)]),
        units([(0, 3), (1, 2)]),
        units([(0, 3)]),
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


def _coaction(seed):
    L, C = _taft_coaction()
    N = hopf.nichols16(QQ)
    amult, aunit = hopf.matrix_algebra(QQ, 4)
    action = hopf.adjoint_action(N, _nichols_mat4_rep())
    Qw = towers.extend(QQ, Polynomial(QQ, [1, 1, 1]), "w")
    Fx = towers.RationalFunctionField(QQ, "x")

    def taft_field():
        report = coact.verify_coaction(C)
        expect((report.kind, report.relation_image), ("field", ()),
               "coaction report")
        inv = coact.invariants(C)
        expect(len(inv), 1, "invariant dimension")
        expect(any(L.coords(inv[0])[1:]), False, "invariant in the base")
        cert = coact.integrality_certificate(C, L.gen())
        expect((cert.monic, cert.annihilates, cert.coefficients_invariant,
                cert.coefficients_in_base, cert.escapes, cert.failure,
                cert.min_poly.degree),
               (True, True, True, True, (), None, 4), "certificate")
        tau = coact.verify_psi_xi_tau(C)
        expect((tau.psi_xi_identity, tau.dimension_checked,
                tau.tau_well_defined, tau.tau_left_linear),
               (True, 32, True, True), "psi/xi/tau")
        div = coact.divisibility_coaction(C)
        expect((div.degree, div.hopf_dim, div.quotient), (4, 8, 2),
               "divisibility")

    def nichols_mat4():
        K16, rho = hopf.action_to_coaction(N, action, amult, aunit)
        Cn = coact.finite_coaction(K16, amult, aunit, rho)
        report = coact.verify_coaction(Cn)
        expect(report.multiplicativity_checked, 256, "products checked")
        inv = coact.invariants(Cn)
        expect(len(inv), 1, "invariant dimension")
        expect({i for i, c in enumerate(inv[0]) if c}, {0, 5, 10, 15},
               "invariant support")

    def taft_3_2():
        T = hopf.taft(Qw, 3, 2, Qw.gen())
        expect(T.dim, 18, "dim")
        expect(hopf.dual(hopf.dual(T)).structure_key(), T.structure_key(),
               "double dual")

    def endomorphism_5x5():
        x = Fx.gen()
        zero, one = Fx.zero(), Fx.one()
        rows = [[zero] * 5 for _ in range(5)]
        rows[0][1] = one
        rows[1][0] = x * x
        rows[2][3] = one
        rows[3][4] = one
        rows[4][2] = x ** 3
        M = Matrix(Fx, rows)

        def in_ring(c):  # Q[x^2, x^3]: polynomials without a linear term
            return c.is_polynomial() and not c.num.coeff(1)

        cert = coact.endomorphism_certificate(M, in_ring)
        expect((cert.min_poly_in_ring, cert.char_poly_in_ring,
                cert.min_escapes, cert.char_escapes),
               (False, True, ((3, x),), ()), "certificate")

    return [("taft_field", taft_field), ("nichols_mat4", nichols_mat4),
            ("taft_3_2", taft_3_2), ("endomorphism_5x5", endomorphism_5x5)]


# ------------------------------------------------------------- radical
# Finite-field polynomials: one random monic polynomial of each degree in
# FACTOR_DEGREES per field, so that seeds change coefficients, not sizes.

FACTOR_DEGREES = (24, 20, 16, 12)


def _gf9():
    return towers.extend(GF(3), Polynomial(GF(3), [1, 0, 1]), "j")


def _random_element(F, rng):
    if isinstance(F, towers.ExtensionField):
        return F.from_coords([_random_element(F.base, rng)
                              for _ in range(F.degree)])
    return F.from_int(rng.randrange(F.p))


def _inseparable(p):
    Ft = towers.RationalFunctionField(GF(p), "t")
    t = Ft.gen()
    L = towers.extend(
        Ft, Polynomial(Ft, [-t] + [Ft.zero()] * (p - 1) + [Ft.one()]), "u")
    P = bimod.regular_over(L, Subfield.from_layer(L, Ft))
    return L, P


def _random_ratfunc(F, rng):
    p = F.coefficient_field.p
    num = Polynomial(F.coefficient_field,
                     [rng.randrange(p) for _ in range(3)] + [1])
    den = Polynomial(F.coefficient_field,
                     [rng.randrange(1, p), rng.randrange(p), 1])
    return F.coerce(num) / F.coerce(den)


def _radical(seed):
    rng = random.Random(seed)
    Fs = towers.RationalFunctionField(QQ, "s")
    Ls = towers.extend(
        Fs, Polynomial(Fs, [-Fs.gen(), Fs.zero(), Fs.one()]), "t")
    t, s, z = Ls.coerce(Ls.gen()), Ls.coerce(Fs.gen()), Ls.zero()
    spectral = bimod.Bimodule(
        Ls,
        {Ls: Matrix(Ls, [[s, z, z], [z, z, t], [z, Ls.one(), z]]),
         Fs: Matrix.diagonal(Ls, [s * s, t, t])},
        base=QQ,
    )
    insep = {p: _inseparable(p) for p in (2, 3)}
    blocks = []
    for p, power in ((2, 3), (3, 5)):
        Ft = towers.RationalFunctionField(GF(p), "t")
        gen = Ft.one() if p == 2 else Ft.gen()   # d/dt, t d/dt
        D = derivations.Derivation(Ft, {Ft: gen})
        samples = [_random_ratfunc(Ft, rng) for _ in range(4)]
        blocks.append((p, power, D, samples))
    fields = [GF(2), GF(3), GF(5), GF(7), _gf9()]
    polys = []
    for F in fields:
        for deg in FACTOR_DEGREES:
            coeffs = [_random_element(F, rng) for _ in range(deg)]
            polys.append(Polynomial(F, coeffs + [F.one()]))

    def spectral_verdict():
        v = bimod.galois_verdict(spectral)
        expect((v.weakly_galois, v.galois), (None, None), "verdicts")
        expect(type(v.obstruction), DegreeBound, "obstruction")

    def inseparable(p):
        L, P = insep[p]

        def solve():
            u = L.coerce(L.gen())
            an = bimod.analyze(P, E=L, hints=[u])
            expect((an.gamma.order, an.semisimple, an.is_split), (1, False,
                   True), "analysis")
            expect([(f.min_poly, f.multiplicity) for f in an.factors],
                   [(Polynomial(L, [-u, L.one()]), p)], "factors")
            expect(bimod.is_galois(P, analysis=an), True, "Galois")
            c = bimod.classify(P, analysis=an, hints=[u])
            expect((c.degree, c.multiplicity), (p, 1), "classification")
        return solve

    def block(p, power, D, samples):
        def solve():
            Dp = derivations.p_power(D)
            T = bimod.tensor_power(derivations.m_of_d(D), power)
            ok, (v1, v2) = derivations.contains_m_of_d(T, Dp)
            expect(ok, True, "contains M(D^p)")
            for a in samples:
                A = T.phi(a)
                da = Dp.apply(a)
                expect(A.mul_vec(v1), [a * w for w in v1], "witness v1")
                expect(A.mul_vec(v2), [a * y + da * w
                                       for y, w in zip(v2, v1)],
                       "witness v2")
        return solve

    def factor_all():
        for f in polys:
            lead, parts = factor.factor_poly(f)
            prod = Polynomial.constant(f.field, lead)
            for g, m in parts:
                prod = prod * g ** m
            expect(prod, f, "product of the factors of %s" % (f,))

    out = [("spectral_verdict", spectral_verdict)]
    out += [("inseparable_p%d" % p, inseparable(p)) for p in (2, 3)]
    out += [("m_of_d_p%d" % b[0], block(*b)) for b in blocks]
    out.append(("factor_finite", factor_all))
    return out


BUILDERS = {
    "quartic": _quartic,
    "numfield": _numfield,
    "coaction": _coaction,
    "radical": _radical,
}
