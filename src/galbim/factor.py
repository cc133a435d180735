"""Polynomial factorization over the supported coefficient fields.

Routes by field:

* prime fields and finite extension towers: distinct-degree splitting
  plus Cantor-Zassenhaus equal-degree splitting with a seeded generator,
  so results are deterministic run to run; the modular powers, gcds and
  divisions run in ``poly``'s list kernel, on ints over GF(p) and on
  element indices over a tabled GF(q) (at most ``TABLE_CAP`` elements);
* the rationals: squarefree decomposition, reduction mod a good prime,
  Hensel lifting and subset recombination against a Landau-Mignotte
  bound, trying a subset only when its constant terms' product divides
  the constant term of what is left;
* algebraic extension towers over the rationals: Trager's norm descent.
  The norm of f(x - s*alpha) is evaluated at integer points c, each
  value the resultant of the generator's minimal polynomial over the
  base with the coordinates of f(c), found by Horner on the coordinate
  columns of f's coefficients (no tower products), and interpolated over
  the base.  Over Q the shift s is chosen mod p = SCREEN_PRIME: the same
  routine over GF(p) gives the norm reduced mod p, and when that is
  squarefree, so is the norm over Q (a repeated factor of the monic,
  p-integral norm is p-integral by Gauss's lemma and survives
  reduction), so only the accepted shift's norm is computed exactly.
  Where the screen does not apply (a denominator divisible by p, a norm
  of degree at least p, a base other than Q) or accepts no shift, each
  shift's exact norm is tested instead.  The norm is factored one level
  down and its factors pulled back through gcds.

Coefficient fields containing a rational function field are refused
with UnsupportedBase: factorization there is not part of the kernel
contract, and callers supply splitting data instead.  Inputs above the
degree cap raise DegreeBound.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, zip_longest

from .errors import DegreeBound, UnsupportedBase
from .fieldbase import GF, QQ, PrimeField, RationalField
from .poly import (
    Polynomial,
    RationalFunction,
    _int_poly_divmod,
    _int_poly_mul,
    _trim_mod,
    poly_ext_gcd,
    poly_gcd,
    poly_pow_mod,
    resultant,
    squarefree_decomposition,
)

DEFAULT_DEGREE_CAP = 24


def factor_poly(f: Polynomial, max_degree: int = DEFAULT_DEGREE_CAP):
    """(leading coefficient, [(monic irreducible, multiplicity), ...]).

    Factors are sorted by degree, then by a deterministic coefficient
    key, so output order is stable.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > max_degree:
        raise DegreeBound(
            "degree %d exceeds the factorization cap %d"
            % (f.degree, max_degree)
        )
    lead = f.leading()
    if f.is_constant():
        return lead, []
    field = f.field
    kind = _field_kind(field)
    if kind == "ratfunc":
        raise UnsupportedBase(
            "factorization over a rational function field is not supported; "
            "supply splitting data instead"
        )
    _, squarefree = squarefree_decomposition(f)
    out = []
    for g, mult in squarefree:
        if kind == "finite":
            parts = _factor_finite_squarefree(g, seed=0)
        elif kind == "rational":
            parts = _factor_rational_squarefree(g)
        else:
            parts = _factor_tower_squarefree(g, max_degree)
        out.extend((h, mult) for h in parts)
    out.sort(key=lambda pair: _poly_sort_key(pair[0]))
    return lead, out


def roots_in_coefficient_field(f: Polynomial):
    """Roots of f inside its own coefficient field, with multiplicity.
    A linear f gives its root over any field, with no factoring."""
    if f.degree == 1:
        return [(-f.coeff(0) / f.coeff(1), 1)]
    _, factors = factor_poly(f)
    out = []
    for g, mult in factors:
        if g.degree == 1:
            out.append((-g.coeff(0), mult))
    return out


def _field_kind(field):
    """'finite', 'rational', 'tower' (over Q), or 'ratfunc' anywhere."""
    seen = field
    while True:
        if isinstance(seen, PrimeField):
            return "finite"
        if isinstance(seen, RationalField):
            return "rational" if seen is field else "tower"
        if getattr(seen, "coefficient_field", None) is not None:
            # a rational function layer anywhere poisons factorization
            return "ratfunc"
        base = getattr(seen, "base", None)
        if base is None:
            raise UnsupportedBase("unrecognized coefficient field %r" % (field,))
        seen = base


def _poly_sort_key(g: Polynomial):
    return (g.degree, tuple(_elem_sort_key(c) for c in g.coeffs))


def _elem_sort_key(c):
    # deterministic total order on the element kinds we print; it only
    # sorts (roots, factors, morphisms), identity is the elements' ==/hash
    if isinstance(c, Fraction):
        return (0, c.numerator, c.denominator)
    value = getattr(c, "value", None)
    if isinstance(value, int):
        return (1, value)
    coords = getattr(c, "coords", None)
    if coords is not None:
        return (2, tuple(_elem_sort_key(x) for x in coords))
    if isinstance(c, RationalFunction):
        return (
            3,
            tuple(_elem_sort_key(x) for x in c.num.coeffs),
            tuple(_elem_sort_key(x) for x in c.den.coeffs),
        )
    return (9, repr(c))


# ----------------------------------------------------------- finite fields


def _finite_size(field):
    size = getattr(field, "finite_size", None)
    if size is None:
        raise UnsupportedBase("field %r is not finite" % (field,))
    return size


def _random_poly(field, degree, rng):
    q = _finite_size(field)
    coeffs = [field.element_from_index(rng.randrange(q)) for _ in range(degree + 1)]
    return Polynomial(field, coeffs)


def _factor_finite_squarefree(f: Polynomial, seed: int):
    """Irreducible factors of a squarefree monic f over a finite field."""
    field = f.field
    q = _finite_size(field)
    f = f.monic()
    rng = random.Random(seed * 1000003 + q * 1009 + f.degree)
    out = []
    # distinct-degree splitting: strip factors of degree d for d = 1, 2, ...
    x = Polynomial.x(field)
    w = x
    d = 0
    rest = f
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append(rest)
            break
        w = poly_pow_mod(w, q, rest)
        g = poly_gcd(w - x, rest)
        if g.is_constant():
            continue
        out.extend(_equal_degree_split(g, d, q, rng))
        rest = (rest // g).monic()
        w = w % rest
    return out


def _equal_degree_split(f: Polynomial, d: int, q: int, rng):
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    if f.degree == d:
        return [f.monic()]
    field = f.field
    one = Polynomial.one(field)
    while True:
        r = _random_poly(field, f.degree - 1, rng)
        if r.is_constant():
            continue
        if q % 2 == 1:
            h = poly_pow_mod(r, (q**d - 1) // 2, f)
            cand = poly_gcd(h - one, f)
        else:
            # characteristic 2: use the trace map over F_{2^(kd)}
            k = (q**d).bit_length() - 1
            acc = r % f
            term = r % f
            for _ in range(k - 1):
                term = (term * term) % f
                acc = (acc + term) % f
            cand = poly_gcd(acc, f)
        if 0 < cand.degree < f.degree:
            left = cand.monic()
            right = (f // cand).monic()
            return _equal_degree_split(left, d, q, rng) + _equal_degree_split(
                right, d, q, rng
            )


# ------------------------------------------------------------- rationals


def _factor_rational_squarefree(f: Polynomial):
    """Irreducible monic factors of a squarefree f over Q (Zassenhaus)."""
    f = f.monic()
    if f.degree == 1:
        return [f]
    # clear denominators to a primitive integer polynomial
    den = math.lcm(*(c.denominator for c in f.coeffs))
    int_coeffs = [int(c * den) for c in f.coeffs]
    g = math.gcd(*int_coeffs)
    int_coeffs = [c // g for c in int_coeffs]
    factors = _zassenhaus(int_coeffs)
    out = []
    for fac in factors:
        poly = Polynomial(QQ, [Fraction(c) for c in fac]).monic()
        out.append(poly)
    return out


def _zassenhaus(coeffs):
    """Irreducible integer factors of a primitive squarefree integer
    polynomial (content 1), as coefficient lists."""
    n = len(coeffs) - 1
    if n == 1:
        return [coeffs]
    lc = coeffs[-1]
    # monic transform: T(x) = lc^(n-1) * F(x / lc), whose lead is 1
    monic = [coeffs[i] * lc ** (n - 1 - i) for i in range(n)] + [1]
    # pick a prime where the reduction stays squarefree
    p = None
    for cand in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 2):
        if lc % cand == 0:
            continue
        if _is_squarefree(Polynomial(GF(cand), monic)):
            p = cand
            break
    if p is None:
        raise UnsupportedBase("no small prime keeps the polynomial squarefree")
    field = GF(p)
    fp = Polynomial(field, monic).monic()
    modular = _factor_finite_squarefree(fp, seed=0)
    if len(modular) == 1:
        return [coeffs]
    # Landau-Mignotte style bound on factor coefficients of the monic T
    height = max(abs(c) for c in monic)
    bound = (n + 1) * (1 << n) * height
    k = 1
    pk = p
    while pk <= 2 * bound:
        pk *= p
        k += 1
    lifted = _hensel_lift_list(monic, modular, p, k)
    raw = _recombine(monic, lifted, pk)
    # undo the monic transform: factor of F = primitive part of G(lc*x)
    out = []
    for fac in raw:
        m = len(fac) - 1
        scaled = [fac[i] * lc**i for i in range(m + 1)]
        g = math.gcd(*scaled)
        out.append([c // g for c in scaled])
    return out


def _sym_mod(c, pk):
    c %= pk
    if 2 * c > pk:
        c -= pk
    return c


def _hensel_lift_list(target, modular_factors, p, k):
    """Lift monic factors of a monic integer polynomial from mod p to
    mod p^k, recursively pairing the first against the rest."""
    field = GF(p)
    if len(modular_factors) == 1:
        # the target is already the lift of this single factor
        return [list(target)]
    g0 = modular_factors[0]
    rest = Polynomial.one(field)
    for h in modular_factors[1:]:
        rest = rest * h
    g_int, h_int = _hensel_lift_pair(target, g0, rest, p, k)
    sub = _hensel_lift_list(h_int, modular_factors[1:], p, k)
    return [g_int] + sub


def _hensel_lift_pair(f_int, g_p, h_p, p, k):
    """f = g*h mod p with g, h monic coprime mod p; lift to mod p^k.

    One extended gcd over GF(p) gives s*g + t*h = 1; every lifting step
    then runs on integer coefficient lists reduced mod p."""
    d, s, t = poly_ext_gcd(g_p, h_p)
    if not d.is_one():
        raise ArithmeticError("modular factors are not coprime")
    s, t, g0, h0 = ([c.value for c in q.coeffs] for q in (s, t, g_p, h_p))
    g = [_sym_mod(c, p) for c in g0]
    h = [_sym_mod(c, p) for c in h0]
    pj = p
    for _ in range(k - 1):
        pj2 = pj * p
        pairs = zip_longest(f_int, _int_poly_mul(g, h), fillvalue=0)
        e = _trim_mod([(a - b) // pj for a, b in pairs], p)
        if e:
            q, dh = _int_poly_divmod(_int_poly_mul(s, e), h0, p)
            pairs = zip_longest(_int_poly_mul(t, e), _int_poly_mul(q, g0), fillvalue=0)
            dg = _trim_mod([a + b for a, b in pairs], p)
            if len(dg) >= len(g) or len(dh) >= len(h):
                raise ArithmeticError("lift correction degree overflow")
            g = _int_poly_addmul(g, dg, pj, pj2)
            h = _int_poly_addmul(h, dh, pj, pj2)
        pj = pj2
    return g, h


def _int_poly_addmul(base, delta, pj, mod):
    out = list(base)
    while len(out) < len(delta):
        out.append(0)
    for i, c in enumerate(delta):
        out[i] = _sym_mod(out[i] + pj * c, mod)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _recombine(target, lifted, pk):
    """Subset recombination of Hensel-lifted factors against the monic
    integer polynomial `target`; returns irreducible integer factors."""
    remaining = list(lifted)
    current = list(target)
    found = []
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for combo in combinations(range(len(remaining)), size):
            # a true factor's constant term is its symmetric residue and
            # divides current's: skip the subset unless it does (0 divides
            # only 0)
            const = 1
            for idx in combo:
                const = const * remaining[idx][0] % pk
            const = _sym_mod(const, pk)
            if current[0] % const if const else current[0]:
                continue
            prod = [1]
            for idx in combo:
                prod = _int_poly_mul(prod, remaining[idx])
            cand = [_sym_mod(c, pk) for c in prod]
            while len(cand) > 1 and cand[-1] == 0:
                cand.pop()
            quo, rem = _int_poly_divmod(current, cand)
            if any(rem_c != 0 for rem_c in rem):
                continue
            found.append(cand)
            current = quo
            used = set(combo)
            remaining = [r for i, r in enumerate(remaining) if i not in used]
            hit = True
            break
        if not hit:
            size += 1
    if len(current) > 1:
        found.append(current)
    return found


# -------------------------------------------------- towers over Q (Trager)

# The shift screen's prime: the largest one at most TABLE_CAP, so its
# residues are interned.
SCREEN_PRIME = 4093


def _factor_tower_squarefree(f: Polynomial, max_degree: int):
    """Irreducible monic factors of a squarefree f over an algebraic
    extension K = base(alpha), by norm descent to the base."""
    K = f.field
    f = f.monic()
    if f.degree == 1:
        return [f]
    shift, norm = _squarefree_norm(f, K.relation)
    _, norm_factors = factor_poly(
        norm, max_degree=max(max_degree, norm.degree)
    )
    out = []
    alpha = K.gen()
    for nf, _mult in norm_factors:
        # lift N_i to K[x], undo the shift x -> x + s*alpha, gcd with f
        lifted = nf.map_coeffs(K, K.coerce)
        x_shift = Polynomial(
            K, [K.coerce(shift) * alpha, K.one()]
        )
        cand = lifted.compose(x_shift)
        g = poly_gcd(f, cand)
        if g.degree > 0:
            out.append(g.monic())
            f = (f // g).monic()
    if f.degree > 0:
        out.append(f)
    return out


def _squarefree_norm(f: Polynomial, mu: Polynomial):
    """(s, norm of f(x - s*alpha)) for the first shift s = 0, 1, ... that
    the mod-p screen accepts, else for the first whose norm over the
    base is squarefree."""
    shifts = range(4 * f.degree * mu.degree + 5)
    mu_p = _screen_relation(f, mu)
    if mu_p is not None:
        for s in shifts:
            shifted = _shift_by_generator(f, s)
            if _screen(shifted, mu_p):
                return s, _norm_to_base(shifted, mu)
    for s in shifts:
        norm = _norm_to_base(_shift_by_generator(f, s), mu)
        if _is_squarefree(norm):
            return s, norm
    raise UnsupportedBase("no squarefree norm shift found")


def _screen_relation(f: Polynomial, mu: Polynomial):
    """mu mod SCREEN_PRIME when the screen decides shifts for f: the base
    is Q, the norm's degree is below the prime and no denominator of mu
    or of f's coordinates is divisible by it; None otherwise."""
    if mu.field is not QQ or f.degree * mu.degree >= SCREEN_PRIME:
        return None
    F = GF(SCREEN_PRIME)
    coords = [c for a in f.coeffs for c in a.coords]
    if any(c.denominator % SCREEN_PRIME == 0 for c in coords + list(mu.coeffs)):
        return None
    return mu.map_coeffs(F, F.coerce)


def _screen(shifted: Polynomial, mu_p: Polynomial):
    """Whether the norm of ``shifted`` reduced mod p is squarefree, which
    makes the norm over Q squarefree (see ``_norm_to_base``)."""
    return _is_squarefree(_norm_to_base(shifted, mu_p))


def _is_squarefree(g: Polynomial):
    d = g.derivative()
    return not d.is_zero() and poly_gcd(g, d).is_constant()


def _shift_by_generator(f: Polynomial, s: int):
    """f(x - s*alpha) over the extension field."""
    K = f.field
    if s == 0:
        return f
    alpha = K.gen()
    shift_poly = Polynomial(K, [K.coerce(-s) * alpha, K.one()])
    return f.compose(shift_poly)


def _norm_to_base(f: Polynomial, mu: Polynomial):
    """Norm of the monic f from K[x] down to F[x], where F is the field
    of ``mu``: K's base with mu its relation, or GF(p) with mu the
    relation reduced mod p, when f's coordinates are reduced too.

    The norm Res_y(mu(y), f~(x, y)), where f~ writes each K coefficient
    as a polynomial in y, is monic of degree N = deg f * deg mu.  It is
    evaluated at the integers c = 0..N, each value the resultant of mu
    against the coordinates of f(c) over F, found by Horner on the
    coordinate columns of f's coefficients, and Newton-interpolated over
    F.  The nodes are integers, so every division is by an integer.

    Over GF(p) this is the norm over Q reduced mod p, when p divides no
    denominator and N < p: mu is monic, so Res(mu, g) = prod g(alpha_i)
    commutes with reduction, and the N + 1 nodes stay distinct.  A
    repeated factor of the monic, p-integral norm over Q is p-integral by
    Gauss's lemma and would survive reduction, so a squarefree norm mod p
    certifies a squarefree norm over Q."""
    K = f.field
    base = mu.field
    n = f.degree * mu.degree
    cols = [[base.coerce(c) for c in K.coords(a)] for a in f.coeffs]
    coef = []
    for c in range(n + 1):
        x = base.from_int(c)
        acc = cols[-1]
        for col in reversed(cols[:-1]):
            acc = [a * x + b for a, b in zip(acc, col)]
        coef.append(resultant(mu, Polynomial(base, acc)))
    # divided differences: nodes i - j and i are j apart
    for j in range(1, n + 1):
        inv = base.one() / base.from_int(j)
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * inv
    norm = Polynomial.zero(base)
    for c in range(n, -1, -1):
        norm = norm * Polynomial(base, [-c, 1]) + coef[c]
    if norm.degree != n or norm.leading() != base.one():
        raise ArithmeticError("norm interpolant is not monic of degree %d" % n)
    return norm
