"""Reference implementations that the tests compare the library with.

``kron`` and ``mat_is_semisimple`` are second algorithms for answers
the library computes another way; only the tests call them.
``support`` and ``multiset_key`` read the supported characters and the
character multiset off a ``BimoduleAnalysis``.  ``char_poly_right``,
``qbinom`` (the Gaussian binomials in ``taft``'s coproduct),
``tensor_square_product``, ``left_cosets`` and ``composition_table``
(every product of a group composed exactly, where
``AutomorphismGroup.table`` composes only a generating set's columns)
are further answers that only the tests ask for, as are
``factor_multiplicities`` (a summary of an analysis),
``full_polynomial_dims`` (the unconstrained dimensions of a truncated
invariant computation), ``inseparable_degree``,
``is_irreducible`` and ``squarefree_part``.  ``generalized_eigenspace``
and ``diagonal_character_multiset`` serve the triangularization tests.

``roots_in_pool`` is a second root search for ``morphisms._roots_in_pool``
to agree with: the same pool scan, then a leftover of degree >= 2
factored and divided by each (x - r)^m, and a linear leftover solved.
``synthetic_divide_out`` is the scan ``morphisms._divide_out`` made
before its tries skipped zero coefficients: one synthetic division by
x - r over every coefficient per try.  ``pool_by_key`` builds the
candidate pool of ``morphisms._candidate_pool`` (generators and hints
with their negatives, recorded splitting roots, +- their pairwise
products) with duplicates told apart by ``factor._elem_sort_key``
instead of by ``==``.

``exhaustive_hopf_check`` checks every Hopf algebra axiom on every basis
tuple: associativity on all d^3 triples, and the multiplicativity of the
coproduct and the counit on all d^2 pairs.  ``HopfAlgebra._verify``
checks these product laws with a generator as left factor only.  Both
check the axiom families in the same order and raise the same messages;
the coproduct is checked on every pair before the counit.

``kernel_dimensions`` reads an analysis' multiplicities by ranks, as
``bimod.analyze`` did before it divided the characteristic polynomial:
for each factor mu_k of M = phi(a) the dimensions d - rank mu_k(M) and
d - rank mu_k(M)^d, and M is semisimple when the first ones add up to d.

``orbit_reading`` reads an analysis as ``bimod.analyze`` did before it
took the Gamma-values sigma(iota(a)) as the roots of mu: the roots by
``morphisms._orbit``, one exact division per image, every character
iota * sigma composed, and each factor's multiplicity in mu_L by
division.

``horner_coact`` evaluates sum_j coeffs[j] rho(z)^j by Horner's rule, one
product in L (x) K per coefficient, as ``coact`` did before it combined
cached powers of rho(z).  ``psi_xi_tau_reference`` builds the report of
``coact.verify_psi_xi_tau`` as it was built before psi, xi and tau shared
their basis images: both round trips through the public ``psi_map`` and
``xi_map`` on every basis element, and tau's images from those powers.

``radford_antipode_full`` is ``HopfAlgebra._solve_antipode`` with the right
integral solved against every basis element instead of the generators.

``TowerArithmetic`` multiplies in a finite tower by coordinates:
convolution, then reduction by each layer's relation, on nested tuples
of ints.  The library does its small finite fields by tables instead.
"""

from math import comb

from galbim.bimod import _multiplicity_in
from galbim.coact import (
    _TAU_RANK_CAP,
    PsiXiTauReport,
    _tk_const,
    _tk_mul,
    psi_map,
    xi_map,
)
from galbim.errors import AxiomViolation, FieldMismatch, UnsupportedBase
from galbim.factor import (
    _elem_sort_key,
    factor_poly,
    roots_in_coefficient_field,
)
from galbim.fieldops import cached_basis
from galbim.hopf import lincomb, sparse_kernel, sparse_product, tensor_product
from galbim.matrix import Matrix
from galbim.morphisms import _divide_out, _orbit
from galbim.poly import Polynomial, poly_gcd, squarefree_decomposition
from galbim.towers import chain


def mat_is_semisimple(M: Matrix) -> bool:
    """Whether M is diagonalizable over the algebraic closure, tested as
    squarefreeness of the minimal polynomial (valid in characteristic 0
    and whenever gcd with the derivative detects repeated factors)."""
    mu = M.minpoly()
    d = mu.derivative()
    if d.is_zero():
        # inseparable minimal polynomial: a p-th power pattern
        return False
    return poly_gcd(mu, d).is_constant()


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product (A tensor B), blocks A[i][j] * B."""
    if A.field is not B.field:
        raise FieldMismatch("kronecker product over different fields")
    blocks = [
        [B.scale(A.rows[i][j]) for j in range(A.ncols)]
        for i in range(A.nrows)
    ]
    return Matrix.from_blocks(A.field, blocks)


def support(an):
    """The characters of the factors of nonzero multiplicity."""
    return [g for f in an.factors if f.multiplicity for g in f.characters]


def multiset_key(an):
    """Canonical hashable form of the character multiset."""
    return tuple(sorted(
        (g.key(), f.multiplicity) for f in an.factors for g in f.characters
    ))


def factor_multiplicities(an):
    """The sorted (degree, multiplicity) pairs of an analysis' factors."""
    return sorted((f.min_poly.degree, f.multiplicity) for f in an.factors)


def full_polynomial_dims(nvars, cap):
    """Dimensions of the degree filtration with no constraints."""
    return tuple(comb(D + nvars, nvars) for D in range(cap + 1))


def inseparable_degree(mu):
    """(nu, e) with mu(x) = nu(x^(p^e)) and nu separable; e = 0 in
    characteristic zero."""
    p = mu.field.characteristic
    e = 0
    if p == 0:
        return mu, 0
    while mu.derivative().is_zero() and mu.degree > 0:
        coeffs = [mu.coeffs[i] for i in range(0, len(mu.coeffs), p)]
        mu = Polynomial(mu.field, coeffs)
        e += 1
    return mu, e


def is_irreducible(f):
    """Whether f is irreducible over its coefficient field."""
    if f.degree < 1:
        return False
    _, factors = factor_poly(f)
    return len(factors) == 1 and factors[0][1] == 1


def squarefree_part(f):
    """Product of the distinct irreducible factors of f (monic): the
    product of the parts of ``squarefree_decomposition``, 1 when f is
    zero or constant."""
    out = Polynomial.one(f.field)
    if f.degree < 1:
        return out
    for g, _ in squarefree_decomposition(f)[1]:
        out = out * g
    return out


def kernel_dimensions(P, an):
    """([(d - rank mu_k(M), d - rank mu_k(M)^d) per factor], semisimple)
    for M = phi(a) of the analysis' primitive element a."""
    d = P.rank
    M = P.phi(an.primitive)
    lift = lambda c: Matrix.identity(M.field, d).scale(c)
    dims = []
    for f in an.factors:
        N = f.min_poly.evaluate(M, lift=lift)
        dims.append((d - N.rank(), d - (N**d).rank()))
    return dims, sum(dim1 for dim1, _ in dims) == d


def orbit_reading(an):
    """(roots, characters, in_mu) of an analysis: the roots of mu in E,
    with multiplicities, that ``_orbit`` divides out from iota(a) under
    Gamma (an AssertionError unless they split mu), the character
    iota * sigma of each sigma in Gamma, in Gamma's order, and the
    multiplicity of each factor's min_poly in mu_L, in factor order."""
    E, L = an.splitting.field, an.bimodule.field
    mu_E = an.min_poly.map_coeffs(E, E.coerce)
    roots, rest = _orbit(mu_E, an.iota.apply(an.primitive), an.gamma)
    assert rest.degree < 1, "the orbit of iota(a) does not split mu"
    mu_L = an.min_poly.map_coeffs(L, an.center.embedding.apply)
    return (roots, [an.iota * sigma for sigma in an.gamma],
            [_multiplicity_in(mu_L, f.min_poly) for f in an.factors])


def generalized_eigenspace(M: Matrix, lam, power=None) -> list:
    lam = M.field.coerce(lam)
    if power is None:
        power = M.nrows
    shifted = M - Matrix.identity(M.field, M.nrows).scale(lam)
    return (shifted**power).kernel()


def diagonal_character_multiset(triangs):
    """Multiset of diagonal tuples from jointly triangularized matrices:
    entry i is the tuple of i-th diagonal entries across the family."""
    n = triangs[0].nrows
    out = {}
    for i in range(n):
        key = tuple(M.rows[i][i] for M in triangs)
        out[key] = out.get(key, 0) + 1
    return out


def roots_in_pool(f, E, pool):
    """Roots of f in E: ``_divide_out`` over ``pool``, then a leftover
    of degree >= 2 is factored where E supports it and a linear leftover
    gives its root directly.  Returns (found, remaining) as
    ``_divide_out`` does, with the factor of f no root accounts for."""
    found, remaining = _divide_out(f, pool)
    if remaining.degree >= 2:
        try:
            located = roots_in_coefficient_field(remaining)
        except UnsupportedBase:
            located = []
        for r, mult in located:
            found.append((r, mult))
            remaining = remaining // Polynomial(E, [-r, E.one()]) ** mult
    if remaining.degree == 1:
        found.append((-remaining.coeff(0) / remaining.coeff(1), 1))
        remaining = Polynomial.one(E)
    return found, remaining


def synthetic_divide_out(f, pool):
    """Scan ``pool`` in order and divide each root of f out to its full
    multiplicity, with no factoring.  Returns (found, remaining):
    (root, multiplicity) pairs with distinct roots, and what is left.
    A try is one synthetic division by x - r: Horner's partial sums are
    the quotient and, last, the value at r."""
    remaining = f
    found = []
    for r in pool:
        if remaining.degree < 1:
            break
        mult = 0
        while True:
            sums = [remaining.coeffs[-1]]
            for c in reversed(remaining.coeffs[:-1]):
                sums.append(sums[-1] * r + c)
            if sums.pop():
                break
            remaining = Polynomial(f.field, tuple(reversed(sums)),
                                   trusted=True)
            mult += 1
        if mult:
            found.append((r, mult))
    return found, remaining


def pool_by_key(field, hints):
    """The candidate pool of ``field`` for these hints, as a tuple: the
    generators of every layer above the bottom (a rational function
    variable among them) and the hints, each with its negative, the
    field's recorded splitting roots, then +-g*h for every two distinct
    entries g, h of generators and hints, keeping the first element of
    each ``_elem_sort_key``."""
    xs = [field.coerce(layer.gen()) for layer in chain(field)[1:]]
    xs += [field.coerce(h) for h in hints]
    pool = {}

    def add(x):
        pool.setdefault(_elem_sort_key(x), x)

    for x in xs:
        add(x)
        add(-x)
    for r in vars(field).get("_split_roots", ()):
        add(r)
    for i, g in enumerate(xs):
        for h in xs[i + 1:]:
            add(g * h)
            add(-(g * h))
    return tuple(pool.values())


class NotAPower(Exception):
    """A characteristic polynomial is not the expected power of the
    minimal polynomial."""


def char_poly_right(P, a):
    """(mu, k) with charpoly(phi(a)) = mu^k for the minimal polynomial
    mu of P.phi(a); raises NotAPower when the characteristic polynomial
    is not a perfect power of it."""
    M = P.phi(a)
    chi = M.charpoly()
    mu = M.minpoly()
    if mu.degree == 0 or chi.degree % mu.degree:
        raise NotAPower(
            "characteristic polynomial is not a power of the minimal one"
        )
    k = chi.degree // mu.degree
    if mu**k != chi:
        raise NotAPower(
            "characteristic polynomial is not a power of the minimal one"
        )
    return mu, k


def horner_coact(C, coeffs):
    """sum_j coeffs[j] rho(z)^j by Horner, for z the tower generator of
    the FieldCoaction C."""
    acc = {}
    for c in reversed(coeffs):
        acc = lincomb([
            *_tk_mul(C, acc, C.rho_gen).items(), *_tk_const(C, c).items()
        ])
    return acc


def psi_xi_tau_reference(C):
    """The PsiXiTauReport of the FieldCoaction C, or AxiomViolation when
    psi and xi are not mutually inverse on the basis z^i (x) k_t."""
    L, K, B = C.field, C.hopf, C.base
    n, d = L.degree, K.dim
    sinv = K.antipode.inverse()
    z_pows = cached_basis(L, B)
    for zi in z_pows:
        for t in range(d):
            e = {t: zi}
            if (psi_map(C, xi_map(C, e, sinv)) != e
                    or xi_map(C, psi_map(C, e), sinv) != e):
                raise AxiomViolation("psi and xi are not mutually inverse")
    rho_pow = [horner_coact(C, [B.zero()] * j + [B.one()])
               for j in range(n + 1)]
    unit_images = {(s, j): _tk_mul(C, {s: L.one()}, rho_pow[j])
                   for s in range(d) for j in range(n + 1)}
    well = all(_tk_mul(C, unit_images[s, 1], rho_pow[j])
               == unit_images[s, j + 1] for s in range(d) for j in range(n))
    linear, images = True, []
    for zi in z_pows:
        for s in range(d):
            for j in range(n):
                image = _tk_mul(C, {s: zi}, rho_pow[j])
                linear = linear and image == lincomb(
                    (t, zi * c) for t, c in unit_images[s, j].items())
                images.append(image)
    source, target = n * n * d * d, n * d
    rank = bijective = skipped = None
    if source <= _TAU_RANK_CAP:
        cols = [[B.coerce(c) for u in range(d)
                 for c in L.coords(tk.get(u, L.zero()))] for tk in images]
        rank = d * Matrix.from_cols(B, cols).rank()
        bijective = bool(well and rank == d * target)
    else:
        skipped = ("rank skipped: source dimension %d exceeds the cap %d"
                   % (source, _TAU_RANK_CAP))
    return PsiXiTauReport(
        psi_xi_identity=True, dimension_checked=n * d,
        tau_well_defined=well, tau_left_linear=linear, tau_rank=rank,
        tau_target_dim=d * target, tau_bijective=bijective,
        tau_skipped=skipped)


def radford_antipode_full(H):
    """(right, S): the kernel basis of Lambda e_j = eps(e_j) Lambda over
    every basis j, and the antipode matrix read off it and the left
    integral of H* by Radford's formula, or AxiomViolation when the
    integrals are not two lines pairing to nonzero."""
    F, d, mult = H.field, H.dim, H.mult
    right = sparse_kernel(F, d, [
        *((((j, u), i), c) for i in range(d) for j in range(d)
          for u, c in mult.get((i, j), ())),
        *((((j, i), i), -e) for j, e in enumerate(H.counit) if e
          for i in range(d)),
    ])
    left = sparse_kernel(F, d, [
        *((((m, k), j), c) for m in range(d) for j, k, c in H.coprod[m]),
        *((((m, u), m), -w) for m in range(d)
          for u, w in enumerate(H.unit) if w),
    ])
    pairing = len(right) == len(left) == 1 and sum(
        (a * b for a, b in zip(right[0], left[0])), F.zero())
    if not pairing:
        raise AxiomViolation("the bialgebra admits no antipode")
    lam = [c / pairing for c in left[0]]
    cols = []
    for i in range(d):
        col = [F.zero()] * d
        for m, x in enumerate(right[0]):
            for j, k, c in H.coprod[m] if x else ():
                for u, cu in mult.get((j, i), ()):
                    col[k] = col[k] + x * c * cu * lam[u]
        cols.append(col)
    return right, Matrix.from_cols(F, cols)


def qbinom(n, i, q):
    """Gaussian binomial coefficient [n choose i]_q.

    q may be an int, Fraction or any field element; the result has the
    same type.  Built from the q-Pascal recurrence
    [n i] = [n-1 i-1] + q^i [n-1 i].
    """
    if i < 0 or i > n:
        raise ValueError("q-binomial index out of range")
    one = 1 if isinstance(q, int) else q ** 0
    row = [one]
    for m in range(1, n + 1):
        new = [one]
        qpow = one
        for j in range(1, m):
            qpow = qpow * q
            new.append(row[j - 1] + qpow * row[j])
        new.append(one)
        row = new
    return row[i]


def tensor_square_product(H, A, B):
    """Product in H (x) H of sparse elements given as dicts
    (i, j) -> coefficient."""
    return tensor_product(H.mult, H.mult, A, B)


def left_cosets(G, indices):
    """Partition of the group G into the left cosets g*S of the subgroup
    S given by its element indices."""
    s = sorted(set(indices))
    tab = G.table()
    seen = set()
    cosets = []
    for g in range(len(G.elements)):
        if g in seen:
            continue
        coset = sorted(tab[g][h] for h in s)
        seen.update(coset)
        cosets.append(coset)
    return cosets


def composition_table(G):
    """table[i][j] = index of G[i] * G[j], with all |G|^2 products
    composed exactly and looked up by key."""
    return [[G.index(a * b) for b in G.elements] for a in G.elements]


def exhaustive_hopf_check(H):
    """Raise AxiomViolation naming the first axiom H breaks."""
    F = H.field
    d = H.dim
    mult = H.mult
    one = {u: c for u, c in enumerate(H.unit) if c}
    for i in range(d):
        e = {i: F.one()}
        if (sparse_product(mult, one, e) != e
                or sparse_product(mult, e, one) != e):
            raise AxiomViolation("unit law fails at basis %d" % i)
    for i in range(d):
        for j in range(d):
            ij = H.basis_product(i, j)
            for k in range(d):
                jk = H.basis_product(j, k)
                left = lincomb(
                    (u, c * cu)
                    for l, c in ij for u, cu in mult.get((l, k), ())
                )
                right = lincomb(
                    (u, c * cu)
                    for l, c in jk for u, cu in mult.get((i, l), ())
                )
                if left != right:
                    raise AxiomViolation(
                        "associativity fails at (%d, %d, %d)" % (i, j, k)
                    )
    if H.counit_of(H.unit) != F.one():
        raise AxiomViolation("counit of the unit is not 1")
    for i in range(d):
        terms = H.coprod[i]
        left = lincomb((k, c * H.counit[j]) for j, k, c in terms)
        right = lincomb((j, c * H.counit[k]) for j, k, c in terms)
        e = {i: F.one()}
        if left != e or right != e:
            raise AxiomViolation("counit law fails at basis %d" % i)
    for i in range(d):
        terms = H.coprod[i]
        left = lincomb(
            ((a, b, k), c * cc)
            for j, k, c in terms for a, b, cc in H.coprod[j]
        )
        right = lincomb(
            ((j, a, b), c * cc)
            for j, k, c in terms for a, b, cc in H.coprod[k]
        )
        if left != right:
            raise AxiomViolation("coassociativity fails at basis %d" % i)
    delta_one = lincomb(
        ((j, k), ci * c)
        for i, ci in one.items() for j, k, c in H.coprod[i]
    )
    unit_sparse = {
        (j, k): cj * ck for j, cj in one.items() for k, ck in one.items()
    }
    if delta_one != unit_sparse:
        raise AxiomViolation("coproduct of the unit is not 1 (x) 1")
    deltas = [H.coproduct_sparse(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            want = lincomb(
                ((a, b), c * cc)
                for k, c in H.basis_product(i, j)
                for a, b, cc in H.coprod[k]
            )
            if tensor_product(mult, mult, deltas[i], deltas[j]) != want:
                raise AxiomViolation(
                    "coproduct is not multiplicative at (%d, %d)" % (i, j)
                )
    for i in range(d):
        for j in range(d):
            eps = sum((c * H.counit[k] for k, c in H.basis_product(i, j)),
                      F.zero())
            if eps != H.counit[i] * H.counit[j]:
                raise AxiomViolation(
                    "counit is not multiplicative at (%d, %d)" % (i, j)
                )
    S = [
        {u: c for u, c in enumerate(H.antipode.col(j)) if c}
        for j in range(d)
    ]
    for i in range(d):
        left = lincomb(
            (u, c * s * cu)
            for j, k, c in H.coprod[i]
            for l, s in S[j].items()
            for u, cu in mult.get((l, k), ())
        )
        right = lincomb(
            (u, c * s * cu)
            for j, k, c in H.coprod[i]
            for l, s in S[k].items()
            for u, cu in mult.get((j, l), ())
        )
        want = lincomb((u, H.counit[i] * c) for u, c in one.items())
        if left != want or right != want:
            raise AxiomViolation("antipode identity fails at basis %d" % i)


def tower_ints(x):
    """An element of a finite tower as nested tuples of ints: its value
    in the prime field, or the tuple of its coordinates' tuples."""
    coords = getattr(x, "coords", None)
    return x.value if coords is None else tuple(tower_ints(c) for c in coords)


class TowerArithmetic:
    """Sums and products in a finite tower F over GF(p) on the nested
    int tuples of ``tower_ints``: coordinatewise sums, and products by
    convolution followed by reduction with x^d = -(r_0 + ... + r_{d-1}
    x^{d-1}) for the layer's monic relation, from the top degree down."""

    def __init__(self, F):
        self.relations = []
        while hasattr(F, "relation"):
            rel = [tower_ints(c) for c in F.relation.coeffs]
            self.relations.insert(0, rel)
            F = F.base
        self.p = F.p
        self.depth = len(self.relations)

    def zero(self, level):
        if level == 0:
            return 0
        return (self.zero(level - 1),) * (len(self.relations[level - 1]) - 1)

    def add(self, a, b, level=None):
        level = self.depth if level is None else level
        if level == 0:
            return (a + b) % self.p
        return tuple(self.add(x, y, level - 1) for x, y in zip(a, b))

    def neg(self, a, level=None):
        level = self.depth if level is None else level
        if level == 0:
            return -a % self.p
        return tuple(self.neg(x, level - 1) for x in a)

    def mul(self, a, b, level=None):
        level = self.depth if level is None else level
        if level == 0:
            return a * b % self.p
        below = level - 1
        rel = self.relations[below]
        d = len(rel) - 1
        conv = [self.zero(below)] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] = self.add(conv[i + j], self.mul(x, y, below),
                                       below)
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            for i in range(d):
                conv[k - d + i] = self.add(
                    conv[k - d + i],
                    self.neg(self.mul(c, rel[i], below), below), below)
        return tuple(conv[:d])


class TowerPolynomials:
    """Schoolbook polynomial arithmetic over a finite tower (or a finite
    ring given by unvalidated relations) on lists of ``tower_ints``
    values, low degree first and trimmed, with ``TowerArithmetic`` for
    the coefficients: products by convolution; division by the leading
    coefficient's inverse, taken as c^(q-2) and checked, so a leading
    zero divisor raises ZeroDivisionError when there is a quotient; the Euclidean gcd made monic;
    modular powers by binary powering."""

    def __init__(self, F):
        self.ar = TowerArithmetic(F)
        self.zero = self.ar.zero(self.ar.depth)
        self.one = tower_ints(F.one())
        self.q = F.finite_size

    def trim(self, a):
        a = list(a)
        while a and a[-1] == self.zero:
            a.pop()
        return a

    def mul(self, a, b):
        if not a or not b:
            return []
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.ar.add(out[i + j], self.ar.mul(x, y))
        return self.trim(out)

    def inverse(self, c):
        out, x, n = self.one, c, self.q - 2
        while n:
            if n & 1:
                out = self.ar.mul(out, x)
            x, n = self.ar.mul(x, x), n >> 1
        if self.ar.mul(out, c) != self.one:
            raise ZeroDivisionError("%r is not a unit" % (c,))
        return out

    def divmod(self, a, b):
        if len(a) < len(b):
            return [], self.trim(a)
        inv = self.inverse(b[-1])
        rem, db = list(a), len(b) - 1
        quo = [self.zero] * max(len(a) - db, 0)
        for k in range(len(quo) - 1, -1, -1):
            c = quo[k] = self.ar.mul(rem[db + k], inv)
            for j, y in enumerate(b):
                rem[j + k] = self.ar.add(rem[j + k],
                                         self.ar.neg(self.ar.mul(c, y)))
        return self.trim(quo), self.trim(rem[:db])

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.divmod(a, a[-1:])[0] if a else a

    def pow_mod(self, a, n, m):
        out, a = [self.one], self.divmod(a, m)[1]
        while n:
            if n & 1:
                out = self.divmod(self.mul(out, a), m)[1]
            a, n = self.divmod(self.mul(a, a), m)[1], n >> 1
        return out
