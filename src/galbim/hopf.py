"""Finite dimensional Hopf algebras given by sparse structure tensors.

A Hopf algebra of dimension d over an exact base field is stored
through a distinguished basis: a sparse multiplication table
(i, j) -> ((k, c), ...), a unit vector, a sparse coproduct
i -> ((j, k, c), ...), a counit vector and an antipode matrix whose
columns are the antipode images of the basis.  All five axiom families
(associativity and unit, coassociativity and counit, bialgebra
compatibility, antipode identity on both sides) are verified at
construction; the product laws take a generator as left factor only,
because the x with (x y) z = x (y z) for all y, z form a subalgebra
holding 1, and so, given associativity, Delta(1) = 1 (x) 1 and
eps(1) = 1, do the x with Delta(x y) = Delta(x) Delta(y) (or eps) for
all y.  The one exception is ``dual``: the axioms are self-dual, so it
inherits its input's check.

Sparse elements, here and in ``coact``, are dicts from a basis key to
a nonzero coefficient; a missing key means zero.  ``lincomb`` enforces
that convention: every sparse sum goes through it, and so do the
products on structure constants built from it, ``sparse_product`` and
``tensor_product``.  Structure constants given by a caller, here and
in ``coact.finite_coaction``, are normalised and range-checked once,
by ``structure_table``.

The antipode is never guessed: when not supplied it is read off the
two integral lines, kernels found by ``sparse_kernel``, by Radford's
formula (Radford, *Hopf Algebras*, 2012, ch. 10); a bialgebra whose
integrals are not lines pairing to nonzero has none (Larson and
Sweedler, Amer. J. Math. 91, 1969).  The antipode is unique.
"""

from __future__ import annotations

from .errors import (
    AxiomViolation,
    NotModuleAlgebra,
    NotPrimitiveRoot,
    UnsupportedBase,
)
from .matrix import Echelon, Matrix


def lincomb(terms):
    """Sum of (key, coefficient) terms as a sparse dict: each key maps
    to the total of its coefficients, and zero totals are dropped."""
    out = {}
    for key, c in terms:
        if key in out:
            out[key] += c
        else:
            out[key] = c
    return {key: c for key, c in out.items() if c}


def basis_index(what, i, dim):
    """int(i), or ValueError naming it when it is not a basis index of
    a dim-dimensional algebra."""
    i = int(i)
    if not 0 <= i < dim:
        raise ValueError("%s index %d outside range(%d)" % (what, i, dim))
    return i


def structure_table(field, mult, dim):
    """The structure constants ``mult`` of a dim-dimensional algebra
    over ``field``, normalised: (i, j) -> ((k, c), ...) with the c
    coerced and summed by ``lincomb``, sorted by k, and the pairs whose
    product vanishes dropped.  Every i, j and product index k is
    checked by ``basis_index``."""
    table = {}
    for (i, j), terms in dict(mult).items():
        i, j = basis_index("factor", i, dim), basis_index("factor", j, dim)
        terms = lincomb((basis_index("product", k, dim), field.coerce(c))
                        for k, c in terms)
        if terms:
            table[(i, j)] = tuple(sorted(terms.items()))
    return table


def sparse_product(mult, x, y):
    """x * y for sparse x and y under the structure constants ``mult``,
    a dict (i, j) -> ((k, c), ...) whose missing pairs multiply to 0."""
    return lincomb(
        (k, xi * yj * c)
        for i, xi in x.items()
        for j, yj in y.items()
        for k, c in mult.get((i, j), ())
    )


def tensor_product(mult_a, mult_b, x, y):
    """x * y in A (x) B for sparse x and y keyed by (a, b) pairs, with
    A and B given by their structure constants as in sparse_product."""
    return lincomb(
        ((u, v), cx * cy * cu * cv)
        for (a, b), cx in x.items()
        for (c, e), cy in y.items()
        for u, cu in mult_a.get((a, c), ())
        for v, cv in mult_b.get((b, e), ())
    )


def sparse_kernel(field, dim, entries):
    """Basis of the right kernel, as lists, of the matrix with dim
    columns whose entries are given as ((row, column), coefficient)
    terms, summed by ``lincomb``.  Rows may be any hashable keys; a row
    left without a nonzero entry drops out, which the kernel ignores."""
    rows, zero = {}, field.zero()
    for (row, col), c in lincomb(entries).items():
        rows.setdefault(row, [zero] * dim)[col] = c
    return Matrix(field, list(rows.values()), ncols=dim).kernel()


class HopfAlgebra:
    """Hopf algebra with a named basis and verified structure tensors."""

    __slots__ = ("field", "dim", "names", "mult", "coprod", "counit",
                 "unit", "antipode", "_gens")

    def __init__(self, field, names, mult, coprod, counit, unit,
                 antipode=None, check=True):
        self.field = field
        self.names = list(names)
        d = len(self.names)
        self.dim = d
        self.mult = structure_table(field, mult, d)
        if len(coprod) != d:
            raise ValueError("need one coproduct entry per basis element")
        self.coprod = [
            tuple((j, k, c) for (j, k), c in sorted(lincomb(
                ((basis_index("coproduct leg", j, d),
                  basis_index("coproduct leg", k, d)), field.coerce(c))
                for j, k, c in terms
            ).items()))
            for terms in coprod
        ]
        if len(counit) != d or len(unit) != d:
            raise ValueError("counit and unit must have length dim")
        self.counit = [field.coerce(c) for c in counit]
        self.unit = [field.coerce(c) for c in unit]
        self._gens = None
        if antipode is None:
            self.antipode = self._solve_antipode()
        else:
            self.antipode = antipode.map_entries(field.coerce, field)
        if check:
            self._verify()

    # ------------------------------------------------------- arithmetic

    def basis_product(self, i, j):
        """Sparse product of two basis elements."""
        return self.mult.get((i, j), ())

    def multiply(self, x, y):
        """Product of dense coordinate vectors."""
        prod = sparse_product(
            self.mult,
            {i: c for i, c in enumerate(x) if c},
            {j: c for j, c in enumerate(y) if c},
        )
        zero = self.field.zero()
        return [prod.get(k, zero) for k in range(self.dim)]

    def basis_vector(self, i):
        F = self.field
        out = [F.zero()] * self.dim
        out[i] = F.one()
        return out

    def counit_of(self, x):
        F = self.field
        out = F.zero()
        for c, e in zip(x, self.counit):
            if c and e:
                out = out + c * e
        return out

    def coproduct_sparse(self, i):
        return {(j, k): c for j, k, c in self.coprod[i]}

    def is_semisimple(self):
        """Characteristic-zero trace criterion on the antipode square."""
        if self.field.characteristic != 0:
            raise UnsupportedBase(
                "the trace criterion decides semisimplicity only in "
                "characteristic zero"
            )
        S2 = self.antipode * self.antipode
        return bool(S2.trace())

    def structure_key(self):
        """Canonical hashable form of all structure tensors."""
        return (
            tuple(sorted(self.mult.items())),
            tuple(self.coprod),
            tuple(self.counit),
            tuple(self.unit),
            tuple(tuple(r) for r in self.antipode.rows),
        )

    # ------------------------------------------------------ verification

    def _verify(self):
        F = self.field
        d = self.dim
        mult = self.mult
        one = {u: c for u, c in enumerate(self.unit) if c}
        # unit laws
        for i in range(d):
            e = {i: F.one()}
            if (sparse_product(mult, one, e) != e
                    or sparse_product(mult, e, one) != e):
                raise AxiomViolation("unit law fails at basis %d" % i)
        # associativity with a generator as left factor (module docstring)
        gens = self._generators()
        for i in gens:
            for j in range(d):
                ij = self.basis_product(i, j)
                for k in range(d):
                    jk = self.basis_product(j, k)
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
                            "associativity fails at (%d, %d, %d)"
                            % (i, j, k)
                        )
        # counit laws
        if self.counit_of(self.unit) != F.one():
            raise AxiomViolation("counit of the unit is not 1")
        for i in range(d):
            terms = self.coprod[i]
            left = lincomb((k, c * self.counit[j]) for j, k, c in terms)
            right = lincomb((j, c * self.counit[k]) for j, k, c in terms)
            e = {i: F.one()}
            if left != e or right != e:
                raise AxiomViolation("counit law fails at basis %d" % i)
        # coassociativity, sparse 3-tensors
        for i in range(d):
            terms = self.coprod[i]
            left = lincomb(
                ((a, b, k), c * cc)
                for j, k, c in terms for a, b, cc in self.coprod[j]
            )
            right = lincomb(
                ((j, a, b), c * cc)
                for j, k, c in terms for a, b, cc in self.coprod[k]
            )
            if left != right:
                raise AxiomViolation(
                    "coassociativity fails at basis %d" % i
                )
        # bialgebra compatibility
        delta_one = lincomb(
            ((j, k), ci * c)
            for i, ci in one.items() for j, k, c in self.coprod[i]
        )
        unit_sparse = {
            (j, k): cj * ck for j, cj in one.items() for k, ck in one.items()
        }
        if delta_one != unit_sparse:
            raise AxiomViolation("coproduct of the unit is not 1 (x) 1")
        # Delta on every pair before eps on any, so the law named does not
        # depend on which pairs are checked
        deltas = [self.coproduct_sparse(i) for i in range(d)]
        for i in gens:
            for j in range(d):
                ij = self.basis_product(i, j)
                want = lincomb(
                    ((a, b), c * cc)
                    for k, c in ij for a, b, cc in self.coprod[k]
                )
                if tensor_product(mult, mult, deltas[i], deltas[j]) != want:
                    raise AxiomViolation(
                        "coproduct is not multiplicative at (%d, %d)"
                        % (i, j)
                    )
        for i in gens:
            for j in range(d):
                ij = self.basis_product(i, j)
                eps = sum((c * self.counit[k] for k, c in ij), F.zero())
                if eps != self.counit[i] * self.counit[j]:
                    raise AxiomViolation(
                        "counit is not multiplicative at (%d, %d)"
                        % (i, j)
                    )
        # antipode identity on both sides
        S = [
            {u: c for u, c in enumerate(self.antipode.col(j)) if c}
            for j in range(d)
        ]
        for i in range(d):
            left = lincomb(
                (u, c * s * cu)
                for j, k, c in self.coprod[i]
                for l, s in S[j].items()
                for u, cu in mult.get((l, k), ())
            )
            right = lincomb(
                (u, c * s * cu)
                for j, k, c in self.coprod[i]
                for l, s in S[k].items()
                for u, cu in mult.get((j, l), ())
            )
            want = lincomb((u, self.counit[i] * c) for u, c in one.items())
            if left != want or right != want:
                raise AxiomViolation(
                    "antipode identity fails at basis %d" % i
                )

    def _generators(self):
        """Basis indices, each outside the span of 1 closed under left
        multiplication by those before; the last closure is everything.
        Computed once, for ``_solve_antipode`` and ``_verify`` alike."""
        if self._gens is not None:
            return self._gens
        span = Echelon(self.field)
        span.insert(self.unit)
        gens, vecs = [], [self.unit]
        for i in range(self.dim):
            e = self.basis_vector(i)
            if span.insert(e):
                gens.append(i)
                vecs.append(e)
                for v in vecs:  # grows while it is walked
                    for g in gens:
                        w = self.multiply(self.basis_vector(g), v)
                        if span.insert(w):
                            vecs.append(w)
        self._gens = gens
        return gens

    # ------------------------------------------------------ the antipode

    def _solve_antipode(self):
        """S(e_i) = sum of c lambda(e_j e_i) e_k over the legs (j, k, c)
        of Delta(Lambda) (Radford's formula), for the right integral
        Lambda e_j = eps(e_j) Lambda of H and the left integral
        sum lambda(h_1) h_2 = lambda(h) 1 of H*, scaled so that
        lambda(Lambda) = 1.  The right integral is solved against the
        generators e_j only: {h : Lambda h = eps(h) Lambda} holds 1 and
        is closed under products when H is associative and eps is
        multiplicative, and the generators' closure spans H.  Only
        ``_verify`` checks those laws, and the result, so ``check=False``
        without an antipode leaves it unchecked."""
        F, d, mult = self.field, self.dim, self.mult
        gens = self._generators()
        right = sparse_kernel(F, d, [
            *((((j, u), i), c) for i in range(d) for j in gens
              for u, c in mult.get((i, j), ())),
            *((((j, i), i), -self.counit[j]) for j in gens if self.counit[j]
              for i in range(d)),
        ])
        left = sparse_kernel(F, d, [
            *((((m, k), j), c) for m in range(d)
              for j, k, c in self.coprod[m]),
            *((((m, u), m), -w) for m in range(d)
              for u, w in enumerate(self.unit) if w),
        ])
        pairing = len(right) == len(left) == 1 and sum(
            (a * b for a, b in zip(right[0], left[0]) if a and b), F.zero())
        if not pairing:
            raise AxiomViolation(
                "the bialgebra admits no antipode: its integrals span %d "
                "and %d dimensions, not two lines pairing to nonzero"
                % (len(right), len(left))
            )
        lam = {u: c / pairing for u, c in enumerate(left[0]) if c}
        delta = lincomb(((j, k), x * c) for m, x in enumerate(right[0]) if x
                        for j, k, c in self.coprod[m])
        cols = [lincomb((k, c * cu * lam[u]) for (j, k), c in delta.items()
                        for u, cu in mult.get((j, i), ()) if u in lam)
                for i in range(d)]
        return Matrix.from_cols(F, [[col.get(k, F.zero()) for k in range(d)]
                                    for col in cols])


# ----------------------------------------------------------- constructors


def group_algebra(field, table) -> HopfAlgebra:
    """Hopf algebra of a finite group given by its composition table
    (table[i][j] = index of the product); group-like coproduct."""
    n = len(table)
    identity = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("composition table has no identity element")
    one = field.one()
    mult = {
        (i, j): ((table[i][j], one),) for i in range(n) for j in range(n)
    }
    coprod = [((i, i, one),) for i in range(n)]
    counit = [one] * n
    unit = [field.zero()] * n
    unit[identity] = one
    names = ["1" if i == identity else "g%d" % i for i in range(n)]
    return HopfAlgebra(field, names, mult, coprod, counit, unit)


def dual(H: HopfAlgebra) -> HopfAlgebra:
    """Dual Hopf algebra on the dual basis: multiplication and
    coproduct tensors swap roles, the antipode transposes.  Not verified
    again: the dual of a verified Hopf algebra satisfies every axiom."""
    F = H.field
    d = H.dim
    mult = {}
    for i, terms in enumerate(H.coprod):
        for j, k, c in terms:
            mult.setdefault((j, k), []).append((i, c))
    coprod = [[] for _ in range(d)]
    for (j, k), terms in H.mult.items():
        for i, c in terms:
            coprod[i].append((j, k, c))
    names = [name + "*" for name in H.names]
    return HopfAlgebra(
        F, names, mult, coprod,
        counit=list(H.unit), unit=list(H.counit),
        antipode=H.antipode.transpose(), check=False,
    )


def taft(field, m, n, q) -> HopfAlgebra:
    """Generalized Taft algebra of dimension m^2 n: basis g^a x^b with
    a < mn, b < m, relations g^{mn} = 1, g x = q x g, x^m = g^m - 1,
    group-like g and skew-primitive x."""
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    q = field.coerce(q)
    if q ** m != field.one():
        raise NotPrimitiveRoot("q^m != 1")
    for k in range(1, m):
        if q ** k == field.one():
            raise NotPrimitiveRoot("q has order smaller than %d" % m)
    F = field
    one = F.one()
    mn = m * n
    d = m * m * n

    def idx(a, b):
        return a * m + b

    def name(a, b):
        parts = []
        if a == 1:
            parts.append("g")
        elif a > 1:
            parts.append("g^%d" % a)
        if b == 1:
            parts.append("x")
        elif b > 1:
            parts.append("x^%d" % b)
        return " ".join(parts) or "1"

    names_h = [name(a, b) for a in range(mn) for b in range(m)]
    mult = {}
    for a in range(mn):
        for b in range(m):
            for c in range(mn):
                for e in range(m):
                    # x^b g^c = q^{-bc} g^c x^b, then reduce x^m
                    s = q ** ((-b * c) % m)
                    be = b + e
                    if be < m:
                        terms = (((idx((a + c) % mn, be)), s),)
                    else:
                        be -= m
                        terms = (
                            (idx((a + c + m) % mn, be), s),
                            (idx((a + c) % mn, be), -s),
                        )
                    mult[(idx(a, b), idx(c, e))] = terms

    g = idx(1, 0)
    x = idx(0, 1)
    unit = [F.zero()] * d
    unit[idx(0, 0)] = one
    counit = [one if b == 0 else F.zero()
              for a in range(mn) for b in range(m)]

    delta_g = {(g, g): one}
    delta_x = {(x, g): one, (idx(0, 0), x): one}
    coprod = []
    for a in range(mn):
        for b in range(m):
            acc = {(idx(0, 0), idx(0, 0)): one}
            for _ in range(a):
                acc = tensor_product(mult, mult, acc, delta_g)
            for _ in range(b):
                acc = tensor_product(mult, mult, acc, delta_x)
            coprod.append([(j, k, c) for (j, k), c in acc.items()])
    return HopfAlgebra(F, names_h, mult, coprod, counit, unit)


def nichols16(field) -> HopfAlgebra:
    """Sixteen dimensional Nichols Hopf algebra: g of order two, three
    skew-primitive anticommuting square-zero generators."""
    if field.characteristic != 0:
        raise UnsupportedBase(
            "this Hopf algebra is defined over characteristic zero"
        )
    F = field
    one = F.one()
    d = 16

    def idx(a, bits):
        return a * 8 + bits

    def bits_list(bits):
        return [i for i in range(3) if bits & (1 << i)]

    def name(a, bits):
        parts = (["g"] if a else []) + [
            "x%d" % i for i in bits_list(bits)
        ]
        return " ".join(parts) or "1"

    def sign_merge(sbits, tbits):
        # sort the concatenation of the two ascending runs
        inv = 0
        for s in bits_list(sbits):
            for t in bits_list(tbits):
                if s > t:
                    inv += 1
        return -one if inv % 2 else one

    names = [name(a, bits) for a in range(2) for bits in range(8)]
    mult = {}
    for a in range(2):
        for sb in range(8):
            for c in range(2):
                for tb in range(8):
                    if sb & tb:
                        continue
                    s = one
                    if c and bin(sb).count("1") % 2:
                        s = -s
                    s = s * sign_merge(sb, tb)
                    mult[(idx(a, sb), idx(c, tb))] = (
                        (idx((a + c) % 2, sb | tb), s),
                    )

    g = idx(1, 0)
    e0 = idx(0, 0)
    delta_g = {(g, g): one}
    coprod = []
    for a in range(2):
        for bits in range(8):
            acc = {(e0, e0): one}
            for _ in range(a):
                acc = tensor_product(mult, mult, acc, delta_g)
            for i in bits_list(bits):
                xi = idx(0, 1 << i)
                dxi = {(e0, xi): one, (xi, g): one}
                acc = tensor_product(mult, mult, acc, dxi)
            coprod.append([(j, k, c) for (j, k), c in acc.items()])
    counit = [one if bits == 0 else F.zero()
              for a in range(2) for bits in range(8)]
    unit = [F.zero()] * d
    unit[e0] = one
    return HopfAlgebra(F, names, mult, coprod, counit, unit)


# -------------------------------------------------- action to coaction


def action_to_coaction(H: HopfAlgebra, action, algebra_mult,
                       algebra_unit):
    """Convert a module-algebra action into a coaction of the dual.

    ``action`` lists one matrix per basis element of H acting on the
    algebra's coordinate space; ``algebra_mult`` is the sparse
    multiplication table of the algebra and ``algebra_unit`` its unit
    vector.  Returns (dual Hopf algebra, rho) with rho the sparse
    coaction a_s |-> sum_t,i rho[s][(t, i)] a_t (x) e^i, i.e.
    rho(a) = sum_i (e_i . a) (x) e^i.  The module-algebra laws are
    checked as the comodule-algebra laws of rho by
    ``coact.verify_coaction``; a failure raises NotModuleAlgebra with
    the failing law's message."""
    from .coact import finite_coaction, verify_coaction

    d = H.dim
    dA = len(algebra_unit)
    if len(action) != d:
        raise ValueError("need one action matrix per basis element")
    cols = [
        [{u: x for u, x in enumerate(M.col(s)) if x} for s in range(dA)]
        for M in action
    ]
    K = dual(H)
    rho = [
        lincomb(((t, i), x) for i in range(d) for t, x in cols[i][s].items())
        for s in range(dA)
    ]
    # Under rho(a) = sum_i (e_i . a) (x) e^i each module-algebra law is
    # one comodule-algebra law of rho over K = H*:
    #   1_H acts as the identity      <=> the counit law;
    #   h . 1 = eps(h) 1              <=> rho(1) = 1 (x) 1;
    #   the Leibniz rule              <=> rho is multiplicative;
    #   the action is a homomorphism  <=> coassociativity, read as
    #                                     (e_j e_i) . a = e_j . (e_i . a).
    try:
        verify_coaction(finite_coaction(K, algebra_mult, algebra_unit, rho))
    except AxiomViolation as exc:
        raise NotModuleAlgebra(
            "the action is not a module algebra: %s" % exc
        ) from exc
    return K, rho


def matrix_algebra(field, n):
    """Structure constants of the n-by-n matrix algebra.

    Basis: matrix units in row-major order, E(a, b) at index n*a + b.
    Returns (mult, unit) in the sparse tensor format used by actions
    and coactions; pairs multiplying to zero are absent.
    """
    one = field.one()
    mult = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                mult[(n * a + b, n * b + c)] = ((n * a + c, one),)
    unit = [one if a == b else field.zero()
            for a in range(n) for b in range(n)]
    return mult, unit


def adjoint_action(H: HopfAlgebra, rep):
    """Action matrices of H on Mat_n twisted by a representation.

    ``rep`` lists one n-by-n matrix over H's field per basis element of
    H, the images of an algebra map H -> Mat_n.  The adjoint action
    sends a matrix M to sum rep(h1) M rep(S(h2)) over the coproduct
    legs of h; the output lists the resulting operators on row-major
    flattened matrices, one per H basis element.  No axiom is verified
    here: feed the result to action_to_coaction, which checks them all.
    """
    F = H.field
    d = H.dim
    if len(rep) != d:
        raise ValueError("rep must list one matrix per basis element")
    n = rep[0].nrows
    rep_s = []
    for k in range(d):
        acc = Matrix.zeros(F, n)
        for l in range(d):
            c = H.antipode[l, k]
            if c:
                acc = acc + rep[l].scale(c)
        rep_s.append(acc)
    zero = F.zero()
    out = []
    for i in range(d):
        cols = []
        for a in range(n):
            for b in range(n):
                flat = [zero] * (n * n)
                for j, k, c in H.coprod[i]:
                    # rep[j] E(a, b) rep_s[k] has (r, s) entry
                    # rep[j][r, a] * rep_s[k][b, s]
                    for r in range(n):
                        lj = rep[j][r, a]
                        if not lj:
                            continue
                        row = c * lj
                        for s in range(n):
                            w = rep_s[k][b, s]
                            if w:
                                flat[n * r + s] = flat[n * r + s] + row * w
                cols.append(flat)
        out.append(Matrix.from_cols(F, cols))
    return out
