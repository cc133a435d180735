"""Comodule algebras over finite dimensional Hopf algebras.

A coaction rho: A -> A (x) K makes A a K-comodule algebra.  The
invariants A^K = {a : rho(a) = a (x) 1} form a subalgebra, and A (x) K
carries a bimodule structure over A whose center recovers the
invariants; central elements of A are integral over the invariants,
with an exact certificate read off a matrix minimal polynomial.

Three shapes of comodule algebra are supported:

* ``field``: A = L is a field presented as a one-step extension of its
  declared base B, with rho(B) = B (x) 1 built in; the coaction is
  pinned by the image of the tower generator, an element of L (x) K
  given as a sparse dictionary over the K basis.  Since rho is then the
  unique B-algebra map sending the generator there, multiplicativity
  holds by construction and only the counit law, coassociativity and
  the vanishing of the defining relation need checking.
* ``finite``: A is a finite dimensional algebra over the coefficient
  field of K, given by sparse structure constants, with rho given basis
  element by basis element; here every comodule-algebra axiom is
  checked exhaustively.
* ``truncated``: A is a polynomial ring in a few variables, acted on by
  affine substitutions and filtered by total degree; only invariant
  dimensions below a degree cap are computed.  The counterexample
  fixtures that break the integrality hypotheses live here.

Elements of L (x) K are sparse dictionaries over the K basis, with
coefficients in L, in the convention of ``hopf``: every sum of them
goes through ``lincomb``.
"""

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd

from .bimod import Bimodule
from .errors import (
    AxiomViolation,
    CoefficientEscapesZ,
    FieldMismatch,
    ResolutionError,
    UnsupportedBase,
    Violated,
)
from .fieldops import (
    cached_basis,
    kernel_over,
    locate_roots,
    splitting_field,
)
from .hopf import HopfAlgebra, lincomb, sparse_product, tensor_product
from .matrix import Echelon, Matrix
from .morphisms import AutomorphismGroup, automorphisms_over, identity_morphism
from .towers import (
    DEFAULT_TOWER_CAP,
    ExtensionField,
    algebraic_degree,
    is_layer_of,
)


class ComoduleAlgebra:
    """An algebra with a verified-on-demand coaction of a Hopf algebra.

    Build instances through ``field_coaction``, ``finite_coaction`` or
    ``truncated_action``; the constructor only stores normalized data.
    """

    __slots__ = (
        "kind", "hopf", "field", "base", "rho_gen",
        "mult", "unit", "rho",
        "nvars", "substitutions", "pairs",
        "_bimodule", "_invariants",
    )

    def __init__(self, kind):
        self.kind = kind
        self.hopf = None
        self.field = None
        self.base = None
        self.rho_gen = None
        self.mult = None
        self.unit = None
        self.rho = None
        self.nvars = None
        self.substitutions = None
        self.pairs = None
        self._bimodule = None
        self._invariants = None

    def __repr__(self):
        if self.kind == "field":
            return "<coaction of a %d-dimensional Hopf algebra on %r>" % (
                self.hopf.dim, self.field)
        if self.kind == "finite":
            return "<coaction of a %d-dimensional Hopf algebra on a %d-dimensional algebra>" % (
                self.hopf.dim, len(self.unit))
        return "<substitution action on a polynomial ring in %d variables>" % (
            self.nvars,)


def field_coaction(L, K, rho_gen):
    """Coaction on a field, pinned by the image of its generator.

    ``L`` must be a one-step extension of its declared base; ``rho_gen``
    maps K basis indices to the L coefficients of rho(generator).  The
    base coacts trivially: rho(b) = b (x) 1 for b in the base layer.
    """
    if not isinstance(L, ExtensionField):
        raise UnsupportedBase(
            "the field kind needs a finite extension presentation"
        )
    if not isinstance(K, HopfAlgebra):
        raise FieldMismatch("K must be a Hopf algebra")
    C = ComoduleAlgebra("field")
    C.hopf = K
    C.field = L
    C.base = L.base
    gen_image = {}
    for t, c in dict(rho_gen).items():
        t = int(t)
        if not 0 <= t < K.dim:
            raise ValueError("coaction leg %d outside the Hopf basis" % t)
        c = L.coerce(c)
        if c:
            gen_image[t] = c
    C.rho_gen = gen_image
    return C


def finite_coaction(K, mult, unit, rho):
    """Coaction on a finite dimensional algebra over K's field.

    ``mult`` is a sparse structure tensor (i, j) -> ((k, c), ...) with
    missing pairs multiplying to zero, ``unit`` the dense coordinate
    list of 1, and ``rho`` a list of sparse dictionaries, one per basis
    element, mapping (algebra index, K index) to a coefficient.
    """
    if not isinstance(K, HopfAlgebra):
        raise FieldMismatch("K must be a Hopf algebra")
    F = K.field
    unit = [F.coerce(c) for c in unit]
    n = len(unit)
    if len(rho) != n:
        raise ValueError("rho must list one image per algebra basis element")
    C = ComoduleAlgebra("finite")
    C.hopf = K
    C.field = F
    table = {}
    for (i, j), terms in dict(mult).items():
        cleaned = lincomb((int(k), F.coerce(c)) for k, c in terms)
        if cleaned:
            table[(int(i), int(j))] = tuple(sorted(cleaned.items()))
    C.mult = table
    C.unit = unit
    C.rho = [
        lincomb(((int(t), int(i)), F.coerce(c))
                for (t, i), c in dict(rho[s]).items())
        for s in range(n)
    ]
    return C


def truncated_action(field, nvars, substitutions, pairs=()):
    """Substitution action on a polynomial ring in ``nvars`` variables.

    Each substitution is a tuple of ``nvars`` sparse polynomials
    (dictionaries exponent-tuple -> coefficient) of total degree at
    most one, so that composing never raises the degree.  ``pairs``
    lists extra (left, right) substitution tuples whose composites are
    equated instead of being compared with the identity; constants are
    allowed there, which is how evaluation conditions like
    f(0, y) = f(1, y) enter.
    """
    C = ComoduleAlgebra("truncated")
    C.field = field
    C.nvars = int(nvars)
    C.substitutions = tuple(
        _norm_substitution(field, nvars, s) for s in substitutions
    )
    C.pairs = tuple(
        (_norm_substitution(field, nvars, a),
         _norm_substitution(field, nvars, b))
        for a, b in pairs
    )
    return C


# ------------------------------------------------ L (x) K arithmetic

def _tk_mul(C, a, b):
    """Product in L (x) K; coefficients multiply in L, legs in K."""
    return sparse_product(C.hopf.mult, a, b)


def _tk_const(C, a):
    """a (x) 1 for a in L (or a lower layer)."""
    a = C.field.coerce(a)
    return lincomb((t, a * w) for t, w in enumerate(C.hopf.unit) if w)


def _at_rho_gen(C, coeffs):
    """sum_j coeffs[j] rho(z)^j by Horner, for z the tower generator."""
    acc = {}
    for c in reversed(coeffs):
        acc = lincomb([
            *_tk_mul(C, acc, C.rho_gen).items(), *_tk_const(C, c).items()
        ])
    return acc


def _rho_powers(C, count):
    """[rho(z)^0, ..., rho(z)^(count - 1)] for z the tower generator."""
    powers = [_tk_const(C, C.field.one())]
    for _ in range(count - 1):
        powers.append(_tk_mul(C, powers[-1], C.rho_gen))
    return powers


def coact_element(C, a):
    """rho(a) for any element of L, as a sparse L (x) K dictionary.

    rho is the unique algebra map over the base sending the generator
    to the stored image, so this is Horner evaluation of the coordinate
    polynomial of ``a`` at that image.
    """
    if C.kind != "field":
        raise UnsupportedBase("coact_element needs the field kind")
    return _at_rho_gen(C, C.field.coerce(a).coords)


def _apply_second_leg(C, tk, M):
    """Push a K-endomorphism (columns = images) through the K leg."""
    return lincomb(
        (u, c * w) for t, c in tk.items()
        for u, w in enumerate(M.col(t)) if w
    )


# ------------------------------------------------------- verification

@dataclass(frozen=True)
class CoactionReport:
    kind: str
    counit_checked: int
    coassociativity_checked: int
    multiplicativity_checked: int
    relation_image: tuple


def verify_coaction(C):
    """Check the comodule-algebra axioms exactly.

    Field kind: the counit law and coassociativity are checked on the
    tower generator (both sides are algebra maps over the base, so the
    generator decides them), and the defining relation of the generator
    must map to zero in L (x) K; the relation expansion is returned in
    the report.  Finite kind: every law on every basis tuple, not on the
    generators of A as in HopfAlgebra, since that needs A associative,
    which is not checked.  Raises AxiomViolation naming the failing law.
    """
    if C.kind == "field":
        return _verify_field(C)
    if C.kind == "finite":
        return _verify_finite(C)
    raise UnsupportedBase("the truncated kind has no coaction to verify")


def _verify_field(C):
    L, K = C.field, C.hopf
    z = L.gen()
    R = C.rho_gen

    eps = L.zero()
    for t, c in R.items():
        eps = eps + c * L.coerce(K.counit[t])
    if eps != L.coerce(z):
        raise AxiomViolation(
            "counit law fails on the generator: (1 (x) eps)rho sends it to %r"
            % (eps,)
        )

    lhs = lincomb(
        ((s, t), e) for t, c in R.items()
        for s, e in coact_element(C, c).items()
    )
    rhs = lincomb(
        ((j, k), c * w) for t, c in R.items() for j, k, w in K.coprod[t]
    )
    if lhs != rhs:
        raise AxiomViolation("coassociativity fails on the generator")

    image = _at_rho_gen(C, L.relation.coeffs)
    if image:
        raise AxiomViolation(
            "the coaction does not annihilate the defining relation; "
            "nonzero legs at %s" % (sorted(image),)
        )
    return CoactionReport(
        kind="field",
        counit_checked=1,
        coassociativity_checked=1,
        multiplicativity_checked=0,
        relation_image=tuple(sorted(image.items())),
    )


def _verify_finite(C):
    K, F = C.hopf, C.field
    n = len(C.unit)

    one_image = lincomb(
        (key, c * w) for s, c in enumerate(C.unit)
        for key, w in C.rho[s].items()
    )
    expected = lincomb(
        ((t, i), a * F.coerce(b)) for t, a in enumerate(C.unit)
        for i, b in enumerate(K.unit)
    )
    if one_image != expected:
        raise AxiomViolation("the coaction does not send 1 to 1 (x) 1")

    for s in range(n):
        back = lincomb(
            (t, c * F.coerce(K.counit[i])) for (t, i), c in C.rho[s].items()
        )
        if back != {s: F.one()}:
            raise AxiomViolation(
                "counit law fails on basis element %d" % s
            )

    pairs = 0
    for s in range(n):
        for t in range(n):
            left = tensor_product(C.mult, K.mult, C.rho[s], C.rho[t])
            right = lincomb(
                (key, m * c) for v, m in C.mult.get((s, t), ())
                for key, c in C.rho[v].items()
            )
            if left != right:
                raise AxiomViolation(
                    "the coaction is not multiplicative on the basis "
                    "pair (%d, %d)" % (s, t)
                )
            pairs += 1

    for s in range(n):
        lhs = lincomb(
            ((u, j, i), c * e) for (t, i), c in C.rho[s].items()
            for (u, j), e in C.rho[t].items()
        )
        rhs = lincomb(
            ((t, j, k), c * F.coerce(w)) for (t, i), c in C.rho[s].items()
            for j, k, w in K.coprod[i]
        )
        if lhs != rhs:
            raise AxiomViolation(
                "coassociativity fails on basis element %d" % s
            )

    return CoactionReport(
        kind="finite",
        counit_checked=n,
        coassociativity_checked=n,
        multiplicativity_checked=pairs,
        relation_image=(),
    )


# --------------------------------------------------------- invariants

def invariants(C):
    """Basis of the invariant subalgebra {a : rho(a) = a (x) 1}.

    Field kind: a list of elements of L forming a basis of the
    invariant subfield over the base.  Finite kind: a list of
    coordinate vectors.  Closure under products is re-checked on the
    computed basis.
    """
    if C._invariants is not None:
        return C._invariants
    if C.kind == "field":
        out = _invariants_field(C)
    elif C.kind == "finite":
        out = _invariants_finite(C)
    else:
        raise UnsupportedBase(
            "use truncated_invariants for the truncated kind"
        )
    C._invariants = out
    return out


def _invariants_field(C):
    L = C.field
    # the value at z^j is rho(z^j) - z^j (x) 1, one entry per K leg
    images = []
    for zj, power in zip(cached_basis(L, C.base), _rho_powers(C, L.degree)):
        delta = lincomb([*power.items(), *_tk_const(C, -zj).items()])
        images.append([delta.get(t, L.zero()) for t in range(C.hopf.dim)])
    basis = kernel_over(L, C.base, images)
    for a in basis:
        for b in basis:
            ab = a * b
            if coact_element(C, ab) != _tk_const(C, ab):
                raise AxiomViolation(
                    "invariants are not closed under products"
                )
    return basis


def _invariants_finite(C):
    F, K = C.field, C.hopf
    n, d = len(C.unit), K.dim
    # rho(a) - a (x) 1 = 0, one row per (A index, K index) leg
    entries = lincomb(
        [((key, s), c) for s in range(n) for key, c in C.rho[s].items()]
        + [(((s, i), s), -F.coerce(w))
           for s in range(n) for i, w in enumerate(K.unit)]
    )
    rows = {key: [F.zero()] * n for key, _ in entries}
    for (key, s), c in entries.items():
        rows[key][s] = c
    kernel = Matrix(F, list(rows.values()), ncols=n).kernel()
    span = Echelon(F)
    for v in kernel:
        span.insert(v)
    zero = F.zero()
    for a in kernel:
        for b in kernel:
            prod = sparse_product(
                C.mult,
                {i: c for i, c in enumerate(a) if c},
                {i: c for i, c in enumerate(b) if c},
            )
            if any(span.reduce([prod.get(i, zero) for i in range(n)])):
                raise AxiomViolation(
                    "invariants are not closed under products"
                )
    return kernel


# ----------------------------------------------- the coaction bimodule

def bimodule_from_coaction(C):
    """The bimodule L (x) K attached to a field-kind coaction.

    Free with basis 1 (x) k_t on one side; the other action goes
    through rho.  Because L is commutative the twisted action is again
    given by a matrix over L in that basis, so the result fits the
    phi-presented container directly.  The center of the result is
    checked against the invariant subfield before returning.
    """
    if C.kind != "field":
        raise UnsupportedBase("the bimodule needs the field kind")
    if C._bimodule is not None:
        return C._bimodule
    L, K = C.field, C.hopf
    d = K.dim
    zero = L.zero()
    cols = []
    for t in range(d):
        col = _tk_mul(C, {t: L.one()}, C.rho_gen)
        cols.append([col.get(u, zero) for u in range(d)])
    Mz = Matrix.from_cols(L, cols)
    P = Bimodule(L, images={L: Mz}, rank=d, base=C.base,
                 label="coaction bimodule")
    inv = invariants(C)
    center, exact = P.center()
    if not exact:
        raise ResolutionError(
            "the bimodule center could not be computed exactly"
        )
    if L.degree % len(inv) or center.degree_in_ambient() != L.degree // len(inv):
        raise AxiomViolation(
            "the bimodule center does not match the invariant subfield"
        )
    ident = Matrix.identity(L, d)
    for a in inv:
        if P.phi(a) != ident.scale(a):
            raise AxiomViolation(
                "an invariant element fails to be central in the bimodule"
            )
    C._bimodule = P
    return P


# ---------------------------------------------- psi, xi and tau checks

@dataclass(frozen=True)
class PsiXiTauReport:
    psi_xi_identity: bool
    dimension_checked: int
    tau_well_defined: bool
    tau_left_linear: bool
    tau_rank: object
    tau_target_dim: int
    tau_bijective: object
    tau_skipped: object


def _left_legs(C, pieces):
    """sum (1 (x) k_t) y over the pairs (t, y) of ``pieces``."""
    mult = C.hopf.mult
    return lincomb(
        (u, c * w) for t, y in pieces for s, c in y.items()
        for u, w in mult.get((t, s), ())
    )


def psi_map(C, x):
    """psi(sum a_t (x) k_t) = sum (1 (x) k_t) rho(a_t)."""
    return _left_legs(C, ((t, coact_element(C, a)) for t, a in x.items()))


def xi_map(C, x, antipode_inverse=None):
    """xi(sum a_t (x) k_t) = sum (1 (x) k_t)(1 (x) S^-1) rho(a_t)."""
    if antipode_inverse is None:
        antipode_inverse = C.hopf.antipode.inverse()
    return _left_legs(C, (
        (t, _apply_second_leg(C, coact_element(C, a), antipode_inverse))
        for t, a in x.items()
    ))


def verify_psi_xi_tau(C, rank_cap=64):
    """Exact checks for the two structure maps of the coaction bimodule.

    psi and xi are composed both ways on the full basis z^i (x) k_t of
    L (x) K over the base and must give the identity; a non-invertible
    antipode surfaces here as NotInvertible.  tau sends
    x (x) (b (x) k_t) to x rho(b) (x) k_t; it is checked to be
    well defined across the middle tensor relation and left linear over
    L, and its matrix rank over the base is computed when the source
    dimension stays within ``rank_cap`` (the K leg of the target is
    untouched by tau, so the rank is the Hopf dimension times the rank
    of a single block).
    """
    if C.kind != "field":
        raise UnsupportedBase("psi/xi/tau live on the field kind")
    L, K, B = C.field, C.hopf, C.base
    n, d = L.degree, K.dim
    sinv = K.antipode.inverse()

    z = L.gen()
    z_pows = [L.one()]
    for _ in range(n - 1):
        z_pows.append(z_pows[-1] * z)
    ok = True
    checked = 0
    for zi in z_pows:
        for t in range(d):
            e = {t: zi}
            if psi_map(C, xi_map(C, e, sinv)) != e:
                ok = False
            if xi_map(C, psi_map(C, e), sinv) != e:
                ok = False
            checked += 1
    if not ok:
        raise AxiomViolation("psi and xi are not mutually inverse")

    rho_pow = _rho_powers(C, n + 1)
    # moving rho(z) across the middle tensor must match multiplying it in
    well = True
    for s in range(d):
        for j in range(n):
            lhs = _tk_mul(C, _tk_mul(C, {s: L.one()}, C.rho_gen), rho_pow[j])
            rhs = _tk_mul(C, {s: L.one()}, rho_pow[j + 1])
            if lhs != rhs:
                well = False

    # tau on z^i (x) (z^j (x) k_s), in (i, s, j) order
    linear = True
    images = []
    for zi, s, j in iproduct(z_pows, range(d), range(n)):
        image = _tk_mul(C, {s: zi}, rho_pow[j])
        unit_image = _tk_mul(C, {s: L.one()}, rho_pow[j])
        if image != lincomb((t, zi * c) for t, c in unit_image.items()):
            linear = False
        images.append(image)

    source = n * n * d * d
    target = n * d
    rank = None
    bijective = None
    skipped = None
    if source <= rank_cap:
        zero = L.zero()
        cols = [
            [B.coerce(c) for u in range(d) for c in L.coords(tk.get(u, zero))]
            for tk in images
        ]
        rank = d * Matrix.from_cols(B, cols).rank()
        bijective = bool(well and rank == d * target)
    else:
        skipped = (
            "rank skipped: source dimension %d exceeds the cap %d"
            % (source, rank_cap)
        )
    return PsiXiTauReport(
        psi_xi_identity=True,
        dimension_checked=checked,
        tau_well_defined=well,
        tau_left_linear=linear,
        tau_rank=rank,
        tau_target_dim=d * target,
        tau_bijective=bijective,
        tau_skipped=skipped,
    )


# ------------------------------------------------------- certificates

@dataclass(frozen=True)
class IntegralityCertificate:
    element: object
    min_poly: object
    monic: bool
    annihilates: bool
    coefficients_invariant: bool
    coefficients_in_base: bool
    escapes: tuple
    failure: object


def integrality_certificate(C, z):
    """Certificate that ``z`` is integral over the invariant subfield.

    The minimal polynomial of the bimodule image of z is computed over
    L, then each coefficient is tested for invariance under the
    coaction and for membership in the declared base.  A coefficient
    leaving the invariants is reported through the ``failure`` field
    rather than raised: that outcome is the expected one on fixtures
    violating the integrality hypotheses.
    """
    if C.kind != "field":
        raise UnsupportedBase("integrality certificates need the field kind")
    L = C.field
    z = L.coerce(z)
    P = bimodule_from_coaction(C)
    mu = P.phi(z).minpoly()
    monic = mu.leading() == L.one()
    annihilates = not mu.evaluate(z)
    escapes = []
    in_base = True
    for j in range(mu.degree):
        c = L.coerce(mu.coeff(j))
        if coact_element(C, c) != _tk_const(C, c):
            escapes.append((j, c))
        coords = L.coords(c)
        if any(coords[1:]):
            in_base = False
    failure = None
    if escapes or not annihilates or not monic:
        failure = CoefficientEscapesZ(
            "certificate for %r leaves the invariants at powers %s"
            % (z, sorted(j for j, _ in escapes))
        )
    return IntegralityCertificate(
        element=z,
        min_poly=mu,
        monic=monic,
        annihilates=annihilates,
        coefficients_invariant=not escapes,
        coefficients_in_base=in_base,
        escapes=tuple(escapes),
        failure=failure,
    )


@dataclass(frozen=True)
class EndomorphismCertificate:
    min_poly: object
    char_poly: object
    min_poly_in_ring: bool
    char_poly_in_ring: bool
    min_escapes: tuple
    char_escapes: tuple
    failure: object


def endomorphism_certificate(M, membership):
    """Minimal/characteristic polynomial membership for a matrix.

    ``membership`` decides whether a coefficient lies in the declared
    subring of the matrix field.  Over an integrally closed subring both
    polynomials of an endomorphism of a finitely generated module stay
    inside it; without integral closedness the characteristic
    polynomial still does (it is a determinant) while the minimal
    polynomial can escape.  Escapes are reported, not raised.
    """
    mu = M.minpoly()
    chi = M.charpoly()
    min_escapes = tuple(
        (j, mu.coeff(j)) for j in range(mu.degree + 1)
        if not membership(mu.coeff(j))
    )
    char_escapes = tuple(
        (j, chi.coeff(j)) for j in range(chi.degree + 1)
        if not membership(chi.coeff(j))
    )
    failure = None
    if min_escapes:
        failure = CoefficientEscapesZ(
            "minimal polynomial coefficients leave the ring at powers %s"
            % (sorted(j for j, _ in min_escapes),)
        )
    return EndomorphismCertificate(
        min_poly=mu,
        char_poly=chi,
        min_poly_in_ring=not min_escapes,
        char_poly_in_ring=not char_escapes,
        min_escapes=min_escapes,
        char_escapes=char_escapes,
        failure=failure,
    )


# ------------------------------------------------------- Galois groups

def galois_group_of_coaction(C, E=None, hints=(), expected=None,
                             max_degree=DEFAULT_TOWER_CAP):
    """Galois group of the splitting closure of L over the invariants.

    With all of L invariant the group is trivial.  With the invariants
    equal to the declared base, the closure of the defining relation is
    built by factorization, or verified inside a supplied tower ``E``
    with root ``hints``; the automorphism count must match the tower
    degree (normality), the fixed space of the group must be exactly
    the base, and every non-identity automorphism must move some root
    (so the tower is no larger than the closure).
    """
    if C.kind != "field":
        raise UnsupportedBase("Galois groups need the field kind")
    L, B = C.field, C.base
    inv = invariants(C)
    if len(inv) == L.degree:
        return AutomorphismGroup(L, [identity_morphism(L)])
    if len(inv) != 1:
        raise UnsupportedBase(
            "the invariants are a proper intermediate field; re-present "
            "the extension over them to compute its closure"
        )
    f = L.relation
    if E is None:
        data = splitting_field(f, max_degree=max_degree)
        Efld, roots = data.field, data.roots
    elif not is_layer_of(B, E):
        raise FieldMismatch(
            "the splitting tower must be built over the declared base"
        )
    else:
        Efld, roots = E, locate_roots(f, E, hints=hints)
    G = automorphisms_over(Efld, B, hints=hints, expected=expected)
    deg = algebraic_degree(Efld, B)
    if G.order != deg:
        raise ResolutionError(
            "found %d automorphisms over a degree-%d tower: the closure "
            "is not normal or the hints were insufficient"
            % (G.order, deg)
        )
    fixed = kernel_over(
        Efld, B,
        [[sigma.apply(e) - e for sigma in G] for e in cached_basis(Efld, B)],
    )
    if len(fixed) != 1:
        raise ResolutionError(
            "the fixed field of the automorphism group has dimension %d "
            "over the base" % len(fixed)
        )
    if G.pointwise_stabilizer([r for r, _ in roots]) != [0]:
        raise ResolutionError(
            "the supplied tower strictly exceeds the splitting field "
            "of the relation"
        )
    return G


# -------------------------------------------------------- divisibility

@dataclass(frozen=True)
class DivisibilityVerdict:
    degree: int
    hopf_dim: int
    quotient: int
    components: object


def divisibility_coaction(C):
    """[L : invariants] divides dim K, with the quotient returned."""
    if C.kind != "field":
        raise UnsupportedBase("divisibility needs the field kind")
    inv = invariants(C)
    n = C.field.degree
    if n % len(inv):
        raise AxiomViolation(
            "the invariant subfield dimension does not divide the "
            "extension degree"
        )
    deg = n // len(inv)
    d = C.hopf.dim
    if d % deg:
        raise Violated(
            "[Q : Q^K] = %d does not divide dim K = %d" % (deg, d)
        )
    return DivisibilityVerdict(
        degree=deg, hopf_dim=d, quotient=d // deg, components=None
    )


def divisibility_components(components, hopf_dim):
    """Component form: sum of d_i (m_i / m_*)^2 divides dim K.

    ``components`` lists (d_i, m_i) pairs, one per simple summand; m_*
    is the greatest common divisor of the m_i.
    """
    comps = [(int(a), int(b)) for a, b in components]
    if not comps or any(a <= 0 or b <= 0 for a, b in comps):
        raise ValueError("components must be positive integer pairs")
    m_star = 0
    for _, m in comps:
        m_star = gcd(m_star, m)
    total = sum(a * (m // m_star) ** 2 for a, m in comps)
    if hopf_dim % total:
        raise Violated(
            "component sum %d does not divide dim K = %d"
            % (total, hopf_dim)
        )
    return DivisibilityVerdict(
        degree=total,
        hopf_dim=hopf_dim,
        quotient=hopf_dim // total,
        components=tuple(comps),
    )


# ----------------------------------------------------- semisimple bound

@dataclass(frozen=True)
class SemisimpleBound:
    applicable: bool
    invariant_dim: int
    hopf_dim: int
    algebra_dim: int
    holds: bool


def semisimple_bound(C, declared=None):
    """dim A^K times dim H against dim A, for H the dual of K.

    The inequality is a theorem only for semisimple H; semisimplicity
    is decided by K's trace criterion, which is H's (the antipode of H
    is the transpose of K's, and tr((S^T)^2) = tr(S^2)), unless
    ``declared`` overrides it.  Both sides are always reported, so
    fixtures with nonsemisimple H document that the hypothesis matters.
    """
    if C.kind != "finite":
        raise UnsupportedBase("the bound compares finite dimensions")
    K = C.hopf
    applicable = K.is_semisimple() if declared is None else bool(declared)
    inv_dim = len(invariants(C))
    lhs = inv_dim * K.dim
    rhs = len(C.unit)
    return SemisimpleBound(
        applicable=applicable,
        invariant_dim=inv_dim,
        hopf_dim=K.dim,
        algebra_dim=rhs,
        holds=lhs >= rhs,
    )


# ------------------------------------------------- truncated invariants

def _norm_substitution(field, nvars, sub):
    sub = tuple(sub)
    if len(sub) != nvars:
        raise ValueError("substitution must give one image per variable")
    out = []
    for img in sub:
        terms = [
            (tuple(int(e) for e in mono), field.coerce(c))
            for mono, c in dict(img).items()
        ]
        for mono, _ in terms:
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError("bad exponent tuple %r" % (mono,))
        poly = lincomb(terms)
        if any(sum(m) > 1 for m in poly):
            raise ValueError(
                "substitutions must have degree at most one so the "
                "degree filtration is preserved"
            )
        out.append(poly)
    return tuple(out)


def _mpoly_mul(p, q):
    return lincomb(
        (tuple(a + b for a, b in zip(ma, mb)), ca * cb)
        for ma, ca in p.items() for mb, cb in q.items()
    )


def _mpoly_compose_monomial(field, nvars, mono, images):
    acc = {(0,) * nvars: field.one()}
    for v, e in enumerate(mono):
        for _ in range(e):
            acc = _mpoly_mul(acc, images[v])
    return acc


def _degree_monomials(nvars, cap):
    mons = [m for m in iproduct(range(cap + 1), repeat=nvars)
            if sum(m) <= cap]
    mons.sort(key=lambda m: (sum(m), m))
    return mons


@dataclass(frozen=True)
class TruncatedInvariants:
    dims: tuple
    basis: tuple
    monomials: tuple


def truncated_invariants(C, cap):
    """Invariant dimensions of a substitution action, degree by degree.

    Returns the dimension of {f : deg f <= D and every constraint
    holds} for D = 0..cap, together with a kernel basis at the full cap
    (sparse polynomials).  Constraints are f composed with each
    substitution equals f, plus the extra equated pairs.
    """
    if C.kind != "truncated":
        raise UnsupportedBase("truncated invariants need the truncated kind")
    field, nvars = C.field, C.nvars
    cap = int(cap)
    mons = _degree_monomials(nvars, cap)
    col_of = {m: j for j, m in enumerate(mons)}

    constraints = [(sub, None) for sub in C.substitutions]
    constraints += [(a, b) for a, b in C.pairs]
    rows = []
    for left, right in constraints:
        block = [[field.zero()] * len(mons) for _ in mons]
        for m in mons:
            j = col_of[m]
            image = _mpoly_compose_monomial(field, nvars, m, left)
            if right is None:
                other = {m: field.one()}
            else:
                other = _mpoly_compose_monomial(field, nvars, m, right)
            diff = lincomb(
                [*image.items(), *((mm, -c) for mm, c in other.items())]
            )
            for mm, c in diff.items():
                block[col_of[mm]][j] = c
        rows.extend(block)

    dims = []
    for D in range(cap + 1):
        keep = [j for j, m in enumerate(mons) if sum(m) <= D]
        if rows:
            sub_rows = [[row[j] for j in keep] for row in rows]
            dims.append(len(keep) - Matrix(field, sub_rows).rank())
        else:
            dims.append(len(keep))
    if rows:
        kernel = Matrix(field, rows).kernel()
    else:
        one = field.one()
        kernel = [
            [one if i == j else field.zero() for i in range(len(mons))]
            for j in range(len(mons))
        ]
    basis = tuple(
        {m: c for m, c in zip(mons, vec) if c} for vec in kernel
    )
    return TruncatedInvariants(
        dims=tuple(dims), basis=basis, monomials=tuple(mons)
    )

