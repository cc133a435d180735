"""Comodule algebras over finite dimensional Hopf algebras.

A coaction rho: A -> A (x) K makes A a K-comodule algebra.  The
invariants A^K = {a : rho(a) = a (x) 1} form a subalgebra, and A (x) K
carries a bimodule structure over A whose center recovers the
invariants; central elements of A are integral over the invariants,
with an exact certificate read off one Krylov chain in A (x) K.

Three shapes of comodule algebra are supported, each its own record:

* ``FieldCoaction``: A = L is a field presented as a one-step extension
  of its declared base B, with rho(B) = B (x) 1 built in; the coaction
  is pinned by the image of the tower generator, an element of L (x) K
  given as a sparse dictionary over the K basis.  Since rho is then the
  unique B-algebra map sending the generator there, multiplicativity
  holds by construction and only the counit law, coassociativity and
  the vanishing of the defining relation need checking.
* ``FiniteCoaction``: A is a finite dimensional algebra over the
  coefficient field of K, given by sparse structure constants, with rho
  given basis element by basis element; here every comodule-algebra
  axiom is checked exhaustively.
* ``SubstitutionAction``: A is a polynomial ring in a few variables,
  acted on by affine substitutions and filtered by total degree; only
  invariant dimensions below a degree cap are computed.  The
  counterexample fixtures that break the integrality hypotheses live
  here.

Build them through ``field_coaction``, ``finite_coaction`` and
``truncated_action``, which normalize the data.  A function made for
one shape refuses the others with UnsupportedBase.

Elements of L (x) K are sparse dictionaries over the K basis, with
coefficients in L, in the convention of ``hopf``: every sum of them
goes through ``lincomb``.
"""

import dataclasses
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
from .hopf import (
    HopfAlgebra,
    _comodule_laws,
    basis_index,
    lincomb,
    sparse_kernel,
    sparse_product,
    structure_table,
)
from .matrix import Echelon, Matrix
from .morphisms import AutomorphismGroup, automorphisms_over, identity_morphism
from .poly import Polynomial
from .towers import (
    ExtensionField,
    algebraic_degree,
    is_layer_of,
)


@dataclass(eq=False)
class FieldCoaction:
    """A coaction of ``hopf`` on the field ``field`` over its base
    layer, pinned by rho(generator) = ``rho_gen``."""

    hopf: HopfAlgebra
    field: ExtensionField
    rho_gen: dict
    _bimodule: Bimodule = dataclasses.field(default=None, init=False)
    _invariants: list = dataclasses.field(default=None, init=False)
    _powers: list = dataclasses.field(default_factory=list, init=False)

    @property
    def base(self):
        return self.field.base


@dataclass(eq=False)
class FiniteCoaction:
    """A coaction of ``hopf`` on an algebra over its field, given by
    structure constants ``mult``, the coordinates ``unit`` of 1 and
    one image ``rho`` per basis element."""

    hopf: HopfAlgebra
    field: object
    mult: dict
    unit: list
    rho: list
    _invariants: list = dataclasses.field(default=None, init=False)


@dataclass(eq=False)
class SubstitutionAction:
    """Affine substitutions, and pairs of them to equate, acting on the
    polynomials over ``field`` in ``nvars`` variables."""

    field: object
    nvars: int
    substitutions: tuple
    pairs: tuple


def field_coaction(L, K, rho_gen):
    """Coaction on a field, pinned by the image of its generator.

    ``L`` must be a one-step extension of its declared base; ``rho_gen``
    maps K basis indices to the L coefficients of rho(generator).  The
    base coacts trivially: rho(b) = b (x) 1 for b in the base layer.
    """
    if not isinstance(L, ExtensionField):
        raise UnsupportedBase(
            "a FieldCoaction needs a finite extension presentation"
        )
    if not isinstance(K, HopfAlgebra):
        raise FieldMismatch("K must be a Hopf algebra")
    gen_image = {}
    for t, c in dict(rho_gen).items():
        t = basis_index("coaction leg", t, K.dim)
        c = L.coerce(c)
        if c:
            gen_image[t] = c
    return FieldCoaction(K, L, gen_image)


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
    return FiniteCoaction(K, F, structure_table(F, mult, n), unit, [
        lincomb(((basis_index("rho algebra", t, n),
                  basis_index("rho Hopf", i, K.dim)), F.coerce(c))
                for (t, i), c in dict(rho[s]).items())
        for s in range(n)
    ])


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
    return SubstitutionAction(
        field, int(nvars),
        tuple(_norm_substitution(field, nvars, s) for s in substitutions),
        tuple((_norm_substitution(field, nvars, a),
               _norm_substitution(field, nvars, b)) for a, b in pairs),
    )


# ------------------------------------------------ L (x) K arithmetic

def _tk_mul(C, a, b):
    """Product in L (x) K; coefficients multiply in L, legs in K."""
    return sparse_product(C.hopf.mult, a, b)


def _tk_const(C, a):
    """a (x) 1 for a in L (or a lower layer)."""
    a = C.field.coerce(a)
    return lincomb((t, a * w) for t, w in enumerate(C.hopf.unit) if w)


def _rho_powers(C, count):
    """rho(z)^0, rho(z)^1, ... as cached on C, extended to ``count``."""
    powers = C._powers
    while len(powers) < count:
        powers.append(_tk_mul(C, powers[-1], C.rho_gen) if powers
                      else _tk_const(C, C.field.one()))
    return powers


def _at_rho_gen(C, coeffs):
    """sum_j coeffs[j] rho(z)^j, base multiples of the cached powers."""
    powers = _rho_powers(C, len(coeffs))
    return lincomb((t, c * w) for c, power in zip(coeffs, powers) if c
                   for t, w in power.items())


def coact_element(C, a):
    """rho(a) for any element of L, as a sparse L (x) K dictionary.

    rho is the unique algebra map over the base sending the generator
    to the stored image, so rho(a) = sum_j c_j rho(z)^j for the
    coordinates c_j of ``a`` over the base.
    """
    if not isinstance(C, FieldCoaction):
        raise UnsupportedBase("coact_element needs a FieldCoaction")
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

    FieldCoaction: the counit law and coassociativity are checked on the
    tower generator (both sides are algebra maps over the base, so the
    generator decides them), and the defining relation of the generator
    must map to zero in L (x) K; the relation expansion is returned in
    the report.  FiniteCoaction: the counit law, coassociativity,
    rho(1) = 1 (x) 1 and multiplicativity, in that order, by the check
    HopfAlgebra runs on its coproduct (``hopf._comodule_laws``); every
    basis pair is a product to check, not only those with a generator of
    A on the left as in HopfAlgebra, since that needs A associative,
    which is not checked.  Raises AxiomViolation naming the failing law.
    """
    if isinstance(C, FieldCoaction):
        return _verify_field(C)
    if isinstance(C, FiniteCoaction):
        return _verify_finite(C)
    raise UnsupportedBase("a SubstitutionAction has no coaction to verify")


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
    n = len(C.unit)
    return CoactionReport(
        kind="finite",
        counit_checked=n,
        coassociativity_checked=n,
        multiplicativity_checked=_comodule_laws(
            C.hopf, C.mult, C.unit, C.rho, range(n), "the coaction"),
        relation_image=(),
    )


# --------------------------------------------------------- invariants

def invariants(C):
    """Basis of the invariant subalgebra {a : rho(a) = a (x) 1}.

    FieldCoaction: a list of elements of L forming a basis of the
    invariant subfield over the base.  FiniteCoaction: a list of
    coordinate vectors.  Closure under products is re-checked on the
    computed basis.
    """
    if isinstance(C, SubstitutionAction):
        raise UnsupportedBase(
            "use truncated_invariants for a SubstitutionAction"
        )
    if C._invariants is None:
        C._invariants = (_invariants_field if isinstance(C, FieldCoaction)
                         else _invariants_finite)(C)
    return C._invariants


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
    kernel = sparse_kernel(F, n, [
        *(((key, s), c) for s in range(n) for key, c in C.rho[s].items()),
        *((((s, i), s), -F.coerce(w))
          for s in range(n) for i, w in enumerate(K.unit) if w),
    ])
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
    """The bimodule L (x) K attached to a FieldCoaction.

    Free with basis 1 (x) k_t on one side; the other action goes
    through rho.  Because L is commutative the twisted action is again
    given by a matrix over L in that basis, so the result fits the
    phi-presented container directly.  The center of the result is
    checked against the invariant subfield before returning; this is
    the only place that check runs.
    """
    if not isinstance(C, FieldCoaction):
        raise UnsupportedBase("the bimodule needs a FieldCoaction")
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
    for a in inv:
        if P.phi(a) != P._scalar(a):
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


def xi_map(C, x, antipode_inverse):
    """xi(sum a_t (x) k_t) = sum (1 (x) k_t)(1 (x) S^-1) rho(a_t), for
    ``antipode_inverse`` the matrix of S^-1."""
    return _left_legs(C, (
        (t, _apply_second_leg(C, coact_element(C, a), antipode_inverse))
        for t, a in x.items()
    ))


# tau's rank is computed only up to this source dimension over the base
_TAU_RANK_CAP = 64


def verify_psi_xi_tau(C):
    """Exact checks for the two structure maps of the coaction bimodule.

    psi and xi are composed both ways on the full basis z^i (x) k_t of
    L (x) K over the base and must give the identity; a non-invertible
    antipode surfaces here as NotInvertible.  tau sends
    x (x) (b (x) k_t) to x rho(b) (x) k_t; it is checked to be
    well defined across the middle tensor relation and left linear over
    L, and its matrix rank over the base is computed when the source
    dimension stays within ``_TAU_RANK_CAP`` (the K leg of the target is
    untouched by tau, so the rank is the Hopf dimension times the rank
    of a single block).

    The three maps share their images of the basis: rho(z^i) is taken
    once per i from ``coact_element``, psi(z^i (x) k_t) =
    (1 (x) k_t) rho(z^i) is tau's unit image at (t, i), and xi's
    (1 (x) k_t)(1 (x) S^-1) rho(z^i) applies S^-1 once per i.  psi and
    xi are linear over the base, so each is applied to an element as
    the base combination of its basis images given by the element's
    coordinates.
    """
    if not isinstance(C, FieldCoaction):
        raise UnsupportedBase("psi/xi/tau live on a FieldCoaction")
    L, K, B = C.field, C.hopf, C.base
    n, d = L.degree, K.dim
    sinv = K.antipode.inverse()

    z_pows = cached_basis(L, B)
    rho_pow = _rho_powers(C, n + 1)
    rho_basis = [coact_element(C, zi) for zi in z_pows]
    # tau(1 (x) (z^j (x) k_s)) = (1 (x) k_s) rho(z^j), = psi(z^j (x) k_s)
    # for j < n; j = n is the power rho(z)^n
    unit_images = {(s, j): _tk_mul(C, {s: L.one()}, rho)
                   for s in range(d)
                   for j, rho in enumerate(rho_basis + [rho_pow[n]])}
    sinv_rho = [_apply_second_leg(C, rho, sinv) for rho in rho_basis]
    xi_images = {(t, i): _left_legs(C, ((t, rho),))
                 for t in range(d) for i, rho in enumerate(sinv_rho)}

    def apply(images, x):
        return lincomb((u, c * w) for t, a in x.items()
                       for i, c in enumerate(L.coords(a)) if c
                       for u, w in images[t, i].items())

    if not all(apply(unit_images, xi_images[t, i]) == {t: zi}
               and apply(xi_images, unit_images[t, i]) == {t: zi}
               for i, zi in enumerate(z_pows) for t in range(d)):
        raise AxiomViolation("psi and xi are not mutually inverse")

    # moving rho(z) across the middle tensor must match multiplying it in
    well = all(_tk_mul(C, unit_images[s, 1], rho_pow[j])
               == unit_images[s, j + 1] for s in range(d) for j in range(n))

    # tau on z^i (x) (z^j (x) k_s), in (i, s, j) order.  At i = 0
    # (z^0 = 1) the images are the unit images, and as the k_s span K,
    # left linearity there is rho(z^j) = rho(z)^j.
    linear = rho_basis == rho_pow[:n]
    images = [unit_images[s, j] for s in range(d) for j in range(n)]
    for zi, s, j in iproduct(z_pows[1:], range(d), range(n)):
        image = _tk_mul(C, {s: zi}, rho_pow[j])
        if image != lincomb((t, zi * c)
                            for t, c in unit_images[s, j].items()):
            linear = False
        images.append(image)

    source = n * n * d * d
    target = n * d
    rank = None
    bijective = None
    skipped = None
    if source <= _TAU_RANK_CAP:
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
            % (source, _TAU_RANK_CAP)
        )
    return PsiXiTauReport(
        psi_xi_identity=True,
        dimension_checked=n * d,
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
    """``monic`` is always True, as mu is built monic from the chain's
    first dependence.  ``annihilates`` is always True too: id (x) eps is
    an L-algebra map L (x) K -> L sending rho(z) to z, so mu(rho(z)) = 0
    gives mu(z) = 0.  Both are still computed because frozen benchmark
    answers read them."""

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

    The bimodule image of z is right multiplication by rho(z) in the
    unital L-algebra L (x) K, so its minimal polynomial over L is that
    of rho(z): the first dependence in the chain 1 (x) 1, rho(z), ...
    The bimodule itself is not built; its center is checked against the
    invariants by ``bimodule_from_coaction``.  Each coefficient is then
    tested for invariance under the coaction and for membership in the
    declared base.  A coefficient
    leaving the invariants is reported through the ``failure`` field
    rather than raised: that outcome is the expected one on fixtures
    violating the integrality hypotheses.
    """
    if not isinstance(C, FieldCoaction):
        raise UnsupportedBase(
            "integrality certificates need a FieldCoaction"
        )
    L = C.field
    z = L.coerce(z)
    chain, power, rz = Echelon(L), _tk_const(C, 1), coact_element(C, z)
    while (rel := chain.insert_or_coords(
            [power.get(t, L.zero()) for t in range(C.hopf.dim)], 0)) is None:
        power = _tk_mul(C, power, rz)
    mu = Polynomial(L, [-a for a in rel] + [L.one()])
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
    if escapes or not annihilates:
        failure = CoefficientEscapesZ(
            "certificate for %r leaves the invariants at powers %s"
            % (z, sorted(j for j, _ in escapes))
        )
    return IntegralityCertificate(
        element=z,
        min_poly=mu,
        monic=True,
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

def galois_group_of_coaction(C, E=None, hints=(), expected=None):
    """Galois group of the splitting closure of L over the invariants.

    With all of L invariant the group is trivial.  With the invariants
    equal to the declared base, the closure of the defining relation is
    built by factorization, or verified inside a supplied tower ``E``
    with root ``hints``; the automorphism count must match the tower
    degree (normality), the fixed space of the group must be exactly
    the base, and every non-identity automorphism must move some root
    (so the tower is no larger than the closure).
    """
    if not isinstance(C, FieldCoaction):
        raise UnsupportedBase("Galois groups need a FieldCoaction")
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
        data = splitting_field(f)
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
    if not isinstance(C, FieldCoaction):
        raise UnsupportedBase("divisibility needs a FieldCoaction")
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


def semisimple_bound(C):
    """dim A^K times dim H against dim A, for H the dual of K.

    The inequality is a theorem only for semisimple H; semisimplicity
    is decided by K's trace criterion, which is H's (the antipode of H
    is the transpose of K's, and tr((S^T)^2) = tr(S^2)).  Both sides
    are always reported, so fixtures with nonsemisimple H document that
    the hypothesis matters.
    """
    if not isinstance(C, FiniteCoaction):
        raise UnsupportedBase("the bound compares finite dimensions")
    K = C.hopf
    inv_dim = len(invariants(C))
    lhs = inv_dim * K.dim
    rhs = len(C.unit)
    return SemisimpleBound(
        applicable=K.is_semisimple(),
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
    substitution equals f, plus the extra equated pairs.  The monomials
    run by degree, so each kernel vector read off the rref has the
    degree of its free column, and the dimension at D counts the basis
    elements of degree at most D.
    """
    if not isinstance(C, SubstitutionAction):
        raise UnsupportedBase("truncated invariants need a SubstitutionAction")
    field, nvars = C.field, C.nvars
    cap = int(cap)
    mons = _degree_monomials(nvars, cap)

    constraints = [(sub, None) for sub in C.substitutions]
    constraints += [(a, b) for a, b in C.pairs]
    # column j is mons[j]; a row per constraint and monomial of the image
    entries = []
    for r, (left, right) in enumerate(constraints):
        for j, m in enumerate(mons):
            other = ({m: field.one()} if right is None else
                     _mpoly_compose_monomial(field, nvars, m, right))
            entries += [(((r, mm), j), c) for mm, c in
                        _mpoly_compose_monomial(field, nvars, m, left).items()]
            entries += [(((r, mm), j), -c) for mm, c in other.items()]

    kernel = sparse_kernel(field, len(mons), entries)
    basis = tuple(
        {m: c for m, c in zip(mons, vec) if c} for vec in kernel
    )
    degrees = [max(map(sum, f)) for f in basis]
    dims = tuple(sum(d <= D for d in degrees) for D in range(cap + 1))
    return TruncatedInvariants(
        dims=dims, basis=basis, monomials=tuple(mons)
    )

