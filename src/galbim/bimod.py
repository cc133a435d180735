"""Bimodules over a field tower, presented through the left action.

A bimodule of right rank d over a field L is stored as a ring map
phi: L -> Mat_d(L), given by one matrix per tower layer (generator
image for algebraic layers, variable image for rational function
layers) and evaluated by ``towers.evaluate`` with scalars lifted to
multiples of the identity; a tensor product evaluates through its
factors instead (see ``tensor``).  Elements are column vectors; the
right action is coordinatewise, the left action of a is multiplication
by phi(a), so split factors are exactly the vectors v with
phi(a) v = sigma(a) v for a twisting endomorphism sigma.

The structural analysis works at the L-level.  Over the center F the
bimodule decomposes along the irreducible factors mu_k over L of the
minimal polynomial mu of a primitive element a_prim of L/F.  The
multiplicity of mu_k is its exponent in the characteristic polynomial
of phi(a_prim), found by exact division, with no triangularizing over
the splitting field E.  This is exact: phi is a ring map and F acts by
scalars, so mu(phi(a_prim)) = 0, and by primary decomposition (Lang,
Algebra, XIV 2) the generalized kernel of mu_k(phi(a_prim)) has
dimension deg mu_k times that exponent.  E contributes its group
Gamma = Aut(E/F) and one embedding iota of L: E is normal over F, so
the characters, the embeddings of L in E over F, are the maps
iota * sigma for sigma in Gamma.  They match the cosets H * sigma of
the stabilizer H of iota(L), and each factor mu_k is one H-orbit of
characters, those whose values at a_prim are its roots.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import (
    ClassificationFailed,
    CoefficientEscapesZ,
    DegreeBound,
    FieldMismatch,
    NotAHomomorphism,
    NotInvertible,
    PrimitiveElementNotFound,
    ResolutionError,
    UnsupportedBase,
)

# The analysis entry point can fail for any of these reasons without
# deciding anything; the property checks then answer None.
ANALYSIS_OBSTRUCTIONS = (
    UnsupportedBase,
    PrimitiveElementNotFound,
    ResolutionError,
    DegreeBound,
)
from .fieldops import (
    SplittingData,
    Subfield,
    _Record,
    cached_basis,
    fixed_field,
    min_poly_over,
    primitive_element_over,
    scalar_layer,
    splitting_field,
    subfield_coords,
    subfield_from_vectors,
)
from .linalg import center_kernel, joint_eigenspace
from .matrix import Echelon, Matrix
from .morphisms import (
    AutomorphismGroup,
    FieldMorphism,
    _candidate_pool,
    _check_count,
    _divide_out,
    _enumerate_maps,
    automorphisms_over,
)
from .poly import Polynomial
from .towers import (
    DEFAULT_TOWER_CAP,
    ExtensionField,
    algebraic_degree,
    broken_relation,
    coords_over,
    evaluate,
    extend,
    generator_layers,
    is_layer_of,
    tower_basis,
)

PHI_CACHE_SIZE = 512


def _tower_generators(field):
    """Coerced generators of every non-bottom layer, bottom first."""
    return [field.coerce(layer.gen()) for layer in generator_layers(field)]


class Bimodule:
    """phi-presented (L, L)-bimodule, free of finite rank as a right
    module."""

    __slots__ = ("field", "rank", "images", "base", "label", "_phi_cache",
                 "_center", "_factors")

    def __init__(self, field, images=None, rank=None, base=None,
                 check=True, label=None):
        self.field = field
        self.label = label
        self.base = base
        supplied = dict(images or {})
        full = {}
        for layer in generator_layers(field):
            if layer in supplied:
                M = supplied.pop(layer)
                rows = [[field.coerce(e) for e in row] for row in M.rows]
                M = Matrix(field, rows)
                if M.nrows != M.ncols:
                    raise NotAHomomorphism("layer image is not square")
                if rank is None:
                    rank = M.nrows
                elif M.nrows != rank:
                    raise NotAHomomorphism("layer images of unequal size")
                full[layer] = M
            else:
                full[layer] = None  # canonical scalar, filled below
        if supplied:
            raise FieldMismatch(
                "image supplied for a field that is not a tower layer"
            )
        if rank is None:
            raise NotAHomomorphism("rank is undetermined: supply it")
        self.rank = rank
        for layer, M in full.items():
            if M is None:
                full[layer] = self._scalar(layer.gen())
        self.images = full
        self._phi_cache = {}
        self._center = None
        self._factors = None    # (P, Q) when built by tensor(P, Q)
        if check:
            self._verify()

    # ------------------------------------------------------- validation

    def _verify(self):
        nonscalar = [
            M for M in self.images.values()
            if M != self._scalar(M.rows[0][0])
        ]
        for i, A in enumerate(nonscalar):
            for B in nonscalar[i + 1:]:
                if A * B != B * A:
                    raise NotAHomomorphism(
                        "layer images do not commute; the presentation "
                        "does not extend to a ring map"
                    )
        for layer, M in self.images.items():
            if not isinstance(layer, ExtensionField) and not M.det():
                raise NotInvertible(
                    "image of the variable %s is singular, so the "
                    "map has no extension to rational functions"
                    % layer.var
                )
        bad = broken_relation(self.images, self._scalar)
        if bad is not None:
            raise NotAHomomorphism(
                "image of %s violates its defining relation" % bad.var
            )
        if self.base is not None:
            for e in _base_elements(self.field, self.base):
                if self.phi(e) != self._scalar(e):
                    raise NotAHomomorphism(
                        "declared base field is not central in the action"
                    )

    # ------------------------------------------------------- evaluation

    def phi(self, a):
        """The left action of ``a``, a d x d matrix.

        A tensor product P (x) Q evaluates through its factors as the
        block matrix [Q.phi(e)] over the entries e of P.phi(a): the
        block map X -> [Q.phi(X_ij)] is a ring map, so this is a ring
        map of L that agrees with the stored images on every tower
        generator, hence equal to ``evaluate`` on them."""
        a = self.field.coerce(a)
        cached = self._phi_cache.get(a)
        if cached is not None:
            return cached
        if self._factors is None:
            M = evaluate(a, self.field, self.images, self._scalar)
        else:
            P, Q = self._factors
            M = _blockwise(Q, P.phi(a))
        if len(self._phi_cache) < PHI_CACHE_SIZE:
            self._phi_cache[a] = M
        return M

    def _scalar(self, c):
        return Matrix.diagonal(self.field, [c] * self.rank)

    # -------------------------------------------------------- structure

    def center(self):
        """(Subfield, exact) for the central field {z : phi(z) = z Id}.

        When the action moves the scalar layer the equation is not
        linear over it; then only the declared base is reported, with
        exact=False."""
        if self._center is None:
            f0 = scalar_layer(self.field)
            linear = True
            for layer in generator_layers(f0):
                g = self.field.coerce(layer.gen())
                if self.phi(g) != self._scalar(g):
                    linear = False
                    break
            if not linear:
                if self.base is None:
                    self._center = (None, False)
                else:
                    self._center = (_as_subfield(self.field, self.base), False)
            else:
                vectors = center_kernel(self.field, self.phi)
                sub = subfield_from_vectors(self.field, vectors)
                self._center = (sub, True)
        return self._center

    def __repr__(self):
        tag = self.label or "bimodule"
        return "<%s of rank %d over %r>" % (tag, self.rank, self.field)


def _blockwise(Q, A):
    """The block matrix [Q.phi(A_ij)]; a zero entry is a zero block."""
    zero = Matrix.zeros(Q.field, Q.rank)
    return Matrix.from_blocks(Q.field, [
        [Q.phi(e) if e else zero for e in row] for row in A.rows
    ])


def _base_elements(field, base):
    if isinstance(base, Subfield):
        return base.basis_in_ambient()
    return [field.coerce(g) for g in _tower_generators(base)]


def _as_subfield(field, base):
    if isinstance(base, Subfield):
        return base
    return Subfield.from_layer(field, base)


# ------------------------------------------------------------ constructors


def twist(field, sigma: FieldMorphism, base=None) -> Bimodule:
    """Rank-one bimodule where the left action goes through sigma."""
    if sigma.domain is not field or sigma.codomain is not field:
        raise FieldMismatch("twisting endomorphism must act on the field")
    images = {}
    for layer in generator_layers(field):
        g = field.coerce(layer.gen())
        images[layer] = Matrix(field, [[sigma.apply(g)]])
    return Bimodule(field, images, base=base, label="twist")


def bimodule_of_group(field, group, multiplicity=1) -> Bimodule:
    """Direct sum of twists over a finite set of automorphisms.

    ``multiplicity`` is either a single count shared by all elements or
    a sequence of per-element counts (same order as ``group``); blocks
    follow the group order, each element contributing its own run of
    identical twists."""
    elements = list(group)
    if isinstance(multiplicity, int):
        mults = [multiplicity] * len(elements)
    else:
        mults = [int(m) for m in multiplicity]
        if len(mults) != len(elements):
            raise ValueError(
                "need one multiplicity per group element, got %d for %d"
                % (len(mults), len(elements))
            )
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be nonnegative")
    d = sum(mults)
    if d == 0:
        raise ValueError("the zero bimodule is not representable")
    images = {}
    for layer in generator_layers(field):
        g = field.coerce(layer.gen())
        diag = []
        for sigma, m in zip(elements, mults):
            diag.extend([sigma.apply(g)] * m)
        images[layer] = Matrix.diagonal(field, diag)
    return Bimodule(field, images, rank=d, label="group action")


def regular_over(field, sub) -> Bimodule:
    """The bimodule L (x)_K L for a subfield K, of rank [L : K],
    declared over K.

    Its right basis is a basis of L over K: the tower basis when K is a
    layer, else the first elements of L's basis over the scalar layer
    that are independent over K."""
    sub = _as_subfield(field, sub)
    f0 = scalar_layer(field)
    n = algebraic_degree(field, f0)
    kbasis = sub.basis_in_ambient()
    mk = len(kbasis)
    candidates = cached_basis(field, f0)
    if is_layer_of(sub.field, field) and all(
        sub.embed(sub.field.coerce(layer.gen()))
        == field.coerce(layer.gen())
        for layer in generator_layers(sub.field)
    ):
        candidates = [field.coerce(b) for b in tower_basis(field, sub.field)]
    # the span of the products b * k, b-major, is a sum of lines b * K,
    # so it meets the next line in 0 or in all of it: one product decides
    span, lbasis = Echelon(f0), []
    for cand in candidates:
        if len(span.rows) == n:
            break
        if span.insert(coords_over(field, cand * kbasis[0], f0)):
            lbasis.append(cand)
            if not all(span.insert(coords_over(field, cand * k, f0))
                       for k in kbasis[1:]):
                raise ResolutionError("the subfield basis is dependent")
    if len(span.rows) != n:
        raise ResolutionError("could not complete a module basis")
    m = len(lbasis)
    images = {}
    for layer in generator_layers(field):
        g = field.coerce(layer.gen())
        rows = [[None] * m for _ in range(m)]
        for j in range(m):
            sol = span.coords(coords_over(field, g * lbasis[j], f0))
            for l in range(m):
                entry = field.zero()
                for i in range(mk):
                    c = sol[l * mk + i]
                    if c:
                        entry = entry + field.coerce(c) * kbasis[i]
                rows[l][j] = entry
        images[layer] = Matrix(field, rows)
    return Bimodule(field, images, rank=m, base=sub,
                    label="regular bimodule")


def tensor(P: Bimodule, Q: Bimodule) -> Bimodule:
    """Tensor product over L: apply Q's action entrywise to P's.

    phi_{P (x) Q}(a) = [Q.phi(P.phi(a)_ij)] for every a, not only the
    generators: X -> [Q.phi(X_ij)] is a ring map Mat_m(L) ->
    Mat_mn(L), so a -> [Q.phi(P.phi(a)_ij)] is a ring map L ->
    Mat_mn(L) that agrees with the images built here on every tower
    generator, and a ring map out of L is fixed by those values.  A
    shared base is central in it too: P.phi(e) = e Id gives blocks
    Q.phi(e) = e Id.  So the product is built unchecked, and its
    ``phi`` evaluates this way, from its factors' cached values."""
    if P.field is not Q.field:
        raise FieldMismatch("tensor factors live over different fields")
    field = P.field
    images = {layer: _blockwise(Q, P.images[layer])
              for layer in generator_layers(field)}
    base = P.base if P.base is Q.base else None
    T = Bimodule(field, images, rank=P.rank * Q.rank, base=base,
                 check=False, label="tensor")
    T._factors = (P, Q)
    return T


def tensor_power(P: Bimodule, k: int) -> Bimodule:
    """k-fold tensor product of the bimodule with itself."""
    if k < 1:
        raise ValueError("tensor power needs k >= 1")
    out = P
    for _ in range(k - 1):
        out = tensor(out, P)
    return out


def direct_sum(P: Bimodule, Q: Bimodule) -> Bimodule:
    if P.field is not Q.field:
        raise FieldMismatch("summands live over different fields")
    field = P.field
    images = {}
    for layer in generator_layers(field):
        A, B = P.images[layer], Q.images[layer]
        zeroTR = Matrix.zeros(field, P.rank, Q.rank)
        zeroBL = Matrix.zeros(field, Q.rank, P.rank)
        images[layer] = Matrix.from_blocks(
            field, [[A, zeroTR], [zeroBL, B]]
        )
    base = P.base if P.base is Q.base else None
    return Bimodule(field, images, rank=P.rank + Q.rank, base=base,
                    label="direct sum")


def base_change(P: Bimodule, E) -> Bimodule:
    """Extend scalars on both sides along a literal tower extension
    E of the bimodule's field; the rank multiplies by [E : L]."""
    L = P.field
    if not is_layer_of(L, E):
        raise FieldMismatch("base change target must extend the tower")
    basis = [E.coerce(b) for b in tower_basis(E, L)]
    m = len(basis)
    images = {}
    for layer in generator_layers(E):
        g = E.coerce(layer.gen())
        blocks = [[None] * m for _ in range(m)]
        for k in range(m):
            lam = coords_over(E, g * basis[k], L)
            for l in range(m):
                small = P.phi(lam[l])
                blocks[l][k] = small.map_entries(E.coerce, E)
        images[layer] = Matrix.from_blocks(E, blocks)
    base = P.base
    return Bimodule(E, images, rank=P.rank * m, base=base,
                    label="base change")


def restrict_scalars(P: Bimodule, layer) -> Bimodule:
    """View the bimodule over a lower tower layer K; the rank
    multiplies by [L : K]."""
    L = P.field
    if not is_layer_of(layer, L):
        raise FieldMismatch("restriction target must be a tower layer")
    cbasis = [L.coerce(b) for b in tower_basis(L, layer)]
    s = len(cbasis)
    d = P.rank
    images = {}
    for lay in generator_layers(layer):
        a = L.coerce(lay.gen())
        A = P.phi(a)
        rows = [[None] * (d * s) for _ in range(d * s)]
        for i in range(d):
            for j in range(s):
                for k in range(d):
                    cs = coords_over(L, A.rows[k][i] * cbasis[j], layer)
                    for l in range(s):
                        rows[k * s + l][i * s + j] = cs[l]
        images[lay] = Matrix(layer, rows)
    return Bimodule(layer, images, rank=d * s, label="restricted")


# ----------------------------------------------------- right polynomials


def min_poly_right(P: Bimodule, a, require_central=False) -> Polynomial:
    """Minimal polynomial of right multiplication transport phi(a).

    With ``require_central`` the coefficients are checked against the
    exact center; escape raises CoefficientEscapesZ.  For weakly Galois
    bimodules the coefficients always lie in the center, so an escape
    certifies the input is not weakly Galois."""
    mu = P.phi(a).minpoly()
    if require_central:
        center, exact = P.center()
        if not exact or center is None:
            raise UnsupportedBase(
                "cannot certify central coefficients without the exact "
                "center"
            )
        verify_central_coefficients(mu, center)
    return mu


def verify_central_coefficients(poly: Polynomial, center: Subfield):
    """Check that every coefficient lies in the center.  Raises
    CoefficientEscapesZ."""
    for i, c in enumerate(poly.coeffs):
        if subfield_coords(center, c) is None:
            raise CoefficientEscapesZ(
                "coefficient of degree %d lies outside the center: %r"
                % (i, c)
            )
    return True


# ----------------------------------------------------------- analysis


class GrFactor(_Record):
    """One isotypic slot of the composition series at the L-level."""

    min_poly: Polynomial      # irreducible over L
    multiplicity: int         # composition multiplicity in the bimodule
    insep_exponent: int       # e with the factor purely inseparable p^e
    characters: list          # embeddings L -> E realized by this factor


class BimoduleAnalysis(_Record):
    bimodule: Bimodule
    center: Subfield
    primitive: object
    min_poly: Polynomial      # of the primitive element, over the center
    splitting: SplittingData
    iota: FieldMorphism       # chosen embedding of L in the splitting field
    gamma: AutomorphismGroup  # automorphisms of E over the center
    h_indices: list           # stabilizer of iota(L) inside gamma
    rho: list                 # gamma index -> its restriction to L, as
                              # an index into characters in factor order
    factors: list             # GrFactor entries, zero multiplicities kept
    semisimple: bool
    is_split: bool
    h_normal: bool


def analyze(P: Bimodule, E=None, iota_images=None, hints=(),
            expected_gamma=None) -> BimoduleAnalysis:
    """Full composition-series analysis of a bimodule over its center.

    In computed mode a normal L is analysed in E = L: when the center
    is a layer K of L and |Aut(L/K)| = [L:K] = deg mu, L/K is Galois
    and L is its own splitting field of mu (Lang, Algebra, V.3).  Any
    other L is analysed in the splitting tower of mu that
    ``splitting_field`` builds by factorization.  Towers over rational
    function fields cannot be factored, so for a non-normal L there the
    caller supplies a tower E (built over the same center layer)
    together with optional root hints, and everything found inside it
    is verified rather than trusted.  In every mode the roots of mu in
    E are the Gamma-values sigma(iota(a)), each as often in mu as
    iota(a), and no root is searched for; when they fall short of
    deg mu, a root outside them is no character's value, so
    ResolutionError is raised, not factored.

    ``iota_images`` fixes the embedding iota of L in E, one image per
    tower layer; the map must fix the center, or ResolutionError is
    raised.  Without it iota is the character of least key."""
    L = P.field
    d = P.rank
    center, exact = P.center()
    if not exact or center is None:
        raise UnsupportedBase(
            "the center is only bounded below by the declared base; "
            "the composition analysis needs the exact center"
        )
    n = center.degree_in_ambient()
    a = primitive_element_over(L, center)
    mu = min_poly_over(L, a, center)
    K = center.field
    computed, gamma = E is None, None
    if computed and is_layer_of(K, L):
        group = automorphisms_over(L, K, hints=hints)
        if group.order == mu.degree:
            E, gamma = L, group
            _check_count("automorphisms", gamma.order, expected_gamma)
    if E is None:
        splitting = splitting_field(mu)
        E = splitting.field
    elif not is_layer_of(K, E):
        raise FieldMismatch(
            "supplied splitting tower does not extend the center"
        )
    else:
        splitting = None
    if gamma is None:
        gamma = automorphisms_over(E, K, hints=hints,
                                   expected=expected_gamma)
    iota = _embedding(L, E, center, iota_images, hints)
    # iota and Gamma fix the center, so each v = sigma(iota(a)) is a root
    # of mu as often as iota(a), m_a times, and fixes the character
    # iota * sigma, as a generates L over the center
    ia = iota.apply(a)
    m_a = _divide_out(mu.map_coeffs(E, E.coerce), [ia])[0][0][1]
    values = [sigma.apply(ia) for sigma in gamma]
    by_value = dict(zip(values, gamma))   # any sigma of a value will do
    reached = len(by_value) * m_a
    if reached != mu.degree:
        raise ResolutionError(
            "the Gamma-values of iota(a) reach %d of the %d roots of mu; "
            "%d degrees unaccounted for (supply root hints)"
            % (reached, mu.degree, mu.degree - reached)
        )
    if splitting is None:
        # in computed mode E = L = K(a) is generated by the roots of mu
        splitting = SplittingData(E, [(v, m_a) for v in by_value],
                                  minimal=True if computed else None)
    # E is normal over the center, so the characters are the iota * sigma,
    # sorted by key; rho sends sigma to its character through its value
    pairs = sorted(((v, iota * sigma) for v, sigma in by_value.items()),
                   key=lambda vc: vc[1].key())
    chars = [c for _, c in pairs]
    index = {v: i for i, (v, _) in enumerate(pairs)}
    rho = [index[v] for v in values]
    tab = gamma.table()
    if iota_images is None:
        # move a found iota to the least character, iota * gamma[g0]
        g0 = rho.index(0)
        iota = chars[0]
        rho = [rho[tab[g0][g]] for g in range(len(rho))]
    h_indices = [g for g, r in enumerate(rho) if r == rho[0]]
    # the H-orbit of the character of gamma[g]: those of g * h, h in H
    orbits = sorted({tuple(sorted({rho[tab[g][h]] for h in h_indices}))
                     for g in range(len(rho))})
    L_sub = Subfield(E, L, iota)
    factors = []
    p = L.characteristic
    M = P.phi(a)
    chi = M.charpoly()   # the multiplicities, see the module docstring
    descended = []   # (orbit, mu_k, e) per H-orbit
    for orbit in orbits:
        q = Polynomial.one(E)
        for i in orbit:
            q = q * Polynomial(E, [-pairs[i][0], E.one()])
        e = 0
        while True:
            # q descends to L when its coefficients lie in iota(L)
            coeffs = [subfield_coords(L_sub, c) for c in q.coeffs]
            if all(c is not None for c in coeffs):
                break
            if p == 0 or q.degree * p > n:
                raise ResolutionError(
                    "an orbit polynomial does not descend to the field; "
                    "the analysis data is inconsistent"
                )
            q = q**p
            e += 1
        descended.append((orbit, Polynomial(L, coeffs), e))
    # one scan divides the roots of the monic linear mu_k out of chi;
    # the others are coprime to them and divide what is left
    found, rest = _divide_out(
        chi, [-mu_k.coeff(0) for _, mu_k, _ in descended if mu_k.degree == 1])
    linear_mult = dict(found)
    total = 0
    simple = True   # every supported mu_k is a simple factor of mu_L
    for orbit, mu_k, e in descended:
        if mu_k.degree == 1:
            mult = linear_mult.get(-mu_k.coeff(0), 0)
        else:
            mult = _multiplicity_in(rest, mu_k)
        # over E, mu_k is q's roots each p^e times and mu_L each m_a times
        simple = simple and (p**e == m_a or not mult)
        total += mu_k.degree * mult
        factors.append(GrFactor(mu_k, mult, e, [chars[i] for i in orbit]))
    if total != d:
        raise ResolutionError(
            "composition factors account for %d of %d dimensions; "
            "characters are missing (supply root hints)" % (total, d)
        )
    # the minimal polynomial of M divides mu_L and its irreducible
    # factors are the supported mu_k: it is squarefree, and M
    # semisimple, when each is simple in mu_L or their product kills M
    supported = [f.min_poly for f in factors if f.multiplicity]
    semisimple = simple or prod(supported, start=Polynomial.one(L)).evaluate(
        M, lift=P._scalar).is_zero()
    # split at the gr level: every supported factor is a twist, i.e.
    # its character maps L into iota(L), i.e. the factor has degree 1
    is_split = all(f.degree == 1 for f in supported)
    h_normal = gamma.is_normal_subgroup(h_indices)
    # reindex rho from key order to factor order
    position = {i: k for k, i in enumerate(sum(orbits, ()))}
    analysis = BimoduleAnalysis(
        bimodule=P,
        center=center,
        primitive=a,
        min_poly=mu,
        splitting=splitting,
        iota=iota,
        gamma=gamma,
        h_indices=h_indices,
        rho=[position[r] for r in rho],
        factors=factors,
        semisimple=semisimple,
        is_split=is_split,
        h_normal=h_normal,
    )
    return analysis


def _embedding(L, Efield, center: Subfield, iota_images, hints):
    """iota: L -> E over the center, from the supplied images or else
    the first map the enumeration finds that fixes the center."""
    gens = _tower_generators(center.field)

    def fixes_center(g):
        return all(g.apply(center.embed(x)) == Efield.coerce(x)
                   for x in gens)

    if iota_images is not None:
        iota = FieldMorphism(L, Efield, dict(iota_images), check=True)
        if not fixes_center(iota):
            raise ResolutionError("the supplied embedding moves the center")
        return iota
    fixed = center.field if is_layer_of(center.field, L) else scalar_layer(L)
    found = _enumerate_maps(L, Efield, fixed, hints)
    iota = next((g for g in found if fixes_center(g)), None)
    if iota is None:
        raise ResolutionError("no embeddings of the field were found; "
                              "supply root hints")
    return iota


# ----------------------------------------------- Galois property checks


def _support(an: BimoduleAnalysis):
    """U: the indices of the elements of gamma whose characters are
    supported."""
    mults = [f.multiplicity for f in an.factors for _ in f.characters]
    return [gi for gi, ci in enumerate(an.rho) if mults[ci]]


def is_weakly_galois(P: Bimodule, analysis=None, **kw):
    """True/False when decidable, None when the analysis cannot be
    completed with the given data (tri-state).  Weakly Galois means
    that U, the elements of gamma with supported characters, has
    U * U inside U."""
    try:
        an = analysis if analysis is not None else analyze(P, **kw)
    except ANALYSIS_OBSTRUCTIONS:
        return None
    U = set(_support(an))
    tab = an.gamma.table()
    return all(tab[a][b] in U for a in U for b in U)


def is_galois(P: Bimodule, analysis=None, **kw):
    """Tri-state like is_weakly_galois, additionally requiring constant
    multiplicities and a group-shaped support."""
    try:
        an = analysis if analysis is not None else analyze(P, **kw)
    except ANALYSIS_OBSTRUCTIONS:
        return None
    wg = is_weakly_galois(P, analysis=an)
    if not wg:
        return wg
    if len({f.multiplicity for f in an.factors if f.multiplicity}) != 1:
        return False
    return an.gamma.is_subgroup(_support(an))


class GaloisVerdict(_Record):
    """Tri-state outcome: booleans when decided, else the obstruction
    that stopped the analysis (a DegreeBound from probing, or the
    original analysis failure)."""

    weakly_galois: object
    galois: object
    obstruction: object
    analysis: object = None   # witness data backing a decided verdict

    @property
    def decided(self):
        return self.obstruction is None


def galois_verdict(P: Bimodule, **kw) -> GaloisVerdict:
    try:
        an = analyze(P, **kw)
    except ANALYSIS_OBSTRUCTIONS as err:
        obstruction = err
        if isinstance(err, UnsupportedBase):
            # center not linearly computable; see whether a bounded
            # splitting ladder would have resolved the spectra at all
            try:
                split_probe(P, cap=DEFAULT_TOWER_CAP,
                            hints=kw.get("hints", ()))
            except (DegreeBound, ResolutionError) as probe_err:
                obstruction = probe_err
        return GaloisVerdict(None, None, obstruction)
    return GaloisVerdict(
        is_weakly_galois(P, analysis=an),
        is_galois(P, analysis=an),
        None,
        analysis=an,
    )


class Classification(_Record):
    """Recognition of a bimodule as r copies of the regular bimodule
    over its center."""

    center: Subfield
    degree: int          # [L : center]
    multiplicity: int    # r with the bimodule ~ r * (L (x)_F L)


def _multiplicity_in(f: Polynomial, g: Polynomial) -> int:
    """The largest m with g^m dividing f (f nonzero, g nonconstant)."""
    m, (quotient, rest) = 0, f.divmod(g)
    while rest.is_zero():
        m, (quotient, rest) = m + 1, quotient.divmod(g)
    return m


def classify(P: Bimodule, analysis=None, **kw) -> Classification:
    """Recognize P as r copies of the regular bimodule L (x)_F L.

    L (x)_F L is L[x]/(mu_L), the primitive element acting as x, so each
    factor occurs in it with its multiplicity in mu_L, m_a / p^e for the
    multiplicity m_a of every root of mu and the factor's inseparable
    exponent e; P must have r times that, for r = rank / [L : F]."""
    an = analysis if analysis is not None else analyze(P, **kw)
    d = P.rank
    n = an.center.degree_in_ambient()
    if d % n:
        raise ClassificationFailed(
            "rank %d is not a multiple of the center degree %d" % (d, n)
        )
    r = d // n
    m_a = an.splitting.roots[0][1]
    p = P.field.characteristic
    for f in an.factors:
        want = r * (m_a // p**f.insep_exponent)
        if f.multiplicity != want:
            raise ClassificationFailed(
                "factor %r has multiplicity %d, expected %d"
                % (f.min_poly, f.multiplicity, want)
            )
    return Classification(center=an.center, degree=n, multiplicity=r)


class SplitData(_Record):
    """Splitting picture of a bimodule over its center."""

    analysis: BimoduleAnalysis
    is_split: bool
    trivial_witness: object   # column spanning a trivial subbimodule
    minimal_field: Subfield   # generated by iota(L) and supported roots
    closure_indices: tuple    # subgroup spanned by supported extensions
    h_normal_in_closure: bool


def split_analysis(P: Bimodule, analysis=None, **kw) -> SplitData:
    """Bundle the composition analysis with splitting witnesses.

    Returns a vector spanning a trivial subbimodule (nonzero whenever
    the trivial character is supported, so always for weakly Galois
    input), the subfield of the splitting tower generated by the
    embedded field together with the supported eigenvalues (computed as
    the fixed field of their joint pointwise stabilizer), the subgroup
    generated by all extensions of supported characters, and whether
    the embedded field's stabilizer is normal in that subgroup.  For
    weakly Galois bimodules the last flag agrees with is_split."""
    an = analysis if analysis is not None else analyze(P, **kw)
    gens = _tower_generators(P.field)
    ker = joint_eigenspace([P.phi(g) for g in gens], gens)
    witness = ker[0] if ker else None
    E = an.splitting.field
    targets = [an.iota.apply(x) for x in gens]
    for f in an.factors:
        if f.multiplicity:
            targets.extend(g.apply(an.primitive) for g in f.characters)
    minimal = fixed_field(
        E, [an.gamma[i] for i in an.gamma.pointwise_stabilizer(targets)]
    )
    closure = an.gamma.subgroup_closure(_support(an) + an.h_indices)
    tab = an.gamma.table()
    hset = set(an.h_indices)
    normal = all(
        tab[tab[an.gamma.inverse_index(g)][h]][g] in hset
        for g in closure
        for h in hset
    )
    return SplitData(
        analysis=an,
        is_split=an.is_split,
        trivial_witness=witness,
        minimal_field=minimal,
        closure_indices=tuple(sorted(closure)),
        h_normal_in_closure=normal,
    )


# ------------------------------------------------------- split probing


class ProbeResult(_Record):
    field: object
    steps: int
    resolved: bool


def split_probe(P: Bimodule, cap=DEFAULT_TOWER_CAP, max_steps=16,
                hints=()) -> ProbeResult:
    """Bounded attempt to split the right spectra of the tower
    generators by stacking binomial extensions.

    Roots are searched for in ``morphisms._candidate_pool`` of each
    rung's field, the same pool as morphism enumeration: the tower
    generators (the rational function variable among them) and the
    hints with their negatives, and +- every product of two of them.

    This is a conservative semi-decision procedure: the lineage
    polynomials tracked for adjoined roots are upper bounds for the
    spectra, so the probe may extend further than strictly necessary,
    but a DegreeBound raised here honestly means the ladder exceeded
    the cap without resolving.

    Each needed polynomial keeps its remaining factor: the polynomial
    with every root in the step's pool divided out to its full
    multiplicity.  The embedding of a step's field into the next is
    injective, so a pool element that is not a root stays a non-root
    one step up; a remainder is therefore scanned only against the new
    pool elements, those involving the new generator, and only a new
    lineage polynomial meets the whole pool."""
    L = P.field
    pool = _candidate_pool(L, hints)
    remainders = []
    tracked = {}
    for g in _tower_generators(L):
        mu = min_poly_right(P, g)
        remainders.append(_divide_out(mu, pool)[1])
        tracked[g] = mu
    E = L
    step = 0
    while True:
        # a linear remainder has its root in E already
        remainders = [rem for rem in remainders if rem.degree >= 2]
        if not remainders:
            return ProbeResult(field=E, steps=step, resolved=True)
        step += 1
        if step > max_steps:
            raise ResolutionError(
                "splitting probe made no decision within %d steps"
                % max_steps
            )
        rel, lineage = _peel_binomial(remainders[0], E, tracked, pool)
        w = extend(E, rel, "q%d" % step, max_degree=cap, validate=False)
        pool = _candidate_pool(w, hints)
        fresh = [r for r in pool if any(r.coords[1:])]   # not from E
        remainders = [
            _divide_out(rem.map_coeffs(w, w.coerce), fresh)[1]
            for rem in remainders
        ]
        lineage_w = lineage.map_coeffs(w, w.coerce)
        remainders.append(_divide_out(lineage_w, pool)[1])
        gen = w.coerce(w.gen())
        tracked = {w.coerce(v): mu.map_coeffs(w, w.coerce)
                   for v, mu in tracked.items()}
        tracked[gen] = lineage_w
        E = w


def _peel_binomial(rem: Polynomial, E, tracked, pool):
    """Extract a binomial step x^m - c with a tracked spectrum bound
    for c from a remaining factor; returns (relation, lineage).

    The remaining polynomial is written as g(x^k) for the largest
    possible k; the first root c of g that ``_divide_out`` finds in the
    pool gives the candidate binomial x^k - c, which is then halved
    through such square roots as long as that keeps it (apparently)
    irreducible."""
    rem = rem.monic()
    exps = [j for j in range(1, rem.degree + 1) if rem.coeff(j)]
    k = 0
    for j in exps:
        k = gcd(k, j)
    if k < 2:
        raise ResolutionError(
            "splitting probe only follows binomial ladders"
        )
    g = Polynomial(E, [rem.coeff(i * k) for i in range(rem.degree // k + 1)])
    if g.degree == 1:
        c = -g.coeff(0)
    else:
        found = _divide_out(g, pool)[0]
        if not found:
            raise ResolutionError(
                "splitting probe only follows binomial ladders"
            )
        c = found[0][0]
    m = k
    while m % 2 == 0 and m > 2:
        found = _divide_out(Polynomial(E, [-c, E.zero(), E.one()]), pool)[0]
        if not found:
            break
        m //= 2
        c = found[0][0]
    # lineage: spec(phi(w))^m lands in sign * (tracked spectrum)
    for sign in (E.one(), -E.one()):
        mu_c = tracked.get(sign * c)
        if mu_c is not None:
            coeffs = {}
            for i in range(mu_c.degree + 1):
                ci = mu_c.coeff(i)
                coeffs[i * m] = ci if i % 2 == 0 else ci * sign
            lineage = Polynomial(
                E,
                [coeffs.get(j, E.zero())
                 for j in range(mu_c.degree * m + 1)],
            )
            rel = Polynomial(
                E, [-c] + [E.zero()] * (m - 1) + [E.one()]
            )
            return rel, lineage
    raise ResolutionError(
        "splitting probe cannot bound the spectrum of the required root"
    )

