"""Field morphisms between towers and automorphism groups.

A morphism is stored as one image per tower layer (the generator image
for algebraic layers, the variable image for rational function layers);
layers the caller leaves out map canonically.  Application is
``towers.evaluate``; the canonical prefix (the bottom layers sent to
their own generators) is left to coercion.  Composition reads left to
right: (f * g)(x) = g(f(x)).  Morphisms, like field elements, are
their own dictionary keys: identity is ``==`` on the images and the hash
of the images; ``FieldMorphism.key`` (``factor._elem_sort_key`` on each
image) only orders groups and embedding lists.

Every root a search finds is checked, and divided out to its full
multiplicity, by one routine, ``_divide_out``: one try of each
candidate r of a list, in order.  A try (``_root_quotient``) is one
synthetic division by x - r.  Before that, a try is screened at a
place (``_places``): a ring map from the tower to F_P, P a prime near
10^6, through ``towers.evaluate``.  If f(r) = 0 then its image is 0,
so a nonzero f(r) mod P proves r is not a root with no tower product.
A place needs only a root mod P of each mapped layer relation, so the
screen is sound on a reducible ``validate=False`` rung too; it proves
nothing about irreducibility.  Its scope is characteristic-0 towers
whose algebraic layers have degree at most 2 (their roots come from
the quadratic formula); other fields, and an f or r whose denominator
vanishes at the place, keep every try exact.  Only the candidates
differ:

- ``_roots_in_pool`` tries the candidate pool (``_candidate_pool``:
  the tower generators and supplied hints with their negatives, the
  roots a computed splitting field recorded on its field, and +- the
  product of every two of the generators and hints), then the roots
  ``factor.roots_in_coefficient_field`` gives for what is left, where
  the field allows it.  Morphism enumeration backtracks over layer
  generators and takes each generator's images from it;
  ``fieldops.locate_roots`` is the same call.
- ``_orbit`` tries the images of the roots found so far under known
  maps: ``fieldops.splitting_field`` (``_conjugates``) searches no pool.
- ``bimod.split_probe`` scans the same pool, one per rung, and never
  factors.

``bimod.analyze`` searches for no root of mu: they are the values
sigma(iota(a)) of verified maps fixing the center, and one division
reads the multiplicity of iota(a).  One scan over the roots of the
linear factors mu_k reads their multiplicities in the characteristic
polynomial.

The enumeration is lazy: ``_enumerate_maps`` yields each map as it
completes it, so ``bimod.analyze``, which needs one embedding, stops at
the first that fixes the center.  When the caller states an expected
order and fewer maps are found, the search reports failure rather than
returning a silently partial group.

``AutomorphismGroup.table`` composes exactly only with a greedy
generating set S and fills every other column by associativity, so it
costs |G|*|S| <= |G| log2 |G| compositions instead of |G|^2.  One
closure check per generator column covers the whole set: its elements
are all words in S, and a finite set closed under right multiplication
by each generator is closed under composition.
"""

from __future__ import annotations

import itertools

from .errors import (
    FieldMismatch,
    NotAHomomorphism,
    NotASubgroup,
    NotInvertible,
    ResolutionError,
    UnsupportedBase,
)
from .factor import _elem_sort_key, roots_in_coefficient_field
from .fieldbase import GF
from .poly import Polynomial
from .towers import (
    ExtensionField,
    RationalFunctionField,
    broken_relation,
    chain,
    evaluate,
    generator_layers,
    is_layer_of,
)


class FieldMorphism:
    __slots__ = ("domain", "codomain", "images", "_moved")

    def __init__(self, domain, codomain, images, check=True):
        self.domain = domain
        self.codomain = codomain
        fixed = {}
        moved = {}
        for layer in generator_layers(domain):
            canonical = None
            if is_layer_of(layer, codomain):
                canonical = codomain.coerce(layer.gen())
            if layer in images:
                fixed[layer] = codomain.coerce(images[layer])
            elif canonical is not None:
                fixed[layer] = canonical
            else:
                raise NotAHomomorphism(
                    "no image supplied for layer %r" % (layer,)
                )
            # the canonical prefix (bottom layers sent to their own
            # generator) stays out of ``moved`` and maps by coercion
            if moved or canonical is None or fixed[layer] != canonical:
                moved[layer] = fixed[layer]
        self.images = fixed
        self._moved = moved
        if check:
            self._verify()

    def _verify(self):
        bad = self._through(broken_relation)
        if bad is not None:
            raise NotAHomomorphism(
                "image of %s does not satisfy its relation" % bad.var
            )

    def apply(self, x):
        return self._through(evaluate, x, self.domain)

    def _through(self, fn, *args):
        """fn(*args, images, lift) for this map's images and lift, with a
        vanishing denominator reported as NotAHomomorphism."""
        try:
            return fn(*args, self._moved, self.codomain.coerce)
        except (NotInvertible, ZeroDivisionError):
            raise NotAHomomorphism(
                "variable image makes a denominator vanish"
            ) from None

    def key(self):
        """The images' sort keys, layer by layer: an order, not an
        identity (that is ``==``)."""
        return tuple(map(_elem_sort_key, self.images.values()))

    def __mul__(self, other):
        """Left-to-right composition: (self * other)(x) = other(self(x))."""
        if not isinstance(other, FieldMorphism):
            return NotImplemented
        if other.domain is not self.codomain:
            raise FieldMismatch("composition domain mismatch")
        images = {
            layer: other.apply(img) for layer, img in self.images.items()
        }
        return FieldMorphism(self.domain, other.codomain, images, check=False)

    def is_identity(self):
        if self.domain is not self.codomain:
            return False
        for layer, img in self.images.items():
            if img != self.codomain.coerce(layer.gen()):
                return False
        return True

    def fixes(self, x):
        return self.apply(x) == self.codomain.coerce(x)

    def __eq__(self, other):
        return (
            isinstance(other, FieldMorphism)
            and other.domain is self.domain
            and other.codomain is self.codomain
            and other.images == self.images
        )

    def __hash__(self):
        return hash(tuple(self.images.values()))

    def __repr__(self):
        parts = []
        for layer in generator_layers(self.domain):
            parts.append("%s -> %r" % (layer.var, self.images[layer]))
        return "{%s}" % ", ".join(parts)


def identity_morphism(field):
    return FieldMorphism(field, field, {}, check=False)


def inclusion_morphism(sub, field):
    if not is_layer_of(sub, field):
        raise FieldMismatch("%r is not a layer of %r" % (sub, field))
    return FieldMorphism(sub, field, {}, check=False)


class AutomorphismGroup:
    """A finite, composition-closed set of automorphisms of one field.

    Elements are deduplicated by ``==`` and indexed; the identity sits
    at index 0 and the rest are sorted by ``FieldMorphism.key``, so
    indices are stable."""

    def __init__(self, field, morphisms):
        self.field = field
        elements = list(dict.fromkeys(morphisms))
        if any(m.domain is not field or m.codomain is not field
               for m in elements):
            raise FieldMismatch("automorphisms of a different field")
        elements.sort(key=lambda m: (not m.is_identity(), m.key()))
        if not elements or not elements[0].is_identity():
            elements.insert(0, identity_morphism(field))
        self.elements = elements
        self._index = {m: i for i, m in enumerate(elements)}
        self._table = None
        self._inverses = None

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def index(self, m: FieldMorphism) -> int:
        i = self._index.get(m)
        if i is None:
            raise NotASubgroup("morphism is not in the group")
        return i

    def table(self):
        """table[i][j] = index of elements[i] * elements[j].

        Composes only the columns of a greedy generating set S (the
        least unreached index, until all are reached), |G|*|S|
        compositions; a column j = p*g is table[table[i][p]][g]."""
        if self._table is None:
            els, index = self.elements, self._index
            tab = [[i] + [None] * (len(els) - 1) for i in range(len(els))]
            reached, gens = [0], []
            for g, b in enumerate(els):
                if tab[0][g] is not None:
                    continue
                for i, a in enumerate(els):
                    prod = index.get(a * b)
                    if prod is None:
                        raise NotASubgroup(
                            "set of automorphisms is not closed under "
                            "composition"
                        )
                    tab[i][g] = prod
                gens.append(g)
                reached.append(g)
                for p in reached:   # the BFS queue, grown while it is read
                    for h in gens:
                        j = tab[p][h]
                        if tab[0][j] is None:
                            reached.append(j)
                            for row in tab:
                                row[j] = tab[row[p]][h]
            self._table = tab
        return self._table

    def inverse_index(self, i: int) -> int:
        if self._inverses is None:
            self._inverses = [row.index(0) for row in self.table()]
        return self._inverses[i]

    def is_abelian(self):
        tab = self.table()
        n = len(self.elements)
        return all(
            tab[i][j] == tab[j][i] for i in range(n) for j in range(i)
        )

    def subgroup_closure(self, indices):
        """The sorted indices of the subgroup the given elements
        generate: the identity's orbit under right multiplication by
        them, a finite set closed under products."""
        tab = self.table()
        gens = set(indices)
        out = [0]
        for p in out:   # the BFS queue, grown while it is read
            for g in gens:
                k = tab[p][g]
                if k not in out:
                    out.append(k)
        return sorted(out)

    def is_subgroup(self, indices) -> bool:
        s = set(indices)
        if 0 not in s:
            return False
        tab = self.table()
        return all(
            tab[i][j] in s and tab[i][self.inverse_index(j)] in s
            for i in s
            for j in s
        )

    def is_normal_subgroup(self, indices) -> bool:
        if not self.is_subgroup(indices):
            raise NotASubgroup("index set is not a subgroup")
        s = set(indices)
        tab = self.table()
        for g in range(len(self.elements)):
            gi = self.inverse_index(g)
            for h in s:
                if tab[tab[gi][h]][g] not in s:
                    return False
        return True

    def pointwise_stabilizer(self, xs):
        return [
            i
            for i, m in enumerate(self.elements)
            if all(m.fixes(x) for x in xs)
        ]


# ------------------------------------------------------------ enumeration


def _candidate_pool(field, hints):
    """The root search pool of ``field`` for these hints, as a tuple of
    distinct elements (by ``==``) in insertion order, memoized on the
    field handle under the tuple of coerced hints like
    ``fieldops.cached_basis`` so one analysis builds it once and it is
    freed together with its tower.

    The entries are the generators of the generator layers, bottom
    first (a rational function layer gives its variable), then the
    hints, each followed by its negative; then the roots a splitting
    field that ``fieldops.splitting_field`` built recorded on itself
    (``_split_roots``), so the automorphisms and embeddings of a
    splitting field are found by the scan without refactoring; then
    +-g*h for every pair of distinct entries g, h of generators and
    hints.  The seeded roots move where a root is found, not which
    roots there are: groups and embedding lists, sorted by key, are
    unchanged, while ``locate_roots`` lists roots in scan order.
    ``analyze`` scans the pool for Gamma and iota only: the roots of mu
    are the Gamma-values of iota(a)."""
    hints = tuple(field.coerce(h) for h in hints)
    cache = vars(field).setdefault("_pool_cache", {})
    if hints not in cache:
        gens = [field.coerce(layer.gen())
                for layer in generator_layers(field)] + list(hints)
        pool = {}   # insertion-ordered set: the first of equal elements
        add = pool.setdefault
        for g in gens:
            add(g)
            add(-g)
        for r in vars(field).get("_split_roots", ()):
            add(r)
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                p = g * h
                add(p)
                add(-p)
        cache[hints] = tuple(pool)
    return cache[hints]


# Places of characteristic-0 towers: these primes (both residues mod 4
# among them), then these images of a rational function variable.
_PLACE_PRIMES = (1000003, 1000033, 1000037, 1000039,
                 1000081, 1000099, 1000117, 1000121)
_VARIABLE_IMAGES = (2, 3, 5, 6, 7, 10, 11, 13)


def _places(field):
    """The places (F_P, images) of a characteristic-0 tower, lazily and
    depth first: ring maps, through ``evaluate`` with ``lift =
    F_P.coerce``, sending each rational function variable to an entry
    of ``_VARIABLE_IMAGES`` and each algebraic generator to a root mod
    P of its layer's mapped relation.  A layer extends its base's
    places in order, so a field with no place of its own costs the
    search through the next place of the base; a layer of degree 3 or
    more, and characteristic p, have none.  The places found are
    memoized on the field handle, like ``_pool_cache``, so a new layer
    reuses its base's search and they die with the tower."""
    found, search = vars(field).setdefault(
        "_places", ([], _place_search(field)))
    for i in itertools.count():
        if i == len(found):
            place = next(search, None)
            if place is None:
                return
            found.append(place)
        yield found[i]


def _place_search(field):
    if field.characteristic:
        return
    if isinstance(field, RationalFunctionField):
        for F, images in _places(field.coefficient_field):
            for v in _VARIABLE_IMAGES:
                yield F, {**images, field: F.from_int(v)}
    elif isinstance(field, ExtensionField):
        if field.degree > 2:
            return
        for F, images in _places(field.base):
            try:
                b, c = (evaluate(field.relation.coeff(k), field.base, images,
                                 F.coerce).value for k in (1, 0))
            except (FieldMismatch, NotInvertible):
                continue
            root = _sqrt_mod(b * b - 4 * c, F.p)
            if root is None:
                continue
            half = (F.p + 1) // 2
            for r in dict.fromkeys((root, -root % F.p)):
                yield F, {**images, field: F.from_int((r - b) * half)}
    else:
        for p in _PLACE_PRIMES:
            yield GF(p), {}


def _sqrt_mod(a, p):
    """A square root of a mod the odd prime p, or None when a is not a
    square (Tonelli-Shanks)."""
    a %= p
    if pow(a, (p - 1) // 2, p) > 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in itertools.count(2) if pow(z, (p - 1) // 2, p) > 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:
        i, u = 0, t
        while u != 1:
            i, u = i + 1, u * u % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _at_place(place, field, xs):
    """The images mod P of the elements ``xs`` of ``field`` at ``place``
    as ints, or None when there is no place or one of them does not
    map (a denominator vanishes there)."""
    if place is None:
        return None
    F, images = place
    try:
        return [evaluate(x, field, images, F.coerce).value if x else 0
                for x in xs]
    except (FieldMismatch, NotInvertible):
        return None


def _divide_out(f, pool):
    """Scan ``pool`` in order and divide each root of f out to its full
    multiplicity, with no factoring.  Returns (found, remaining):
    (root, multiplicity) pairs with distinct roots, and what is left.
    A try is ``_root_quotient``, one synthetic division by x - r.

    At the first place of f's field (``_places``) a try is screened
    first: f and r are mapped to F_P, and a nonzero f(r) mod P proves r
    is not a root, since a place is a ring map on the elements it is
    defined on; the exact try then never runs.  Only a value 0 mod P,
    or an f or r that does not map, leaves the try to the tower.  After
    a root the mapped remainder is the synthetic quotient mod P, so the
    try that ends a multiplicity count is screened too."""
    field = f.field
    place = next(_places(field), None)
    fbar = _at_place(place, field, reversed(f.coeffs))   # high first
    remaining = f
    found = []
    for r in pool:
        if remaining.degree < 1:
            break
        rbar = _at_place(place, field, (r,))
        mult = 0
        while True:
            sums = None
            if fbar is not None and rbar is not None:
                sums = _sums_mod(fbar, rbar[0], place[0].p)
                if sums[-1]:
                    break
            quotient = _root_quotient(remaining.coeffs, r)
            if quotient is None:
                break
            remaining = Polynomial(field, quotient, trusted=True)
            mult += 1
            fbar = (sums[:-1] if sums is not None
                    else _at_place(place, field, reversed(quotient)))
        if mult:
            found.append((r, mult))
    return found, remaining


def _sums_mod(coeffs, r, p):
    """Horner's partial sums mod p of the polynomial with ``coeffs``
    (high degree first) at r: the quotient by x - r, then the value."""
    sums, acc = [], 0
    for c in coeffs:
        acc = (acc * r + c) % p
        sums.append(acc)
    return sums


def _root_quotient(coeffs, r):
    """The coefficients of f/(x - r), for f with ``coeffs`` (low degree
    first), or None when f(r) != 0, by synthetic division: the partial
    sums s_n = c_n, s_k = s_(k+1) r + c_k are the quotient (s_1, ...,
    s_n) and the value s_0.  A product is made only for s_(k+1) not 0
    or 1, so a try costs at most n products."""
    s = coeffs[-1]
    sums = [s]
    for c in reversed(coeffs[:-1]):
        if s:
            t = r if s == 1 else s * r
            s = t + c if c else t
        else:
            s = c
        sums.append(s)
    return None if s else tuple(reversed(sums[:-1]))


def _orbit(f, r, maps):
    """Roots of f in the orbit of its root r under the group generated
    by ``maps``, automorphisms of f's field: each image of a root found
    so far is divided out of f, so every root is checked by exact
    division.  Returns (found, remaining) as ``_divide_out`` does."""
    found, remaining = _divide_out(f, [r])
    for z, _ in found:   # the orbit, grown while it is read
        if remaining.degree < 1:
            break
        new, remaining = _divide_out(remaining, (m.apply(z) for m in maps))
        found += new
    return found, remaining


def _conjugates(g, r):
    """Roots of g, over E = E'[r]/(g), in E: the orbit (``_orbit``) of
    r under the E'-automorphisms r -> y, one for each root y of g among
    +-r^k (0 < k < deg g) other than r."""
    E = g.field
    powers = [r**k for k in range(1, E.degree)]
    maps = [FieldMorphism(E, E, {E: y}, check=False)
            for y in powers[1:] + [-p for p in powers] if not g.evaluate(y)]
    return _orbit(g, r, maps)


def _roots_in_pool(f, pool):
    """Roots of f in its coefficient field: ``_divide_out`` over
    ``pool``, then over the roots ``roots_in_coefficient_field`` finds
    in a nonconstant leftover, where the field supports it.  Returns
    (found, remaining) as ``_divide_out`` does."""
    found, remaining = _divide_out(f, pool)
    if remaining.degree >= 1:
        try:
            located = roots_in_coefficient_field(remaining)
        except UnsupportedBase:
            located = []
        new, remaining = _divide_out(remaining, [r for r, _ in located])
        found += new
    return found, remaining


def _enumerate_maps(domain, codomain, fixed, hints):
    """The field maps domain -> codomain fixing the layer ``fixed``, as
    a lazy iterator in backtracking order; the arguments are checked
    and the pool is built before it is returned."""
    layers = chain(domain)
    if not any(layer is fixed for layer in layers):
        raise FieldMismatch("fixed field is not a layer of the tower")
    if domain is not codomain and not is_layer_of(fixed, codomain):
        raise FieldMismatch("fixed field is not shared with the codomain")
    above = []
    seen_fixed = False
    for layer in layers:
        if layer is fixed:
            seen_fixed = True
            continue
        if not seen_fixed:
            continue
        if isinstance(layer, RationalFunctionField):
            raise UnsupportedBase(
                "cannot enumerate morphisms across a transcendental layer"
            )
        above.append(layer)
    pool = _candidate_pool(codomain, hints)

    def place(idx, images):
        if idx == len(above):
            yield FieldMorphism(domain, codomain, dict(images), check=True)
            return
        layer = above[idx]
        rel = layer.relation.map_coeffs(
            codomain,
            lambda c: evaluate(c, layer.base, images, codomain.coerce),
        )
        roots, _ = _roots_in_pool(rel, pool)
        for r, _mult in roots:
            images[layer] = r
            yield from place(idx + 1, images)
            del images[layer]

    return place(0, {})


def automorphisms_over(field, fixed, hints=(), expected=None):
    """All automorphisms of ``field`` fixing the layer ``fixed``
    pointwise, as an AutomorphismGroup.

    Raises ResolutionError when an expected order is stated and the
    candidate pool fails to realize it (the caller should then supply
    more root hints)."""
    found = _enumerate_maps(field, field, fixed, hints)
    group = AutomorphismGroup(field, found)
    _check_count("automorphisms", group.order, expected)
    return group


def embeddings_over(domain, codomain, fixed):
    """All field maps domain -> codomain fixing the shared layer
    ``fixed`` pointwise, deduplicated by ``==`` and sorted by
    ``FieldMorphism.key``."""
    maps = _enumerate_maps(domain, codomain, fixed, ())
    return sorted(dict.fromkeys(maps), key=FieldMorphism.key)


def _check_count(what, count, expected):
    """ResolutionError when ``expected`` maps are stated (not None) and
    the candidate pool realized ``count`` of them instead."""
    if expected is not None and count != expected:
        raise ResolutionError("found %d %s but expected %d; supply root "
                              "hints" % (count, what, expected))
