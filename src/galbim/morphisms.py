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

Every root is checked, and divided out to its full multiplicity, by
one routine, ``_divide_out``: a synthetic division by x - r for each
candidate r of a list, in order.  Only the candidates differ:

- ``_roots_in_pool`` tries a finite candidate pool (tower generators,
  their negatives, supplied hints, the roots a computed splitting field
  recorded on its field, and two rounds of pairwise products), then
  the roots ``factor.roots_in_coefficient_field`` gives for what is
  left, where the field allows it.  Morphism enumeration backtracks
  over layer generators and takes each generator's images from it;
  ``fieldops.locate_roots`` is the same call.
- ``_orbit`` tries the images of the roots found so far under known
  automorphisms: ``fieldops.splitting_field`` (``_conjugates``) and
  ``bimod.analyze`` (the roots of mu) search no pool.
- ``bimod.split_probe`` tries its own, smaller pool and never factors.

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

from .errors import (
    ClosureBound,
    FieldMismatch,
    NotAHomomorphism,
    NotASubgroup,
    NotInvertible,
    ResolutionError,
    UnsupportedBase,
)
from .factor import _elem_sort_key, roots_in_coefficient_field
from .poly import Polynomial
from .towers import (
    ExtensionField,
    RationalFunctionField,
    chain,
    evaluate,
    generator_layers,
    is_layer_of,
)

CLOSURE_BOUND = 1024


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
        for layer, img in self._moved.items():
            if not isinstance(layer, ExtensionField):
                continue
            value = layer.relation.evaluate(
                img, lift=lambda c, _l=layer: self._image(c, _l.base)
            )
            if value:
                raise NotAHomomorphism(
                    "image of %s does not satisfy its relation" % layer.var
                )

    def apply(self, x):
        return self._image(x, self.domain)

    def _image(self, x, layer):
        try:
            return evaluate(x, layer, self._moved, self.codomain.coerce)
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
        tab = self.table()
        out = {0}
        out.update(indices)
        frontier = list(out)
        while frontier:
            new = []
            for i in frontier:
                for j in list(out):
                    for k in (tab[i][j], tab[j][i]):
                        if k not in out:
                            out.add(k)
                            new.append(k)
                if len(out) > CLOSURE_BOUND:
                    raise ClosureBound(
                        "subgroup closure exceeded %d elements"
                        % CLOSURE_BOUND
                    )
            frontier = new
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

    A splitting field that ``fieldops.splitting_field`` builds carries
    its roots (``_split_roots``); they are seeded right after the
    hints, so the automorphisms and embeddings of a splitting field are
    found by the scan without refactoring.  The seed moves where a root
    is found, not which roots there are: groups and embedding lists,
    sorted by key, are unchanged, while ``locate_roots`` lists roots in
    scan order.  Where ``splitting_field`` did not build E, ``analyze``
    scans the pool for Gamma and iota only: the roots of mu are
    ``_orbit``'s."""
    hints = tuple(field.coerce(h) for h in hints)
    cache = vars(field).setdefault("_pool_cache", {})
    if hints not in cache:
        cache[hints] = _build_pool(field, hints)
    return cache[hints]


def _build_pool(field, hints):
    gens = []
    for layer in chain(field):
        if isinstance(layer, ExtensionField):
            gens.append(field.coerce(layer.gen()))
    pool = {}   # insertion-ordered set: the first of equal elements
    add = pool.setdefault

    for g in gens:
        add(g)
        add(-g)
    for h in hints:
        add(h)
        add(-h)
    for r in vars(field).get("_split_roots", ()):
        add(r)
    # two rounds of products against the generators
    for _ in range(2):
        current = list(pool)
        for a in current:
            for g in gens:
                if len(pool) >= 4000:
                    break
                p = a * g
                add(p)
                add(-p)
    return tuple(pool)


def _divide_out(f, pool):
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


def embeddings_over(domain, codomain, fixed, hints=(), expected=None):
    """All field maps domain -> codomain fixing the shared layer
    ``fixed`` pointwise, deduplicated by ``==`` and sorted by
    ``FieldMorphism.key``."""
    maps = _enumerate_maps(domain, codomain, fixed, hints)
    out = sorted(dict.fromkeys(maps), key=FieldMorphism.key)
    _check_count("embeddings", len(out), expected)
    return out


def _check_count(what, count, expected):
    """ResolutionError when ``expected`` maps are stated (not None) and
    the candidate pool realized ``count`` of them instead."""
    if expected is not None and count != expected:
        raise ResolutionError("found %d %s but expected %d; supply root "
                              "hints" % (count, what, expected))
