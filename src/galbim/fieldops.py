"""Subfield computations inside a fixed ambient tower.

Everything here reduces to linear algebra over the ambient tower's
*scalar layer*: the highest non-algebraic layer (the rationals, a prime
field, or a rational function field).  All layers above it are finite
algebraic extensions, so the ambient field is a finite-dimensional
vector space over the scalar layer and subfields become subspaces.
Fixed spaces (centers, coaction invariants, fixed fields) are all
kernels of maps linear over a sublayer, solved by ``kernel_over``.

A Subfield packages a presented field together with an embedding
morphism into the ambient tower; when the subfield happens to be an
actual tower layer the embedding is the canonical inclusion, and the
same code paths handle both cases.

The library's result records (here, in ``bimod`` and in ``coact``)
derive from ``_Record``, which reads their fields from the class
annotations: the standard library's data-class decorator would cost
every import milliseconds, generating and exec'ing each class's
methods.
"""

from __future__ import annotations

import random

from .errors import (
    FieldMismatch,
    PrimitiveElementNotFound,
    ResolutionError,
    UnsupportedBase,
)
from .factor import _elem_sort_key, _poly_sort_key, factor_poly
from .matrix import Echelon, Matrix
from .morphisms import (
    FieldMorphism,
    _candidate_pool,
    _conjugates,
    _roots_in_pool,
    identity_morphism,
    inclusion_morphism,
)
from .poly import Polynomial
from .towers import (
    ExtensionField,
    algebraic_degree,
    chain,
    coords_over,
    extend,
    from_coords_over,
    generator_layers,
    is_layer_of,
    tower_basis,
)

PRIMITIVE_BUDGET = 1000


def scalar_layer(field):
    """The highest non-algebraic layer of the tower."""
    best = None
    for layer in chain(field):
        if not isinstance(layer, ExtensionField):
            best = layer
    return best


class _Record:
    """A record whose fields are its class's annotated names, in order.

    The constructor takes the fields not starting with ``_`` by position
    or by keyword, a class value being the default; each ``_`` field is
    a cache that starts at its class value, a list copied per instance.
    ``repr`` shows every field.  A class defined with ``eq=False``
    compares and hashes by identity; otherwise ``==`` compares the
    fields of two records of one class, and the record is unhashable
    unless ``frozen=True``, which also forbids assignment."""

    def __init_subclass__(cls, eq=True, frozen=False):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._args = tuple(n for n in cls._fields if n[0] != "_")
        cls._defaults = {n: vars(cls)[n] for n in cls._fields
                         if n in vars(cls)}
        if eq:
            cls.__eq__ = _Record._eq
            cls.__hash__ = _Record._hash if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _Record._frozen

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._args) or (
                kwargs.keys() - set(cls._args[len(args):])):
            raise TypeError("%s() takes the fields %s, got %d positional "
                            "and %s" % (cls.__name__, cls._args, len(args),
                                        sorted(kwargs)))
        given = dict(zip(cls._args, args), **kwargs)
        for name in cls._fields:
            if name in given:
                value = given[name]
            elif name in cls._defaults:
                value = cls._defaults[name]
                if type(value) is list:
                    value = list(value)
            else:
                raise TypeError("%s() misses the field %r"
                                % (cls.__name__, name))
            # bypasses a frozen class's hook, and keeps the instance's
            # attributes inline: a written __dict__ slows every read
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def _eq(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash(self):
        return hash(self._values())

    def _frozen(self, name, *value):
        raise AttributeError("cannot change the field %r of a frozen %s"
                             % (name, type(self).__name__))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


def cached_basis(field, down):
    """tower_basis(field, down), memoized on the field handle itself so
    the basis is freed together with its tower."""
    cache = vars(field).setdefault("_basis_cache", {})
    if down not in cache:
        cache[down] = tower_basis(field, down)
    return cache[down]


class Subfield(_Record):
    """A subfield of ``ambient``, presented on its own and embedded."""

    ambient: object
    field: object
    embedding: FieldMorphism

    @staticmethod
    def from_layer(ambient, layer):
        if not is_layer_of(layer, ambient):
            raise FieldMismatch("%r is not a layer of %r" % (layer, ambient))
        return Subfield(ambient, layer, inclusion_morphism(layer, ambient))

    def embed(self, x):
        return self.embedding.apply(x)

    def degree_in_ambient(self):
        f0 = scalar_layer(self.ambient)
        return algebraic_degree(self.ambient, f0) // self.dimension()

    def dimension(self):
        f0 = scalar_layer(self.field)
        return algebraic_degree(self.field, f0)

    def basis_in_ambient(self):
        f0 = scalar_layer(self.field)
        return [self.embed(b) for b in cached_basis(self.field, f0)]


def min_poly_over(ambient, x, sub) -> Polynomial:
    """Monic minimal polynomial of ``x`` (element of ``ambient``) over a
    subfield, returned over the subfield's own presentation.

    ``sub`` may be a Subfield or a tower layer of the ambient field."""
    if not isinstance(sub, Subfield):
        sub = Subfield.from_layer(ambient, sub)
    f0, f1 = scalar_layer(ambient), scalar_layer(sub.field)
    x = ambient.coerce(x)
    n = algebraic_degree(ambient, f0)
    basis_k = sub.basis_in_ambient()
    m = len(basis_k)
    span = Echelon(f0)   # the basis_k[l] * x^i, grouped i-major
    xk = ambient.one()
    for k in range(1, n + 1):
        if not all(span.insert(coords_over(ambient, b * xk, f0))
                   for b in basis_k):
            raise ResolutionError("the subfield basis is dependent")
        xk = xk * x
        sol = span.coords(coords_over(ambient, xk, f0))
        if sol is not None:
            coeffs = [from_coords_over(sub.field,
                                       [-c for c in sol[i * m:(i + 1) * m]],
                                       f1)
                      for i in range(k)]
            return Polynomial(sub.field, coeffs + [sub.field.one()])
    raise ResolutionError("minimal polynomial search overran")


def kernel_over(field, down, images):
    """Basis of the elements of ``field`` that a map linear over the
    sublayer ``down`` sends to 0.  ``images[k]`` lists the map's values
    (elements of ``field``, equally many for every k) at
    ``cached_basis(field, down)[k]``."""
    columns = [
        [c for value in values for c in coords_over(field, value, down)]
        for values in images
    ]
    kernel = Matrix(down, list(zip(*columns)), ncols=len(columns)).kernel()
    return [from_coords_over(field, v, down) for v in kernel]


def fixed_field(ambient, morphisms) -> Subfield:
    """Common fixed subfield of a set of automorphisms, as a Subfield.

    The fixed space is the kernel of b -> (sigma(b) - b), sigma != id.
    Prefers recognizing it as an existing tower layer; otherwise
    synthesizes a primitive element, presenting the subfield as a fresh
    simple extension of the scalar layer."""
    moving = [sigma for sigma in morphisms if not sigma.is_identity()]
    if not moving:
        return Subfield(ambient, ambient, identity_morphism(ambient))
    f0 = scalar_layer(ambient)
    images = [
        [sigma.apply(b) - b for sigma in moving]
        for b in cached_basis(ambient, f0)
    ]
    return subfield_from_vectors(ambient, kernel_over(ambient, f0, images))


def subfield_from_vectors(ambient, vectors):
    """Present the span of the given elements as a Subfield.

    The span must actually be a subfield; the caller is responsible for
    that (closure under products is checked by the callers that solve
    for the span, not here).  Prefers recognizing an existing tower
    layer; otherwise synthesizes a primitive element over the scalar
    layer."""
    f0 = scalar_layer(ambient)
    n = algebraic_degree(ambient, f0)
    d = len(vectors)
    # try to recognize the space as an existing tower layer
    for layer in chain(ambient):
        if isinstance(layer, ExtensionField) or layer is f0:
            try:
                deg = algebraic_degree(layer, f0)
            except (FieldMismatch, UnsupportedBase):
                continue
            if deg != d:
                continue
            if all(_member_of_layer(ambient, v, layer) for v in vectors):
                return Subfield.from_layer(ambient, layer)
    # synthesize a primitive element deterministically
    for v in _trials(ambient, vectors, 20200 + n, 3):
        mu = min_poly_over(ambient, v, f0)
        if mu.degree == d:
            presented = extend(f0, mu, "w%d" % d, validate=False)
            embedding = FieldMorphism(
                presented, ambient, {presented: v}, check=True
            )
            return Subfield(ambient, presented, embedding)


def primitive_element_over(ambient, sub: Subfield):
    """An element of the ambient field generating it over the subfield.

    Tries tower generators first, then small integer combinations."""
    n = sub.degree_in_ambient()
    if n == 1:
        return ambient.one()
    gens = [ambient.coerce(layer.gen()) for layer in generator_layers(ambient)]
    gens.reverse()  # topmost generators are the most likely to work
    return next(v for v in _trials(ambient, gens, 31100 + n, 2)
                if min_poly_over(ambient, v, sub).degree == n)


def _trials(ambient, elements, seed, span):
    """The candidates of a primitive element search: the nonzero ones
    of ``elements``, then of their random combinations with integer
    weights in [-span, span], PRIMITIVE_BUDGET tries in all."""
    rng = random.Random(seed)
    for k in range(PRIMITIVE_BUDGET):
        if k < len(elements):
            v = elements[k]
        else:
            weights = [rng.randint(-span, span) for _ in elements]
            v = sum((ambient.from_int(w) * e
                     for w, e in zip(weights, elements) if w), ambient.zero())
        if v:
            yield v
    raise PrimitiveElementNotFound(
        "no primitive element within %d attempts" % PRIMITIVE_BUDGET
    )


def _member_of_layer(ambient, x, layer) -> bool:
    if layer is ambient:
        return True
    cs = coords_over(ambient, x, layer)
    return all(not c for c in cs[1:])


def subfield_coords(sub: Subfield, x):
    """Coordinates of x over the scalar layer in the subfield basis,
    as an element of the presented subfield; None if x is outside.
    The span of the embedded basis is memoized on the Subfield."""
    f0 = scalar_layer(sub.ambient)
    span = vars(sub).get("_span")
    if span is None:   # every insert is accepted: field maps are injective
        span = vars(sub)["_span"] = Echelon(f0)
        for b in sub.basis_in_ambient():
            span.insert(coords_over(sub.ambient, b, f0))
    sol = span.coords(coords_over(sub.ambient, sub.ambient.coerce(x), f0))
    if sol is None:
        return None
    return from_coords_over(sub.field, sol, scalar_layer(sub.field))


# -------------------------------------------------------- splitting data


class SplittingData(_Record):
    """A field where a polynomial splits, with its roots.

    ``roots`` lists (root, multiplicity) pairs inside ``field`` whose
    linear factors reproduce the polynomial: those ``splitting_field``
    found by factoring and ``morphisms._conjugates``, or, where it did
    not build E, ``bimod.analyze``'s Gamma-values sigma(iota(a)), each
    as often as iota(a).  ``minimal`` is True when the roots generate
    the field over the polynomial's coefficient field
    (``splitting_field``, or a normal L that computed-mode
    ``bimod.analyze`` analyses in itself), None when a supplied tower
    was only found to contain the roots."""

    field: object
    roots: list
    minimal: object  # True | None


def splitting_field(f: Polynomial) -> SplittingData:
    """Build a splitting field of f over its coefficient field by
    repeatedly adjoining a root of a nonlinear irreducible factor.

    Cofactor invariant: over the current field E, f is the product of
    the linear factors x - r of the roots found so far and of the
    still-unsplit irreducible factors, each kept with its multiplicity.
    Adjoining a root r of the first unsplit factor g (in factor_poly's
    order) gives E'[r]/(g), where ``morphisms._conjugates`` divides the
    orbit of r under the maps r -> y (y a root of g among +-r^k) out of
    g (``morphisms._orbit``).  Only the rest of g, unless it
    is constant, and the other unsplit factors are factored over the
    new field, so f itself is factored once, over its coefficient
    field.  The tower and the root order are those of refactoring f
    over every layer.  When the field is new (never f's own coefficient
    field), the roots are recorded on it, and
    ``morphisms._candidate_pool`` seeds its pool with them.

    Supported for coefficient towers over the rationals or a prime
    field (anything factor_poly handles); raises DegreeBound when the
    tower would outgrow ``DEFAULT_TOWER_CAP``."""
    roots, unsplit = [], []

    def sort_in(h, mult):
        # a linear h gives its root and a constant nothing; only a
        # nonlinear h is factored
        parts = [(h.monic(), 1)] * h.degree if h.degree < 2 else \
            factor_poly(h, max_degree=f.degree)[1]
        for g, m in parts:
            if g.degree == 1:
                roots.append((-g.coeff(0), mult * m))
            else:
                unsplit.append((g, mult * m))

    sort_in(f, 1)
    E = f.field
    counter = 0
    while unsplit:
        unsplit.sort(key=lambda pair: _poly_sort_key(pair[0]))
        (g, mult), rest = unsplit[0], unsplit[1:]
        counter += 1
        E = extend(E, g, "r%d" % counter, validate=False)
        unsplit.clear()
        found, cofactor = _conjugates(g.map_coeffs(E, E.coerce), E.gen())
        roots.extend((y, mult * m) for y, m in found)
        for h, m in [(cofactor, mult)] + rest:
            sort_in(h.map_coeffs(E, E.coerce), m)
    if E is not f.field:
        # factor_poly's order of the linear factors x - r
        roots = sorted(((E.coerce(s), m) for s, m in roots),
                       key=lambda pair: _elem_sort_key(-pair[0]))
        vars(E)["_split_roots"] = tuple(r for r, _ in roots)
    return SplittingData(field=E, roots=roots, minimal=True)


def locate_roots(f: Polynomial, E, hints=()):
    """Find roots of f inside the tower E by candidate search.

    f's coefficients live in a sublayer of E (or E itself).  Returns
    (root, multiplicity) pairs; raises ResolutionError if the located
    roots do not fully split f."""
    found, remaining = _roots_in_pool(
        f.map_coeffs(E, E.coerce), _candidate_pool(E, hints)
    )
    if remaining.degree >= 1:
        raise ResolutionError(
            "could not split the polynomial in the supplied tower; "
            "%d degrees unaccounted for (supply root hints)"
            % remaining.degree
        )
    return found
