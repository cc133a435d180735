"""Field towers: rational function fields and algebraic extensions.

A tower is built bottom-up from Q or F_p, optionally through one
rational function layer, then through algebraic extension layers, each
presented by a monic relation over the layer below.  Field handles are
compared by identity: build a tower once and thread the same objects
through everything that talks about it.

Extensions validate irreducibility of the relation when the base
supports factorization and record ``validated=False`` otherwise (the
caller is then vouching for the relation, which is how externally
supplied splitting data enters).

A finite extension of at most ``TABLE_CAP`` elements (GF(4), GF(9),
GF(27), GF(81) as GF(3)[j][k], ...) is tabled as it is built:
interned elements that know their index, a primitive element's log and
antilog tables, and Zech logarithms for sums (see ``ExtensionField``).
The same tables serve polynomials over the field: ``poly``'s list
kernel multiplies, divides, takes gcds and modular powers on lists of
element indices.  Larger fields keep the coordinate arithmetic:
convolution, then reduction.

A ring map out of a tower is fixed by its generator images, and
``evaluate(x, layer, images, lift)`` is the one evaluator for all of
them: field morphisms, the left actions phi: L -> Mat_d(L) of
bimodules and derivations (as a |-> [[a, D(a)], [0, a]]).

* ``images`` sends a layer to the image of its generator (algebraic
  layer) or of its variable (rational function layer).  Coordinates
  (and numerator and denominator coefficients) are folded in by
  Horner's rule, layer by layer down the tower; a zero one is skipped,
  not mapped.
* ``lift`` maps everything at and below the first layer that is not in
  ``images`` into the codomain.  A map whose bottom run of layers sends
  each generator to itself (its canonical prefix) leaves that run out
  of ``images`` and coerces it in one step.
* A rational function with denominator 1 maps to its numerator's image
  without any inverse; otherwise the numerator's image is divided by
  the denominator's, and a zero or singular denominator image raises
  whatever that division raises (``NotInvertible`` for tower elements
  and matrices).  Callers translate it into their own error.

``broken_relation(images, lift)`` is its check: the images define a ring
map when each algebraic layer's image satisfies that layer's relation.

A place of a characteristic-0 tower (``morphisms._places``) is such a
map into F_P: ``images`` in ``GF(P)`` and ``lift = GF(P).coerce``.  It
is defined on the elements whose denominators do not vanish there;
``evaluate`` raises on the others.

Per-field memos live in the handle's own ``vars``, so they are freed
with the tower: ``_pool_cache`` and ``_places`` (``morphisms``),
``_basis_cache`` and ``_split_roots`` (``fieldops``), and ``_span`` on
a ``fieldops.Subfield``.  These are all the keys written there.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    DegreeBound,
    FieldMismatch,
    NotInvertible,
    Reducible,
    UnsupportedBase,
)
from .factor import factor_poly
from .fieldbase import TABLE_CAP, PrimeFieldElement, QQ
from .poly import (
    Polynomial,
    RationalFunction,
    format_poly,
    poly_ext_gcd,
    power,
)

DEFAULT_TOWER_CAP = 64


class RationalFunctionField:
    """Field of rational functions in one variable over a coefficient
    field.  Elements are RationalFunction values owned by this handle."""

    def __init__(self, coefficient_field, var="t"):
        self.coefficient_field = coefficient_field
        self.var = var
        self.characteristic = coefficient_field.characteristic
        one_poly = Polynomial.one(coefficient_field)
        self._zero = self.from_polynomial(Polynomial.zero(coefficient_field))
        self._one = self.from_polynomial(one_poly)
        self._gen = self.from_polynomial(Polynomial.x(coefficient_field))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def gen(self):
        return self._gen

    def from_int(self, n):
        return self.constant(self.coefficient_field.from_int(n))

    def constant(self, c):
        return self.from_polynomial(
            Polynomial.constant(self.coefficient_field, c)
        )

    def from_polynomial(self, p: Polynomial):
        if p.field is not self.coefficient_field:
            p = Polynomial(self.coefficient_field, p.coeffs)
        return RationalFunction(
            self, p, Polynomial.one(self.coefficient_field), trusted=True,
            polynomial=True,
        )

    def coerce(self, x):
        if isinstance(x, RationalFunction):
            if x.field is self:
                return x
            if not is_layer_of(x.field, self.coefficient_field):
                raise FieldMismatch(
                    "rational function from a different field"
                )
        if isinstance(x, Polynomial) and x.field is self.coefficient_field:
            return self.from_polynomial(x)
        return self.constant(self.coefficient_field.coerce(x))

    def __repr__(self):
        return "%r(%s)" % (self.coefficient_field, self.var)


class ExtElement:
    """Element of an algebraic extension, stored as coordinates over the
    base in the power basis of the generator.

    Whether it is zero is read off the coordinates once, when it is
    built, so ``bool`` costs O(1) at any depth.  A sum of two elements
    of one field with a zero operand returns the other operand itself.

    An element of the base layer hashes as its coordinate there, so it
    agrees with the equal element of any lower layer.  ``== n`` for an
    int n compares the coordinates with n, as ``== from_int(n)`` would,
    without building that element.  Outside a tabled field (below), a
    product with an int, a rational in characteristic 0 or an element
    of a lower layer scales the coordinates, with no lift.

    In a tabled finite field (see ``ExtensionField``), sums,
    differences, negations, products and inverses are the field's
    interned elements.  Every element of such a field, interned or
    built from coordinates, holds its index (as ``element_from_index``
    counts) in ``_index`` from the moment it is made.  ``coords``, ``==``
    and ``hash`` do not depend on whether an element is interned."""

    __slots__ = ("field", "coords", "_nonzero", "_index")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords
        self._nonzero = any(coords)
        self._index = None if field._els is None else field._index_of(self)

    def _lift_pair(self, other):
        """(self, other) lifted into a common field, or None.

        Same-type operands never reach Python's reflected operators, so
        an element of a deeper layer must lift itself into the higher
        field here."""
        if isinstance(other, (ExtElement, RationalFunction)):
            sf, of = self.field, other.field
            if is_layer_of(of, sf):
                return self, sf.coerce(other)
            if is_layer_of(sf, of):
                return of.coerce(self), other
            raise FieldMismatch("elements of unrelated fields")
        try:
            return self, self.field.coerce(other)
        except (FieldMismatch, TypeError):
            return None

    def __add__(self, other):
        if isinstance(other, ExtElement) and other.field is self.field:
            if not other._nonzero:
                return self
            if not self._nonzero:
                return other
            f = self.field
            if f._exp is not None:
                return f._sum(self, other, 0)
            return ExtElement(
                f, tuple(a + b for a, b in zip(self.coords, other.coords))
            )
        pair = self._lift_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + b

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if f._exp is not None:
            return f._sum(f._zero, self, f._half)
        return ExtElement(f, tuple(-a if a else a for a in self.coords))

    def __sub__(self, other):
        if isinstance(other, ExtElement) and other.field is self.field:
            f = self.field
            if f._exp is not None:
                return f._sum(self, other, f._half)
            return ExtElement(
                f, tuple(a - b for a, b in zip(self.coords, other.coords))
            )
        pair = self._lift_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a - b

    def __rsub__(self, other):
        pair = self._lift_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b - a

    def __mul__(self, other):
        f = self.field
        if isinstance(other, ExtElement) and other.field is f:
            if f._exp is not None:
                return f._table_mul(self, other)
            return f._mul(self, other)
        if f._exp is None and (
            other.__class__ is int
            or other.__class__ is Fraction and not f.characteristic
            or isinstance(other, (ExtElement, RationalFunction))
            and is_layer_of(other.field, f.base)
        ):
            return ExtElement(f, tuple(c * other if c else c
                                       for c in self.coords))
        pair = self._lift_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b

    __rmul__ = __mul__

    def inverse(self):
        return self.field._inverse(self)

    def __truediv__(self, other):
        pair = self._lift_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        pair = self._lift_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b * a.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.field.one())

    def __eq__(self, other):
        if isinstance(other, ExtElement) and other.field is self.field:
            return other.coords == self.coords
        if other.__class__ is int:
            coords = self.coords
            return not any(coords[1:]) and coords[0] == other
        try:
            pair = self._lift_pair(other)
        except FieldMismatch:
            return False
        if pair is None:
            return NotImplemented
        a, b = pair
        return a == b

    def __hash__(self):
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash(("ext", self.field.var, self.coords))

    def __bool__(self):
        return self._nonzero

    def __repr__(self):
        return format_poly(
            Polynomial(self.field.base, self.coords), self.field.var
        )


class ExtensionField:
    """Algebraic extension base[x]/(relation), relation monic.

    A finite field of at most ``TABLE_CAP`` elements (every layer finite,
    q = p^n) builds tables in its constructor: its q elements, interned,
    in ``element_from_index`` order; a primitive element g with the log
    and antilog tables of its powers; and the Zech logarithms
    z(n) = log(1 + g^n), so a sum costs three lookups and needs no
    q x q table.  Every product, inverse, sum, difference and negation,
    and ``coerce``, ``from_coords`` and ``element_from_index``, return
    interned elements; ``zero()``, ``one()`` and ``gen()`` are among
    them.  The tables also serve polynomial arithmetic over the field
    (``poly._FqLists``, on element indices).  A field above the cap
    keeps the coordinate arithmetic.  So does a ring with zero divisors,
    which a relation passed with ``validate=False`` that factors gives
    (the search for g finds that out), and every layer above it.

    The unit, the generator and the reduction rows are built from
    ``base.from_int(1)``, so over Q their coordinates are ints and a
    product with them stays out of ``Fraction`` arithmetic.
    """

    def __init__(self, base, relation: Polynomial, var: str, validate=True):
        if relation.field is not base:
            relation = Polynomial(base, relation.coeffs)
        relation = relation.monic()
        if relation.degree < 2:
            raise ValueError("extension relation must have degree >= 2")
        self.base = base
        self.relation = relation
        self.var = var
        self.degree = relation.degree
        self.characteristic = base.characteristic
        self.validated = False
        if validate:
            self.validated = _validate_irreducible(relation)
        d = self.degree
        zero_b = base.zero()
        one_b = base.from_int(1)
        # tables: set by _tabulate, below; None on every other field
        self._els = self._log = self._exp = self._zech = None
        self._zero = ExtElement(self, (zero_b,) * d)
        self._one = ExtElement(self, (one_b,) + (zero_b,) * (d - 1))
        self._gen = ExtElement(self, (zero_b, one_b) + (zero_b,) * (d - 2))
        # reduction rows: coordinates of gen^(d+k) for k = 0..d-2
        rows = []
        first = tuple(-relation.coeff(i) for i in range(d))
        rows.append(first)
        for _ in range(d - 2):
            prev = rows[-1]
            overflow = prev[d - 1]
            shifted = [zero_b] + list(prev[: d - 1])
            if overflow:
                shifted = [
                    s + overflow * f for s, f in zip(shifted, first)
                ]
            rows.append(tuple(shifted))
        self._reduction = rows
        size = getattr(base, "finite_size", None)
        if size is not None and size**d <= TABLE_CAP:
            self._tabulate()

    # ----------------------------------------------------------- handle

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def gen(self):
        return self._gen

    def from_int(self, n):
        return self.coerce(self.base.from_int(n))

    def coerce(self, x):
        if isinstance(x, ExtElement) and x.field is self:
            return x
        c = self.base.coerce(x)
        if self._els is not None:
            return self._els[_index(c)]
        return ExtElement(
            self,
            (c,) + (self.base.zero(),) * (self.degree - 1),
        )

    def from_coords(self, coords):
        coords = [self.base.coerce(c) for c in coords]
        if len(coords) > self.degree:
            raise ValueError("too many coordinates")
        coords += [self.base.zero()] * (self.degree - len(coords))
        x = ExtElement(self, tuple(coords))
        return x if x._index is None else self._els[x._index]

    def coords(self, x):
        return self.coerce(x).coords

    def __repr__(self):
        return "%r[%s]/(%s)" % (
            self.base,
            self.var,
            format_poly(self.relation, self.var),
        )

    # ------------------------------------------------------- arithmetic

    def _mul(self, a: ExtElement, b: ExtElement):
        """a * b from the coordinates: convolution, then reduction."""
        d = self.degree
        zero_b = self.base.zero()
        conv = [zero_b] * (2 * d - 1)
        for i, ca in enumerate(a.coords):
            if not ca:
                continue
            for j, cb in enumerate(b.coords):
                if cb:
                    conv[i + j] = conv[i + j] + ca * cb
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if not c:
                continue
            row = self._reduction[k - d]
            out = [
                o + c * r if r else o for o, r in zip(out, row)
            ]
        return ExtElement(self, tuple(out))

    def _inverse(self, a: ExtElement):
        if not a:
            raise NotInvertible("division by zero in %r" % self)
        if self._exp is not None:
            return self._exp[len(self._log) - 1 - self._log[a._index]]
        poly_a = Polynomial(self.base, a.coords)
        d, s, _t = poly_ext_gcd(poly_a, self.relation)
        if not d.is_one():
            raise NotInvertible(
                "element shares a factor with the relation (relation "
                "reducible?)"
            )
        s = s % self.relation
        return self.from_coords(list(s.coeffs))

    # ------------------------------------------------------------ tables

    def _index_of(self, a: ExtElement):
        """a's index, as element_from_index counts, from its coordinates."""
        size = self.base.finite_size
        k = 0
        for c in reversed(a.coords):
            k = k * size + _index(c)
        return k

    def _table_mul(self, a: ExtElement, b: ExtElement):
        """a * b from the tables."""
        ia, ib = a._index, b._index
        if not (ia and ib):
            return self._zero
        log = self._log
        return self._exp[log[ia] + log[ib]]

    def _sum(self, a: ExtElement, b: ExtElement, shift):
        """a + g^shift * b from the tables: a + b for shift 0, a - b
        for shift _half (g^_half = -1).  With la = log a, lb = log b,
        a + g^shift b = g^(la + z(lb + shift - la))."""
        ia, ib = a._index, b._index
        log = self._log
        if not ib:
            return self._els[ia]
        if not ia:
            return self._exp[log[ib] + shift]
        la = log[ia]
        z = self._zech[log[ib] + shift - la]
        return self._zero if z is None else self._exp[la + z]

    def _tabulate(self):
        """Build the tables (see the class docstring), unless the base
        has none or the ring is not a field."""
        base = self.base
        if base._els is None:
            return
        size = base.finite_size
        # index k = sum of the base indices of coords[i] times size^i,
        # so the first coordinate runs fastest
        els = [
            ExtElement(self, coords[::-1])
            for coords in itertools.product(base._els, repeat=self.degree)
        ]
        els[0], els[1], els[size] = self._zero, self._one, self._gen
        q, one = len(els), self._one
        # g is the first element whose powers run through all q - 1
        # units.  In a field the powers of each candidate come back to 1;
        # in a ring with zero divisors, those of some candidate never do.
        for g in els[2:]:
            exp, x = [], one
            while len(exp) < q:
                exp.append(els[self._index_of(x)])
                x = self._mul(x, g)
                if x == one:
                    break
            if x != one:
                return
            if len(exp) == q - 1:
                break
        for k, x in enumerate(els):
            x._index = k
        log = [None] * q
        for n, x in enumerate(exp):
            log[x._index] = n
        one_b = base.one()
        zech = []
        for x in exp:
            c = x.coords[0]
            zech.append(log[x._index - _index(c) + _index(c + one_b)])
        self._half = (q - 1) // 2 if self.characteristic != 2 else 0
        self._els, self._log, self._zech = els, log, zech + zech
        self._exp = exp + exp

    # ------------------------------------------------- finite field hooks

    @property
    def finite_size(self):
        base_size = getattr(self.base, "finite_size", None)
        if base_size is None:
            return None
        return base_size**self.degree

    def element_from_index(self, k):
        if self._els is not None:
            return self._els[k % len(self._els)]
        base_size = self.base.finite_size
        coords = []
        for _ in range(self.degree):
            coords.append(self.base.element_from_index(k % base_size))
            k //= base_size
        return ExtElement(self, tuple(coords))

    def pth_root(self, x):
        q = self.finite_size
        if q is None:
            raise UnsupportedBase("p-th roots need a finite field")
        return self.coerce(x) ** (q // self.characteristic)


def _index(x):
    """The index of an element of a finite field, as
    ``element_from_index`` counts."""
    if isinstance(x, PrimeFieldElement):
        return x.value
    return x._index


def _validate_irreducible(relation: Polynomial) -> bool:
    """True if verified irreducible; False if the base does not support
    factorization (caller vouches); raises Reducible when it factors."""
    try:
        _, factors = factor_poly(
            relation, max_degree=max(relation.degree, 1)
        )
    except UnsupportedBase:
        return False
    if len(factors) != 1 or factors[0][1] != 1:
        raise Reducible(
            "relation %s factors over the base" % format_poly(relation, "x")
        )
    return True


def extend(base, relation, var, max_degree=DEFAULT_TOWER_CAP, validate=True):
    """Adjoin a root of a monic relation; raises Reducible when the
    relation detectably factors and DegreeBound when the tower's total
    algebraic degree would exceed the cap."""
    if not isinstance(relation, Polynomial):
        relation = Polynomial(base, relation)
    total = relation.degree
    layer = base
    while isinstance(layer, ExtensionField):
        total *= layer.degree
        layer = layer.base
    if total > max_degree:
        raise DegreeBound(
            "tower degree %d exceeds the cap %d" % (total, max_degree)
        )
    return ExtensionField(base, relation, var, validate=validate)


# ------------------------------------------------------------ navigation


def chain(field):
    """Layers from the bottom field up to (and including) ``field``."""
    layers = [field]
    seen = field
    while True:
        if isinstance(seen, ExtensionField):
            seen = seen.base
        elif isinstance(seen, RationalFunctionField):
            seen = seen.coefficient_field
        else:
            break
        layers.append(seen)
    layers.reverse()
    return layers


def evaluate(x, layer, images, lift):
    """Image of ``x`` (an element of ``layer``) under the ring map that
    sends each layer in ``images`` to its image and everything else
    through ``lift``; see the module docstring for the contract."""
    img = images.get(layer)
    if img is None:
        return lift(x)
    x = layer.coerce(x)
    if isinstance(layer, ExtensionField):
        return _horner(x.coords, img, layer.base, images, lift)
    base = layer.coefficient_field
    num = _horner(x.num.coeffs, img, base, images, lift)
    if x.is_polynomial():
        return num
    den = _horner(x.den.coeffs, img, base, images, lift)
    if den.__class__ is int:    # a map into Q: int / int is a float
        den = Fraction(den)
    return num / den


def _horner(coeffs, img, base, images, lift):
    """sum coeffs[k] img^k for coefficients in ``base`` (low degree
    first) by Horner's rule, each nonzero coefficient mapped by
    ``evaluate`` and each zero one skipped; with no nonzero coefficient
    it is the image of base's zero."""
    acc = None
    for c in reversed(coeffs):
        if acc is not None:
            acc = acc * img
        if c:
            c = evaluate(c, base, images, lift)
            acc = c if acc is None else acc + c
    return evaluate(base.zero(), base, images, lift) if acc is None else acc


def broken_relation(images, lift):
    """The first algebraic layer in ``images`` whose defining relation
    its image does not satisfy under the ring map of ``evaluate``, or
    None: the generator images then define a ring map."""
    for layer, img in images.items():
        if isinstance(layer, ExtensionField) and layer.relation.evaluate(
            img, lift=lambda c: evaluate(c, layer.base, images, lift)
        ):
            return layer
    return None


def generator_layers(field):
    """The layers of ``field``'s tower that carry a generator: every
    layer above the bottom prime field, bottom first."""
    return chain(field)[1:]


def is_layer_of(sub, field) -> bool:
    return any(layer is sub for layer in chain(field))


def algebraic_degree(field, down_to) -> int:
    """Product of extension degrees from ``down_to`` up to ``field``;
    refuses towers with a rational function layer strictly between."""
    if field is down_to:
        return 1
    if isinstance(field, ExtensionField):
        return field.degree * algebraic_degree(field.base, down_to)
    if isinstance(field, RationalFunctionField):
        raise UnsupportedBase(
            "a rational function layer sits between the two fields"
        )
    raise FieldMismatch("%r is not a layer of the tower" % (down_to,))


def tower_basis(field, down_to):
    """Multiplicative basis of ``field`` over the sublayer ``down_to``,
    ordered to match ``coords_over``."""
    if field is down_to:
        return [field.one()]
    if not isinstance(field, ExtensionField):
        raise FieldMismatch("%r is not a layer of the tower" % (down_to,))
    below = tower_basis(field.base, down_to)
    gen = field.gen()
    out = []
    gen_power = field.one()
    for _j in range(field.degree):
        for b in below:
            out.append(gen_power * field.coerce(b))
        gen_power = gen_power * gen
    return out


def coords_over(field, x, down_to):
    """Coordinates of ``x`` in ``tower_basis(field, down_to)``."""
    if field is down_to:
        return [field.coerce(x)]
    if not isinstance(field, ExtensionField):
        raise FieldMismatch("%r is not a layer of the tower" % (down_to,))
    x = field.coerce(x)
    out = []
    for c in x.coords:
        out.extend(coords_over(field.base, c, down_to))
    return out


def from_coords_over(field, coords, down_to):
    if field is down_to:
        if len(coords) != 1:
            raise ValueError("expected a single coordinate")
        return field.coerce(coords[0])
    if not isinstance(field, ExtensionField):
        raise FieldMismatch("%r is not a layer of the tower" % (down_to,))
    step = len(coords) // field.degree
    parts = []
    for j in range(field.degree):
        parts.append(
            from_coords_over(field.base, coords[j * step : (j + 1) * step], down_to)
        )
    return field.from_coords(parts)


# ----------------------------------------------------------- cyclotomics


def cyclotomic_polynomial(n: int) -> Polynomial:
    """n-th cyclotomic polynomial over the rationals, by the quotient
    recurrence."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = Polynomial(QQ, [-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num // cyclotomic_polynomial(d)
    return num
