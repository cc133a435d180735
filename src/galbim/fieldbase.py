"""Ground fields: the rationals and prime fields.

A *field handle* is an object with ``zero()``, ``one()``, ``from_int``,
``coerce`` and a ``characteristic`` attribute.  Elements themselves
implement Python arithmetic operators; containers (polynomials,
matrices) carry a single field handle rather than tagging every entry.
A rational is a Python ``int`` or a ``fractions.Fraction`` (reduced,
positive denominator).  Both are exact, and an int compares and hashes
equal to the matching Fraction; arithmetic on ints stays in ints, which
skips Fraction's gcds.  ``QQ.one()`` is ``Fraction(1)``, the exact
divisor: write a quotient as ``one() / b``, never ``a / b``, which
divides two ints to a float.  Stored units are ints over Q: a tower
builds its unit, generator and reduction rows with ``from_int``.

Small finite fields are tables.  A prime field F_p with p at most
``TABLE_CAP`` builds its p residues in its constructor, and every
operation returns one of them instead of allocating; above the cap (a
large modulus) it builds no list.  towers.py does the same for finite
extension towers of at most ``TABLE_CAP`` elements, with log, antilog
and Zech tables.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import FieldMismatch, NotInvertible


class RationalField:
    """The field of rational numbers; an element is an ``int`` or a
    ``Fraction``.  ``zero()``, ``from_int`` and ``coerce`` return an int
    for an integer (a Fraction with denominator 1 included), while
    ``one()`` is ``Fraction(1)``, so ``one() / b`` is exact for every b."""

    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return _QONE

    def from_int(self, n):
        return n

    def coerce(self, x):
        if x.__class__ is int:
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)
        # no repr(x): products across tower layers fall back through here
        raise FieldMismatch("cannot coerce type %s into Q" % type(x).__name__)

    def __repr__(self):
        return "Q"


_QONE = Fraction(1)

QQ = RationalField()


class PrimeFieldElement:
    """Residue in F_p.  Immutable; arithmetic stays in one field.

    For p up to ``TABLE_CAP`` the field keeps its p residues as interned
    elements, built with the field, and every result
    (sums, differences, products, negation, inverses, powers,
    ``from_int``, ``coerce``, ``element_from_index``) is one of them, so
    arithmetic allocates nothing.  Above the cap every result is a new
    element.  ``==`` and ``hash`` compare field and value, not identity,
    so an element built directly equals its interned twin.

    ``GF(p)(3) == 3`` holds, and so does ``GF(p)(3) == 3 + p``, because
    ints compare mod p.  No hash agrees with both 3 and 3 + p, so an
    element and an equal int may hash differently: do not mix them as
    keys of one set or dict."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value % field.p

    def _check(self, other):
        if not isinstance(other, PrimeFieldElement):
            if isinstance(other, int):
                return self.field._residue(other)
            return None
        if other.field is not self.field:
            raise FieldMismatch("elements of different prime fields")
        return other

    # The hot operators test for an element of the same field inline and
    # index the interned residues themselves: a call per operation to
    # _check or _residue costs a third of the operation.

    def __add__(self, other):
        f = self.field
        if other.__class__ is not PrimeFieldElement or other.field is not f:
            other = self._check(other)
            if other is None:
                return NotImplemented
        v = self.value + other.value
        els = f._els
        return PrimeFieldElement(f, v) if els is None else els[v % f.p]

    __radd__ = __add__

    def __sub__(self, other):
        f = self.field
        if other.__class__ is not PrimeFieldElement or other.field is not f:
            other = self._check(other)
            if other is None:
                return NotImplemented
        v = self.value - other.value
        els = f._els
        return PrimeFieldElement(f, v) if els is None else els[v % f.p]

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self.field._residue(other.value - self.value)

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not PrimeFieldElement or other.field is not f:
            other = self._check(other)
            if other is None:
                return NotImplemented
        v = self.value * other.value
        els = f._els
        return PrimeFieldElement(f, v) if els is None else els[v % f.p]

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        els = self.field._els
        if els is None:
            return PrimeFieldElement(self.field, -self.value)
        return els[-self.value]

    def inverse(self):
        if self.value == 0:
            raise NotInvertible("division by zero in F_%d" % self.field.p)
        return self.field._residue(pow(self.value, -1, self.field.p))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return self.field._residue(pow(self.value, n, self.field.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.field.p
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented   # lets a higher layer compare
        return other.field is self.field and other.value == self.value

    def __hash__(self):
        return hash(("pf", self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)


# Finite fields of at most this many elements compute on tables of
# interned elements: a prime field's residues here, the log, antilog and
# Zech tables of an ExtensionField in towers.py.
TABLE_CAP = 4096


class PrimeField:
    """F_p for a prime p."""

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.characteristic = p
        self._zero = PrimeFieldElement(self, 0)
        self._one = PrimeFieldElement(self, 1)
        # the p residues, interned, with zero() and one() among them
        self._els = None if p > TABLE_CAP else [self._zero, self._one] + [
            PrimeFieldElement(self, v) for v in range(2, p)
        ]

    def _residue(self, n):
        """The element n mod p: interned up to the cap, new above it."""
        els = self._els
        return PrimeFieldElement(self, n) if els is None else els[n % self.p]

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return self._residue(n)

    def coerce(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.field is self:
                return x
            raise FieldMismatch("element of a different prime field")
        if isinstance(x, int):
            return self._residue(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatch("denominator divisible by %d" % self.p)
            return self._residue(x.numerator) / self._residue(x.denominator)
        raise FieldMismatch("cannot coerce type %s into F_%d"
                            % (type(x).__name__, self.p))

    # Frobenius is the identity on F_p, so every element is its own
    # p-th root.  Perfect fields expose this hook; imperfect ones
    # (rational function fields in characteristic p) do not.
    def pth_root(self, x):
        return x

    finite_size = property(lambda self: self.p)

    def element_from_index(self, k):
        return self._residue(k)

    def __repr__(self):
        return "F_%d" % self.p

    def elements(self):
        """Iterate over all p elements (used by exhaustive oracles)."""
        for v in range(self.p):
            yield self._residue(v)


_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Shared prime field instances, so identity checks work."""
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]
