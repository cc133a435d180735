"""Ground fields: the rationals and prime fields.

A *field handle* is an object with ``zero()``, ``one()``, ``from_int``,
``coerce`` and a ``characteristic`` attribute.  Elements themselves
implement Python arithmetic operators; containers (polynomials,
matrices) carry a single field handle rather than tagging every entry.
Rationals are plain ``fractions.Fraction`` values, which are already in
canonical form (reduced, positive denominator).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, NotInvertible


class Field:
    """Abstract field handle."""

    characteristic = 0

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def coerce(self, x):
        """Lift ``x`` (int, Fraction or lower-layer element) into this
        field; raise FieldMismatch if it does not embed canonically."""
        raise NotImplementedError


class RationalField(Field):
    """The field of rational numbers; elements are Fraction."""

    characteristic = 0

    def zero(self):
        return _QZERO

    def one(self):
        return _QONE

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldMismatch("cannot coerce %r into Q" % (x,))

    def __repr__(self):
        return "Q"


_QZERO = Fraction(0)
_QONE = Fraction(1)

QQ = RationalField()


class PrimeFieldElement:
    """Residue in F_p.  Immutable; arithmetic stays in one field.

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
                return PrimeFieldElement(self.field, other)
            return None
        if other.field is not self.field:
            raise FieldMismatch("elements of different prime fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.field, self.value - other.value)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.field, other.value - self.value)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.field, self.value * other.value)

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
        return PrimeFieldElement(self.field, -self.value)

    def inverse(self):
        if self.value == 0:
            raise NotInvertible("division by zero in F_%d" % self.field.p)
        return PrimeFieldElement(self.field, pow(self.value, -1, self.field.p))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return PrimeFieldElement(self.field, pow(self.value, n, self.field.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.field.p
        return (
            isinstance(other, PrimeFieldElement)
            and other.field is self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash(("pf", self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)


class PrimeField(Field):
    """F_p for a prime p."""

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.characteristic = p
        self._zero = PrimeFieldElement(self, 0)
        self._one = PrimeFieldElement(self, 1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return PrimeFieldElement(self, n)

    def coerce(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.field is self:
                return x
            raise FieldMismatch("element of a different prime field")
        if isinstance(x, int):
            return PrimeFieldElement(self, x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatch("denominator divisible by %d" % self.p)
            return PrimeFieldElement(self, x.numerator) / PrimeFieldElement(
                self, x.denominator
            )
        raise FieldMismatch("cannot coerce %r into F_%d" % (x, self.p))

    # Frobenius is the identity on F_p, so every element is its own
    # p-th root.  Perfect fields expose this hook; imperfect ones
    # (rational function fields in characteristic p) do not.
    def pth_root(self, x):
        return x

    finite_size = property(lambda self: self.p)

    def element_from_index(self, k):
        return PrimeFieldElement(self, k)

    def __repr__(self):
        return "F_%d" % self.p

    def elements(self):
        """Iterate over all p elements (used by exhaustive oracles)."""
        for v in range(self.p):
            yield PrimeFieldElement(self, v)


_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Shared prime field instances, so identity checks work."""
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]
