"""Dense univariate polynomials and rational functions.

Coefficients live in a single field handle carried by the container;
they are stored low degree first and trimmed.  The zero polynomial has
degree -1.  Rational functions keep a monic denominator coprime to the
numerator; operations take fast paths while denominators are 1 so that
polynomial-only computations never pay for gcds, and adding zero costs
nothing.

Over a finite field with tables, products, division, gcds and modular
powers run on lists (the list kernel below), converting once per call:
over F_p lists of ints, over a tabled extension (GF(4), GF(9), GF(81)
as GF(3)[j][k], ...) lists of element indices.  They return the field's
interned elements, so coefficients, ``==`` and ``hash`` are those of any
other polynomial over that field (a dividend of lower degree than its
divisor comes back as it is).  Hensel lifting and recombination in
``factor`` use the int mul and divmod over Z.
"""

from __future__ import annotations

from .errors import FieldMismatch, NotInvertible, UnsupportedBase
from .fieldbase import PrimeField


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs, trusted=False):
        if not trusted:
            coeffs = [field.coerce(c) for c in coeffs]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            coeffs = tuple(coeffs)
        self.field = field
        self.coeffs = coeffs

    # ------------------------------------------------------------ basics

    @staticmethod
    def zero(field):
        return Polynomial(field, (), trusted=True)

    @staticmethod
    def one(field):
        return Polynomial(field, (field.one(),), trusted=True)

    @staticmethod
    def x(field):
        return Polynomial(field, (field.zero(), field.one()), trusted=True)

    @staticmethod
    def constant(field, c):
        c = field.coerce(c)
        if not c:
            return Polynomial.zero(field)
        return Polynomial(field, (c,), trusted=True)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one()

    def leading(self):
        if not self.coeffs:
            return self.field.zero()
        return self.coeffs[-1]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def _check(self, other):
        if isinstance(other, Polynomial):
            if other.field is not self.field:
                raise FieldMismatch("polynomials over different fields")
            return other
        try:
            return Polynomial.constant(self.field, other)
        except (FieldMismatch, TypeError):
            return None

    # -------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        while out and not out[-1]:
            out.pop()
        return Polynomial(self.field, tuple(out), trusted=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(
            self.field, tuple(-c for c in self.coeffs), trusted=True
        )

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(self.field)
        field = self.field
        # a constant factor is a scaling, cheaper on the elements
        if len(a) > 1 and len(b) > 1:
            ar = _list_arithmetic(field)
            if ar is not None:
                return ar.poly(field, ar.mul(
                    field, ar.lists(field, a), ar.lists(field, b)))
        zero = field.zero()
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        while out and not out[-1]:
            out.pop()
        return Polynomial(field, tuple(out), trusted=True)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return Polynomial.zero(self.field)
        return Polynomial(
            self.field, tuple(c * a for a in self.coeffs), trusted=True
        )

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, Polynomial.one(self.field))

    def divmod(self, other):
        other = self._check(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial.zero(self.field), self
        field = self.field
        ar = _list_arithmetic(field)
        if ar is not None:
            quo, rem = ar.divmod(field, ar.lists(field, self.coeffs),
                                 ar.lists(field, other.coeffs))
            return ar.poly(field, quo), ar.poly(field, rem)
        zero = self.field.zero()
        one = self.field.one()
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quo = [zero] * (dq + 1)
        # a monic divisor needs no inverse (in a tower every inverse
        # reduces by a monic relation, so this also stops the chain)
        lead = other.leading()
        inv_lead = None if lead == one else one / lead
        oc = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[other.degree + k]
            if not c:
                continue
            q = c if inv_lead is None else c * inv_lead
            quo[k] = q
            for j, b in enumerate(oc):
                if b:
                    rem[j + k] = rem[j + k] - q * b
        while rem and not rem[-1]:
            rem.pop()
        return (
            Polynomial(self.field, tuple(quo), trusted=True),
            Polynomial(self.field, tuple(rem), trusted=True),
        )

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == self.field.one():
            return self
        inv = self.field.one() / lead
        return self.scale(inv)

    def derivative(self):
        if len(self.coeffs) <= 1:
            return Polynomial.zero(self.field)
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.field.from_int(i) * self.coeffs[i])
        while out and not out[-1]:
            out.pop()
        return Polynomial(self.field, tuple(out), trusted=True)

    def evaluate(self, x, lift=None):
        """Horner evaluation at ``x`` in any commutative ring.

        ``lift`` maps a coefficient into that ring (defaults to
        identity, which works when ``x`` lives in the coefficient
        field itself)."""
        if lift is None:
            lift = lambda c: c
        if not self.coeffs:
            return lift(self.field.zero())
        acc = lift(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + lift(c)
        return acc

    def compose(self, inner):
        """self(inner) for another polynomial over the same field."""
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(self.field, c)
        return acc

    def map_coeffs(self, field, fn):
        return Polynomial(field, [fn(c) for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(("poly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return format_poly(self, "x")


def format_poly(p: Polynomial, var: str) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if not c:
            continue
        cs = str(c)
        if i == 0:
            parts.append(cs)
        else:
            xs = var if i == 1 else "%s^%d" % (var, i)
            if cs == "1":
                parts.append(xs)
            elif cs == "-1":
                parts.append("-" + xs)
            else:
                if any(op in cs for op in "+-") and not cs.startswith("-"):
                    cs = "(" + cs + ")"
                elif cs.startswith("-") and any(op in cs[1:] for op in "+-"):
                    cs = "(" + cs + ")"
                parts.append("%s*%s" % (cs, xs))
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


# ---------------------------------------------------------------- gcds


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    if f.field is not g.field:
        raise FieldMismatch("gcd of polynomials over different fields")
    field = f.field
    ar = _list_arithmetic(field)
    if ar is not None:
        return ar.poly(field, _list_gcd(
            ar, field, ar.lists(field, f.coeffs), ar.lists(field, g.coeffs)))
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_ext_gcd(f, g):
    """(d, s, t) with s f + t g = d, d monic (or zero)."""
    field = f.field
    a, b = f, g
    sa, sb = Polynomial.one(field), Polynomial.zero(field)
    ta, tb = Polynomial.zero(field), Polynomial.one(field)
    while not b.is_zero():
        q, r = a.divmod(b)
        a, b = b, r
        sa, sb = sb, sa - q * sb
        ta, tb = tb, ta - q * tb
    if a.is_zero():
        return a, sa, ta
    lead = a.leading()
    inv = field.one() / lead
    return a.scale(inv), sa.scale(inv), ta.scale(inv)


def poly_lcm(f, g):
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(f.field)
    return ((f * g) // poly_gcd(f, g)).monic()


def squarefree_decomposition(f: Polynomial):
    """(lead, [(g_i, m_i)]) with f = lead * prod g_i^{m_i}, each g_i
    squarefree monic and the multiplicities distinct.

    Uses the gcd-quotient recurrence, which is characteristic-uniform:
    whatever remains with zero derivative is a p-th power and recurses
    through deflation (perfect coefficient fields only).
    """
    field = f.field
    if f.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    lead = f.leading()
    f = f.monic()
    out = {}
    p = field.characteristic

    def run(h, mult):
        if h.is_constant():
            return
        d = h.derivative()
        if not d.is_zero():
            g = poly_gcd(h, d)
            w = (h // g).monic()
            i = 1
            while not w.is_constant():
                y = poly_gcd(w, g)
                z = (w // y).monic()
                if not z.is_constant():
                    key = mult * i
                    out[key] = (out[key] * z).monic() if key in out else z
                g = (g // y).monic()
                w = y
                i += 1
        else:
            g = h
        if not g.is_constant():
            # g is a polynomial in x^p with zero derivative
            root = getattr(field, "pth_root", None)
            if root is None:
                raise UnsupportedBase(
                    "squarefree decomposition of an inseparable polynomial "
                    "over an imperfect field"
                )
            coeffs = [root(g.coeffs[i]) for i in range(0, len(g.coeffs), p)]
            run(Polynomial(field, coeffs).monic(), mult * p)

    run(f, 1)
    return lead, [(g, m) for m, g in sorted(out.items())]


def poly_pow_mod(base: Polynomial, n: int, modulus: Polynomial) -> Polynomial:
    field = base.field
    ar = _list_arithmetic(field) if modulus.field is field else None
    if ar is not None:
        return ar.poly(field, _list_pow_mod(
            ar, field, ar.lists(field, base.coeffs), n,
            ar.lists(field, modulus.coeffs)))
    result = Polynomial.one(field)
    base = base % modulus
    while n:
        if n & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        n >>= 1
    return result


def resultant(f: Polynomial, g: Polynomial):
    """Resultant over a field via the Euclidean recurrence."""
    field = f.field
    one = field.one()
    if f.is_zero() or g.is_zero():
        return field.zero()
    sign = one
    acc = one
    a, b = f, g
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return field.zero()
        if (a.degree * b.degree) % 2 == 1:
            sign = -sign
        lb = b.leading()
        acc = acc * power(lb, a.degree - r.degree, one)
        a, b = b, r
    # b is a nonzero constant
    acc = acc * power(b.leading(), a.degree, one)
    return sign * acc


def power(x, n, one):
    """x**n for n >= 0 by binary powering, starting from ``one``."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


# ------------------------------------- list kernel (GF(p) and tabled GF(q))
# Polynomials as lists, low degree first, trimmed (no trailing zero; zero
# is []), in one of two list arithmetics that ``_list_arithmetic`` picks
# by field: over GF(p) ints reduced into 0..p-1 (``_FpLists``), over a
# tabled finite extension element indices (``_FqLists``).  In both, 0 is
# zero and 1 is one, so gcd and modular power are written once over
# either.  Over Z, where Hensel lifting and recombination use the same
# int mul and divmod, entries are any ints.


def _list_arithmetic(field):
    """The list arithmetic of polynomials over ``field``: ``_FpLists``
    over a prime field, ``_FqLists`` over a finite extension whose tables
    exist or are built now, None where coefficients compute one by one
    (above ``TABLE_CAP``, a ring that is not a field, characteristic 0)."""
    if field.__class__ is PrimeField:
        return _FpLists
    if getattr(field, "_small", False) and (
            field._exp is not None or field._tabulate()):
        return _FqLists
    return None


def _list_gcd(ar, field, a, b):
    """Monic gcd by the Euclidean algorithm, in list arithmetic ``ar``."""
    while b:
        a, b = b, ar.divmod(field, a, b)[1]
    if a and a[-1] != 1:
        a = ar.divmod(field, a, a[-1:])[0]
    return a


def _list_pow_mod(ar, field, a, n, m):
    """a**n mod m by binary powering, in list arithmetic ``ar``; [1]
    when n is 0."""
    out = [1]
    a = ar.divmod(field, a, m)[1]
    while n:
        if n & 1:
            out = ar.divmod(field, ar.mul(field, out, a), m)[1]
        n >>= 1
        if n:
            a = ar.divmod(field, ar.mul(field, a, a), m)[1]
    return out


class _FpLists:
    """GF(p) as lists of the residues' values."""

    @staticmethod
    def lists(field, coeffs):
        return [c.value for c in coeffs]

    @staticmethod
    def poly(field, ints):
        """Interned residues up to the table cap."""
        els = field._els
        get = field._residue if els is None else els.__getitem__
        return Polynomial(field, tuple(map(get, ints)), trusted=True)

    @staticmethod
    def mul(field, a, b):
        return _trim_mod(_int_poly_mul(a, b), field.p)

    @staticmethod
    def divmod(field, a, b):
        return _int_poly_divmod(a, b, field.p)


class _FqLists:
    """A tabled GF(q) as lists of element indices, as
    ``element_from_index`` counts.  Inside a product or a division each
    coefficient is its logarithm to the field's primitive element g
    (None for zero), taken mod q - 1: a product adds logarithms, and a
    sum g^o + g^t is g^(o + z(t - o)) by the Zech logarithm z."""

    @staticmethod
    def lists(field, coeffs):
        index_of = field._index_of
        return [c._index if c._index is not None else index_of(c)
                for c in coeffs]

    @staticmethod
    def poly(field, idx):
        return Polynomial(field, tuple(map(field._els.__getitem__, idx)),
                          trusted=True)

    @staticmethod
    def mul(field, a, b):
        log, zech, n = field._log, field._zech, len(field._log) - 1
        out = [None] * (len(a) + len(b) - 1)
        terms = [(j, log[c]) for j, c in enumerate(b) if c]
        for i, c in enumerate(a):
            if c:
                _fq_addmul(out, i, log[c], terms, n, zech)
        return _fq_indices(field, out)

    @staticmethod
    def divmod(field, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        log, zech, n = field._log, field._zech, len(field._log) - 1
        db = len(b) - 1
        rem = [log[c] for c in a]
        quo = [None] * max(len(a) - db, 0)
        inv = -log[b[-1]]
        terms = [(j, log[c]) for j, c in enumerate(b[:db]) if c]
        for k in range(len(quo) - 1, -1, -1):
            c = rem[db + k]
            if c is not None:
                c = quo[k] = (c + inv) % n
                # subtract: g^half = -1
                _fq_addmul(rem, k, c + field._half, terms, n, zech)
        return _fq_indices(field, quo), _fq_indices(field, rem[:db])


def _fq_addmul(acc, k, c, terms, n, zech):
    """acc[k + j] += g^c g^y for each (j, y) of ``terms``, on logarithms
    mod n = q - 1, None for zero."""
    for j, y in terms:
        t, o = (c + y) % n, acc[k + j]
        if o is None:
            acc[k + j] = t
        else:
            z = zech[t - o]
            acc[k + j] = None if z is None else (o + z) % n


def _fq_indices(field, logs):
    """The trimmed index list of a list of logarithms (None for zero)."""
    exp = field._exp
    out = [0 if x is None else exp[x]._index for x in logs]
    while out and not out[-1]:
        out.pop()
    return out


def _trim_mod(a, p):
    """a reduced into 0..p-1, trailing zeros dropped (a new list)."""
    out = [c % p for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _int_poly_mul(a, b):
    """Product over Z (reduce with _trim_mod for GF(p))."""
    if not a or not b:
        return []
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, c in enumerate(a):
        if c:
            out[i:i + lb] = [o + c * x for o, x in zip(out[i:i + lb], b)]
    return out


def _int_poly_divmod(a, b, p=None):
    """(quotient, remainder) of a by b, trimmed: over GF(p), reduced, or
    over Z when p is None, where b must be monic."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    rem = list(a) if p is None else _trim_mod(a, p)
    quo = [0] * max(len(rem) - db, 0)
    inv = 1 if p is None else pow(b[-1], -1, p)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[db + k] if p is None else rem[db + k] * inv % p
        if c:
            quo[k] = c
            rem[k:db + k] = [r - c * x for r, x in zip(rem[k:db + k], b)]
    if p is not None:
        return quo, _trim_mod(rem[:db], p)
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


# ------------------------------------------------------ rational functions


class RationalFunction:
    """num/den over a coefficient field; den monic and coprime to num.

    The ``field`` slot points to the owning RationalFunctionField, which
    supplies its constants, zero and one.  Whether den is 1 is tested
    once, when the value is built; callers that know it pass
    ``polynomial``.  A sum with a zero operand returns the other
    operand, coerced into the field when it is a plain constant, with
    no gcd; the field check runs first, so mixing fields still raises
    FieldMismatch.

    A constant hashes as its coefficient, so it agrees with the equal
    element of the coefficient field.
    """

    __slots__ = ("field", "num", "den", "_polynomial")

    def __init__(self, field, num, den, trusted=False, polynomial=None):
        if not trusted:
            num, den = _normalize_ratfunc(num, den)
        self.field = field
        self.num = num
        self.den = den
        self._polynomial = den.is_one() if polynomial is None else polynomial

    def _check(self, other):
        if isinstance(other, RationalFunction):
            if other.field is not self.field:
                raise FieldMismatch("rational functions over different fields")
            return other
        try:
            return self.field.constant(other)
        except (FieldMismatch, TypeError):
            return None

    def is_polynomial(self):
        return self._polynomial

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if not other.num.coeffs:
            return self
        if not self.num.coeffs:
            return other
        if self._polynomial and other._polynomial:
            return RationalFunction(
                self.field, self.num + other.num, self.den, trusted=True,
                polynomial=True,
            )
        num = self.num * other.den + other.num * self.den
        den = self.den * other.den
        return RationalFunction(self.field, num, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(
            self.field, -self.num, self.den, trusted=True,
            polynomial=self._polynomial,
        )

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return self.field.zero()
        if self._polynomial and other._polynomial:
            return RationalFunction(
                self.field, self.num * other.num, self.den, trusted=True,
                polynomial=True,
            )
        # cross-reduce before multiplying to keep degrees small
        a, d2 = _cross_reduce(self.num, other.den)
        b, d1 = _cross_reduce(other.num, self.den)
        return RationalFunction(self.field, a * b, d1 * d2, trusted=True)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise NotInvertible("division by zero rational function")
        num, den = self.den, self.num
        scale = self.num.field.one() / den.leading()
        return RationalFunction(
            self.field, num.scale(scale), den.scale(scale), trusted=True,
            polynomial=den.degree == 0,
        )

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

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.field.one())

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return (
                other.field is self.field
                and other.num == self.num
                and other.den == self.den
            )
        checked = self._check(other)
        if checked is None:
            return NotImplemented
        return self == checked

    def __hash__(self):
        if self._polynomial and self.num.degree <= 0:
            return hash(self.num.coeff(0))
        return hash(("ratfunc", self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return bool(self.num.coeffs)

    def __repr__(self):
        var = getattr(self.field, "var", "t")
        ns = format_poly(self.num, var)
        if self._polynomial:
            return ns
        ds = format_poly(self.den, var)
        return "(%s)/(%s)" % (ns, ds)


def _normalize_ratfunc(num, den):
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return num, Polynomial.one(den.field)
    if not den.is_one():
        g = poly_gcd(num, den)
        if not g.is_constant():
            num = num // g
            den = den // g
        lead = den.leading()
        if lead != den.field.one():
            inv = den.field.one() / lead
            num = num.scale(inv)
            den = den.scale(inv)
    return num, den


def _cross_reduce(num, den):
    if den.is_one() or num.is_zero():
        return num, den
    g = poly_gcd(num, den)
    if g.is_constant():
        return num, den
    return num // g, den // g
