"""Dense exact matrices over a field handle.

Rows are tuples of field elements.  Vectors are plain Python lists and
matrices act on them from the left (column convention), so the right
kernel is {v : M v = 0}.  ``Echelon``, a span grown one vector at a
time, is the one Gaussian elimination: ``rref``, ``rank``, ``kernel``,
``solve``, ``/``, ``inverse``, ``det``, ``charpoly`` and ``minpoly``
all read their answers off one, as do membership and coordinates in a
span.  ``charpoly`` grows one span from the Krylov chains of the
standard vectors and multiplies the chains' companion blocks;
``minpoly`` keeps one span per chain and takes the lcm of the chains'
relations.
"""

from __future__ import annotations

from .errors import FieldMismatch, NotInvertible
from .poly import Polynomial, poly_lcm, power


class Matrix:
    __slots__ = ("field", "rows", "_ncols")

    def __init__(self, field, rows, trusted=False, ncols=None):
        if not trusted:
            rows = tuple(
                tuple(field.coerce(c) for c in row) for row in rows
            )
            if rows:
                width = len(rows[0])
                for row in rows:
                    if len(row) != width:
                        raise ValueError("ragged matrix rows")
        self.field = field
        self.rows = rows
        self._ncols = len(rows[0]) if rows else (ncols or 0)

    # ------------------------------------------------------ constructors

    @staticmethod
    def identity(field, n):
        zero, one = field.zero(), field.one()
        return Matrix(
            field,
            tuple(
                tuple(one if i == j else zero for j in range(n))
                for i in range(n)
            ),
            trusted=True,
        )

    @staticmethod
    def zeros(field, n, m=None):
        if m is None:
            m = n
        zero = field.zero()
        return Matrix(
            field, tuple((zero,) * m for _ in range(n)), trusted=True
        )

    @staticmethod
    def diagonal(field, entries):
        entries = [field.coerce(e) for e in entries]
        zero = field.zero()
        n = len(entries)
        return Matrix(
            field,
            tuple(
                tuple(entries[i] if i == j else zero for j in range(n))
                for i in range(n)
            ),
            trusted=True,
        )

    @staticmethod
    def companion(poly: Polynomial):
        """Companion matrix of a monic polynomial (ones on the
        subdiagonal, minus coefficients in the last column)."""
        field = poly.field
        poly = poly.monic()
        n = poly.degree
        if n < 1:
            raise ValueError("companion matrix needs degree >= 1")
        zero, one = field.zero(), field.one()
        rows = []
        for i in range(n):
            row = [zero] * n
            if i > 0:
                row[i - 1] = one
            row[n - 1] = -poly.coeff(i)
            rows.append(tuple(row))
        return Matrix(field, tuple(rows), trusted=True)

    @staticmethod
    def from_blocks(field, blocks):
        """Assemble from a 2d grid of equally compatible blocks."""
        rows = []
        for block_row in blocks:
            height = block_row[0].nrows
            for r in range(height):
                row = []
                for block in block_row:
                    row.extend(block.rows[r])
                rows.append(tuple(row))
        return Matrix(field, tuple(rows), trusted=True)

    @staticmethod
    def from_cols(field, cols):
        n = len(cols[0])
        return Matrix(
            field,
            tuple(tuple(col[i] for col in cols) for i in range(n)),
            trusted=True,
        )

    # ------------------------------------------------------------ shape

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return self._ncols

    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def col(self, j):
        return [row[j] for row in self.rows]

    def submatrix(self, row_idx, col_idx):
        return Matrix(
            self.field,
            tuple(
                tuple(self.rows[i][j] for j in col_idx) for i in row_idx
            ),
            trusted=True,
        )

    # -------------------------------------------------------- arithmetic

    def _check(self, other):
        if not isinstance(other, Matrix):
            return None
        if other.field is not self.field:
            raise FieldMismatch("matrices over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return Matrix(
            self.field,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            trusted=True,
        )

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return Matrix(
            self.field,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            trusted=True,
        )

    def __neg__(self):
        return Matrix(
            self.field,
            tuple(tuple(-a for a in row) for row in self.rows),
            trusted=True,
        )

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix(
            self.field,
            tuple(tuple(c * a for a in row) for row in self.rows),
            trusted=True,
        )

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("matrix dimensions do not match")
        cols = list(zip(*other.rows))
        zero = self.field.zero()
        out = []
        for row in self.rows:
            out_row = []
            nz = [(j, a) for j, a in enumerate(row) if a]
            for col in cols:
                acc = zero
                for j, a in nz:
                    b = col[j]
                    if b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix(self.field, tuple(out), trusted=True)

    def __truediv__(self, other):
        """self * other^-1: each row of self in coordinates of the rows
        of other, read off one ``Echelon`` of those rows; raises
        NotInvertible when other is singular or not square."""
        other = self._check(other)
        if other is None:
            return NotImplemented
        n = other.nrows
        if not other.is_square():
            raise NotInvertible("division by a non-square matrix")
        if self.ncols != n:
            raise ValueError("matrix dimensions do not match")
        span = _echelon(self.field, other.rows)
        if len(span.rows) < n:
            raise NotInvertible("matrix is singular")
        return Matrix(
            self.field,
            tuple(tuple(span.coords(row)) for row in self.rows),
            trusted=True,
            ncols=n,
        )

    def mul_vec(self, v):
        if len(v) != self.ncols:
            raise ValueError("vector length does not match")
        zero = self.field.zero()
        out = []
        for row in self.rows:
            acc = zero
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return out

    def __pow__(self, n):
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, Matrix.identity(self.field, self.nrows))

    def transpose(self):
        rows = tuple(zip(*self.rows)) or ((),) * self.ncols
        return Matrix(self.field, rows, trusted=True, ncols=self.nrows)

    def map_entries(self, fn, field):
        return Matrix(
            field, [[fn(a) for a in row] for row in self.rows]
        )

    def trace(self):
        acc = self.field.zero()
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self):
        return all(not a for row in self.rows for a in row)

    def __bool__(self):
        return not self.is_zero()

    def is_identity(self):
        return self.is_square() and self == Matrix.identity(
            self.field, self.nrows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field is self.field
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash(("matrix", self.rows))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(a) for a in row) for row in self.rows
        )
        return "[%s]" % body

    # ------------------------------------------------------- elimination

    def rref(self):
        """(reduced row echelon form, pivot column list): the
        ``Echelon`` rows sorted by pivot, each later pivot cleared from
        the rows above it, last first, then the zero rows."""
        pivots, rows = [], []
        for piv, w in sorted(_echelon(self.field, self.rows).rows):
            pivots.append(piv)
            rows.append(w)
        for j in reversed(range(len(rows))):
            w = rows[j]
            for i in range(j):
                f = rows[i][pivots[j]]
                if f:
                    rows[i] = [a - f * b if b else a
                               for a, b in zip(rows[i], w)]
        m = self.ncols
        rows += [[self.field.zero()] * m] * (self.nrows - len(rows))
        return (
            Matrix(self.field, tuple(map(tuple, rows)), trusted=True,
                   ncols=m),
            pivots,
        )

    def rank(self):
        return len(_echelon(self.field, self.rows).rows)

    def kernel(self):
        """Basis of the right kernel {v : M v = 0} as lists."""
        R, pivots = self.rref()
        m = self.ncols
        free = [c for c in range(m) if c not in pivots]
        zero, one = self.field.zero(), self.field.one()
        basis = []
        for fc in free:
            v = [zero] * m
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -R.rows[r][fc]
            basis.append(v)
        return basis

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        span = Echelon(self.field)
        acc = self.field.one()
        for row in self.rows:
            lead = span.insert(row)
            if lead is None:
                return self.field.zero()
            acc = acc * lead
        # triangular once columns are sorted by pivot; inversions flip sign
        pivots = [piv for piv, _ in span.rows]
        swaps = sum(a > b for i, a in enumerate(pivots)
                    for b in pivots[i + 1:])
        return -acc if swaps % 2 else acc

    def inverse(self):
        return Matrix.identity(self.field, self.nrows) / self

    def solve(self, b):
        """One solution of M x = b, or None if inconsistent: b's
        coordinates in the columns an ``Echelon`` of them accepts, and
        0 at the others."""
        if len(b) != self.nrows:
            raise ValueError("rhs length does not match")
        span, accepted = Echelon(self.field), []
        for j in range(self.ncols):
            if span.insert(self.col(j)) is not None:
                accepted.append(j)
        coords = span.coords([self.field.coerce(c) for c in b])
        if coords is None:
            return None
        x = [self.field.zero()] * self.ncols
        for j, c in zip(accepted, coords):
            x[j] = c
        return x

    # ------------------------------------------- characteristic structure

    def charpoly(self):
        """Monic characteristic polynomial det(x I - M), from Krylov
        chains in one ``Echelon``.  Each e_i outside the span so far
        starts a chain v, Mv, M^2 v, ..., inserted until some M^k v is
        inside; its coordinates on the chain's own k vectors give the
        block x^k - sum c_j x^j.  In the basis of all chain vectors M is
        block upper triangular with these companion blocks, so the
        characteristic polynomial is their product (Keller-Gehrig,
        "Fast algorithms for the characteristic polynomial", 1985)."""
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.nrows
        field = self.field
        zero, one = field.zero(), field.one()
        chi = Polynomial.one(field)
        span = Echelon(field)
        for i in range(n):
            if len(span.rows) == n:
                break
            v = [zero] * n
            v[i] = one
            start = len(span.rows)
            while (c := span.insert_or_coords(v, start)) is None:
                v = self.mul_vec(v)
            if c:
                chi = chi * Polynomial(field, [-a for a in c] + [one])
        return chi

    def minpoly(self):
        """Monic minimal polynomial via Krylov chains."""
        if not self.is_square():
            raise ValueError("minimal polynomial of a non-square matrix")
        n = self.nrows
        field = self.field
        if n == 0:
            return Polynomial.one(field)
        zero, one = field.zero(), field.one()
        mu = Polynomial.one(field)
        # span of all Krylov vectors seen so far; once a basis vector is
        # already inside, its chain divides the current lcm
        seen = Echelon(field)
        for i in range(n):
            e = [zero] * n
            e[i] = one
            if not seen.insert(e):
                continue
            chain = Echelon(field)
            chain.insert(e)
            v = e
            while True:
                v = self.mul_vec(v)
                if (c := chain.insert_or_coords(v, 0)) is not None:
                    mu = poly_lcm(mu, Polynomial(
                        field, [-a for a in c] + [one]))
                    break
                seen.insert(v)
            if mu.degree == n:
                break
        return mu.monic()


class Echelon:
    """A subspace of F^n grown one vector at a time, as rows
    (pivot, vector) with vector[pivot] = 1, each row zero at the pivots
    of the rows before it.  It answers membership (``reduce``) and
    coordinates in the accepted vectors (``coords``), for which each
    row keeps only what its elimination computed anyway: the
    multipliers taken off the earlier rows and its pivot's inverse."""

    __slots__ = ("one", "_zero", "rows", "_steps")

    def __init__(self, field):
        self.one, self._zero = field.one(), field.zero()
        self.rows, self._steps = [], []

    def _eliminate(self, v):
        """(reduce(v), the (row index, multiplier) pairs it took off)."""
        v, taken = list(v), []
        for k, (piv, w) in enumerate(self.rows):
            f = v[piv]
            if f:
                v = [a - f * b if b else a for a, b in zip(v, w)]
                taken.append((k, f))
        return v, taken

    def reduce(self, v):
        """v less a combination of the rows: zero iff v is in the span."""
        return self._eliminate(v)[0]

    def _accept(self, v, taken):
        """Add the reduced v as a row; its pivot entry, or None if v = 0."""
        for piv, a in enumerate(v):
            if a:
                inv = self.one
                if a != self.one:
                    inv = self.one / a
                    v = [inv * b for b in v]
                self.rows.append((piv, v))
                self._steps.append((taken, inv))
                return a
        return None

    def _back_substitute(self, taken, start):
        """The coefficients, from row ``start`` on, of a v inside the span."""
        # v = sum c_k row_k and row_k = inv_k (w_k - sum f_kj row_j) for
        # the k-th accepted w_k: back-substitute from the last row
        c = [self._zero] * len(self.rows)
        for k, f in taken:
            c[k] = f
        for k in reversed(range(start, len(c))):
            if not c[k]:
                continue
            earlier, inv = self._steps[k]
            c[k] = c[k] * inv
            for j, f in earlier:
                if j >= start:
                    c[j] = c[j] - c[k] * f
        return c[start:]

    def insert(self, v):
        """Add v to the span and return the pivot entry of its reduced
        form, or None when v was already inside."""
        return self._accept(*self._eliminate(v))

    def insert_or_coords(self, v, start):
        """One step of a Krylov chain begun at row ``start``: add v and
        return None or, when v was inside, its coefficients on the
        accepted vectors from ``start`` on, from the same elimination."""
        v, taken = self._eliminate(v)
        if self._accept(v, taken) is None:
            return self._back_substitute(taken, start)

    def coords(self, v):
        """The coefficients of v in the vectors ``insert`` accepted, in
        their order, or None when v is outside their span."""
        v, taken = self._eliminate(v)
        if any(v):
            return None
        return self._back_substitute(taken, 0)


def _echelon(field, vectors):
    """An ``Echelon`` of the given vectors, inserted in order."""
    span = Echelon(field)
    for v in vectors:
        span.insert(v)
    return span
