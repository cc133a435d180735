"""Dense exact matrices over a field handle.

Rows are tuples of field elements.  Vectors are plain Python lists and
matrices act on them from the left (column convention), so the right
kernel is {v : M v = 0}.  Characteristic polynomials go through a
Hessenberg reduction; minimal polynomials through Krylov chains.
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
        """self * other^-1 from one rref of [other^T | self^T]; raises
        NotInvertible when other is singular or not square."""
        other = self._check(other)
        if other is None:
            return NotImplemented
        n = other.nrows
        if not other.is_square():
            raise NotInvertible("division by a non-square matrix")
        if self.ncols != n:
            raise ValueError("matrix dimensions do not match")
        R, pivots = Matrix.from_blocks(
            self.field, [[other.transpose(), self.transpose()]]
        ).rref()
        if pivots[:n] != list(range(n)):
            raise NotInvertible("matrix is singular")
        return R.submatrix(range(n), range(n, n + self.nrows)).transpose()

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

    def map_entries(self, fn, field=None):
        if field is None:
            field = self.field
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
        """(reduced row echelon form, pivot column list)."""
        rows = [list(r) for r in self.rows]
        n, m = len(rows), self.ncols
        pivots = []
        r = 0
        one = self.field.one()
        for c in range(m):
            pivot = None
            for i in range(r, n):
                if rows[i][c]:
                    pivot = i
                    break
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            lead = rows[r][c]
            if lead != one:
                inv = one / lead
                rows[r] = [inv * a for a in rows[r]]
            for i in range(n):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    ri, rr = rows[i], rows[r]
                    rows[i] = [
                        ri[j] - f * rr[j] if rr[j] else ri[j]
                        for j in range(m)
                    ]
            pivots.append(c)
            r += 1
            if r == n:
                break
        return (
            Matrix(
                self.field,
                tuple(tuple(rw) for rw in rows),
                trusted=True,
                ncols=m,
            ),
            pivots,
        )

    def rank(self):
        return len(self.rref()[1])

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
        """One solution of M x = b, or None if inconsistent."""
        n, m = self.nrows, self.ncols
        if len(b) != n:
            raise ValueError("rhs length does not match")
        rows = [list(r) + [self.field.coerce(b[i])] for i, r in enumerate(self.rows)]
        aug = Matrix(self.field, tuple(tuple(r) for r in rows), trusted=True)
        R, pivots = aug.rref()
        if m in pivots:
            return None
        zero = self.field.zero()
        x = [zero] * m
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][m]
        return x

    # ------------------------------------------- characteristic structure

    def charpoly(self):
        """Monic characteristic polynomial det(x I - M)."""
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.nrows
        field = self.field
        if n == 0:
            return Polynomial.one(field)
        H = [list(r) for r in self.rows]
        # similarity reduction to upper Hessenberg form
        for j in range(n - 2):
            pivot = None
            for i in range(j + 1, n):
                if H[i][j]:
                    pivot = i
                    break
            if pivot is None:
                continue
            if pivot != j + 1:
                H[j + 1], H[pivot] = H[pivot], H[j + 1]
                for row in H:
                    row[j + 1], row[pivot] = row[pivot], row[j + 1]
            inv = field.one() / H[j + 1][j]
            for r in range(j + 2, n):
                if H[r][j]:
                    f = H[r][j] * inv
                    Hr, Hj = H[r], H[j + 1]
                    H[r] = [
                        Hr[k] - f * Hj[k] if Hj[k] else Hr[k]
                        for k in range(n)
                    ]
                    for row in H:
                        if row[r]:
                            row[j + 1] = row[j + 1] + f * row[r]
        # p_k = (x - H[k-1][k-1]) p_{k-1} - sum over trailing products
        x = Polynomial.x(field)
        p = [Polynomial.one(field)]
        for k in range(1, n + 1):
            term = (x - Polynomial.constant(field, H[k - 1][k - 1])) * p[k - 1]
            prod = field.one()
            for m in range(1, k):
                prod = prod * H[k - m][k - m - 1]
                if not prod:
                    break
                c = H[k - m - 1][k - 1]
                if c:
                    term = term - (p[k - m - 1] * (c * prod))
            p.append(term)
        return p[n]

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
            chain = [e]
            v = e
            while True:
                v = self.mul_vec(v)
                M = Matrix.from_cols(field, chain)
                sol = M.solve(v)
                if sol is not None:
                    f = Polynomial(
                        field, [-c for c in sol] + [one]
                    )
                    mu = poly_lcm(mu, f)
                    break
                chain.append(v)
                seen.insert(v)
            if mu.degree == n:
                break
        return mu.monic()


class Echelon:
    """A subspace of F^n grown one vector at a time, as rows
    (pivot, vector) with vector[pivot] = 1, each row zero at the pivots
    of the rows before it."""

    __slots__ = ("one", "rows")

    def __init__(self, field):
        self.one = field.one()
        self.rows = []

    def reduce(self, v):
        """v less a combination of the rows: zero iff v is in the span."""
        v = list(v)
        for piv, w in self.rows:
            f = v[piv]
            if f:
                v = [a - f * b if b else a for a, b in zip(v, w)]
        return v

    def insert(self, v):
        """Add v to the span and return the pivot entry of its reduced
        form, or None when v was already inside."""
        v = self.reduce(v)
        for piv, a in enumerate(v):
            if a:
                if a != self.one:
                    inv = self.one / a
                    v = [inv * b for b in v]
                self.rows.append((piv, v))
                return a
        return None
