"""Linear algebra for commuting families of matrices.

Joint eigenspaces give ``split_analysis`` its witness vectors (the
composition analysis reads multiplicities off one characteristic
polynomial); simultaneous triangularization is kept as an independent
second route so structural results can be cross-checked against it on
small inputs rather than trusting one code path.  Every kernel,
restriction and basis completion here is read off ``matrix.Echelon``,
the package's one Gaussian elimination.
"""

from __future__ import annotations

from .errors import EigenvalueOutsideField, NotAField, UnsupportedBase
from .factor import roots_in_coefficient_field
from .fieldops import cached_basis, kernel_over, scalar_layer
from .matrix import Echelon, Matrix
from .towers import coords_over


def stack_kernel(matrices):
    """Basis of the intersection of the right kernels."""
    if not matrices:
        raise ValueError("need at least one matrix")
    field = matrices[0].field
    n = matrices[0].ncols
    rows = []
    for M in matrices:
        rows.extend(M.rows)
    return Matrix(field, rows, ncols=n).kernel()


def eigenspace(M: Matrix, lam) -> list:
    return joint_eigenspace([M], [lam])


def joint_eigenspace(mats, lams) -> list:
    """Common eigenvectors: intersection of ker(M_i - lam_i)."""
    field = mats[0].field
    n = mats[0].nrows
    shifted = [
        M - Matrix.diagonal(field, [lam] * n)
        for M, lam in zip(mats, lams)
    ]
    return stack_kernel(shifted)


def restriction_matrix(M: Matrix, basis) -> Matrix:
    """Matrix of M on an M-invariant subspace, in the given basis."""
    span = Echelon(M.field)
    if not all(span.insert(v) for v in basis):
        raise ValueError("the basis vectors are dependent")
    cols = [span.coords(M.mul_vec(v)) for v in basis]
    if None in cols:
        raise ValueError("subspace is not invariant under the matrix")
    return Matrix.from_cols(M.field, cols)


def extend_to_basis(field, vectors, n):
    """Complete independent vectors to a basis with standard vectors."""
    span = Echelon(field)
    cols = list(vectors)
    for v in cols:
        span.insert(v)
    for j in range(n):
        e = [field.zero()] * n
        e[j] = field.one()
        if span.insert(e):
            cols.append(e)
    return cols


def _eigenvalues_of(M: Matrix):
    """Eigenvalues of M found inside its own coefficient field, as the
    roots of its characteristic polynomial there."""
    try:
        roots = roots_in_coefficient_field(M.charpoly())
    except UnsupportedBase:
        raise EigenvalueOutsideField(
            "cannot search for eigenvalues over this field"
        )
    return [r for r, _ in roots]


def simultaneous_triangularize(mats):
    """(T, triangular list) with T^-1 M_i T upper triangular for all i.

    The matrices must commute.  Works over the matrices' own field:
    each recursion step needs a common eigenvector there, and raises
    EigenvalueOutsideField when none exists (extend the field).
    """
    field = mats[0].field
    n = mats[0].nrows
    for M in mats:
        if M.nrows != n or M.ncols != n:
            raise ValueError("matrices must be square of equal size")
    if n == 0:
        empty = Matrix.identity(field, 0)
        return empty, [Matrix.identity(field, 0) for _ in mats]

    def find_common_eigenvector(current):
        space = None  # None means the full space
        for M in current:
            lams = _eigenvalues_of(M)
            best = None
            for lam in lams:
                if space is None:
                    vecs = eigenspace(M, lam)
                else:
                    # restrict M to the current invariant subspace
                    R = restriction_matrix(M, space)
                    sub = eigenspace(R, lam)
                    span = Matrix.from_cols(field, space)
                    vecs = [span.mul_vec(c) for c in sub]
                if vecs:
                    best = vecs
                    break
            if best is None:
                raise EigenvalueOutsideField(
                    "no common eigenvector over the coefficient field"
                )
            space = best
        return space[0]

    def recurse(current, size):
        if size == 0:
            return Matrix.identity(field, 0)
        v = find_common_eigenvector(current)
        basis = extend_to_basis(field, [v], size)
        T = Matrix.from_cols(field, basis)
        Tinv = T.inverse()
        conj = [Tinv * M * T for M in current]
        if size == 1:
            return T
        sub = [
            M.submatrix(range(1, size), range(1, size)) for M in conj
        ]
        S = recurse(sub, size - 1)
        # assemble the block transform diag(1, S)
        one = field.one()
        zero = field.zero()
        rows = [[one] + [zero] * (size - 1)]
        for i in range(size - 1):
            rows.append([zero] + list(S.rows[i]))
        return T * Matrix(field, rows, trusted=True)

    T = recurse(list(mats), n)
    Tinv = T.inverse()
    triangs = [Tinv * M * T for M in mats]
    for M in triangs:
        for i in range(n):
            for j in range(i):
                if M.rows[i][j]:
                    raise EigenvalueOutsideField(
                        "triangularization failed; matrices may not commute"
                    )
    return T, triangs


def center_kernel(field, phi):
    """Elements z of the tower with phi(z) = z * Id, as a basis.

    ``phi`` maps field elements to square matrices over the field and
    must be linear over the scalar layer (the caller checks that the
    scalar-layer generators map to scalar matrices before calling).
    The basis is ``fieldops.kernel_over`` the scalar layer, with the
    entries of phi(b) - b * Id as the values at each basis element b.
    The solution space is verified to be closed under products, since
    downstream code treats it as a subfield."""
    f0 = scalar_layer(field)
    images = [
        [entry - b if i == j else entry
         for i, row in enumerate(phi(b).rows) for j, entry in enumerate(row)]
        for b in cached_basis(field, f0)
    ]
    vectors = kernel_over(field, f0, images)
    span = Echelon(f0)
    for v in vectors:
        span.insert(coords_over(field, v, f0))
    for i, a in enumerate(vectors):
        for b in vectors[i:]:
            if any(span.reduce(coords_over(field, a * b, f0))):
                raise NotAField(
                    "central solution space is not closed under products"
                )
    return vectors
