"""Exact linear algebra over the integers and rationals.

Everything here runs on Python ints and ``fractions.Fraction`` -- no floating
point, no overflow.  Matrices are plain lists of row lists.  The integer side
provides the Smith normal form and the two lattice operations the fan machinery
needs: a saturated kernel basis (primitive relations among rays live in it) and
coordinates with respect to a unimodular basis (smooth cones).  The rational
side is a thin Gaussian-elimination toolkit used downstream for pairing
matrices, integration normalizations and cone geometry.
"""

from fractions import Fraction
from math import gcd, lcm


class NotUnimodular(ValueError):
    """Basis matrix has determinant other than +-1."""


def check_matrix(A):
    """Validate a row-major integer matrix, returning (rows, cols)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    for row in A:
        if len(row) != cols:
            raise ValueError("ragged matrix")
        for x in row:
            if not isinstance(x, int):
                raise ValueError(f"non-integer entry {x!r}")
    return rows, cols


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """Return (D, L, R) with L*A*R = D diagonal, L and R unimodular.

    Diagonal entries of D are the invariant factors (not normalized to the
    divisibility chain; only diagonality and exactness are needed here).
    """
    rows, cols = check_matrix(A)
    D = [list(row) for row in A]
    L = _identity(rows)
    R = _identity(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        L[i], L[j] = L[j], L[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in R:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row dst += c * row src
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]
        L[dst] = [x + c * y for x, y in zip(L[dst], L[src])]

    def add_col(src, dst, c):
        for row in D:
            row[dst] += c * row[src]
        for row in R:
            row[dst] += c * row[src]

    t = 0
    while t < min(rows, cols):
        # pick the absolutely smallest nonzero entry of the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < best):
                    best = abs(D[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, rows):
            if D[i][t] != 0:
                q = D[i][t] // D[t][t]
                add_row(t, i, -q)
                if D[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if D[t][j] != 0:
                q = D[t][j] // D[t][t]
                add_col(t, j, -q)
                if D[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainders left; re-pick a smaller pivot
        if D[t][t] < 0:  # negating a row keeps L unimodular (det flips sign)
            D[t] = [-x for x in D[t]]
            L[t] = [-x for x in L[t]]
        t += 1

    return D, L, R


def kernel_basis(A):
    """Basis of the saturated integer kernel {v : A v = 0}.

    The returned vectors generate the full lattice ker(A) over ZZ (they are
    columns of a unimodular matrix, hence primitive as a sublattice basis).
    Empty list for injective A.
    """
    rows, cols = check_matrix(A)
    if cols == 0:
        return []
    D, _, R = smith_normal_form(A)
    basis = []
    for j in range(cols):
        d = D[j][j] if j < rows else 0
        if d == 0:
            basis.append([R[i][j] for i in range(cols)])
    for v in basis:  # defensive: exactness is the whole point
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
    return basis


def det_int(A):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n, m = check_matrix(A)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def solve_in_basis(basis, v):
    """Integer coordinates of v in a unimodular basis of ZZ^n.

    ``basis`` is a list of n integer vectors; raises NotUnimodular unless
    their matrix has determinant +-1, in which case coordinates are unique
    integers.
    """
    n = len(basis)
    if n == 0:
        if any(x != 0 for x in v):
            raise NotUnimodular("empty basis cannot express a nonzero vector")
        return []
    if any(len(b) != n for b in basis) or len(v) != n:
        raise ValueError("basis must be square and match the vector length")
    B = [[basis[j][i] for j in range(n)] for i in range(n)]  # columns = basis
    if abs(det_int(B)) != 1:
        raise NotUnimodular(f"basis determinant {det_int(B)} != +-1")
    sol = solve_rational(B, list(v))
    assert sol is not None and all(x.denominator == 1 for x in sol)
    return [int(x) for x in sol]


# --- rational Gaussian elimination -----------------------------------------


def rref(M):
    """Reduced row echelon form over Fraction; returns (rows, pivot_cols)."""
    rows = [[Fraction(x) for x in row] for row in M]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def solve_rational(A, b):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables (if any) are set to zero.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    aug = [list(A[i]) + [b[i]] for i in range(nrows)]
    red, pivots = rref(aug)
    for i in range(len(red)):
        if all(red[i][j] == 0 for j in range(ncols)) and red[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[r][ncols]
    return x


def invert_rational(A):
    """Exact inverse of a square rational matrix; None when singular."""
    n = len(A)
    aug = [[Fraction(A[i][j]) for j in range(n)]
           + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def primitive_vector(v):
    """Divide a rational vector by content to a primitive integer vector."""
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints
