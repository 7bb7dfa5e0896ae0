"""Exact linear algebra over the integers and rationals.

Everything here runs on Python ints and ``fractions.Fraction`` -- no floating
point, no overflow.  Matrices are plain lists of row lists.  The integer side
is what the fan machinery needs: determinants (smoothness, wall sides) and
exact inverses, both fraction-free.  The rational side is reduced row
echelon form.  Coordinates are never solved for one query at a time; each
matrix that gives them is inverted once (a fan's maximal cones, the Mori
generators) and a coordinate is a dot product with a row of its inverse.
"""

from fractions import Fraction
from math import gcd, lcm


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


def invert_int(A):
    """Inverse of a square integer matrix as row tuples; None when singular.

    Fraction-free (Bareiss) Gauss-Jordan on ``[A | I]``: every entry stays an
    integer minor, so each division is exact, and the blocks end as ``d``
    times the identity and ``d`` times the inverse.  Entries are ints where
    integral, Fractions otherwise.
    """
    n = len(A)
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    d = 1
    for k in range(n):
        p = next((i for i in range(k, n) if M[i][k]), None)
        if p is None:
            return None
        M[k], M[p] = M[p], M[k]
        top, pivot = M[k], M[k][k]
        M = [row if i == k else [(pivot * a - row[k] * b) // d
                                 for a, b in zip(row, top)]
             for i, row in enumerate(M)]
        d = pivot
    return tuple(tuple(x // d if x % d == 0 else Fraction(x, d)
                       for x in row[n:]) for row in M)


def primitive_vector(v):
    """Divide a rational vector by content to a primitive integer vector."""
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints
