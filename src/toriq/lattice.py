"""Exact linear algebra over the integers.

Matrices are plain lists of row lists of Python ints: no floating point, no
overflow.  One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp.
22, 1968) gives determinants (smoothness, wall sides), exact inverses and
pivot columns alike.  An inverse is an integer matrix over one positive
denominator.  Each matrix that gives coordinates is inverted once (a fan's
maximal cones, the Mori generators), and a coordinate is a dot product with
a row of its inverse, over that denominator.
"""

from math import gcd


def _eliminate(M):
    """Fraction-free Gauss-Jordan of the integer matrix ``M``, in place.

    A column with no nonzero entry below the pivot rows is skipped; else that
    entry's row is swapped up, and every other row becomes ``(pivot * row -
    row[c] * top) // d`` for ``d`` the previous pivot.  Entries stay integer
    minors of ``M``, so each division is exact.  Returns ``(pivots, d,
    sign)``: the pivot columns, the last pivot (the pivot rows end as ``d``
    times the reduced echelon form) and the sign of the row swaps.
    """
    pivots, d, sign = [], 1, 1
    for c in range(len(M[0]) if M else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(M)) if M[i][c]), None)
        if p is None:
            continue
        if p != r:
            M[r], M[p] = M[p], M[r]
            sign = -sign
        top, pivot = M[r], M[r][c]
        for i, row in enumerate(M):
            if i != r:
                M[i] = [(pivot * a - row[c] * b) // d for a, b in zip(row, top)]
        pivots.append(c)
        d = pivot
    return pivots, d, sign


def det_int(A):
    """Determinant of a square integer matrix."""
    if any(len(row) != len(A) for row in A):
        raise ValueError("determinant of a non-square matrix")
    pivots, d, sign = _eliminate([list(row) for row in A])
    return sign * d if len(pivots) == len(A) else 0


def invert_int(A):
    """Inverse of a square integer matrix as ``(rows, d)``, the inverse being
    ``rows / d``; None when singular.

    Eliminates ``[A | I]``: ``A`` is invertible exactly when its own columns
    are the pivots, and then the blocks end as ``d`` times the identity and
    ``d`` times the inverse.  ``rows`` are tuples of ints, ``d > 0`` and
    ``gcd(d, *entries) == 1``, so ``d`` is 1 exactly when ``A`` is unimodular.
    """
    n = len(A)
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    pivots, d, _ = _eliminate(M)
    if pivots != list(range(n)):
        return None
    g = gcd(d, *(x for row in M for x in row[n:])) * (1 if d > 0 else -1)
    return tuple(tuple(x // g for x in row[n:]) for row in M), d // g


def independent(vectors):
    """Indices of the vectors outside the span of those before them: the
    first maximal linearly independent subfamily, whose size is the rank."""
    return _eliminate([list(c) for c in zip(*vectors)])[0]


def primitive_vector(v):
    """Divide an integer vector by its content to a primitive one."""
    g = gcd(*v)
    return [x // g for x in v] if g else list(v)
