import random
from fractions import Fraction
from itertools import product

import pytest

from toriq.lattice import (
    NotUnimodular,
    det_int,
    invert_rational,
    kernel_basis,
    primitive_vector,
    smith_normal_form,
    solve_in_basis,
    solve_rational,
)

from oracles import nullspace_rational


def brute_force_kernel(A, box=3):
    """All kernel vectors with sup-norm <= box, by exhaustive scan."""
    cols = len(A[0])
    found = []
    for v in product(range(-box, box + 1), repeat=cols):
        if all(sum(a * x for a, x in zip(row, v)) == 0 for row in A):
            found.append(list(v))
    return found


def in_integer_span(basis, v):
    if not basis:
        return all(x == 0 for x in v)
    cols = len(v)
    B = [[b[i] for b in basis] for i in range(cols)]
    sol = solve_rational(B, list(v))
    return sol is not None and all(x.denominator == 1 for x in sol)


def test_kernel_p1():
    assert kernel_basis([[1, -1]]) == [[1, 1]]


def test_kernel_identity_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_p2_rays():
    A = [[1, 0, -1], [0, 1, -1]]
    basis = kernel_basis(A)
    assert len(basis) == 1
    assert basis[0] in ([1, 1, 1], [-1, -1, -1])


def test_kernel_box_oracle_random():
    rng = random.Random(20260809)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        basis = kernel_basis(A)
        for row in A:
            for b in basis:
                assert sum(a * x for a, x in zip(row, b)) == 0
        for v in brute_force_kernel(A):
            assert in_integer_span(basis, v), (A, basis, v)


def test_smith_form_identity_products():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        D, L, R = smith_normal_form(A)
        # D == L A R entry by entry
        LA = [[sum(L[i][k] * A[k][j] for k in range(rows)) for j in range(cols)]
              for i in range(rows)]
        LAR = [[sum(LA[i][k] * R[k][j] for k in range(cols)) for j in range(cols)]
               for i in range(rows)]
        assert LAR == D
        assert abs(det_int(L)) == 1
        assert abs(det_int(R)) == 1
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D[i][j] == 0


def test_solve_in_basis_standard():
    assert solve_in_basis([[1, 0], [0, 1]], [0, 2]) == [0, 2]
    assert solve_in_basis([[1, 0], [0, 1]], [0, 0]) == [0, 0]


def test_solve_in_basis_f2_cone():
    # cone {u2, u3} of the Hirzebruch surface of type 2
    assert solve_in_basis([[0, 1], [-1, 2]], [1, 0]) == [2, -1]


def test_solve_in_basis_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        solve_in_basis([[1, 0], [0, 2]], [0, 2])


def test_solve_then_recombine_roundtrip():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        # random unimodular basis: integer row operations on the identity
        B = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(12):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                B[i] = [x + c * y for x, y in zip(B[i], B[j])]
        v = [rng.randint(-8, 8) for _ in range(n)]
        coeffs = solve_in_basis(B, v)
        recombined = [sum(c * B[k][i] for k, c in enumerate(coeffs)) for i in range(n)]
        assert recombined == v


def test_det_int():
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([]) == 1


def test_rational_helpers():
    inv = invert_rational([[0, 1], [1, -2]])
    assert inv == [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert invert_rational([[1, 1], [1, 1]]) is None
    assert solve_rational([[1, 1], [1, 1]], [1, 2]) is None
    ns = nullspace_rational([[1, 1, 1]])
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0


def test_primitive_vector():
    assert primitive_vector([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]
    assert primitive_vector([4, 6]) == [2, 3]
    assert primitive_vector([0, 0]) == [0, 0]
