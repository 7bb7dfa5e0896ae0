import random
from fractions import Fraction

import pytest

from toriq.lattice import (
    NotUnimodular,
    det_int,
    invert_rational,
    primitive_vector,
    solve_in_basis,
    solve_rational,
)

from oracles import nullspace_rational


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
