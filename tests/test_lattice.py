import random
from fractions import Fraction

import pytest

import oracles
from toriq.lattice import det_int, independent, invert_int, primitive_vector


def test_det_int():
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([]) == 1


def test_rational_helpers():
    inv = oracles.invert_rational([[0, 1], [1, -2]])
    assert inv == [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert oracles.invert_rational([[1, 1], [1, 1]]) is None
    ns = oracles.nullspace_rational([[1, 1, 1]])
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0


def _random_matrix(rng):
    """A random integer matrix with up to 5 rows and 6 columns, square a
    third of the time; a third of the time one row is a combination of two
    others, so ranks fall short."""
    rows = rng.randint(1, 5)
    cols = rows if rng.random() < 1 / 3 else rng.randint(0, 6)
    A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 1 / 3:
        a, b, c = rng.sample(range(rows), 3)
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        A[c] = [s * x + t * y for x, y in zip(A[a], A[b])]
    return A


def test_elimination_matches_fraction_gauss_jordan():
    rng = random.Random(16)
    seen = {"singular": 0, "invertible": 0, "short rank": 0}
    for _ in range(3000):
        A = _random_matrix(rng)
        pivots = oracles.rref(A)[1]
        assert independent(list(zip(*A))) == pivots, A
        if len(A) != len(A[0]):
            with pytest.raises(ValueError):
                det_int(A)
            seen["short rank"] += len(pivots) < min(len(A), len(A[0]))
            continue
        assert det_int(A) == oracles.det_leibniz(A), A
        inv = invert_int(A)
        expected = oracles.invert_rational(A)
        assert inv == (expected and tuple(map(tuple, expected))), A
        seen["singular" if inv is None else "invertible"] += 1
        assert (inv is None) == (det_int(A) == 0) == (len(pivots) < len(A))
        # ints exactly where the entry is integral
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for row in inv or () for x in row)
    assert min(seen.values()) > 100, seen


def test_invert_int_examples():
    # the first needs a row swap; rows come back as tuples
    assert invert_int([[0, 1], [1, -2]]) == ((2, 1), (1, 0))
    assert invert_int([[2, 1], [1, 1]]) == ((1, -1), (-1, 2))
    assert invert_int([[2, 0], [0, 4]]) == ((Fraction(1, 2), 0),
                                            (0, Fraction(1, 4)))
    assert invert_int([[0, 0], [0, 1]]) is None
    assert invert_int([]) == ()


def test_primitive_vector():
    assert primitive_vector([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]
    assert primitive_vector([4, 6]) == [2, 3]
    assert primitive_vector([0, 0]) == [0, 0]
