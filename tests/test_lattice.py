import random
from fractions import Fraction

from toriq.lattice import det_int, invert_int, primitive_vector

from oracles import invert_rational, nullspace_rational


def test_det_int():
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([]) == 1


def test_rational_helpers():
    inv = invert_rational([[0, 1], [1, -2]])
    assert inv == [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert invert_rational([[1, 1], [1, 1]]) is None
    ns = nullspace_rational([[1, 1, 1]])
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0


def test_invert_int_matches_fraction_gauss_jordan():
    rng = random.Random(16)
    singular = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        inv = invert_int(A)
        expected = invert_rational(A)
        assert inv == (expected and tuple(map(tuple, expected))), A
        if inv is None:
            singular += 1
            assert det_int(A) == 0
        else:
            # ints exactly where the entry is integral
            assert all(type(x) is (int if x.denominator == 1 else Fraction)
                       for row in inv for x in row)
    assert singular > 50


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
