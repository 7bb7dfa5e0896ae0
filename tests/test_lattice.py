from fractions import Fraction

from toriq.lattice import det_int, invert_rational, primitive_vector

from oracles import nullspace_rational


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


def test_primitive_vector():
    assert primitive_vector([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]
    assert primitive_vector([4, 6]) == [2, 3]
    assert primitive_vector([0, 0]) == [0, 0]
