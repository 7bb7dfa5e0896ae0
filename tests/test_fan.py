import random

import pytest

from toriq.catalog import CATALOG, builtin_fan
from toriq.fan import (
    Fan,
    ValidationError,
    make_fan,
    minimal_cone_containing,
    validate_complete,
    validate_smooth,
)


def test_catalog_fans_validate():
    for fan in CATALOG.values():
        validate_smooth(fan)
        validate_complete(fan)


def test_smoothness_violation_reported():
    fan = make_fan(2, [(1, 0), (1, 2), (-1, -1), (0, 1)],
                   [(0, 1), (1, 3), (2, 3), (0, 2)])
    with pytest.raises(ValidationError,
                       match=r"^fan is not smooth: cone .* has determinant"):
        validate_smooth(fan)


def test_p1_smooth():
    validate_smooth(builtin_fan("P1"))


def test_completeness_violation_on_deleted_cone():
    # P2 with the cone {1,3} removed: ray 3 still covered via {2,3}
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    with pytest.raises(ValidationError,
                       match=r"^fan is not complete: wall .* expected 2"):
        validate_complete(fan)


def test_completeness_violation_on_folded_cones():
    # a closed, wall-connected cycle of smooth cones that folds back at rays
    # 1 and 5: the cones {1,2} and {5,1} both lie on the same side of ray 1
    fan = make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)],
                   [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(ValidationError,
                       match=r"^fan is not complete: the cones at wall "
                             r"\(1,\) overlap$"):
        validate_complete(fan)


def test_completeness_violation_on_double_winding():
    # a smooth cycle with two cones on opposite sides of every wall, wall-
    # connected, that winds twice around the origin
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -2), (2, 3), (-1, -1), (0, -1)],
                   [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    validate_smooth(fan)
    with pytest.raises(ValidationError,
                       match=r"^fan is not complete: its cones cover space "
                             r"2 times, expected once$"):
        validate_complete(fan)


def test_completeness_violation_on_disjoint_copies():
    # two copies of P2 on disjoint ray sets: each wall has two cones on
    # opposite sides, but no wall joins one copy to the other
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)],
                   [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    validate_smooth(fan)
    with pytest.raises(ValidationError,
                       match=r"^fan is not complete: maximal cones are not "
                             r"wall-connected$"):
        validate_complete(fan)


def test_ingestion_rejects_non_primitive_ray():
    with pytest.raises(ValidationError):
        make_fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_ingestion_rejects_duplicate_rays():
    with pytest.raises(ValidationError):
        make_fan(1, [(1,), (1,)], [(0,), (1,)])


def test_ingestion_rejects_uncovered_ray():
    with pytest.raises(ValidationError):
        make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                 [(0, 1), (1, 2), (0, 2)])


def test_ingestion_rejects_wrong_cone_size():
    with pytest.raises(ValidationError):
        Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1, 2),))


def test_minimal_cone_f2():
    f2 = builtin_fan("F2")
    cone, coeffs = minimal_cone_containing(f2, (0, 2))
    assert cone == (1,)
    assert coeffs == (2,)


def test_minimal_cone_zero_vector():
    for fan in CATALOG.values():
        assert minimal_cone_containing(fan, (0,) * fan.dim) == ((), ())


def test_minimal_cone_p2_interior():
    p2 = builtin_fan("P2")
    cone, coeffs = minimal_cone_containing(p2, (1, 1))
    assert cone == (0, 1)
    assert coeffs == (1, 1)


def test_minimal_cone_recombines():
    f2 = builtin_fan("F2")
    for v in [(3, 1), (-2, 5), (0, -1), (7, -3), (-1, 2)]:
        cone, coeffs = minimal_cone_containing(f2, v)
        assert all(c > 0 for c in coeffs)
        recombined = [sum(c * f2.rays[i][k] for i, c in zip(cone, coeffs))
                      for k in range(f2.dim)]
        assert tuple(recombined) == v


def test_wall_count_invariant():
    from itertools import combinations
    for fan in CATALOG.values():
        walls = set()
        total = 0
        for cone in fan.max_cones:
            for w in combinations(cone, fan.dim - 1):
                walls.add(w)
                total += 1
        assert total == 2 * len(walls)


def test_minimal_cone_outside_support():
    from toriq.fan import NotInSupport
    # incomplete fan: first quadrant plus the cone over (0,1),(-1,0)
    fan = make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
    with pytest.raises(NotInSupport):
        minimal_cone_containing(fan, (0, -1))


def test_minimal_cone_rejects_cone_that_is_not_smooth():
    from toriq.fan import NonIntegralCoefficient
    # complete and simplicial, but cone (0, 1) has determinant 2: the
    # coordinates of (-2, -2) on its rays, (0, 2), come out times d = 2
    fan = make_fan(2, [(-3, -1), (-1, -1), (1, -1), (1, 1)],
                   [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert fan.cone_inverses[(0, 1)] == (((-1, 1), (1, -3)), 2)
    with pytest.raises(NonIntegralCoefficient,
                       match=r"^\(-2, -2\) lies in the cone \(0, 1\), which "
                             r"is not smooth$"):
        minimal_cone_containing(fan, (-2, -2))
    assert minimal_cone_containing(fan, (0, 0)) == ((), ())


def test_minimal_cone_rejects_singular_cone():
    from toriq.fan import NonIntegralCoefficient
    # cone (0, 2) spans only a line, so it has no inverse; it comes before
    # the cone (2, 3) that holds (-1, -1)
    fan = make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                   [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0)])
    assert fan.cone_inverses[(0, 2)] is None
    with pytest.raises(NonIntegralCoefficient,
                       match=r"^the cone \(0, 2\) is singular$"):
        minimal_cone_containing(fan, (-1, -1))
    with pytest.raises(NonIntegralCoefficient):
        fan.coordinates((0, 2), (1, 0))


def test_coordinates_identity_basis():
    fan = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert fan.coordinates((0, 1), (0, 2)) == [0, 2]
    assert fan.coordinates((0, 1), (0, 0)) == [0, 0]


def test_coordinates_f2_cone():
    # cone {u2, u3} of the Hirzebruch surface of type 2
    f2 = builtin_fan("F2")
    assert f2.cone_rays((1, 2)) == [[0, 1], [-1, 2]]
    assert f2.coordinates((1, 2), (1, 0)) == [2, -1]


def test_chart_rejects_non_unimodular_sigma0():
    # sigma0 is the cone on (1, 0) and (1, 2), of determinant 2
    fan = make_fan(2, [(0, 1), (1, 0), (1, 2)], [(0, 1), (1, 2)])
    with pytest.raises(ValidationError,
                       match=r"^fan is not smooth: cone \(2, 3\) has "
                             r"determinant 2$"):
        fan.chart


def test_coordinates_recombine_roundtrip():
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
        fan = make_fan(n, B, [range(n)])
        coeffs = fan.coordinates(tuple(range(n)), v)
        assert all(type(c) is int for c in coeffs)
        recombined = [sum(c * B[k][i] for k, c in enumerate(coeffs)) for i in range(n)]
        assert recombined == v


def test_cones_are_stored_ascending_and_sorted():
    # cones listed out of order: the faces must still be ascending tuples,
    # as Fan.primitive_collections and i_function look them up
    from toriq.moricone import mori_data
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((1, 0), (2, 1), (2, 0)))
    validate_smooth(fan)
    validate_complete(fan)
    assert fan.max_cones == ((0, 1), (0, 2), (1, 2))
    assert fan == make_fan(2, [(1, 0), (0, 1), (-1, -1)],
                           [[1, 0], [2, 1], [2, 0]])
    assert [pc.rays for pc in mori_data(fan).collections] == [(0, 1, 2)]


def test_missing_ray_is_counted_from_one():
    with pytest.raises(ValidationError) as exc:
        make_fan(2, [(1, 0), (0, 1)], [(0, 2)])
    assert str(exc.value) == "cone (1, 3) references missing ray 3"


def test_ingestion_rejects_float_ray_entry():
    with pytest.raises(ValidationError, match="non-integer ray entry"):
        make_fan(2, [(1, 0.0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_ingestion_rejects_bool_ray_entry():
    # True == 1 would pass every later check and reach the report as `true`
    with pytest.raises(ValidationError) as exc:
        make_fan(2, [(True, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert str(exc.value) == "non-integer ray entry in (True, 0)"


def test_ingestion_rejects_float_cone_index():
    # 0.0 passes the range check and equals ray 0; indexing the rays with
    # it would raise TypeError in validate_smooth
    with pytest.raises(ValidationError) as exc:
        make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0.0, 1), (1, 2), (0, 2)])
    assert str(exc.value) == "maximal cone 1 has non-integer ray index 0.0"


def test_ingestion_rejects_bool_dimension():
    # True == 1 would validate a fan on the line and reach the report as
    # "dim": true
    with pytest.raises(ValidationError) as exc:
        make_fan(True, [(1,), (-1,)], [(0,), (1,)])
    assert str(exc.value) == \
        "dimension must be positive and integral, got True"


def test_ingestion_rejects_bool_cone_index():
    # True would stand for ray 2 and the fan would validate
    with pytest.raises(ValidationError) as exc:
        make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, True), (0, 2)])
    assert str(exc.value) == "maximal cone 2 has non-integer ray index True"


def test_unknown_builtin_fan_lists_the_catalog():
    with pytest.raises(KeyError) as exc:
        builtin_fan("nope")
    assert exc.value.args[0] == (
        "unknown builtin fan 'nope'; choose from "
        + ", ".join(sorted(CATALOG)))
