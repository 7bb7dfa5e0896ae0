from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from toriq.catalog import CATALOG, builtin_fan
from toriq.cohomring import (
    build_cohomology_ring,
    divisor_class,
    graded_dimensions,
    integrate,
    monomial_basis_classes,
    pairing,
    poincare_dual_basis,
)
from toriq import polynomials as P
from toriq.fan import make_fan
from toriq.moricone import primitive_collections


def h_vector_by_face_counting(fan):
    """Independent oracle: h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_{i-1}."""
    n = fan.dim
    faces = set()
    for cone in fan.max_cones:
        for k in range(len(cone) + 1):
            faces.update(combinations(cone, k))
    f = [0] * (n + 1)  # f[i] = number of faces with i vertices (f[0] = 1)
    for face in faces:
        f[len(face)] += 1
    h = []
    for k in range(n + 1):
        h.append(sum((-1) ** (k - i) * comb(n - i, k - i) * f[i]
                     for i in range(k + 1)))
    return h


def test_dimension_equals_max_cones():
    for name, fan in CATALOG.items():
        ring = build_cohomology_ring(fan)
        assert ring.dim == len(fan.max_cones), name


def test_graded_dims_match_h_vector():
    for name, fan in CATALOG.items():
        ring = build_cohomology_ring(fan)
        assert graded_dimensions(ring) == h_vector_by_face_counting(fan), name


def test_graded_dims_poincare_symmetric():
    for fan in CATALOG.values():
        dims = graded_dimensions(build_cohomology_ring(fan))
        assert dims == dims[::-1]
        assert dims[0] == 1


def test_p2_structure():
    ring = build_cohomology_ring(builtin_fan("P2"))
    assert ring.sigma0 == (1, 2)
    assert ring.surviving == (0,)
    assert ring.basis == ((0,), (1,), (2,))
    assert list(ring.groebner) == [{(3,): Fraction(1)}]
    h = ring.variable_class(0)
    assert integrate(ring, h * h) == 1
    assert integrate(ring, h) == 0
    # all three rays give the same divisor class H
    for rho in range(3):
        assert divisor_class(ring, rho) == h


def test_f2_structure():
    ring = build_cohomology_ring(builtin_fan("F2"))
    assert ring.sigma0 == (2, 3)
    assert ring.surviving == (0, 1)
    assert ring.eliminations[2] == (1, 0)       # x3 = x1
    assert ring.eliminations[3] == (2, 1)       # x4 = 2 x1 + x2
    assert ring.basis == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert list(ring.groebner) == [
        {(2, 0): Fraction(1)},
        {(0, 2): Fraction(1), (1, 1): Fraction(2)},
    ]
    x1 = ring.variable_class(0)
    x2 = ring.variable_class(1)
    assert integrate(ring, x1 * x2) == 1
    assert integrate(ring, x1 * x1) == 0
    assert integrate(ring, x2 * x2) == -2
    assert divisor_class(ring, 2) == x1
    assert divisor_class(ring, 3) == x1.scale(2) + x2


def test_p1_structure():
    ring = build_cohomology_ring(builtin_fan("P1"))
    assert ring.basis == ((0,), (1,))
    h = ring.variable_class(0)
    assert not (h * h)
    assert integrate(ring, h) == 1


def test_max_cone_monomials_integrate_to_one():
    for name, fan in CATALOG.items():
        ring = build_cohomology_ring(fan)
        for cone in fan.max_cones:
            c = ring.one()
            for rho in cone:
                c = c * divisor_class(ring, rho)
            assert integrate(ring, c) == 1, (name, cone)


def test_dual_basis_property():
    for name, fan in CATALOG.items():
        ring = build_cohomology_ring(fan)
        T, duals = poincare_dual_basis(ring)
        for a in range(ring.dim):
            for b in range(ring.dim):
                expected = Fraction(1) if a == b else Fraction(0)
                assert pairing(ring, T[a], duals[b]) == expected, (name, a, b)


def test_dual_basis_golden_p1_p2():
    ring = build_cohomology_ring(builtin_fan("P1"))
    T, duals = poincare_dual_basis(ring)
    assert duals[0].coeffs == (0, 1)   # dual of 1 is H
    assert duals[1].coeffs == (1, 0)   # dual of H is 1
    ring = build_cohomology_ring(builtin_fan("P2"))
    T, duals = poincare_dual_basis(ring)
    assert duals[0].coeffs == (0, 0, 1)
    assert duals[1].coeffs == (0, 1, 0)
    assert duals[2].coeffs == (1, 0, 0)


def test_dual_basis_golden_f2():
    ring = build_cohomology_ring(builtin_fan("F2"))
    _, duals = poincare_dual_basis(ring)
    x1 = ring.variable_class(0)
    x2 = ring.variable_class(1)
    dual_x1 = duals[ring.basis.index((1, 0))]
    assert dual_x1 == x1.scale(2) + x2
    assert integrate(ring, x1 * dual_x1) == 1
    assert integrate(ring, x2 * dual_x1) == 0


def test_multiplication_commutes():
    for fan in CATALOG.values():
        ring = build_cohomology_ring(fan)
        classes = [divisor_class(ring, rho) for rho in range(fan.n_rays)]
        for a in classes:
            for b in classes:
                assert a * b == b * a


def test_divisor_classes_generate():
    # Kirwan surjectivity witness: each basis monomial is the product of
    # surviving variable classes given by its exponents
    for fan in CATALOG.values():
        ring = build_cohomology_ring(fan)
        for i, mono in enumerate(ring.basis):
            c = ring.one()
            for j, e in enumerate(mono):
                for _ in range(e):
                    c = c * ring.variable_class(j)
            assert c.coeffs[i] == 1
            assert sum(1 for x in c.coeffs if x) == 1


def test_linear_relations_vanish():
    # the full linear ideal must die under elimination: sum <m,u> x_rho -> 0
    for fan in CATALOG.values():
        ring = build_cohomology_ring(fan)
        nv = len(ring.surviving)
        for k in range(fan.dim):
            poly = {}
            for rho in range(fan.n_rays):
                poly = P.padd(poly, P.pscale(ring.ray_poly(rho),
                                             fan.rays[rho][k]))
            assert poly == {}, (fan.name, k)


def _cycle(name, rays):
    """Complete surface fan whose maximal cones are consecutive ray pairs."""
    return make_fan(2, rays, [(i, (i + 1) % len(rays)) for i in range(len(rays))],
                    name=name)


def _p1xdp6():
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    rays = [(a, b, 0) for a, b in hexagon] + [(0, 0, 1), (0, 0, -1)]
    cones = [(i, (i + 1) % 6, pole) for i in range(6) for pole in (6, 7)]
    return make_fan(3, rays, cones, name="P1xdP6")


ORACLE_FANS = list(CATALOG.values()) + [
    _cycle("dP6", [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
    _cycle("wdP5", [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0), (-1, -1),
                    (0, -1)]),
    _p1xdp6(),
]


@pytest.mark.parametrize("fan", ORACLE_FANS, ids=lambda f: f.name)
def test_groebner_matches_sympy(fan):
    sympy = pytest.importorskip("sympy")
    ring = build_cohomology_ring(fan)
    xs = sympy.symbols(f"x0:{len(ring.surviving)}")

    def to_sympy(poly):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.prod([x ** e for x, e in zip(xs, m)])
                   for m, c in poly.items())

    gens = []
    for coll in primitive_collections(fan):
        poly = P.pconst(len(ring.surviving))
        for rho in coll:
            poly = P.pmul(poly, ring.ray_poly(rho))
        gens.append(to_sympy(poly))
    # grlex over the reversed variables is term_key: the last variable leads
    oracle = sympy.groebner(gens, *reversed(xs), order="grlex", domain="QQ")
    expected = sorted(
        ({tuple(reversed(m)): Fraction(int(c.p), int(c.q))
          for m, c in g.as_poly(*reversed(xs)).terms()} for g in oracle.exprs),
        key=lambda p: P.term_key(P.leading(p)[0]))
    assert list(ring.groebner) == expected
