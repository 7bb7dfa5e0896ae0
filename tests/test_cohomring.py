import json
import random
from fractions import Fraction
from functools import cached_property
from math import gcd

import pytest

import toriq.cli
from toriq.catalog import CATALOG, builtin_fan
from toriq.cohomring import (
    CohClass,
    build_cohomology_ring,
    divisor_class,
    gram_matrix,
    integrate,
    monomial_basis_classes,
    pairing,
)
from toriq import polynomials as P
from toriq.fan import Fan
from toriq.moricone import primitive_collections

from oracles import (
    KERNEL_FANS,
    dp6,
    frac_add,
    frac_mul,
    frac_scale,
    frac_sub,
    groebner,
    kirwan_divisors,
    laurent_mul,
    laurent_of,
    mult_table,
    p1xdp6,
    poincare_dual_basis,
    product_fan,
    random_coeffs,
    random_laurent,
    to_hlaurent,
    variable_class,
    wdp4,
    wdp5,
)


def test_dimension_equals_max_cones():
    for name, fan in CATALOG.items():
        ring = build_cohomology_ring(fan)
        assert ring.dim == len(fan.max_cones), name


def test_graded_dims_poincare_symmetric():
    for fan in CATALOG.values():
        ring = build_cohomology_ring(fan)
        dims = [ring.basis_degrees.count(d) for d in range(fan.dim + 1)]
        assert dims == dims[::-1]
        assert dims[0] == 1


def test_p2_structure():
    ring = build_cohomology_ring(builtin_fan("P2"))
    assert ring.sigma0 == (1, 2)
    assert ring.surviving == (0,)
    assert ring.basis == ((0,), (1,), (2,))
    assert list(groebner(ring)) == [{(3,): Fraction(1)}]
    h = variable_class(ring, 0)
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
    assert list(groebner(ring)) == [
        {(2, 0): Fraction(1)},
        {(0, 2): Fraction(1), (1, 1): Fraction(2)},
    ]
    x1 = variable_class(ring, 0)
    x2 = variable_class(ring, 1)
    assert integrate(ring, x1 * x2) == 1
    assert integrate(ring, x1 * x1) == 0
    assert integrate(ring, x2 * x2) == -2
    assert divisor_class(ring, 2) == x1
    assert divisor_class(ring, 3) == x1.scale(2) + x2


def test_p1_structure():
    ring = build_cohomology_ring(builtin_fan("P1"))
    assert ring.basis == ((0,), (1,))
    h = variable_class(ring, 0)
    assert not (h * h)
    assert integrate(ring, h) == 1


def test_max_cone_monomials_integrate_to_one():
    for name, make in KERNEL_FANS.items():
        fan = make()
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
    x1 = variable_class(ring, 0)
    x2 = variable_class(ring, 1)
    dual_x1 = duals[ring.basis.index((1, 0))]
    assert dual_x1 == x1.scale(2) + x2
    assert integrate(ring, x1 * dual_x1) == 1
    assert integrate(ring, x2 * dual_x1) == 0


def test_gram_matrix_is_the_class_product_pairing(monkeypatch):
    # the Gram matrix, the top coefficient pulled back through each basis
    # monomial's divisor chain, forms no class product and equals integrating
    # each product of basis classes, Fraction types included
    fans = dict(KERNEL_FANS, dP6xdP6=lambda: product_fan(dp6(), dp6()))
    for name, make in fans.items():
        ring = build_cohomology_ring(make())
        with monkeypatch.context() as m:
            m.setattr(CohClass, "__mul__", None)
            gram = gram_matrix(ring)
        T = monomial_basis_classes(ring)
        assert gram == [[pairing(ring, a, b) for b in T] for a in T], name
        assert all(type(x) is Fraction for row in gram for x in row), name


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
                    c = c * variable_class(ring, j)
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


ORACLE_FANS = list(CATALOG.values()) + [dp6(), wdp5(), p1xdp6()]


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
    assert list(groebner(ring)) == expected


# --- the integer kernel against the test-local Fraction oracle ---------------

def test_structure_constants_match_dense_table():
    # every basis product T_i * T_j, each basis monomial's chain of divisor
    # columns applied to the other, is the dense Fraction table's column,
    # which reduces the monomial product by the test-local dp_reduce
    for name, make in KERNEL_FANS.items():
        ring = build_cohomology_ring(make())
        table = mult_table(ring)
        T = monomial_basis_classes(ring)
        for i in range(ring.dim):
            for j in range(ring.dim):
                assert (T[i] * T[j]).coeffs == table[min(i, j), max(i, j)], \
                    (name, i, j)
    # the weak del Pezzo wdP5 has half-integral divisor columns
    ring = build_cohomology_ring(wdp5())
    assert {den for _, den in ring.divisor_columns} == {2}


@pytest.mark.parametrize("name", sorted(KERNEL_FANS))
def test_class_arithmetic_matches_fraction_oracle(name):
    ring = build_cohomology_ring(KERNEL_FANS[name]())
    table = mult_table(ring)
    rng = random.Random(f"kernel-{name}")
    for _ in range(60):
        a, b = random_coeffs(rng, ring.dim), random_coeffs(rng, ring.dim)
        A, B = CohClass(ring, a), CohClass(ring, b)
        assert A.coeffs == a
        assert (A * B).coeffs == frac_mul(table, a, b)
        assert (A + B).coeffs == frac_add(a, b)
        assert (A - B).coeffs == frac_sub(a, b)
        assert (-A).coeffs == frac_scale(a, -1)
        for c in (0, 1, -3, Fraction(rng.randint(-7, 7), rng.randint(1, 5))):
            assert A.scale(c).coeffs == frac_scale(a, c)


def test_common_denominator_path():
    # rings whose divisor columns are integers over 2 multiply classes and
    # HLaurents like the dense Fraction table, in canonical form
    rng = random.Random(2)
    for make in (wdp5, wdp4):
        ring = build_cohomology_ring(make())
        assert {den for _, den in ring.divisor_columns} == {2}
        table = mult_table(ring)
        for _ in range(60):
            a, b = random_coeffs(rng, ring.dim), random_coeffs(rng, ring.dim)
            product = CohClass(ring, a) * CohClass(ring, b)
            assert product.coeffs == frac_mul(table, a, b)
            assert product.den > 0 and gcd(product.den, *product.num) == 1
            f, g = random_laurent(rng, ring.dim), random_laurent(rng, ring.dim)
            h = to_hlaurent(ring, f) * to_hlaurent(ring, g)
            assert laurent_of(h) == laurent_mul(table, f, g)
            assert all(c.den > 0 and gcd(c.den, *c.num) == 1
                       for c in h.buckets.values())


def test_class_canonical_form():
    ring = build_cohomology_ring(builtin_fan("P1xP2"))
    rng = random.Random(3)
    zero = ring.zero()
    assert zero.den == 1 and zero.num == (0,) * ring.dim
    for _ in range(100):
        a = random_coeffs(rng, ring.dim)
        A = CohClass(ring, a)
        assert A.den > 0 and gcd(A.den, *A.num) == 1
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        # the same value reached through other denominators
        B = A.scale(c).scale(1 / c)
        assert (B.num, B.den) == (A.num, A.den)
        assert B == A and hash(B) == hash(A)
        C = CohClass(ring, [x + Fraction(1, 6) for x in a]) - \
            CohClass(ring, [Fraction(1, 6)] * ring.dim)
        assert C == A and hash(C) == hash(A)
        for z in (A - A, A.scale(0), A + (-A), A * zero):
            assert z == zero and z.den == 1 and hash(z) == hash(zero)
            assert not z
    # value equality also holds across the set and dict protocols
    halves = {CohClass(ring, [Fraction(1, 2)] * ring.dim),
              CohClass(ring, [Fraction(2, 4)] * ring.dim)}
    assert len(halves) == 1


@pytest.mark.parametrize("name", sorted(KERNEL_FANS))
def test_divisors_equal_kirwan_lift(name):
    # D_rho times 1 through the divisor columns is the Kirwan lift
    ring = build_cohomology_ring(KERNEL_FANS[name]())
    assert ring.divisors == kirwan_divisors(ring)


@pytest.mark.parametrize("command", ["ifunction", "certify"])
def test_dp6_one_chart_and_no_class_product_in_ring_build(
        command, tmp_path, monkeypatch, capsys):
    # the ring, the curve-class lattice and the generator inverse read one
    # chart, and the ring build goes through the divisor kernel alone
    fan = dp6()
    path = tmp_path / "dP6.json"
    path.write_text(json.dumps({
        "dim": fan.dim, "rays": fan.rays, "name": fan.name,
        "max_cones": [[i + 1 for i in cone] for cone in fan.max_cones]}))
    charts, products, building = [], [], []
    chart = Fan.__dict__["chart"].func

    def counted_chart(self):
        charts.append(self)
        return chart(self)

    counted = cached_property(counted_chart)
    counted.__set_name__(Fan, "chart")
    monkeypatch.setattr(Fan, "chart", counted)
    mul = CohClass.__mul__

    def counted_mul(self, other):
        products.append(bool(building))
        return mul(self, other)

    monkeypatch.setattr(CohClass, "__mul__", counted_mul)
    build = toriq.cli.build_cohomology_ring

    def traced_build(fan):
        building.append(fan)
        try:
            return build(fan)
        finally:
            building.pop()

    monkeypatch.setattr(toriq.cli, "build_cohomology_ring", traced_build)
    assert toriq.cli.main([command, "--fan", str(path), "--cutoff", "6"]) == 0
    capsys.readouterr()
    assert len(charts) == 1
    assert True not in products
