"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every comparison is exact (integers and rationals); there are no
numerical tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from toriq.batyrev import (
    HypothesisUnmet,
    build_deformed_ideal,
    certify_isomorphism,
    module_matrices,
)
from toriq.catalog import CATALOG, NOT_SEMIPOSITIVE, SEMIPOSITIVE, builtin_fan
from toriq.cohomring import (
    CohClass,
    build_cohomology_ring,
    divisor_class,
    integrate,
)
from toriq.fan import h_vector
from toriq.gkz import (
    annihilation_certificate,
    extract_two_point_invariants,
    i_function,
    leading_terms,
)
from toriq.moricone import enumerate_effective, mori_data
from toriq.novikov import NovikovScalar

from oracles import (
    check_module,
    curve_lattice_basis,
    fm_feasible_point,
    hlaurent,
    hlaurent_one,
    module_scalars,
    nilpotent_geometric,
    normal_form,
    q0,
    reconstruct_coefficient,
    star_column,
)

# hand-derived golden data: collection -> (gamma, coeffs), primitive classes
GOLDEN = {
    "P1": {
        "collections": {(0, 1): ((), ())},
        "classes": [(1, 1)],
        "semipositive": True,
    },
    "P2": {
        "collections": {(0, 1, 2): ((), ())},
        "classes": [(1, 1, 1)],
        "semipositive": True,
    },
    "P1xP1": {
        "collections": {(0, 2): ((), ()), (1, 3): ((), ())},
        "classes": [(1, 0, 1, 0), (0, 1, 0, 1)],
        "semipositive": True,
    },
    "F0": {
        "collections": {(0, 2): ((), ()), (1, 3): ((), ())},
        "classes": [(1, 0, 1, 0), (0, 1, 0, 1)],
        "semipositive": True,
    },
    "F1": {
        "collections": {(0, 2): ((1,), (1,)), (1, 3): ((), ())},
        "classes": [(1, -1, 1, 0), (0, 1, 0, 1)],
        "semipositive": True,
    },
    "F2": {
        "collections": {(0, 2): ((1,), (2,)), (1, 3): ((), ())},
        "classes": [(1, -2, 1, 0), (0, 1, 0, 1)],
        "semipositive": True,
    },
    "F3": {
        "collections": {(0, 2): ((1,), (3,)), (1, 3): ((), ())},
        "classes": [(1, -3, 1, 0), (0, 1, 0, 1)],
        "semipositive": False,
    },
    "BlP2": {
        "collections": {(0, 1): ((3,), (1,)), (2, 3): ((), ())},
        "classes": [(1, 1, 0, -1), (0, 0, 1, 1)],
        "semipositive": True,
    },
    "P1xP2": {
        "collections": {(0, 1): ((), ()), (2, 3, 4): ((), ())},
        "classes": [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)],
        "semipositive": True,
    },
}


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_catalog_combinatorics():
    for name, fan in CATALOG.items():
        md = mori_data(fan)
        golden = GOLDEN[name]
        got = {pc.rays: (pc.gamma, pc.coeffs) for pc in md.collections}
        assert got == golden["collections"], name
        assert list(md.generators) == golden["classes"], name
        assert md.semipositive == golden["semipositive"], name
    assert set(SEMIPOSITIVE) == {n for n, g in GOLDEN.items()
                                 if g["semipositive"]}
    assert set(NOT_SEMIPOSITIVE) == {"F3"}
    report(1, "catalog collections/relations/classes and semipositivity "
              "flags match hand-derived goldens")


def test_criterion_02_cohomology_sanity():
    for name, fan in CATALOG.items():
        ring = build_cohomology_ring(fan)
        assert ring.dim == len(fan.max_cones), name
        assert h_vector(fan) == [ring.basis_degrees.count(d)
                                 for d in range(fan.dim + 1)], name
        for cone in fan.max_cones:
            c = ring.one()
            for rho in cone:
                c = c * divisor_class(ring, rho)
            assert integrate(ring, c) == 1, (name, cone)
    report(2, "dim H* = #max cones, graded dims match h-vectors, every "
              "maximal-cone monomial integrates to 1")


def test_criterion_03_leading_term_theorem():
    for name in SEMIPOSITIVE:
        fan = builtin_fan(name)
        md = mori_data(fan)
        ring = build_cohomology_ring(fan)
        lt = leading_terms(i_function(ring, md, 4))
        assert lt.i0_is_one, name
    fan = builtin_fan("F3")
    lt = leading_terms(i_function(build_cohomology_ring(fan),
                                  mori_data(fan), 4))
    assert not lt.i0_is_one
    report(3, "I0 == 1 at cutoff 4 for all semipositive catalog fans; "
              "I0 != 1 for F3")


def test_criterion_04_annihilation():
    for name, fan in CATALOG.items():
        md = mori_data(fan)
        ring = build_cohomology_ring(fan)
        pairs = annihilation_certificate(i_function(ring, md, 4), md)
        assert pairs == [(beta, 4 - md.ell_of(beta))
                         for beta in md.generators], name
    report(4, "box operators of all Mori generators annihilate the series "
              "exactly at cutoff 4 (zero tolerance)")


def test_criterion_05_two_point_invariants_p2():
    fan = builtin_fan("P2")
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    I = i_function(ring, md, 2)
    table = extract_two_point_invariants(ring, I)
    beta = (1, 1, 1)
    assert table.value(ring.basis.index((2,)), 2, beta) == 1
    assert table.value(ring.basis.index((1,)), 3, beta) == -3
    assert table.value(ring.basis.index((0,)), 4, beta) == 6
    for b in I.terms:
        if any(b):
            assert reconstruct_coefficient(ring, table, b) == \
                I.terms[b], b
    report(5, "P2 two-point invariants at beta=1 are (1, -3, 6) and the "
              "round-trip reconstruction is exact")


def test_criterion_06_batyrev_golden_values():
    fan = builtin_fan("F2")
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    ideal = build_deformed_ideal(fan, md, ring, 3)
    module = module_matrices(ideal)
    ctx = ideal.ctx
    b1, b2 = (1, -2, 1, 0), (0, 1, 0, 1)
    b12 = tuple(x + y for x, y in zip(b1, b2))
    unit = ring.basis.index((0, 0))
    x1 = ring.basis.index((1, 0))
    x2 = ring.basis.index((0, 1))
    x1x2 = ring.basis.index((1, 1))
    col = star_column(module, 0, x1)  # x1 * x1
    assert col[unit] == NovikovScalar(ctx, {b12: 1})
    assert col[x1x2] == NovikovScalar(ctx, {b1: -2})
    assert not col[x1] and not col[x2]
    col = star_column(module, 1, x2)  # x2 * x2
    assert col[unit] == NovikovScalar(ctx, {b2: 1})
    assert col[x1x2] == NovikovScalar(ctx, {ctx.zero_class: -2})
    assert not col[x1] and not col[x2]

    fan = builtin_fan("P2")
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    ideal = build_deformed_ideal(fan, md, ring, 3)
    module = module_matrices(ideal)
    col = star_column(module, 0, ring.basis.index((2,)))  # H * H^2
    assert col[ring.basis.index((0,))] == \
        NovikovScalar(ideal.ctx, {(1, 1, 1): 1})
    assert sum(1 for s in col if s) == 1
    report(6, "F2 star products x1*x1 = q1*q2 - 2*q1*x1*x2 and "
              "x2*x2 = q2 - 2*x1*x2; P2 has H*H^2 = q")


def test_criterion_07_module_axiom_commutativity():
    for name, fan in CATALOG.items():
        md = mori_data(fan)
        ring = build_cohomology_ring(fan)
        ideal = build_deformed_ideal(fan, md, ring, 4)
        module = module_matrices(ideal)
        ctx = ideal.ctx
        dim = ring.dim
        mats = module_scalars(module)
        for r1 in range(fan.n_rays):
            for r2 in range(r1 + 1, fan.n_rays):
                A, B = mats[r1], mats[r2]
                for i in range(dim):
                    for j in range(dim):
                        ab = sum((A[i][k] * B[k][j] for k in range(dim)),
                                 NovikovScalar(ctx))
                        ba = sum((B[i][k] * A[k][j] for k in range(dim)),
                                 NovikovScalar(ctx))
                        assert ab == ba, (name, r1, r2, i, j)
    report(7, "all pairs of divisor multiplication matrices commute exactly "
              "at cutoff 4, all catalog fans")


def test_criterion_08_classical_limit():
    for name, fan in CATALOG.items():
        md = mori_data(fan)
        ring = build_cohomology_ring(fan)
        ideal = build_deformed_ideal(fan, md, ring, 3)
        mats = module_scalars(module_matrices(ideal))
        for rho in range(fan.n_rays):
            D = divisor_class(ring, rho)
            for a in range(ring.dim):
                coeffs = [Fraction(0)] * ring.dim
                coeffs[a] = Fraction(1)
                cup = D * CohClass(ring, coeffs)
                for b in range(ring.dim):
                    assert q0(mats[rho][b][a]) == cup.coeffs[b], \
                        (name, rho, a, b)
    report(8, "q=0 limit of every module matrix equals the independently "
              "computed cup-product matrix, exactly")


def test_criterion_09_isomorphism_certificate():
    for name in SEMIPOSITIVE:
        fan = builtin_fan(name)
        md = mori_data(fan)
        ring = build_cohomology_ring(fan)
        ideal = build_deformed_ideal(fan, md, ring, 3)
        module = certify_isomorphism(ideal, md)
        check_module(fan, md.ell, 3, module)
    fan = builtin_fan("F3")
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    ideal = build_deformed_ideal(fan, md, ring, 3)
    with pytest.raises(HypothesisUnmet):
        certify_isomorphism(ideal, md)
    report(9, "certify_isomorphism returns a module that the Groebner-free "
              "oracle accepts for all semipositive fans at cutoff 3; "
              "HypothesisUnmet for F3")


def _fm_membership(generators, b):
    s = len(generators)
    constraints = [(tuple(1 if i == j else 0 for i in range(s)), 0)
                   for j in range(s)]
    for i in range(len(b)):
        row = tuple(g[i] for g in generators)
        constraints.append((row, b[i]))
        constraints.append((tuple(-x for x in row), -b[i]))
    return fm_feasible_point(constraints, s) is not None


def test_criterion_10_property_suite():
    # (a) effective enumeration vs independent cone-membership oracle
    for name in ("P2", "F2", "F3", "BlP2"):
        fan = builtin_fan(name)
        md = mori_data(fan)
        for cutoff in (0, 1, 2):
            got = enumerate_effective(md, cutoff)
            kb = curve_lattice_basis(fan)
            r = len(kb)
            C = max(max(abs(x) for x in g) for g in md.generators)
            box = cutoff * C + 1
            expected = []
            for y in product(range(-box, box + 1), repeat=r):
                b = tuple(sum(y[a] * kb[a][i] for a in range(r))
                          for i in range(fan.n_rays))
                if 0 <= md.ell_of(b) <= cutoff and \
                        _fm_membership(md.generators, b):
                    expected.append((md.ell_of(b), b))
            assert got == [b for _, b in sorted(set(expected))], \
                (name, cutoff)

    # (b) normal-form idempotence: 200 random polynomials per catalog fan
    rng = random.Random(77)
    for name, fan in CATALOG.items():
        md = mori_data(fan)
        ring = build_cohomology_ring(fan)
        ideal = build_deformed_ideal(fan, md, ring, 3)
        ctx = ideal.ctx
        classes = [ctx.zero_class] + [tuple(g) for g in md.generators]
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(fan.n_rays))
                beta = classes[rng.randrange(len(classes))]
                coeff = NovikovScalar.monomial(ctx, beta, rng.randint(-2, 2))
                terms[mono] = terms.get(mono, NovikovScalar(ctx)) + coeff
            expansion = normal_form(ideal, terms)
            again = [NovikovScalar(ctx) for _ in ring.basis]
            for i, s in enumerate(expansion):
                if not s:
                    continue
                mono_full = [0] * fan.n_rays
                for j, e in enumerate(ring.basis[i]):
                    mono_full[ring.surviving[j]] = e
                sub = normal_form(ideal, {tuple(mono_full): s})
                for b in range(ring.dim):
                    again[b] = again[b] + sub[b]
            assert again == expansion, name

    # (c) nilpotent geometric factors invert exactly
    for name in ("P1", "P2", "F2", "P1xP2"):
        ring = build_cohomology_ring(builtin_fan(name))
        for rho in range(ring.fan.n_rays):
            D = divisor_class(ring, rho)
            for m in (-2, -1, 1, 3):
                g = nilpotent_geometric(D, m)
                lin = hlaurent(ring, {0: D, 1: ring.one().scale(m)})
                assert lin * g == hlaurent_one(ring), (name, rho, m)
    report(10, "enumeration oracle agrees, normal form idempotent "
               "on 200 random polynomials per fan, geometric factors invert "
               "exactly - zero failures")
