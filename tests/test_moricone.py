import itertools
import random
from itertools import combinations, product
from math import gcd

import pytest

import oracles
from test_generated_fans import FANS, GENERATED, p1_bundles
from test_weak_del_pezzo import SEQUENCES, rays_of
from toriq import moricone
from toriq.catalog import CATALOG, NOT_SEMIPOSITIVE, SEMIPOSITIVE, builtin_fan
from toriq import lattice
from toriq.moricone import (
    NonIntegralCoefficient,
    NoPositiveFunctional,
    _facet_normals,
    _lattice_points,
    effectivity_witness,
    enumerate_effective,
    mori_data,
    positive_functional,
    primitive_class,
    primitive_collections,
    primitive_relation,
)
from toriq.cohomring import build_cohomology_ring
from toriq.fan import make_fan
from toriq import polynomials as P

GOLDEN_COLLECTIONS = {
    "P1": [(0, 1)],
    "P2": [(0, 1, 2)],
    "P1xP1": [(0, 2), (1, 3)],
    "F0": [(0, 2), (1, 3)],
    "F1": [(0, 2), (1, 3)],
    "F2": [(0, 2), (1, 3)],
    "F3": [(0, 2), (1, 3)],
    "P1xP2": [(0, 1), (2, 3, 4)],
    "BlP2": [(0, 1), (2, 3)],
}

GOLDEN_CLASSES = {
    "P1": [(1, 1)],
    "P2": [(1, 1, 1)],
    "P1xP1": [(1, 0, 1, 0), (0, 1, 0, 1)],
    "F0": [(1, 0, 1, 0), (0, 1, 0, 1)],
    "F1": [(1, -1, 1, 0), (0, 1, 0, 1)],
    "F2": [(1, -2, 1, 0), (0, 1, 0, 1)],
    "F3": [(1, -3, 1, 0), (0, 1, 0, 1)],
    "P1xP2": [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)],
    "BlP2": [(1, 1, 0, -1), (0, 0, 1, 1)],
}


def brute_force_minimal_nonfaces(fan):
    faces = set()
    for cone in fan.max_cones:
        for k in range(len(cone) + 1):
            faces.update(combinations(cone, k))
    out = []
    for size in range(1, fan.n_rays + 1):
        for cand in combinations(range(fan.n_rays), size):
            if cand in faces:
                continue
            if all(sub in faces
                   for k in range(size)
                   for sub in combinations(cand, k)):
                out.append(cand)
    return sorted(out)


def test_collections_match_golden():
    for name, fan in CATALOG.items():
        assert primitive_collections(fan) == GOLDEN_COLLECTIONS[name], name


def test_collections_match_brute_force():
    for fan in CATALOG.values():
        assert primitive_collections(fan) == brute_force_minimal_nonfaces(fan)


def test_classes_match_golden():
    for name, fan in CATALOG.items():
        md = mori_data(fan)
        assert list(md.generators) == GOLDEN_CLASSES[name], name


def test_f2_relation():
    f2 = builtin_fan("F2")
    pc = primitive_relation(f2, (0, 2))
    assert pc.gamma == (1,)
    assert pc.coeffs == (2,)
    assert primitive_class(f2, pc) == (1, -2, 1, 0)
    pc2 = primitive_relation(f2, (1, 3))
    assert pc2.gamma == ()
    assert pc2.coeffs == ()
    assert primitive_class(f2, pc2) == (0, 1, 0, 1)


def test_classes_are_relations():
    for fan in CATALOG.values():
        for g in mori_data(fan).generators:
            for k in range(fan.dim):
                assert sum(g[i] * fan.rays[i][k] for i in range(fan.n_rays)) == 0


def test_semipositivity_catalog():
    for name in SEMIPOSITIVE:
        assert mori_data(builtin_fan(name)).semipositive, name
    for name in NOT_SEMIPOSITIVE:
        assert not mori_data(builtin_fan(name)).semipositive, name


def test_fano_pairings():
    md = mori_data(builtin_fan("P2"))
    assert [sum(g) for g in md.generators] == [3]
    md = mori_data(builtin_fan("F2"))
    assert sorted(sum(g) for g in md.generators) == [0, 2]
    md = mori_data(builtin_fan("F3"))
    assert sorted(sum(g) for g in md.generators) == [-1, 2]


def test_positive_functional_properties():
    for name, fan in CATALOG.items():
        md = mori_data(fan)
        for g in md.generators:
            assert md.ell_of(g) >= 1, name


def test_positive_functional_f2_value():
    md = mori_data(builtin_fan("F2"))
    assert md.ell == (0, 0, 1, 1)
    assert [md.ell_of(g) for g in md.generators] == [1, 1]


def test_no_positive_functional_for_line():
    # cone containing a line: +-(1,1) among "generators"
    with pytest.raises(NoPositiveFunctional):
        positive_functional([(1, 1), (-1, -1)], 2)


def test_fm_point_feasibility():
    point = oracles.fm_feasible_point(
        [((1, 0), 1), ((0, 1), 1), ((-1, -1), -5)], 2)
    assert point is not None
    assert point[0] >= 1 and point[1] >= 1 and point[0] + point[1] <= 5
    assert oracles.fm_feasible_point([((1,), 1), ((-1,), 1)], 1) is None


def fm_cone_membership(generators, b):
    """Oracle: b in cone(generators) iff lambda >= 0 with sum lambda g = b."""
    s = len(generators)
    constraints = [(tuple(1 if i == j else 0 for i in range(s)), 0)
                   for j in range(s)]
    m = len(b)
    for i in range(m):
        row = tuple(g[i] for g in generators)
        constraints.append((row, b[i]))
        constraints.append((tuple(-x for x in row), -b[i]))
    return oracles.fm_feasible_point(constraints, s) is not None


def brute_force_effective(fan, md, cutoff):
    basis = oracles.curve_lattice_basis(fan)
    r = len(basis)
    if r == 0:
        return [(0,) * fan.n_rays]
    C = max(max(abs(x) for x in g) for g in md.generators)
    box = cutoff * C + 1
    out = []
    for y in product(range(-box, box + 1), repeat=r):
        b = tuple(sum(y[a] * basis[a][i] for a in range(r))
                  for i in range(fan.n_rays))
        if not 0 <= md.ell_of(b) <= cutoff:
            continue
        if fm_cone_membership(md.generators, b):
            out.append((md.ell_of(b), b))
    return [b for _, b in sorted(set(out))]


def test_enumerate_effective_f2():
    md = mori_data(builtin_fan("F2"))
    got = enumerate_effective(md, 2)
    b1, b2 = (1, -2, 1, 0), (0, 1, 0, 1)
    expected = {
        (0, 0, 0, 0), b1, b2,
        tuple(2 * x for x in b1),
        tuple(x + y for x, y in zip(b1, b2)),
        tuple(2 * x for x in b2),
    }
    assert set(got) == expected
    assert got[0] == (0, 0, 0, 0)
    assert [md.ell_of(b) for b in got] == sorted(md.ell_of(b) for b in got)


def test_enumerate_effective_cutoff_zero():
    for fan in CATALOG.values():
        md = mori_data(fan)
        assert enumerate_effective(md, 0) == [(0,) * fan.n_rays]


def test_enumerate_effective_negative_cutoff_is_empty():
    assert enumerate_effective(mori_data(builtin_fan("P2")), -1) == []


def test_enumerate_effective_p2():
    md = mori_data(builtin_fan("P2"))
    assert enumerate_effective(md, 3) == [
        (0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]


def test_enumerate_effective_matches_oracle():
    for name in ("P1", "P2", "F1", "F2", "F3", "BlP2", "P1xP1"):
        fan = builtin_fan(name)
        md = mori_data(fan)
        for cutoff in (0, 1, 2, 3):
            assert enumerate_effective(md, cutoff) == \
                brute_force_effective(fan, md, cutoff), (name, cutoff)


def test_enumerate_effective_saturation():
    # a saturated point that is not an NN-combination of the generators:
    # glue two F2-like relations sharing a lattice direction
    fan = make_fan(
        2,
        [(1, 0), (0, 1), (-1, 2), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    md = mori_data(fan)
    pts = enumerate_effective(md, 4)
    for b in pts:
        assert fm_cone_membership(md.generators, b)


def _cycle_fan(rays):
    n = len(rays)
    return make_fan(2, rays, [(i, (i + 1) % n) for i in range(n)])


HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def _p2xp2():
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0),
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1)]
    tri = [(0, 1), (1, 2), (0, 2)]
    return make_fan(4, rays, [a + tuple(3 + i for i in b)
                              for a in tri for b in tri])


def _p1xdp6():
    rays = [(a, b, 0) for a, b in HEXAGON] + [(0, 0, 1), (0, 0, -1)]
    return make_fan(3, rays, [(i, (i + 1) % 6, pole)
                              for i in range(6) for pole in (6, 7)])


DIFFERENTIAL_FANS = {
    "dP6": (lambda: _cycle_fan(HEXAGON), 4),
    "P2xP2": (_p2xp2, 5),
    "P1xdP6": (_p1xdp6, 2),
    "wdP5": (lambda: _cycle_fan([(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0),
                                 (-1, -1), (0, -1)]), 2),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_FANS))
def test_enumerate_effective_matches_box_scan(name):
    make, top = DIFFERENTIAL_FANS[name]
    md = mori_data(make())
    for cutoff in range(top + 1):
        assert enumerate_effective(md, cutoff) == \
            oracles.box_scan_effective(md, cutoff), (name, cutoff)


def test_enumerate_effective_wdp5_count():
    make, _ = DIFFERENTIAL_FANS["wdP5"]
    assert len(enumerate_effective(mori_data(make()), 4)) == 158


WIDE_FANS = {
    "wdP4": lambda: _cycle_fan([(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0),
                                (-1, -1), (-1, -2), (0, -1)]),
    "wdP3": lambda: _cycle_fan([(1, 0), (0, 1), (-1, 2), (-1, 1), (-1, 0),
                                (-1, -1), (0, -1), (1, -1), (2, -1)]),
}


def _scaled_fm_point(generators, nvars):
    """Least integral multiple of the Fourier-Motzkin point: a functional
    whose sup-norm bounds the box scan."""
    point = oracles.fm_feasible_point([(g, 1) for g in generators], nvars)
    if point is None:
        raise NoPositiveFunctional("cone is not strictly convex")
    denom = 1
    for x in point:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    return tuple(int(x * denom) for x in point)


def _box_scan_functional(generators, nvars):
    """Reference: the box scan that positive_functional used to run."""
    if not generators:
        return (0,) * nvars
    scaled = _scaled_fm_point(generators, nvars)
    bound = max(abs(x) for x in scaled)
    for k in range(1, bound + 1):
        best = None
        for cand in product(range(-k, k + 1), repeat=nvars):
            if max(abs(x) for x in cand) != k:
                continue
            if all(sum(a * b for a, b in zip(cand, g)) >= 1 for g in generators):
                key = (sum(abs(x) for x in cand), cand)
                if best is None or key < best:
                    best = key
        if best is not None:
            return best[1]
    return scaled


def test_positive_functional_matches_box_scan():
    fans = dict(CATALOG)
    fans.update((name, make()) for name, (make, _) in DIFFERENTIAL_FANS.items())
    for name, fan in fans.items():
        md = mori_data(fan)
        assert md.ell == _box_scan_functional(md.generators, fan.n_rays), name


def test_positive_functional_matches_box_scan_random():
    rng = random.Random(20240)
    compared = raised = 0
    for _ in range(300):
        nvars = rng.randint(1, 3)
        gens = [tuple(rng.randint(-2, 2) for _ in range(nvars))
                for _ in range(rng.randint(1, 4))]
        try:
            expected = _box_scan_functional(gens, nvars)
        except NoPositiveFunctional:
            with pytest.raises(NoPositiveFunctional):
                positive_functional(gens, nvars)
            raised += 1
            continue
        assert positive_functional(gens, nvars) == expected, gens
        compared += 1
    assert compared > 50 and raised > 50


WIDE_FUNCTIONALS = {
    "wdP4": (1, 2, 2, 3, 3, 2, 2, 1),
    "wdP3": (2, 2, 3, 2, 2, 3, 2, 2, 3),
}


@pytest.mark.parametrize("name", sorted(WIDE_FANS))
def test_positive_functional_wide_fans(name):
    fan = WIDE_FANS[name]()
    md = mori_data(fan)
    assert md.ell == WIDE_FUNCTIONALS[name]
    assert all(md.ell_of(g) >= 1 for g in md.generators)
    if name == "wdP4":
        # sup-norm 3 is the least: no functional lies in [-2, 2]^8
        assert not any(
            all(sum(a * b for a, b in zip(cand, g)) >= 1
                for g in md.generators)
            for cand in product(range(-2, 3), repeat=fan.n_rays))


def _identity(r):
    return [tuple(int(i == j) for j in range(r)) for i in range(r)]


def test_lattice_points_integer_empty():
    # 2y >= 1 and 2y <= 1: y = 1/2 is the only rational point
    assert _lattice_points([((2,), 1), ((-2,), -1)], 1, _identity(1)) == []
    # rationally non-empty at (1/2, 0); eliminating y1 leaves 2 y0 >= 1 and
    # 2 y0 <= 1, which tighten to y0 >= 1 and y0 <= 0
    rows = [((2, 1), 1), ((-2, 1), -1), ((0, 1), 0), ((0, -1), 0)]
    assert oracles.fm_feasible_point(rows, 2) is not None
    assert _lattice_points(rows, 2, _identity(2)) == []


def test_lattice_points_match_box_scan_random():
    # a random lift maps each point to its image, in the points' lex order
    rng, lifts = random.Random(7), random.Random(11)
    for _ in range(200):
        r = rng.randint(1, 3)
        box = rng.randint(0, 3)
        rows = [(tuple(sign * int(i == j) for i in range(r)), -box)
                for j in range(r) for sign in (1, -1)]
        rows += [(tuple(rng.randint(-3, 3) for _ in range(r)),
                  rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))]
        expected = [y for y in product(range(-box, box + 1), repeat=r)
                    if all(sum(a * x for a, x in zip(row, y)) >= c
                           for row, c in rows)]
        assert _lattice_points(rows, r, _identity(r)) == expected, rows
        m = lifts.randint(1, r + 2)
        lift = [[lifts.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        assert _lattice_points(rows, r, lift) == [
            tuple(sum(y[a] * lift[a][i] for a in range(r)) for i in range(m))
            for y in expected], (rows, lift)


def _random_systems():
    """120 random bounded systems ``(rows, r, box)``, each a box ``[-box,
    box]^r`` cut by 3 to 8 random rows, the rows shuffled."""
    rng = random.Random(1965)
    for _ in range(120):
        r = rng.randint(2, 5)
        box = rng.randint(1, 2 if r == 5 else 3)
        rows = [(tuple(sign * int(i == j) for i in range(r)), -box)
                for j in range(r) for sign in (1, -1)]
        rows += [(tuple(rng.randint(-3, 3) for _ in range(r)),
                  rng.randint(-6, 2)) for _ in range(rng.randint(3, 8))]
        rng.shuffle(rows)
        yield rows, r, box


def test_lattice_points_chernikov_random(monkeypatch):
    drops = [0]     # lower/upper pairs that Imbert's rule left uncombined
    real = moricone._fm_eliminate

    def counting(system, k, eliminated):
        keep, lower, upper = real(system, k, eliminated)
        flat = sum(1 for row in system if row[0][k] == 0)
        drops[0] += len(lower) * len(upper) - (len(keep) - flat)
        return keep, lower, upper

    monkeypatch.setattr(moricone, "_fm_eliminate", counting)
    for rows, r, box in _random_systems():
        expected = [y for y in product(range(-box, box + 1), repeat=r)
                    if all(sum(a * x for a, x in zip(row, y)) >= c
                           for row, c in rows)]
        assert _lattice_points(rows, r, _identity(r)) == expected, rows
    assert drops[0] > 1000


def test_imbert_walker_matches_chernikov_walker(monkeypatch):
    """Imbert's rule drops pairs that Chernikov's keeps, never the points:
    the walker finds the same ones with ``oracles.chernikov_eliminate`` on
    every system that ``mori_data`` and ``enumerate_effective`` walk on the
    catalog, the wide and the 16 weak del Pezzo fans at cutoff 3, and on
    the random systems."""
    calls = [(rows, r, _identity(r)) for rows, r, _ in _random_systems()]

    def recording(*args):
        calls.append(args)
        return _lattice_points(*args)

    monkeypatch.setattr(moricone, "_lattice_points", recording)
    fans = list(CATALOG.values()) + [make() for make in WIDE_FANS.values()]
    for fan in fans + [_cycle_fan(rays_of(a)) for a in SEQUENCES]:
        enumerate_effective(mori_data(fan), 3)
    points = [_lattice_points(*args) for args in calls]
    monkeypatch.setattr(moricone, "_fm_eliminate", oracles.chernikov_eliminate)
    assert [_lattice_points(*args) for args in calls] == points
    assert len(calls) == 195


def test_positive_functional_verdict_matches_fm_oracle():
    # the rational projection under Imbert's rule decides as plain
    # Fourier-Motzkin, which keeps every combination of rows
    rng = random.Random(1993)
    verdicts = []
    for _ in range(300):
        nvars = rng.randint(1, 6)
        gens = [tuple(rng.randint(-2, 2) for _ in range(nvars))
                for _ in range(rng.randint(1, 7))]
        feasible = oracles.fm_feasible_point(
            [(g, 1) for g in gens], nvars) is not None
        try:
            ell = positive_functional(gens, nvars)
        except NoPositiveFunctional:
            ell = None
        assert (ell is not None) == feasible, gens
        assert ell is None or all(
            sum(a * b for a, b in zip(ell, g)) >= 1 for g in gens)
        verdicts.append(feasible)
    assert 50 < sum(verdicts) < 250


def _kernel_generators(fan):
    """The Mori generators in chart coordinates, as enumeration sees them."""
    surviving = fan.chart[1]
    ys = [tuple(g[j] for j in surviving) for g in mori_data(fan).generators]
    return ys, len(surviving)


FACET_FANS = dict(
    [(name, lambda name=name: builtin_fan(name)) for name in sorted(CATALOG)]
    + [(name, make) for name, (make, _) in DIFFERENTIAL_FANS.items()]
    + [("wdP4", WIDE_FANS["wdP4"])])


CHART_FANS = {**FACET_FANS, **WIDE_FANS}


CHART_FAMILIES = {
    **{name: lambda make=make: [make()] for name, make in CHART_FANS.items()},
    "generated": lambda: [FANS[kind](i) for kind, i in GENERATED],
    "weak-del-pezzo": lambda: [_cycle_fan(rays_of(a)) for a in SEQUENCES],
    "p1-bundles": p1_bundles,
}


@pytest.mark.parametrize("name", sorted(CHART_FAMILIES))
def test_chart_basis_and_kirwan_lift(name):
    """Each chart basis vector is an integer relation among the rays with
    the identity on the surviving rays, and the basis and the far chart of
    ``oracles.curve_lattice_basis`` rebuild each other from their entries
    off their own cones.  The ring's Kirwan lift of each ray is its column
    of that basis: a surviving ray's is its own variable, every class pairs
    with ``D_rho`` as the lift dotted with its surviving entries, and the
    lifts satisfy every linear relation ``sum_rho <e_k, u_rho> D_rho = 0``."""
    fans = CHART_FAMILIES[name]()
    assert len(fans) in (1, len(GENERATED), len(SEQUENCES), 278)
    for fan in fans:
        _check_chart(fan)


def _check_chart(fan):
    sigma0, surviving, basis = fan.chart
    nv = len(surviving)
    for b in basis:
        assert all(isinstance(x, int) for x in b)
        assert all(sum(x * u[k] for x, u in zip(b, fan.rays)) == 0
                   for k in range(fan.dim)), b
    assert [[b[j] for j in surviving] for b in basis] == \
        [[int(a == c) for c in range(nv)] for a in range(nv)]

    far = oracles.curve_lattice_basis(fan)
    off = [j for j in range(fan.n_rays) if j not in oracles._far_cone(fan)]

    def rebuilt(v, rays, vectors):
        return [sum(v[j] * w[i] for j, w in zip(rays, vectors))
                for i in range(fan.n_rays)]

    assert all(rebuilt(v, surviving, basis) == list(v) for v in far)
    assert all(rebuilt(b, off, far) == list(b) for b in basis)

    ring = build_cohomology_ring(fan)
    assert (ring.sigma0, ring.surviving) == (sigma0, surviving)
    units = [tuple(int(i == j) for i in range(nv)) for j in range(nv)]
    for j, s in enumerate(surviving):
        assert ring.ray_poly(s) == {units[j]: 1}
    for rho in range(fan.n_rays):
        poly = ring.ray_poly(rho)
        lift = [poly.get(m, 0) for m in units]
        assert len(poly) == sum(map(bool, lift)), (rho, poly)
        for v in far:
            assert v[rho] == sum(c * v[s] for c, s in zip(lift, surviving))
    for k in range(fan.dim):
        total = {}
        for rho, u in enumerate(fan.rays):
            total = P.padd(total, P.pscale(ring.ray_poly(rho), u[k]))
        assert not any(total.values()), (k, total)


@pytest.mark.parametrize("name", sorted(FACET_FANS))
def test_facet_normals_match_nullspace_oracle(name):
    ys, r = _kernel_generators(FACET_FANS[name]())
    assert _facet_normals(ys, r) == oracles.facet_normals(ys, r)


def _dot(f, v):
    return sum(a * b for a, b in zip(f, v))


def _rank(vectors):
    return len(oracles.rref([list(v) for v in vectors])[1]) if vectors else 0


def _random_cone(rng, r):
    """Generators of a pointed full-dimensional cone in ZZ^r and its facets.

    The generators are shuffled with a repeated one, an interior point and
    a point on a facet, none of which changes the cone, so the facets are
    the oracle's on the generators drawn first.  A subset of rank below
    ``r - 1`` can give the oracle a supporting normal that is no facet's;
    only normals whose zero set has rank ``r - 1`` are kept.
    """
    w = [rng.randint(1, 3) for _ in range(r)]
    gens = []
    while _rank(gens) < r or len(gens) < r + rng.randint(0, 3):
        v = tuple(rng.randint(-3, 3) for _ in range(r))
        if _dot(w, v) > 0:
            gens.append(v)
    facets = [f for f in oracles.facet_normals(gens, r)
              if _rank([v for v in gens if _dot(f, v) == 0]) == r - 1]
    extras = [rng.choice(gens),
              tuple(sum(col) for col in zip(*rng.sample(gens, r)))]
    on_facet = [v for v in gens if _dot(rng.choice(facets), v) == 0]
    if on_facet:    # a facet of a ray (r = 1) holds no generator
        a, b = rng.choice(on_facet), rng.choice(on_facet)
        extras.append(tuple(x + y for x, y in zip(a, b)))
    gens += extras
    rng.shuffle(gens)
    return gens, facets


def test_facet_normals_random_degenerate_cones():
    rng = random.Random(1996)
    for k in range(200):
        r = k % 5 + 1
        gens, facets = _random_cone(rng, r)
        assert _facet_normals(gens, r) == facets, gens


def test_facet_normals_wdp4_work(monkeypatch):
    ys, r = _kernel_generators(WIDE_FANS["wdP4"]())
    eliminations = []
    real_eliminate = lattice._eliminate

    def counting_eliminate(M):
        eliminations.append(len(M))
        return real_eliminate(M)

    def forbidden(*args):
        raise AssertionError("facets must not enumerate generator subsets")

    monkeypatch.setattr(lattice, "_eliminate", counting_eliminate)
    monkeypatch.setattr(itertools, "combinations", forbidden)
    monkeypatch.setattr(moricone, "combinations", forbidden)
    monkeypatch.setattr(oracles, "nullspace_rational", forbidden)
    assert len(_facet_normals(ys, r)) == 13
    assert len(eliminations) <= len(ys) == 20


def test_lattice_points_wdp3_work(monkeypatch):
    """Imbert's rule keeps the projection small: with no rule the fifth
    and sixth systems eliminated on wdP3 at cutoff 4 have 1,561 and 36,122
    rows, where no system here exceeds 204."""
    md = mori_data(WIDE_FANS["wdP3"]())
    sizes = []
    real = moricone._fm_eliminate

    def sizing(system, k, eliminated):
        sizes.append(len(system))
        assert len(system) <= 204, sizes    # fail before memory runs out
        return real(system, k, eliminated)

    monkeypatch.setattr(moricone, "_fm_eliminate", sizing)
    assert len(enumerate_effective(md, 4)) == 726
    assert len(sizes) == 7


def test_lattice_points_wdp3xwdp3_work(monkeypatch):
    """On wdP3xwdP3 (18 rays, Picard rank 14) at cutoff 4, no system of
    ``mori_data`` or ``enumerate_effective`` exceeds 704 rows and the walks
    enter 33,420 nodes.  Under Chernikov's rule the eliminations of one
    factor's variables loosen the bound for the other factor's rows:
    ``positive_functional``'s box systems grow until ``analyze`` peaks at
    777 MiB.  The size check fails long before that."""
    fan = oracles.product_fan(oracles.wdp3(), oracles.wdp3())
    sizes, nodes = [], [0]
    real_eliminate = moricone._fm_eliminate
    real_points = moricone._lattice_points

    def sizing(system, k, eliminated):
        sizes.append(len(system))
        assert len(system) <= 704, sizes    # fail before memory runs out
        return real_eliminate(system, k, eliminated)

    class Counted(tuple):
        # the walk reads lift[k] once per node it enters at depth k + 1
        def __iter__(self):
            nodes[0] += 1
            assert nodes[0] <= 33420, "walker nodes"
            return super().__iter__()

    def counted(rows, r, lift):
        return real_points(rows, r, [Counted(v) for v in lift])

    monkeypatch.setattr(moricone, "_fm_eliminate", sizing)
    monkeypatch.setattr(moricone, "_lattice_points", counted)
    md = mori_data(fan)
    assert md.ell == (2, 2, 3) * 6
    assert len(enumerate_effective(md, 4)) == 7373
    assert nodes == [33420] and len(sizes) == 61


def test_enumerate_effective_wdp3_ell_calls(monkeypatch):
    """The walk carries each point's ell with its class, so enumeration
    reads ell once per chart basis vector, not once per point."""
    md = mori_data(WIDE_FANS["wdP3"]())
    calls = [0]
    real = moricone.MoriData.ell_of

    def counting(self, beta):
        calls[0] += 1
        return real(self, beta)

    monkeypatch.setattr(moricone.MoriData, "ell_of", counting)
    classes = enumerate_effective(md, 6)
    assert len(classes) == 5010
    r = md.fan.n_rays - md.fan.dim
    assert 0 < calls[0] <= r
    monkeypatch.undo()
    ells = [md.ell_of(b) for b in classes]
    assert ells == sorted(ells) and max(ells) == 6


def test_enumerate_effective_takes_the_rank_once(monkeypatch):
    # the rank check reads the independent generators that _facet_normals
    # starts its double description from, with no elimination of its own
    md = mori_data(builtin_fan("BlP2"))
    calls = [0]
    real = lattice.independent

    def counting(vectors):
        calls[0] += 1
        return real(vectors)

    monkeypatch.setattr(lattice, "independent", counting)
    assert len(enumerate_effective(md, 2)) > 1
    assert calls[0] == 1


def test_effectivity_witness_f2():
    f2 = builtin_fan("F2")
    pc = primitive_relation(f2, (0, 2))
    w = effectivity_witness(f2, pc)
    assert w.degrees == (1, -2, 1, 0)
    assert w.pattern == ("linear", "zero", "linear", "constant")
    assert w.sigma_max in ((0, 1), (1, 2))
    pc2 = primitive_relation(f2, (1, 3))
    w2 = effectivity_witness(f2, pc2)
    assert w2.degrees == (0, 1, 0, 1)
    assert w2.pattern == ("constant", "linear", "constant", "linear")


def test_effectivity_witness_p2():
    p2 = builtin_fan("P2")
    w = effectivity_witness(p2, primitive_relation(p2, (0, 1, 2)))
    assert w.degrees == (1, 1, 1)
    assert w.pattern == ("linear", "linear", "linear")


def test_mori_data_rejects_simplicial_fan_that_is_not_smooth():
    # every cone has determinant 2; the relation of collection (0, 2) is
    # u0 + u2 = 2 u1, read on cone (0, 1), which is not smooth.  An input
    # error, not a failed kernel check.
    fan = make_fan(2, [(-3, -1), (-1, -1), (1, -1), (1, 1)],
                   [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NonIntegralCoefficient, match="is not smooth$"):
        mori_data(fan)
