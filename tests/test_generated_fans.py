"""Invariants on generated fans: random toric blowups of small fans, their
rays listed in a random order.

The star subdivision of a smooth fan at a cone ``tau`` adds the ray
``u_tau``, the sum of ``tau``'s rays, and replaces each maximal cone
``sigma`` containing ``tau`` by the cones ``sigma - {rho} + {u_tau}`` for
``rho`` in ``tau``.  It is the blowup along the orbit closure of ``tau``,
so the fan stays smooth, complete and projective (Cox, Little and Schenck,
*Toric Varieties*, 2011, section 3.3).  The surfaces blow up P2 and the
Hirzebruch surfaces F0-F3 at torus-fixed points; the threefolds blow up
P3, P1xP2 and (P1)^3 along a torus-invariant curve or at a fixed point.

Effective-class enumeration is compared with ``oracles.box_scan_effective``
at cutoffs 0-2 on every generated fan: at cutoff 2 the largest scan, on
threefold 2, covers a box of 5,625 points.  On every generated fan the Mori
cone's facets are compared with ``oracles.facet_normals``, the series with
``oracles.i_function`` at cutoffs 0-3 (``oracles.check_series_support``:
the classes skipped as zero are those whose negative support spans no
cone), and the divisor classes with
``oracles.kirwan_divisors``.  On these and the catalog the positive
functional is compared with ``oracles.least_functional``'s scan.

Products of semipositive fans (``oracles.product_fan``) are certified, and
the module that ``certify`` returns is checked by ``oracles.check_module``.

Semipositivity, which ``mori_data`` decides from the primitive classes, is
compared with ``oracles.wall_semipositive``, which reads the wall relations,
on the catalog, the 16 weak del Pezzo fans, the generated fans and 278 toric
P1-bundles (``oracles.p1_bundle``).  Each semipositive bundle is certified
and its module checked by ``oracles.check_module``; each other bundle is
refused with exit 3.

On those fans and the products, the graded dimensions that ``analyze``
reports, ``fan.h_vector`` from the face counts, are compared with the
degrees of the cohomology ring's basis monomials.

``validate_smooth`` and ``validate_complete``, which read the cone inverses,
are compared with ``oracles.validate_smooth_by_det`` and
``oracles.validate_complete_by_det``, which take determinants, on the
kernel fans, the weak del Pezzo fans, the generated fans and the
P1-bundles, and on corrupted copies of each of dimension 2 or 3.
"""

import json
import random
from itertools import combinations, product

import pytest

from toriq.batyrev import build_deformed_ideal, certify_isomorphism
from toriq.catalog import CATALOG, builtin_fan
from toriq.cli import exit_code_for, main
from toriq.report import run_certify
from toriq.cohomring import build_cohomology_ring, divisor_class, integrate
from toriq.fan import (
    ValidationError,
    h_vector,
    make_fan,
    validate_complete,
    validate_smooth,
)
from toriq.moricone import (
    _facet_normals,
    enumerate_effective,
    mori_data,
)

import oracles
from oracles import (
    box_scan_effective,
    check_module,
    cycle_fan,
    dp6,
    p1_bundle,
    primitive_relations,
    product_fan,
    relabel,
    wall_semipositive,
    wdp4,
    wdp5,
)
from test_weak_del_pezzo import SEQUENCES, rays_of


def p3():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return make_fan(3, rays, combinations(range(4), 3), name="P3")


def p1_cubed():
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
            (0, 0, -1)]
    return make_fan(3, rays, product((0, 1), (2, 3), (4, 5)), name="P1^3")


def star_subdivision(fan, tau):
    new = fan.n_rays
    ray = tuple(map(sum, zip(*(fan.rays[i] for i in tau))))
    cones = []
    for cone in fan.max_cones:
        if set(tau) <= set(cone):
            cones += [[new if i == rho else i for i in cone] for rho in tau]
        else:
            cones.append(cone)
    return make_fan(fan.dim, fan.rays + (ray,), cones, name=f"{fan.name}+")


def generated(rng, fan, blowups, sizes):
    """``fan`` blown up ``blowups`` times, each time at a face of a random
    maximal cone with one of ``sizes`` rays, its rays in a random order."""
    for _ in range(blowups):
        cone = rng.choice(fan.max_cones)
        fan = star_subdivision(fan, rng.sample(cone, rng.choice(sizes)))
    perm = list(range(fan.n_rays))
    rng.shuffle(perm)
    return relabel(fan, perm)


def surface(i):
    rng = random.Random(f"surface-{i}")
    base = builtin_fan(rng.choice(("P2", "F0", "F1", "F2", "F3")))
    return generated(rng, base, rng.randint(1, 2), (2,))


def threefold(i):
    rng = random.Random(f"threefold-{i}")
    base = rng.choice((p3, lambda: builtin_fan("P1xP2"), p1_cubed))()
    return generated(rng, base, rng.randint(1, 2), (2, 3))


def run(capsys, path, command, cutoff, *flags):
    code = main([command, "--fan", str(path), "--cutoff", str(cutoff), *flags])
    return code, capsys.readouterr().out


def semipositive(fan):
    """Decided from the primitive relations alone: their classes generate
    the Mori cone, and ``-K . beta`` is the sum of ``beta``'s entries."""
    return all(sum(beta) >= 0 for _, beta in primitive_relations(fan))


def check_invariants(fan, tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "dim": fan.dim, "rays": fan.rays, "name": fan.name,
        "max_cones": [[i + 1 for i in cone] for cone in fan.max_cones]}))
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    cutoff = max(md.ell_of(beta) for beta in md.generators)
    code, out = run(capsys, path, "analyze", cutoff, "--format", "json")
    assert code == 0
    report = json.loads(out)
    dims = report["cohomology"]["graded_dimensions"]
    assert report["euler_characteristic"] == len(fan.max_cones) == sum(dims)
    assert dims == dims[::-1]
    if fan.dim == 2:
        K = sum((divisor_class(ring, rho) for rho in range(fan.n_rays)),
                ring.zero())
        assert integrate(ring, K * K) == 12 - fan.n_rays
    assert run(capsys, path, "ifunction", cutoff)[0] == 0
    code, _ = run(capsys, path, "certify", cutoff)
    assert code == (0 if semipositive(fan) else 3)
    if code == 0:
        ideal = build_deformed_ideal(md, ring, cutoff)
        check_module(fan, md.ell, cutoff, certify_isomorphism(ideal, md))


@pytest.mark.parametrize("i", range(20))
def test_generated_surface(i, tmp_path, capsys):
    check_invariants(surface(i), tmp_path, capsys)


@pytest.mark.parametrize("i", range(10))
def test_generated_threefold(i, tmp_path, capsys):
    check_invariants(threefold(i), tmp_path, capsys)


GENERATED = [("surface", i) for i in range(20)] + \
    [("threefold", i) for i in range(10)]


@pytest.mark.parametrize("kind,i", GENERATED,
                         ids=[f"{kind}-{i}" for kind, i in GENERATED])
def test_generated_enumeration_matches_box_scan(kind, i):
    md = mori_data({"surface": surface, "threefold": threefold}[kind](i))
    for cutoff in range(3):
        assert enumerate_effective(md, cutoff) == \
            box_scan_effective(md, cutoff), cutoff


@pytest.mark.parametrize("kind,i", GENERATED,
                         ids=[f"{kind}-{i}" for kind, i in GENERATED])
def test_generated_facets_match_nullspace_oracle(kind, i):
    fan = {"surface": surface, "threefold": threefold}[kind](i)
    surviving = fan.chart[1]
    ys = [tuple(g[j] for j in surviving) for g in mori_data(fan).generators]
    assert _facet_normals(ys, len(surviving)) == \
        oracles.facet_normals(ys, len(surviving))


@pytest.mark.parametrize("kind,i", GENERATED,
                         ids=[f"{kind}-{i}" for kind, i in GENERATED])
def test_generated_series_matches_hlaurent_reference(kind, i):
    # term order included, and the series skips exactly the zero classes
    fan = {"surface": surface, "threefold": threefold}[kind](i)
    for cutoff in range(4):
        oracles.check_series_support(fan, cutoff)


def test_generated_fans_reach_both_certify_outcomes():
    for fans in ([surface(i) for i in range(20)],
                 [threefold(i) for i in range(10)]):
        assert 0 < sum(map(semipositive, fans)) < len(fans)


FANS = {"surface": surface, "threefold": threefold, "dP6": dp6, "wdP5": wdp5}


@pytest.mark.parametrize("kind,i", GENERATED,
                         ids=[f"{kind}-{i}" for kind, i in GENERATED])
def test_generated_divisors_equal_kirwan_lift(kind, i):
    ring = build_cohomology_ring(FANS[kind](i))
    assert ring.divisors == oracles.kirwan_divisors(ring)


NAMED = [(name, None) for name in sorted(CATALOG)] + GENERATED


@pytest.mark.parametrize("kind,i", NAMED, ids=[
    kind if i is None else f"{kind}-{i}" for kind, i in NAMED])
def test_positive_functional_matches_least_scan(kind, i):
    fan = builtin_fan(kind) if i is None else FANS[kind](i)
    md = mori_data(fan)
    assert md.ell == oracles.least_functional(md.generators, fan.n_rays)


def p1_bundles():
    """P(B, a) over P2 with a in {0,1,2}^3, over F1 with a_0 = 0 and a_i in
    {0,1,2}, and over dP6, wdP5 and wdP4 with a_0 = 0 and a_i in {0,1}.
    Twists that differ by a linear function give the same fan up to
    coordinates, so a_0 = 0 only picks a representative.  wdP3, whose 256
    bundles take about 5 s in ``mori_data``, is left out."""
    return [p1_bundle(base, (0,) * (base.n_rays - k) + a)
            for base, k, top in ((builtin_fan("P2"), 3, 3),
                                 (builtin_fan("F1"), 3, 3), (dp6(), 5, 2),
                                 (wdp5(), 6, 2), (wdp4(), 7, 2))
            for a in product(range(top), repeat=k)]


def test_semipositive_matches_wall_relations():
    # mori_data decides from the primitive classes, the oracle from the walls
    bundles = p1_bundles()
    fans = [builtin_fan(name) for name in sorted(CATALOG)] + \
        [cycle_fan(str(a), rays_of(a)) for a in SEQUENCES] + \
        [FANS[kind](i) for kind, i in GENERATED] + bundles
    verdicts = [wall_semipositive(fan) for fan in fans]
    for fan, verdict in zip(fans, verdicts):
        assert mori_data(fan).semipositive == verdict, fan.name
    assert len(bundles) == 278 and sum(verdicts[-278:]) == 53
    # over wdP5 4 of 64 are semipositive, over wdP4 1 of 128
    assert [sum(verdicts[-192:-128]), sum(verdicts[-128:])] == [4, 1]
    assert not verdicts[sorted(CATALOG).index("F3")]


def test_p1_bundles_certify_or_exit_3():
    # 53 semipositive bundles, certified at the ell of their largest Mori
    # generator (at least 3); the other 225 are refused as hypothesis_unmet.
    # The wall relations sort them, so each runs mori_data once
    cutoffs = []
    for fan in p1_bundles():
        if not wall_semipositive(fan):
            report = run_certify(fan, 3)
            assert report["certificate"]["verdict"] == "hypothesis_unmet"
            assert exit_code_for(report) == 3, fan.name
            continue
        md = mori_data(fan)
        assert md.semipositive, fan.name
        cutoff = max(3, *map(md.ell_of, md.generators))
        ring = build_cohomology_ring(fan)
        ideal = build_deformed_ideal(md, ring, cutoff)
        check_module(fan, md.ell, cutoff, certify_isomorphism(ideal, md))
        cutoffs.append(cutoff)
    assert (len(cutoffs), cutoffs.count(4)) == (53, 5)


PRODUCTS = [("dP6", "dP6", 3), ("F1", "P2", 4), ("wdP5", "P1", 4),
            ("BlP2", "F2", 4)]


def test_h_vector_matches_ring_basis_degrees():
    # Danilov-Jurkiewicz: the even Betti numbers are the h-vector
    fans = [builtin_fan(name) for name in sorted(CATALOG)] + \
        [cycle_fan(str(a), rays_of(a)) for a in SEQUENCES] + \
        [FANS[kind](i) for kind, i in GENERATED] + p1_bundles() + \
        [product_fan(*(FANS[n]() if n in FANS else builtin_fan(n)
                       for n in (a, b))) for a, b, _ in PRODUCTS]
    for fan in fans:
        ring = build_cohomology_ring(fan)
        dims = [ring.basis_degrees.count(d) for d in range(fan.dim + 1)]
        assert h_vector(fan) == dims, fan.name
        assert sum(dims) == len(fan.max_cones) == ring.dim, fan.name
    assert len(fans) == 9 + 16 + 30 + 278 + 4


@pytest.mark.parametrize("a,b,cutoff", PRODUCTS,
                         ids=[f"{a}x{b}@{k}" for a, b, k in PRODUCTS])
def test_semipositive_product_certifies(a, b, cutoff):
    fan = product_fan(*(FANS[n]() if n in FANS else builtin_fan(n)
                        for n in (a, b)))
    md = mori_data(fan)
    assert md.semipositive
    ring = build_cohomology_ring(fan)
    module = certify_isomorphism(build_deformed_ideal(md, ring, cutoff),
                                 md)
    check_module(fan, md.ell, cutoff, module)


def corruptions(fan, rng):
    """Copies of ``fan`` as ``(rays, cones)``: one ray negated; one cone's
    ray swapped for its neighbour's remaining ray across a wall; one cone
    made degenerate, a ray replaced by the opposite of another of its rays
    (a new ray when that is not one already)."""
    rays, cones = list(fan.rays), [list(c) for c in fan.max_cones]
    i = rng.randrange(fan.n_rays)
    yield rays[:i] + [tuple(-x for x in rays[i])] + rays[i + 1:], cones
    a = rng.randrange(len(cones))
    wall = rng.sample(cones[a], fan.dim - 1)
    j = next(i for c in cones if c != cones[a] and set(wall) <= set(c)
             for i in c if i not in wall)
    w = rng.choice(wall)
    yield rays, cones[:a] + [[j if i == w else i for i in cones[a]]] + \
        cones[a + 1:]
    a = rng.randrange(len(cones))
    p, q = rng.sample(cones[a], 2)
    opposite = tuple(-x for x in rays[p])
    rays = rays + [opposite] * (opposite not in rays)
    yield rays, cones[:a] + [[rays.index(opposite) if i == q else i
                              for i in cones[a]]] + cones[a + 1:]


KINDS = ("not smooth", "lies in", "overlap", "wall-connected", "cover space")


def validation_verdicts(fan, *checks):
    """Each check's ``ValidationError`` message, or None when it passes."""
    verdicts = []
    for check in checks:
        try:
            check(fan)
        except ValidationError as exc:
            verdicts.append(str(exc))
        else:
            verdicts.append(None)
    return verdicts


def test_validation_matches_determinant_reference():
    fans = [make() for _, make in sorted(oracles.KERNEL_FANS.items())] + \
        [cycle_fan(str(a), rays_of(a)) for a in SEQUENCES] + \
        [FANS[kind](i) for kind, i in GENERATED] + p1_bundles()
    # a cycle that winds twice around the origin, and two copies of P2 that
    # share no wall: failures that no corruption below makes
    failing = [cycle_fan("twice", [(1, 0), (0, 1), (-1, -2), (2, 3),
                                   (-1, -1), (0, -1)]),
               make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0),
                            (0, -1)],
                        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]
    corrupted = []
    for k, fan in enumerate(fans):
        if fan.dim not in (2, 3):
            continue
        for rays, cones in corruptions(fan, random.Random(k)):
            try:
                corrupted.append(make_fan(fan.dim, rays, cones, fan.name))
            except ValidationError:
                pass
    kinds = set()
    for fan in fans + failing + corrupted:
        library = validation_verdicts(fan, validate_smooth, validate_complete)
        assert library == validation_verdicts(
            fan, oracles.validate_smooth_by_det,
            oracles.validate_complete_by_det), fan
        kinds.update(next(k for k in KINDS if k in v) for v in library if v)
    assert len(fans) == 15 + 16 + 30 + 278 and len(corrupted) == 857
    assert kinds == set(KINDS), kinds
