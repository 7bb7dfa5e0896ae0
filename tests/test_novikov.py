import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from toriq.catalog import builtin_fan
from toriq.cohomring import CohClass, build_cohomology_ring, divisor_class
from toriq.moricone import mori_data
from toriq.novikov import (
    CutoffMismatch,
    HLaurent,
    NovikovContext,
    NovikovScalar,
)

from oracles import (
    KERNEL_FANS,
    NotNilpotent,
    frac_add,
    frac_scale,
    frac_sub,
    geometric,
    laurent_mul,
    laurent_of,
    mult_table,
    nilpotent_geometric,
    q_add,
    q_mul,
    random_coeffs,
    random_laurent,
    to_hlaurent,
    variable_class,
)


def f2_setup(cutoff=3):
    fan = builtin_fan("F2")
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    ctx = NovikovContext(n_rays=fan.n_rays, ell=md.ell, cutoff=cutoff)
    return fan, md, ring, ctx


B1 = (1, -2, 1, 0)


def test_scalar_arithmetic_and_truncation():
    _, _, _, ctx = f2_setup(cutoff=2)
    q1 = NovikovScalar.monomial(ctx, B1)
    one = NovikovScalar.unit(ctx)
    assert (one + q1) * (one - q1) == one - q1 * q1
    assert q1 * q1 * q1 == NovikovScalar(ctx, {})  # ell = 3 > cutoff
    two_b1 = tuple(2 * x for x in B1)
    assert (q1 * q1).terms == {two_b1: Fraction(1)}


def test_scalar_cutoff_mismatch():
    _, _, _, ctx2 = f2_setup(cutoff=2)
    _, _, _, ctx3 = f2_setup(cutoff=3)
    with pytest.raises(CutoffMismatch):
        NovikovScalar.unit(ctx2) + NovikovScalar.unit(ctx3)


# --- NovikovScalar against the plain-dict scalars of the oracles -------------


SCALAR_CASES = [(name, cutoff) for name in ("F2", "dP6", "wdP5")
                for cutoff in range(5)]


def scalar_setup(name, cutoff):
    """The Mori generators of a kernel fan and its context at ``cutoff``."""
    fan = KERNEL_FANS[name]()
    md = mori_data(fan)
    return md.generators, NovikovContext(n_rays=fan.n_rays, ell=md.ell,
                                         cutoff=cutoff)


def random_terms(rng, generators, ctx):
    """Up to five terms on sums of up to three Mori generators, so class
    entries are negative and some terms lie past the cutoff; coefficients
    are ints and Fractions, a Fraction sometimes integral."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        beta = ctx.zero_class
        for g in rng.choices(generators, k=rng.randint(0, 3)):
            beta = tuple(x + y for x, y in zip(beta, g))
        terms[beta] = rng.choice((rng.randint(-3, 3), Fraction(
            rng.randint(-6, 6), rng.randint(1, 3))))
    return terms


def truncated(terms, ctx):
    return {beta: c for beta, c in terms.items()
            if c and ctx.ell_of(beta) <= ctx.cutoff}


def assert_normalized(x):
    # int where integral, a Fraction only where a division leaves one
    for c in x.terms.values():
        assert c and type(c) is (int if c.denominator == 1 else Fraction), c


@pytest.mark.parametrize("name,cutoff", SCALAR_CASES)
def test_scalar_arithmetic_matches_plain_dict_oracle(name, cutoff):
    generators, ctx = scalar_setup(name, cutoff)
    ell = ctx.ell
    rng = random.Random(f"scalar-{name}-{cutoff}")
    for _ in range(40):
        a, b = (random_terms(rng, generators, ctx) for _ in range(2))
        A, B = NovikovScalar(ctx, a), NovikovScalar(ctx, b)
        a, b = truncated(a, ctx), truncated(b, ctx)
        c = rng.choice((0, -1, 2, Fraction(1, 2), Fraction(4, 2),
                        Fraction(-3, 4)))
        results = (
            (A, a),
            (A + B, q_add(a, b)),
            (A - B, q_add(a, b, -1)),
            (-A, q_add({}, a, -1)),
            (A * B, q_mul(a, b, ell, cutoff)),
            (A.scale(c), q_add({}, a, c)))
        for got, want in results:
            assert got.terms == want
            assert_normalized(got)


@pytest.mark.parametrize("name,cutoff", SCALAR_CASES)
def test_scalar_truncation_boundary(name, cutoff):
    # a term whose ell equals the cutoff is kept, one past it is dropped,
    # both when it is given and when a product forms it
    generators, ctx = scalar_setup(name, cutoff)

    def total(gs):
        return tuple(map(sum, zip(ctx.zero_class, *gs)))

    sums = {total(gs): gs for k in range(cutoff + 2)
            for gs in combinations_with_replacement(generators, k)}
    kept = [beta for beta in sums if ctx.ell_of(beta) == cutoff]
    dropped = [beta for beta in sums if ctx.ell_of(beta) == cutoff + 1]
    assert kept and dropped
    for beta in kept + dropped:
        x = NovikovScalar.monomial(ctx, beta, 3)
        assert x.terms == ({beta: 3} if beta in kept else {})
        if len(sums[beta]) > 1:
            # both factors have ell >= 1, so each lies under the cutoff
            first, *rest = sums[beta]
            left, right = (NovikovScalar.monomial(ctx, b, 3)
                           for b in (first, total(rest)))
            assert left and right
            assert (left * right).scale(Fraction(1, 3)) == x


def test_scalar_normalization_and_errors():
    generators, ctx = scalar_setup("F2", 2)
    zero, b = ctx.zero_class, generators[0]
    x = NovikovScalar(ctx, {zero: Fraction(4, 2), b: Fraction(1, 2),
                            generators[1]: Fraction(0)})
    assert x.terms == {zero: 2, b: Fraction(1, 2)}
    assert_normalized(x)
    assert type(x.scale(2).terms[b]) is int
    assert type(x.scale(Fraction(1, 2)).terms[zero]) is int
    assert not x.scale(0) and x.scale(0).terms == {}
    assert not (x - x) and (x - x).terms == {}
    other_ell = NovikovContext(n_rays=4, ell=(1, 1, 1, 1), cutoff=2)
    for other in (scalar_setup("F2", 3)[1], other_ell):
        y = NovikovScalar.unit(other)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(CutoffMismatch):
                op()


def test_nilpotent_geometric_square_zero():
    ring = build_cohomology_ring(builtin_fan("P1"))
    h = variable_class(ring, 0)  # h^2 = 0
    g = nilpotent_geometric(h, 1)
    assert g.terms == {-1: ring.one(), -2: h.scale(-1)}
    lin = HLaurent(ring, {0: h, 1: ring.one()})  # D + hbar
    assert lin * g == HLaurent.one(ring)


def test_nilpotent_geometric_zero_class():
    ring = build_cohomology_ring(builtin_fan("P1"))
    g = nilpotent_geometric(ring.zero(), 2)
    assert g.terms == {-1: ring.one().scale(Fraction(1, 2))}


def test_nilpotent_geometric_p2():
    ring = build_cohomology_ring(builtin_fan("P2"))
    h = variable_class(ring, 0)  # h^3 = 0
    g = nilpotent_geometric(h, 1)
    assert g.terms == {-1: ring.one(), -2: h.scale(-1), -3: h * h}
    lin = HLaurent(ring, {0: h, 1: ring.one()})
    assert lin * g == HLaurent.one(ring)


def test_nilpotent_geometric_exact_inverse_all_m():
    ring = build_cohomology_ring(builtin_fan("F2"))
    for rho in range(4):
        d = divisor_class(ring, rho)
        for m in (-3, -1, 1, 2, 5):
            g = nilpotent_geometric(d, m)
            lin = HLaurent(ring, {0: d, 1: ring.one().scale(m)})
            assert lin * g == HLaurent.one(ring), (rho, m)


def test_nilpotent_geometric_rejects_units():
    ring = build_cohomology_ring(builtin_fan("P1"))
    with pytest.raises(NotNilpotent):
        nilpotent_geometric(ring.one(), 1)


@pytest.mark.parametrize("name", sorted(KERNEL_FANS))
def test_hlaurent_mul_matches_fraction_oracle(name):
    ring = build_cohomology_ring(KERNEL_FANS[name]())
    table = mult_table(ring)
    rng = random.Random(f"hlaurent-{name}")
    for _ in range(25):
        f, g = random_laurent(rng, ring.dim), random_laurent(rng, ring.dim)
        F, G = to_hlaurent(ring, f), to_hlaurent(ring, g)
        assert laurent_of(F) == f
        assert laurent_of(F * G) == laurent_mul(table, f, g)
        zero = (Fraction(0),) * ring.dim
        diff = {k: frac_sub(f.get(k, zero), g.get(k, zero)) for k in {*f, *g}}
        assert laurent_of(F - G) == {k: v for k, v in diff.items() if any(v)}
    for rho in range(ring.fan.n_rays):
        D = divisor_class(ring, rho)
        for m in (-2, 1, 3):
            assert laurent_of(nilpotent_geometric(D, m)) == \
                geometric(table, ring.one().coeffs, D.coeffs, m), (rho, m)


@pytest.mark.parametrize("name", sorted(KERNEL_FANS))
def test_graded_hlaurent_matches_fraction_oracle(name):
    # seeded values with several hbar powers of mixed degrees; every result
    # is read back through its buckets, never through the terms it was
    # built from
    ring = build_cohomology_ring(KERNEL_FANS[name]())
    table = mult_table(ring)
    zero = (Fraction(0),) * ring.dim
    rng = random.Random(f"graded-{name}")

    def rebuilt(h):
        return laurent_of(HLaurent._graded(ring, h.buckets))

    def combine(op, f, g):
        out = {k: op(f.get(k, zero), g.get(k, zero)) for k in {*f, *g}}
        return {k: v for k, v in out.items() if any(v)}

    mixed = 0
    for _ in range(20):
        f, g = random_laurent(rng, ring.dim), random_laurent(rng, ring.dim)
        F, G = to_hlaurent(ring, f), to_hlaurent(ring, g)
        mixed += len(F.buckets) > 1 and any(
            len({d for a, d in zip(v.num, ring.basis_degrees) if a}) > 1
            for v in F.buckets.values())
        # bucket s holds the degree-p part of the coefficient of hbar^(s-p)
        for s, v in F.buckets.items():
            assert v and v.coeffs == tuple(
                f.get(s - d, zero)[i] for i, d in enumerate(ring.basis_degrees))
        assert rebuilt(F) == f and F.powers() == sorted(f)
        for k in range(-7, 4):
            assert F.coefficient(k).coeffs == f.get(k, zero)
        assert rebuilt(F + G) == combine(frac_add, f, g)
        assert rebuilt(F - G) == combine(frac_sub, f, g)
        assert rebuilt(F * G) == laurent_mul(table, f, g)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert rebuilt(F.scale(c)) == combine(
            frac_add, {k: frac_scale(v, c) for k, v in f.items()}, {})
        assert F == HLaurent._graded(ring, F.buckets) == to_hlaurent(ring, f)
        assert (F == G) == (f == g)
        assert not (F - F) and (F - F) == HLaurent(ring)
        assert bool(F) == bool(f)
    assert mixed
    # a nilpotent class of mixed degrees, and divisor classes, whose inverse
    # factor is the single bucket at total degree -1
    for _ in range(3):
        D = random_coeffs(rng, ring.dim)
        D = tuple(x if d else Fraction(0)
                  for x, d in zip(D, ring.basis_degrees))
        got = nilpotent_geometric(CohClass(ring, D), 2)
        assert rebuilt(got) == geometric(table, ring.one().coeffs, D, 2)
    for rho in range(ring.fan.n_rays):
        assert set(nilpotent_geometric(divisor_class(ring, rho), 3).buckets) \
            == {-1}
