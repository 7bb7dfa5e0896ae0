import random
from fractions import Fraction

import pytest

from toriq.catalog import builtin_fan
from toriq.cohomring import build_cohomology_ring, divisor_class
from toriq.moricone import mori_data
from toriq.novikov import (
    CutoffMismatch,
    HLaurent,
    NotAUnit,
    NotNilpotent,
    NovikovContext,
    NovikovScalar,
    nilpotent_geometric,
)

from oracles import (
    KERNEL_FANS,
    frac_sub,
    geometric,
    laurent_mul,
    laurent_of,
    mult_table,
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


def test_scalar_inverse():
    _, _, _, ctx = f2_setup(cutoff=3)
    q1 = NovikovScalar.monomial(ctx, B1)
    a = NovikovScalar.unit(ctx, 2) + q1
    inv = a.inverse()
    assert inv * a == NovikovScalar.unit(ctx)
    with pytest.raises(NotAUnit):
        q1.inverse()


def test_scalar_cutoff_mismatch():
    _, _, _, ctx2 = f2_setup(cutoff=2)
    _, _, _, ctx3 = f2_setup(cutoff=3)
    with pytest.raises(CutoffMismatch):
        NovikovScalar.unit(ctx2) + NovikovScalar.unit(ctx3)


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
