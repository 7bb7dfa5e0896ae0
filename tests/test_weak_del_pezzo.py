"""The weak del Pezzo toric surfaces, enumerated with no data file.

A smooth complete toric surface is a cycle of rays with ``u_{i-1} +
u_{i+1} = a_i u_i``, and ``D_i^2 = -a_i``.  It is weak del Pezzo when every
``D_i^2 >= -2``, i.e. ``a_i <= 2``; since ``sum D_i^2 = 12 - 3n``, such a
cycle has at most 12 rays.  The sequences ``(a_i)`` with ``a_i`` in
``[-2, 2]``, up to rotation and reflection, are exactly 16, the classical
count of one per reflexive polygon.  Every one is semipositive, so each
certifies.
"""

import math

import pytest

from toriq.batyrev import build_deformed_ideal, certify_isomorphism
from toriq.cohomring import build_cohomology_ring
from toriq.moricone import mori_data

from oracles import (KERNEL_FANS, check_module, check_series_support,
                     cycle_fan)

# the one fan whose largest Mori generator has ell 5
NEEDS_CUTOFF_5 = (0, 2, 1, 2, 2, 2, 1, 2)


def canonical(a):
    """The least rotation of ``a`` or of its reversal."""
    return min(tuple(s[i:] + s[:i]) for s in (list(a), list(a)[::-1])
               for i in range(len(a)))


def weak_del_pezzo_sequences():
    """Walk ``u_{i+1} = a_i u_i - u_{i-1}`` from ``(1, 0), (0, 1)`` with
    ``a_i`` in ``[-2, 2]`` while the rays turn less than once; a walk back
    at ``(1, 0)`` closes a cycle, whose last ``a`` is ``u_{n-1} + u_1``'s
    first coordinate."""
    found = set()

    def walk(rays, a, turned):
        (x0, y0), (x1, y1) = rays[-2:]
        if (x1, y1) == (1, 0):
            if -2 <= x0 <= 2:
                found.add(canonical(a + [x0]))
            return
        for ai in range(-2, 3):
            u = (ai * x1 - x0, ai * y1 - y0)
            step = math.atan2(x1 * u[1] - y1 * u[0], x1 * u[0] + y1 * u[1])
            if turned + step < 2 * math.pi + 1e-9 and len(rays) <= 12:
                walk(rays + [u], a + [ai], turned + step)

    walk([(1, 0), (0, 1)], [], math.pi / 2)
    return sorted(found)


def rays_of(a):
    rays = [(1, 0), (0, 1)]
    for ai in a[1:-1]:
        (x0, y0), (x1, y1) = rays[-2:]
        rays.append((ai * x1 - x0, ai * y1 - y0))
    return rays


def sequence_of(fan):
    """``a_i = det(u_{i-1}, u_{i+1})`` around a surface's rays."""
    rays = sorted(fan.rays, key=lambda u: math.atan2(u[1], u[0]))
    n = len(rays)
    return canonical([rays[i - 1][0] * rays[(i + 1) % n][1]
                      - rays[i - 1][1] * rays[(i + 1) % n][0]
                      for i in range(n)])


SEQUENCES = weak_del_pezzo_sequences()


def test_sixteen_weak_del_pezzo_fans():
    assert len(SEQUENCES) == 16
    assert sorted({len(a) for a in SEQUENCES}) == list(range(3, 10))
    assert all(sum(a) == 3 * len(a) - 12 for a in SEQUENCES)
    # every surface of the kernel fans is among them but F3 (D^2 = -3)
    for name, make in KERNEL_FANS.items():
        fan = make()
        if fan.dim == 2:
            a = sequence_of(fan)
            assert (a in SEQUENCES) == (max(a) <= 2), name
    # the one 9-ray fan is wdP3, which the kernel fans already certify
    (nine,) = [a for a in SEQUENCES if len(a) == 9]
    assert nine == sequence_of(KERNEL_FANS["wdP3"]())


@pytest.mark.parametrize("a", [a for a in SEQUENCES if len(a) < 9],
                         ids=lambda a: ",".join(map(str, a)))
def test_weak_del_pezzo_certifies(a):
    fan = cycle_fan(str(a), rays_of(a))
    assert sequence_of(fan) == a
    md = mori_data(fan)
    assert md.semipositive
    need = max(md.ell_of(beta) for beta in md.generators)
    assert need == 5 if a == NEEDS_CUTOFF_5 else need <= 4
    cutoff = max(4, need)
    ideal = build_deformed_ideal(md, build_cohomology_ring(fan), cutoff)
    check_module(fan, md.ell, cutoff, certify_isomorphism(ideal, md))


@pytest.mark.parametrize("a", SEQUENCES, ids=lambda a: ",".join(map(str, a)))
def test_weak_del_pezzo_series_skips_exactly_the_zero_classes(a):
    check_series_support(cycle_fan(str(a), rays_of(a)), 3)
