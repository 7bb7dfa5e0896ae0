"""Test-local oracles: the Fraction arithmetic that the integer kernel replaced,
and the helpers that have no caller in ``toriq`` itself.

``mult_table`` rebuilds the dense table of structure constants the ring used
to store: for every basis pair ``i <= j``, the Fraction coefficients of the
normal form of ``basis[i] * basis[j]``, zeros included.  Classes are tuples of
Fractions; ``frac_mul`` multiplies two of them through the table as the old
``CohClass.__mul__`` did, and ``frac_add``, ``frac_sub`` and ``frac_scale``
are the old elementwise operations.  A Laurent polynomial is a dict from hbar
powers to such tuples.  ``gkz_coefficient`` is the naive series coefficient,
expanded from its definition in this arithmetic alone.
"""

from fractions import Fraction

from toriq import polynomials as P
from toriq.catalog import CATALOG, builtin_fan
from toriq.cohomring import (
    CohClass,
    _normal_form,
    divisor_class,
    poincare_dual_basis,
)
from toriq.fan import make_fan
from toriq.novikov import HLaurent

_TABLES = {}


def mult_table(ring):
    """Dense ``(i, j) -> coefficient tuple`` table of basis products."""
    if id(ring) not in _TABLES:
        table = {}
        for i, mi in enumerate(ring.basis):
            for j in range(i, ring.dim):
                nf = _normal_form(ring.rules,
                                  {P.mono_mul(mi, ring.basis[j]): Fraction(1)})
                col = [Fraction(0)] * ring.dim
                for m, c in nf.items():
                    col[ring.basis.index(m)] = c
                table[(i, j)] = tuple(col)
        _TABLES[id(ring)] = (ring, table)   # the ring keeps its id alive
    return _TABLES[id(ring)][1]


def frac_mul(table, a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            key = (i, j) if i <= j else (j, i)
            for k, c in enumerate(table[key]):
                if c:
                    out[k] += x * y * c
    return tuple(out)


def frac_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def frac_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def frac_scale(a, c):
    c = Fraction(c)
    return tuple(x * c for x in a)


def laurent_mul(table, f, g):
    out = {}
    for k1, a in f.items():
        for k2, b in g.items():
            p = frac_mul(table, a, b)
            k = k1 + k2
            out[k] = frac_add(out[k], p) if k in out else p
    return {k: v for k, v in out.items() if any(v)}


def laurent_of(h):
    """Fraction form of an HLaurent."""
    return {k: v.coeffs for k, v in h.terms.items()}


def to_hlaurent(ring, f):
    return HLaurent(ring, {k: CohClass(ring, v) for k, v in f.items()})


def geometric(table, one, D, m):
    """``(D + m hbar)^(-1) = sum_l (-1)^l D^l / (m^(l+1) hbar^(l+1))``."""
    out = {}
    power, l = one, 0
    while any(power):
        out[-(l + 1)] = frac_scale(power, Fraction((-1) ** l, m ** (l + 1)))
        power = frac_mul(table, power, D)
        l += 1
    return out


def gkz_coefficient(ring, beta):
    """Naive hbar-Laurent coefficient of q^beta in the reduced series.

    Every factor of every ray is expanded from its definition in Fraction
    arithmetic: ``prod_{m=1..d} (D + m hbar)^(-1)`` for ``d > 0`` and
    ``D prod_{m=d+1..-1} (D + m hbar)`` for ``d < 0``.
    """
    table = mult_table(ring)
    one = ring.one().coeffs
    out = {0: one}
    for rho, d in enumerate(beta):
        D = divisor_class(ring, rho).coeffs
        if d > 0:
            for m in range(1, d + 1):
                out = laurent_mul(table, out, geometric(table, one, D, m))
        elif d < 0:
            out = laurent_mul(table, out, {0: D})
            for m in range(d + 1, 0):
                out = laurent_mul(table, out, {0: D, 1: frac_scale(one, m)})
    return to_hlaurent(ring, out)


def reconstruct_coefficient(ring, table, beta):
    """Round-trip check: rebuild the q^beta coefficient from the table."""
    _, duals = poincare_dual_basis(ring)
    out = HLaurent(ring)
    for (a, k, b), val in table.entries.items():
        if b == tuple(beta):
            out = out + HLaurent.of_class(duals[a].scale(val), -k - 1)
    return out


def variable_class(ring, j):
    """Class of the j-th surviving variable."""
    return ring.from_poly(P.pvar(len(ring.surviving), j))


def max_power(h):
    return max(h.terms) if h.terms else None


def random_coeffs(rng, dim):
    """Seeded random Fraction coefficients, about a third of them zero."""
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 if rng.random() < 0.65 else Fraction(0) for _ in range(dim))


def random_laurent(rng, dim):
    """Fraction form of a random Laurent polynomial with up to 4 terms."""
    powers = rng.sample(range(-6, 3), rng.randint(0, 4))
    f = {k: random_coeffs(rng, dim) for k in powers}
    return {k: v for k, v in f.items() if any(v)}


HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def cycle_fan(name, rays):
    n = len(rays)
    return make_fan(2, rays, [(i, (i + 1) % n) for i in range(n)], name=name)


def dp6():
    return cycle_fan("dP6", HEXAGON)


def wdp5():
    return cycle_fan("wdP5", [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0),
                              (-1, -1), (0, -1)])


def p1xdp6():
    rays = [(a, b, 0) for a, b in HEXAGON] + [(0, 0, 1), (0, 0, -1)]
    return make_fan(3, rays, [(i, (i + 1) % 6, pole)
                              for i in range(6) for pole in (6, 7)],
                    name="P1xdP6")


def p2xp2():
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0),
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1)]
    tri = [(0, 1), (1, 2), (0, 2)]
    return make_fan(4, rays, [a + tuple(3 + j for j in b)
                              for a in tri for b in tri], name="P2xP2")


# the fans the kernel is checked on: the catalog, the hexagon, two
# products and wdP5, whose structure constants have denominator 2
KERNEL_FANS = dict(
    [(name, lambda name=name: builtin_fan(name)) for name in sorted(CATALOG)]
    + [("dP6", dp6), ("P2xP2", p2xp2), ("P1xdP6", p1xdp6), ("wdP5", wdp5)])
