"""Fans, the seeded change of lattice coordinates, and the three workloads.

The fans are defined here, not read from ``toriq.catalog``, so that a change
to the program cannot change the benchmark's inputs.  Each is given by its
rays and its maximal cones (0-based ray indices).  ``factors`` lists, for a
product of projective spaces, the ray groups of the factors; the output
checks use it for the closed-form series coefficients.
"""

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class FanDef:
    name: str
    dim: int
    rays: tuple
    cones: tuple
    factors: tuple = ()


def _cycle(name, rays):
    """A complete 2-dimensional fan whose cones are consecutive ray pairs."""
    n = len(rays)
    return FanDef(name, 2, tuple(rays),
                  tuple((i, (i + 1) % n) for i in range(n)))


def _hirzebruch(a):
    return FanDef(f"F{a}", 2, ((1, 0), (0, 1), (-1, a), (0, -1)),
                  ((0, 1), (1, 2), (2, 3), (3, 0)),
                  ((0, 2), (1, 3)) if a == 0 else ())


def _p1xdp6():
    hexagon = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    rays = tuple((a, b, 0) for a, b in hexagon) + ((0, 0, 1), (0, 0, -1))
    cones = tuple((i, (i + 1) % 6, pole) for i in range(6) for pole in (6, 7))
    return FanDef("P1xdP6", 3, rays, cones)


def _p2xp2():
    rays = ((1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0),
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1))
    tri = ((0, 1), (1, 2), (0, 2))
    cones = tuple(a + tuple(3 + i for i in b) for a in tri for b in tri)
    return FanDef("P2xP2", 4, rays, cones, ((0, 1, 2), (3, 4, 5)))


FANS = {f.name: f for f in (
    FanDef("P1", 1, ((1,), (-1,)), ((0,), (1,)), ((0, 1),)),
    FanDef("P2", 2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)),
           ((0, 1, 2),)),
    FanDef("P1xP1", 2, ((1, 0), (0, 1), (-1, 0), (0, -1)),
           ((0, 1), (1, 2), (2, 3), (3, 0)), ((0, 2), (1, 3))),
    _hirzebruch(0), _hirzebruch(1), _hirzebruch(2), _hirzebruch(3),
    FanDef("P1xP2", 3,
           ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
           ((0, 2, 3), (0, 3, 4), (0, 2, 4), (1, 2, 3), (1, 3, 4), (1, 2, 4)),
           ((0, 1), (2, 3, 4))),
    FanDef("BlP2", 2, ((1, 0), (0, 1), (-1, -1), (1, 1)),
           ((0, 3), (1, 3), (1, 2), (0, 2))),
    _cycle("dP6", ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))),
    _cycle("wdP5", ((1, 0), (2, 1), (1, 1), (0, 1), (-1, 0), (-1, -1),
                    (0, -1))),
    _cycle("wdP4", ((1, 0), (2, 1), (1, 1), (0, 1), (-1, 0), (-1, -1),
                    (-1, -2), (0, -1))),
    # the 9 boundary lattice points of conv{(-1,-1),(2,-1),(-1,2)}, in
    # angular order
    _cycle("wdP3", ((1, 0), (0, 1), (-1, 2), (-1, 1), (-1, 0), (-1, -1),
                    (0, -1), (1, -1), (2, -1))),
    _p1xdp6(),
    _p2xp2(),
)}

CATALOG_ORDER = ("P1", "P2", "P1xP1", "F0", "F1", "F2", "F3", "P1xP2", "BlP2")
COMMANDS = ("analyze", "ifunction", "certify")
# `certify` exits 3 (hypothesis unmet) on these; the checks confirm from the
# generators that they are not semipositive.
NOT_SEMIPOSITIVE = ("F3",)


@dataclass(frozen=True)
class Case:
    command: str
    fan: str
    cutoff: int

    @property
    def key(self):
        return f"{self.command}:{self.fan}:{self.cutoff}"


# Each workload lists its cases in the order one round runs them.  A fan's
# `analyze` comes before its other commands: the `ifunction` checks read the
# positive functional from that report.  A case listed several times runs
# several times per round; the short `analyze` cases of series-deep do, so
# that their median rests on more than one sample per round.
WORKLOADS = {
    "catalog-sweep": tuple(Case(c, f, 3)
                           for f in CATALOG_ORDER for c in COMMANDS),
    "series-deep": tuple(case for f, k in (("dP6", 6), ("P2xP2", 8))
                         for case in (Case("analyze", f, k),) * 5
                         + (Case("ifunction", f, k), Case("certify", f, k))),
    "picard-wide": tuple(Case("analyze", f, 3) for f in ("wdP5", "wdP4", "wdP3"))
    + tuple(Case(c, "P1xdP6", 3) for c in COMMANDS),
}

# The reports of these workloads are also compared with the reports for the
# untransformed builtin fans.
INVARIANCE_WORKLOADS = ("catalog-sweep",)


def unimodular(rng, dim):
    """A random matrix in GL(dim, Z): a signed permutation times shears."""
    perm = list(range(dim))
    rng.shuffle(perm)
    M = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(dim)]
         for i in range(dim)]
    for _ in range(2 * dim if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    return M


def transforms(seed):
    """One unimodular matrix per dimension, drawn from the seed."""
    rng = random.Random(seed)
    return {d: unimodular(rng, d) for d in (1, 2, 3, 4)}


def transformed(fan, M):
    """The same fan in new lattice coordinates; ray and cone order are kept."""
    rays = tuple(tuple(sum(M[i][k] * u[k] for k in range(fan.dim))
                       for i in range(fan.dim)) for u in fan.rays)
    return FanDef(fan.name, fan.dim, rays, fan.cones, fan.factors)


def fan_file_data(fan):
    return {"dim": fan.dim, "rays": [list(u) for u in fan.rays],
            "max_cones": [[i + 1 for i in c] for c in fan.cones],
            "name": fan.name}


def write_fans(workload, seed, out_dir):
    """Write the workload's fans, transformed by the seed; return name -> (FanDef, path)."""
    mats = transforms(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for case in WORKLOADS[workload]:
        if case.fan in written:
            continue
        fan = transformed(FANS[case.fan], mats[FANS[case.fan].dim])
        path = out_dir / f"{fan.name}.json"
        path.write_text(json.dumps(fan_file_data(fan)) + "\n")
        written[case.fan] = (fan, path)
    return written
