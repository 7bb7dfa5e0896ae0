"""Fans of smooth complete toric varieties.

A fan is given by its primitive ray generators and the index sets of its
maximal cones; for the smooth complete simplicial fans handled here every
maximal cone has exactly ``dim`` rays forming a lattice basis.  Validation is
split in two: smoothness (per-cone unimodularity) and completeness (the
closed-wall criterion: every wall lies in exactly two maximal cones and the
wall-adjacency graph is connected, which characterizes completeness for pure
full-dimensional simplicial fans).
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from . import lattice


class ValidationError(ValueError):
    """Structural fan invariant violated at ingestion."""


class NotInSupport(ValueError):
    """Vector outside the fan's support (impossible for complete fans)."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Fan:
    """Immutable fan: primitive rays plus maximal-cone ray-index sets (0-based)."""

    dim: int
    rays: tuple
    max_cones: tuple
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dimension must be positive")
        for u in self.rays:
            if len(u) != self.dim:
                raise ValidationError(f"ray {u} has wrong length")
            if not all(isinstance(x, int) for x in u):
                raise ValidationError(f"non-integer ray entry in {u}")
            g = gcd(*u)
            if g != 1:
                raise ValidationError(f"ray {u} is not primitive (gcd {g})")
        if len(set(self.rays)) != len(self.rays):
            raise ValidationError("duplicate rays")
        covered = set()
        for cone in self.max_cones:
            if len(set(cone)) != len(cone):
                raise ValidationError(f"repeated ray index in cone {cone}")
            if len(cone) != self.dim:
                raise ValidationError(
                    f"maximal cone {cone} has {len(cone)} rays, expected {self.dim}")
            for i in cone:
                if not 0 <= i < len(self.rays):
                    raise ValidationError(f"cone {cone} references missing ray {i}")
            covered.update(cone)
        if covered != set(range(len(self.rays))):
            missing = sorted(set(range(len(self.rays))) - covered)
            raise ValidationError(f"rays {missing} appear in no maximal cone")

    @property
    def n_rays(self):
        return len(self.rays)

    def cone_rays(self, cone):
        return [list(self.rays[i]) for i in cone]


def make_fan(dim, rays, max_cones, name=""):
    """Build a Fan with canonicalized (sorted) cone index sets."""
    cones = tuple(sorted(tuple(sorted(c)) for c in max_cones))
    return Fan(dim=dim, rays=tuple(tuple(u) for u in rays), max_cones=cones, name=name)


def validate_smooth(fan):
    """Every maximal cone's rays must form a ZZ-basis (determinant +-1)."""
    for cone in fan.max_cones:
        mat = fan.cone_rays(cone)
        d = lattice.det_int(mat)
        if abs(d) != 1:
            return ValidationReport(
                False, f"cone {tuple(i + 1 for i in cone)} has determinant {d}")
    return ValidationReport(True)


def validate_complete(fan):
    """Closed-wall criterion for completeness of a pure simplicial fan."""
    walls = {}
    for ci, cone in enumerate(fan.max_cones):
        for wall in combinations(cone, fan.dim - 1):
            walls.setdefault(wall, []).append(ci)
    for wall, cones in sorted(walls.items()):
        if len(cones) != 2:
            return ValidationReport(
                False,
                f"wall {tuple(i + 1 for i in wall)} lies in {len(cones)} "
                f"maximal cone(s), expected 2")
    # connectivity of the wall-adjacency graph
    if fan.max_cones:
        adj = {i: set() for i in range(len(fan.max_cones))}
        for cones in walls.values():
            a, b = cones
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(fan.max_cones):
            return ValidationReport(False, "maximal cones are not wall-connected")
    return ValidationReport(True)


def minimal_cone_containing(fan, v):
    """The unique cone with v in its relative interior, plus coefficients.

    Returns ``(ray_indices, coeffs)`` with all coefficients positive integers
    (smoothness makes the coordinates integral) and
    ``v == sum(c * u_rho)``.  The zero vector yields ``((), ())``.
    """
    if all(x == 0 for x in v):
        return (), ()
    for cone in fan.max_cones:
        coords = lattice.solve_in_basis(fan.cone_rays(cone), list(v))
        if all(c >= 0 for c in coords):
            support = tuple(i for i, c in zip(cone, coords) if c > 0)
            coeffs = tuple(c for c in coords if c > 0)
            return support, coeffs
    raise NotInSupport(f"{v} lies in no maximal cone")
