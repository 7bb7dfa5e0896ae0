"""Fans of smooth complete toric varieties.

A fan is given by its primitive ray generators and the index sets of its
maximal cones; for the smooth complete simplicial fans handled here every
maximal cone has exactly ``dim`` rays forming a lattice basis.  A ``Fan`` is
an immutable named tuple that checks the shapes of its fields when built.
Validation is split in two: smoothness (per-cone unimodularity) and
completeness (the closed-wall criterion: every wall lies in exactly two
maximal cones, on opposite sides of it, and the wall-adjacency graph is
connected; then the covering degree: one generic point lies in exactly one
maximal cone).  Each check raises ``ValidationError`` on the first
violation.  ``Fan.chart``, computed once per fan, fixes the cone that the
cohomology ring and the curve-class lattice are read in.  Each maximal
cone's ray matrix is inverted once (``Fan.cone_inverses``), and every
coordinate on a cone's rays is a dot product with a row of its inverse.
``h_vector`` gives the even Betti numbers from the face counts alone.
"""

from collections import Counter, namedtuple
from functools import cached_property
from itertools import combinations
from math import comb, factorial, gcd
from operator import mul

from . import lattice


class ValidationError(ValueError):
    """Structural fan invariant violated at ingestion."""


class NotInSupport(ValueError):
    """Vector outside the fan's support (impossible for complete fans)."""


class NonIntegralCoefficient(ValueError):
    """Relation that a smooth fan would not have: the fan is not smooth."""


class Fan(namedtuple("Fan", "dim rays max_cones name")):
    """Immutable fan: primitive rays plus maximal-cone ray-index sets (0-based)."""

    def __new__(cls, dim, rays, max_cones, name=""):
        if dim < 1:
            raise ValidationError("dimension must be positive")
        for u in rays:
            if len(u) != dim:
                raise ValidationError(f"ray {u} has wrong length")
            if not all(isinstance(x, int) for x in u):
                raise ValidationError(f"non-integer ray entry in {u}")
            g = gcd(*u)
            if g != 1:
                raise ValidationError(f"ray {u} is not primitive (gcd {g})")
        if len(set(rays)) != len(rays):
            raise ValidationError("duplicate rays")
        covered = set()
        for cone in max_cones:
            if len(set(cone)) != len(cone):
                raise ValidationError(f"repeated ray index in cone {cone}")
            if len(cone) != dim:
                raise ValidationError(
                    f"maximal cone {cone} has {len(cone)} rays, expected {dim}")
            for i in cone:
                if not 0 <= i < len(rays):
                    raise ValidationError(f"cone {cone} references missing ray {i}")
            covered.update(cone)
        if covered != set(range(len(rays))):
            missing = sorted(set(range(len(rays))) - covered)
            raise ValidationError(f"rays {missing} appear in no maximal cone")
        return super().__new__(cls, dim, rays, max_cones, name)

    @property
    def n_rays(self):
        return len(self.rays)

    def cone_rays(self, cone):
        return [list(self.rays[i]) for i in cone]

    @cached_property
    def cone_inverses(self):
        """Maximal cone -> ``lattice.invert_int`` of its ray matrix (rays as
        columns): ``(rows, d)`` with ``d == 1`` on a smooth cone, None when
        singular.  Computed once per Fan."""
        return {cone: lattice.invert_int(list(zip(*self.cone_rays(cone))))
                for cone in self.max_cones}

    @cached_property
    def chart(self):
        """The maximal cone ``sigma0``, the surviving rays, and their
        coordinates, computed once per Fan.

        ``sigma0`` is the cone whose complement, the ascending ``surviving``,
        is lexicographically least.  The divisors of the surviving rays are a
        basis of the Picard group, and a curve class is fixed by its entries
        on the same rays (Cox, Little and Schenck, *Toric Varieties*, 2011,
        4.1).  The value is ``(sigma0, surviving, coords)``: ``coords[j]``
        holds the integer coordinates of ray ``surviving[j]`` in the basis
        of ``sigma0``'s rays.  Raises ``ValidationError`` unless ``sigma0``
        is smooth.
        """
        surviving, sigma0 = min(
            (tuple(i for i in range(self.n_rays) if i not in cone), cone)
            for cone in self.max_cones)
        _check_smooth(self, sigma0)
        coords = tuple(tuple(self.coordinates(sigma0, self.rays[j]))
                       for j in surviving)
        return sigma0, surviving, coords

    @cached_property
    def faces(self):
        """The cones of the fan as ray-index tuples, computed once per Fan."""
        return {face for cone in self.max_cones
                for k in range(len(cone) + 1) for face in combinations(cone, k)}

    def coordinates(self, cone, v):
        """Coordinates of ``v`` on the rays of a nonsingular maximal cone,
        times its ``d > 0``: exact on a smooth cone, with their signs on any."""
        return [sum(map(mul, row, v)) for row in self.cone_inverses[cone][0]]


def make_fan(dim, rays, max_cones, name=""):
    """Build a Fan with canonicalized (sorted) cone index sets."""
    cones = tuple(sorted(tuple(sorted(c)) for c in max_cones))
    return Fan(dim=dim, rays=tuple(tuple(u) for u in rays), max_cones=cones, name=name)


def validate_smooth(fan):
    """Check that every maximal cone's rays form a ZZ-basis (determinant +-1).

    Raises ``ValidationError("fan is not smooth: ...")`` naming the first cone
    that fails; returns nothing.
    """
    for cone in fan.max_cones:
        _check_smooth(fan, cone)


def _check_smooth(fan, cone):
    d = lattice.det_int(fan.cone_rays(cone))
    if abs(d) != 1:
        raise ValidationError(
            f"fan is not smooth: cone {tuple(i + 1 for i in cone)} "
            f"has determinant {d}")


def validate_complete(fan):
    """Check completeness of a pure simplicial fan by the closed-wall criterion.

    Every wall must lie in exactly two maximal cones, on opposite sides of it
    (the determinants of the wall's rays plus each cone's remaining ray have
    opposite signs), and the wall-adjacency graph must be connected.  Such
    cones cover space a whole number of times (a cycle of 2-D cones can wind
    twice around the origin), so exactly one maximal cone must contain a
    generic point in its interior.  Raises ``ValidationError("fan is not
    complete: ...")`` naming the first wall that fails or the covering
    degree; returns nothing.
    """
    if not fan.max_cones:
        raise ValidationError("fan is not complete: no maximal cones")
    walls = {}
    for ci, cone in enumerate(fan.max_cones):
        for wall in combinations(cone, fan.dim - 1):
            walls.setdefault(wall, []).append(ci)
    for wall, cones in sorted(walls.items()):
        name = tuple(i + 1 for i in wall)
        if len(cones) != 2:
            raise ValidationError(
                f"fan is not complete: wall {name} lies in {len(cones)} "
                f"maximal cone(s), expected 2")
        sides = [lattice.det_int(fan.cone_rays(wall) + [list(fan.rays[i])])
                 for ci in cones for i in fan.max_cones[ci] if i not in wall]
        if sides[0] * sides[1] >= 0:
            raise ValidationError(
                f"fan is not complete: the cones at wall {name} overlap")
    # connectivity of the wall-adjacency graph
    adj = {i: set() for i in range(len(fan.max_cones))}
    for a, b in walls.values():
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
        raise ValidationError(
            "fan is not complete: maximal cones are not wall-connected")
    # The cones now cover space some whole number of times without folds;
    # count those whose interior holds a point on no wall's span.  A wall's
    # normal has entries at most (dim-1)! R^(dim-1), R the largest ray
    # entry, so by Cauchy's root bound (1, n, ..., n^(dim-1)) lies off every
    # wall once n exceeds that plus 1.
    big = max(abs(x) for u in fan.rays for x in u)
    n = factorial(fan.dim - 1) * big ** (fan.dim - 1) + 2
    point = [n ** k for k in range(fan.dim)]
    degree = sum(all(c > 0 for c in fan.coordinates(cone, point))
                 for cone in fan.max_cones)
    if degree != 1:
        raise ValidationError(
            f"fan is not complete: its cones cover space {degree} times, "
            f"expected once")


def h_vector(fan):
    """``h_k = sum_{i<=k} (-1)^(k-i) C(n-i, k-i) f_i``, ``f_i`` the number of
    cones with ``i`` rays: the dimension of ``H^{2k}`` for a smooth complete
    fan (Danilov, "The geometry of toric varieties", 1978)."""
    n, f = fan.dim, Counter(map(len, fan.faces))
    return [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i]
                for i in range(k + 1)) for k in range(n + 1)]


def minimal_cone_containing(fan, v):
    """The unique cone with v in its relative interior, plus coefficients.

    Returns ``(ray_indices, coeffs)`` with all coefficients positive integers
    and ``v == sum(c * u_rho)``.  The zero vector yields ``((), ())``.
    Raises ``NonIntegralCoefficient`` when the maximal cone holding ``v``
    is not smooth, so that its coordinates need not be integers.
    """
    if all(x == 0 for x in v):
        return (), ()
    for cone in fan.max_cones:
        coords = fan.coordinates(cone, v)
        if all(c >= 0 for c in coords):
            if fan.cone_inverses[cone][1] != 1:
                raise NonIntegralCoefficient(
                    f"{v} lies in the cone {cone}, which is not smooth")
            support = tuple(i for i, c in zip(cone, coords) if c > 0)
            coeffs = tuple(c for c in coords if c > 0)
            return support, coeffs
    raise NotInSupport(f"{v} lies in no maximal cone")
