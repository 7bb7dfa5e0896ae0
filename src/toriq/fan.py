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
cohomology ring and the curve-class lattice are read in: its one integer
matrix is the curve-class basis, and its columns are the rays' Kirwan
lifts.  Each maximal cone's ray matrix is inverted once
(``Fan.cone_inverses``), its only solver: smoothness, wall sides and
coordinates on its rays are read from it.
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
    """Immutable fan: primitive rays plus sorted maximal cones (0-based)."""

    def __new__(cls, dim, rays, max_cones, name=""):
        if type(dim) is not int or dim < 1:
            raise ValidationError(
                f"dimension must be positive and integral, got {dim!r}")
        for u in rays:
            if len(u) != dim:
                raise ValidationError(f"ray {u} has wrong length")
            if not all(type(x) is int for x in u):    # not bool, not float
                raise ValidationError(f"non-integer ray entry in {u}")
            g = gcd(*u)
            if g != 1:
                raise ValidationError(f"ray {u} is not primitive (gcd {g})")
        if len(set(rays)) != len(rays):
            raise ValidationError("duplicate rays")
        covered = set()
        for k, cone in enumerate(max_cones, 1):
            bad = [i for i in cone if type(i) is not int]
            if bad:
                raise ValidationError(
                    f"maximal cone {k} has non-integer ray index {bad[0]!r}")
            label = tuple(i + 1 for i in cone)
            if len(set(cone)) != len(cone):
                raise ValidationError(f"repeated ray index in cone {label}")
            if len(cone) != dim:
                raise ValidationError(
                    f"maximal cone {label} has {len(cone)} rays, expected {dim}")
            for i in cone:
                if not 0 <= i < len(rays):
                    raise ValidationError(
                        f"cone {label} references missing ray {i + 1}")
            covered.update(cone)
        if covered != set(range(len(rays))):
            missing = [i + 1 for i in range(len(rays)) if i not in covered]
            raise ValidationError(f"rays {missing} appear in no maximal cone")
        cones = tuple(sorted(tuple(sorted(c)) for c in max_cones))
        return super().__new__(cls, dim, rays, cones, name)

    @property
    def n_rays(self):
        return len(self.rays)

    def cone_rays(self, cone):
        return [list(self.rays[i]) for i in cone]

    @cached_property
    def cone_inverses(self):
        """Maximal cone -> ``lattice.invert_int`` of its ray matrix (rays as
        columns), once per Fan: ``(rows, d)``, ``d == 1`` when smooth, None
        when singular.  Read by ``validate_smooth``, ``validate_complete``
        and ``coordinates``."""
        return {cone: lattice.invert_int(list(zip(*self.cone_rays(cone))))
                for cone in self.max_cones}

    @cached_property
    def chart(self):
        """The maximal cone ``sigma0``, the surviving rays, and the curve
        basis, computed once per Fan.

        ``sigma0`` is the cone whose complement, the ascending ``surviving``,
        is lexicographically least.  The divisors of the surviving rays are a
        basis of the Picard group, and a curve class is fixed by its entries
        on the same rays (Cox, Little and Schenck, *Toric Varieties*, 2011,
        4.1).  The value is ``(sigma0, surviving, basis)``: ``basis[j]`` is
        the curve class with 1 on ``surviving[j]``, 0 on the other surviving
        rays and minus ``u_j``'s coordinates on ``sigma0``'s rays.  Column
        ``rho`` of ``basis`` is ``D_rho``'s Kirwan lift over the surviving
        divisors.  Raises ``ValidationError`` unless ``sigma0`` is smooth.
        """
        surviving, sigma0 = min(
            (tuple(i for i in range(self.n_rays) if i not in cone), cone)
            for cone in self.max_cones)
        _check_smooth(self, sigma0)
        basis = []
        for s in surviving:
            b = [int(i == s) for i in range(self.n_rays)]
            for i, x in zip(sigma0, self.coordinates(sigma0, self.rays[s])):
                b[i] = -x
            basis.append(tuple(b))
        return sigma0, surviving, tuple(basis)

    @cached_property
    def faces(self):
        """The cones of the fan as ascending ray-index tuples, once per Fan."""
        return {face for cone in self.max_cones
                for k in range(len(cone) + 1) for face in combinations(cone, k)}

    def coordinates(self, cone, v):
        """Coordinates of ``v`` on a maximal cone's rays, times its ``d > 0``:
        exact if smooth, signed if not; NonIntegralCoefficient if singular."""
        if self.cone_inverses[cone] is None:
            raise NonIntegralCoefficient(f"the cone {cone} is singular")
        return [sum(map(mul, row, v)) for row in self.cone_inverses[cone][0]]


def make_fan(dim, rays, max_cones, name=""):
    """Build a Fan from lists: rays and cones become tuples."""
    return Fan(dim, tuple(map(tuple, rays)), tuple(map(tuple, max_cones)), name)


def validate_smooth(fan):
    """Check that every maximal cone's inverse exists and is integral.

    Raises ``ValidationError("fan is not smooth: ...")`` naming the first cone
    that fails and its determinant; returns nothing.
    """
    for cone in fan.max_cones:
        _check_smooth(fan, cone)


def _check_smooth(fan, cone):
    if fan.cone_inverses[cone] is None or fan.cone_inverses[cone][1] != 1:
        raise ValidationError(
            f"fan is not smooth: cone {tuple(i + 1 for i in cone)} "
            f"has determinant {lattice.det_int(fan.cone_rays(cone))}")


def validate_complete(fan):
    """Check completeness of a pure simplicial fan by the closed-wall criterion.

    Every wall must lie in exactly two maximal cones, on opposite sides of it
    (the second cone's remaining ray has a negative coordinate on the first
    cone's), and the wall-adjacency graph must be connected.  Such
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
        for k in range(fan.dim):
            walls.setdefault(cone[:k] + cone[k + 1:], []).append((ci, k))
    for wall, cones in sorted(walls.items()):
        name = tuple(i + 1 for i in wall)
        if len(cones) != 2:
            raise ValidationError(
                f"fan is not complete: wall {name} lies in {len(cones)} "
                f"maximal cone(s), expected 2")
        (a, k), (b, j) = cones
        cone, u = fan.max_cones[a], fan.rays[fan.max_cones[b][j]]
        if fan.cone_inverses[cone] is None or fan.coordinates(cone, u)[k] >= 0:
            raise ValidationError(
                f"fan is not complete: the cones at wall {name} overlap")
    # connectivity of the wall-adjacency graph
    adj = {i: set() for i in range(len(fan.max_cones))}
    for (a, _), (b, _) in walls.values():
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
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
