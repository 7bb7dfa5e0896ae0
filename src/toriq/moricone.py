"""Primitive collections, the Mori cone, and effective curve classes.

Curve classes are kept basis-free as integer vectors ``(b_rho)`` indexed by
rays, living in the kernel lattice of the ray matrix (``sum b_rho u_rho = 0``);
the pairing of a class with the divisor ``D_rho`` is read off as ``b_rho``.
A primitive collection ``P`` (minimal non-face of the fan's cone complex,
listed once per fan by ``Fan.primitive_collections``) produces the
relation ``sum_{rho in P} u_rho = sum_{rho in gamma(1)} c_rho u_rho`` and
hence the primitive class with entries 1 on ``P``, ``-c_rho`` on
``gamma(1)`` and 0 elsewhere.  The Mori cone is generated by these classes;
semipositivity means the anticanonical divisor ``sum D_rho`` pairs >= 0 with
each of them.  When the cone is simplicial, ``MoriData.generator_inverse``
reads a class's coordinates over the generators from its chart coordinates.

Effective classes up to an ell-cutoff are the lattice points of a bounded
polytope in the chart coordinates of ``Fan.chart``: a class is fixed by its
entries on the rays outside ``sigma0``, its coordinates over the chart's
curve basis.  They are enumerated by a depth-first walk whose
per-coordinate ranges come from exact Fourier-Motzkin projections of that
polytope, so the work follows the number of classes, not the volume
of a bounding box.  Imbert's rule (Imbert, "Fourier's elimination: which to
choose?", 1993), a sharper Chernikov's rule (Chernikov 1965; Kohler 1967),
keeps the projections small: a row combining more given rows than one plus
the eliminated variables they involve is redundant, so it is never formed.
The same walk searches for the smallest positive functional.
"""

from collections import namedtuple
from functools import cached_property
from itertools import count
from math import gcd

from . import lattice
from .fan import NonIntegralCoefficient, minimal_cone_containing


class KernelCheckFailed(AssertionError):
    """Alleged curve class pairs nontrivially with the lattice (internal bug)."""


class NoPositiveFunctional(ValueError):
    """Mori cone is not strictly convex: the fan is not projective."""


class PrimitiveCollection(namedtuple("PrimitiveCollection", (
        "rays",          # index set P
        "gamma",         # ray indices of the minimal cone of sum(u_rho)
        "coeffs"))):     # positive integers aligned with gamma
    """A minimal non-face with its relation data filled in."""

    __slots__ = ()


class Witness(namedtuple("Witness", (
        "degrees",       # b_rho per ray
        "pattern",       # per ray: "linear" | "zero" | "constant"
        "sigma_max"))):  # a maximal cone containing gamma
    """Line-bundle/section data realizing a primitive class by a quasimap."""

    __slots__ = ()


class MoriData(namedtuple("MoriData", (
        "fan",
        "collections",   # PrimitiveCollection, canonical order
        "generators",    # primitive classes, aligned with collections
        "ell",           # strictly positive integral functional on the cone
        "semipositive"))):

    def ell_of(self, beta):
        return sum(a * b for a, b in zip(self.ell, beta))

    @cached_property
    def generator_inverse(self):
        """Inverse of the generators' chart coordinates as ``(rows, d)``, or
        None.

        Row i, spread over all rays with zeros on ``sigma0``'s, dotted with a
        class of the curve lattice (which its chart coordinates fix) gives
        ``d`` times the class's coordinate on generator i.  None unless the
        Mori cone is simplicial.  Computed once per MoriData.
        """
        surviving = self.fan.chart[1]
        gens = self.generators
        inv = len(gens) == len(surviving) and lattice.invert_int(
            [[g[j] for g in gens] for j in surviving])
        if not inv:
            return None
        pos = {j: k for k, j in enumerate(surviving)}
        return tuple(tuple(row[pos[j]] if j in pos else 0
                           for j in range(self.fan.n_rays))
                     for row in inv[0]), inv[1]


def primitive_relation(fan, P):
    """Fill in the minimal cone and coefficients for a primitive collection."""
    total = [sum(fan.rays[i][k] for i in P) for k in range(fan.dim)]
    gamma, coeffs = minimal_cone_containing(fan, total)
    if set(P) & set(gamma):
        raise NonIntegralCoefficient(
            f"collection {P} meets its minimal cone {gamma}; fan is not smooth")
    return PrimitiveCollection(rays=tuple(P), gamma=gamma, coeffs=coeffs)


def primitive_class(fan, pc):
    """Coefficient vector of the primitive relation, verified to be a relation."""
    b = [0] * fan.n_rays
    for i in pc.rays:
        b[i] = 1
    for i, c in zip(pc.gamma, pc.coeffs):
        b[i] = -c
    for k in range(fan.dim):
        if sum(b[i] * fan.rays[i][k] for i in range(fan.n_rays)) != 0:
            raise KernelCheckFailed(f"{b} is not a relation among the rays")
    return tuple(b)


def _binomial_exponents(beta):
    """A class's ``(beta+, beta-)``: per ray ``max(b, 0)`` and ``max(-b, 0)``,
    the exponents of its relation ``x^(beta+) - q^beta x^(beta-)``."""
    return tuple(max(b, 0) for b in beta), tuple(max(-b, 0) for b in beta)


# --- exact linear programming (Fourier-Motzkin) ------------------------------


def _given(rows):
    """Rows ``(a, c)`` as ``_fm_eliminate``'s rows: row i's history is bit i."""
    return [(a, c, 1 << i, sum(1 << j for j, x in enumerate(a) if x))
            for i, (a, c) in enumerate(rows)]


def _fm_eliminate(system, k, eliminated):
    """One Fourier-Motzkin step on rows ``(a, c, history, support)``: drop
    ``x_k``.

    A row stands for ``a . x >= c``; its history is the bit mask of the
    given rows it combines, its support that of the variables they involve.
    Returns the rows without ``x_k`` (those with ``a[k] == 0`` followed by
    one positive combination per lower/upper pair) and the rows bounding
    ``x_k`` from below (``a[k] > 0``) and from above (``a[k] < 0``).
    ``eliminated`` masks the variables eliminated so far, ``x_k`` included
    (``-1 << k`` when they go from the last down).  By Imbert's first
    acceleration theorem a combination of more given rows than one plus the
    eliminated variables of its support is redundant in the projection, so
    it is not formed; this drops every pair that Chernikov's rule drops.
    """
    keep, lower, upper = [], [], []
    for row in system:
        a = row[0]
        if a[k] == 0:
            keep.append(row)
        elif a[k] > 0:
            lower.append(row)   # x_k >= (c - rest)/a_k
        else:
            upper.append(row)
    for al, cl, hl, sl in lower:
        for au, cu, hu, su in upper:
            h, s = hl | hu, sl | su
            if h.bit_count() > (s & eliminated).bit_count() + 1:
                continue
            coeff = [al[j] * (-au[k]) + au[j] * al[k] for j in range(len(al))]
            keep.append((coeff, cl * (-au[k]) + cu * al[k], h, s))
    return keep, lower, upper


def positive_functional(generators, nvars):
    """The smallest integral ell with ell . beta >= 1 for every generator.

    Smallest means minimal sup-norm, then minimal 1-norm, then
    lexicographically least -- a deterministic tie-break.  A rational
    Fourier-Motzkin projection of ``{g . ell >= 1}`` (Imbert's rule) decides
    whether ell exists; if it does, the lattice points of that system in the
    boxes ``[-k, k]^nvars`` are searched for ``k = 1, 2, ...``.  Raises
    NoPositiveFunctional when the cone is not strictly convex.
    """
    constraints = [(g, 1) for g in generators]
    system = _given(constraints)
    for k in range(nvars - 1, -1, -1):
        system = _fm_eliminate(system, k, -1 << k)[0]
    if any(row[1] > 0 for row in system):
        raise NoPositiveFunctional(
            "no functional is >= 1 on all Mori generators; fan is not projective")
    # a rational ell scales to an integral one, so some box holds a point;
    # none has sup-norm below k, so every point found has norm k
    axes = [tuple(sign * int(i == j) for i in range(nvars))
            for j in range(nvars) for sign in (1, -1)]
    for k in count(1):
        box = [(e, -k) for e in axes]          # -k <= ell_i <= k
        points = _lattice_points(constraints + box, nvars, axes[::2])
        if points:
            return min(points, key=lambda p: (sum(abs(x) for x in p), p))


def mori_data(fan):
    """All primitive classes, a positive functional, and the nef-ness flag."""
    cols = [primitive_relation(fan, P) for P in fan.primitive_collections]
    gens = tuple(primitive_class(fan, pc) for pc in cols)
    ell = positive_functional(gens, fan.n_rays)
    semipositive = all(sum(g) >= 0 for g in gens)
    return MoriData(fan=fan, collections=tuple(cols), generators=gens,
                    ell=tuple(ell), semipositive=semipositive)


# --- effective class enumeration ---------------------------------------------


def _facet_normals(vectors, r):
    """Inward facet normals of the full-dimensional pointed cone(vectors).

    Double description (Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda
    and Prodon, "Double description method revisited", 1996) on the dual
    cone ``{f : f . v >= 0 for every v}``, whose extreme rays are the facet
    normals.  The first ``r`` independent generators cut out a simplicial
    cone whose rays are the columns of their inverse matrix; the other
    generators are added one at a time.  A ray on the negative side of the
    new generator is dropped, after it is combined with every ray on the
    positive side adjacent to it.  Adjacency is combinatorial: the two zero
    sets (bit masks over the generators) share at least ``r - 2`` members,
    and no third ray's zero set contains the shared ones.  Rays are kept
    primitive and integral.
    """
    start = lattice.independent(vectors)
    assert len(start) == r, "the Mori cone must span the curve-class lattice"
    inv = lattice.invert_int([list(vectors[i]) for i in start])[0]
    rays = []
    for j in range(r):
        f = lattice.primitive_vector([inv[i][j] for i in range(r)])
        rays.append((f, sum(1 << k for i, k in enumerate(start) if i != j)))
    for k, v in enumerate(vectors):
        if k in start:
            continue
        pos, neg, kept = [], [], []
        for f, z in rays:
            d = sum(a * b for a, b in zip(f, v))
            if d > 0:
                pos.append((f, z, d))
                kept.append((f, z))
            elif d < 0:
                neg.append((f, z, d))
            else:
                kept.append((f, z | 1 << k))
        for fp, zp, dp in pos:
            for fn, zn, dn in neg:
                common = zp & zn
                if common.bit_count() < r - 2 or sum(
                        z & common == common for _, z in rays) > 2:
                    continue
                g = [dp * a - dn * b for a, b in zip(fn, fp)]
                kept.append((lattice.primitive_vector(g), common | 1 << k))
        rays = kept
    return sorted(set(tuple(f) for f, _ in rays))


def _lattice_points(rows, r, lift):
    """Images under ``lift`` of the integer points of ``a . y >= c`` in ZZ^r.

    Eliminates ``y_{r-1}``, then ``y_{r-2}``, down to ``y_0`` by
    Fourier-Motzkin.  Level ``k`` holds the rows of the projection onto
    ``y_0..y_k`` that involve ``y_k``, split into lower and upper bounds.
    Rows are ``(a, c, history, support)``, and ``_fm_eliminate``'s Imbert
    rule leaves out every combination of more given rows than one plus the
    eliminated variables they involve, which keeps the levels small.  Every
    derived row is divided by the gcd of its coefficients with the constant
    rounded up (valid for integer points), and only the strongest row per
    coefficient vector is kept.  A derived row ``0 >= c`` with ``c > 0``
    proves there is no integer point.  Otherwise a depth-first walk takes
    each coordinate's integer range from its level once the earlier ones
    are fixed.  Every given row bounds the coordinate of its
    last nonzero entry, so each point found satisfies the system, and every
    row of a level holds at every integer point, so every point is found.
    The walk carries the image ``sum_a y_a lift[a]`` and every level row's
    residual ``c - sum_{j<k} a_j y_j``.  Images come in ``y``'s lex order.
    """
    # a level row is [c - sum_{j<k} a_j y_j, a_k]; moves[j] pairs the later
    # levels' rows that involve y_j with their a_j
    bounds, moves = [([], []) for _ in range(r)], [[] for _ in range(r)]
    system = _given(rows)
    for k in range(r - 1, -1, -1):
        derived, lower, upper = _fm_eliminate(system, k, -1 << k)
        assert lower and upper, "the system must be bounded"
        for a, c, _, _ in lower + upper:
            row = [c, a[k]]
            bounds[k][a[k] < 0].append(row)
            for j in range(k):
                if a[j]:
                    moves[j].append((row, a[j]))
        strongest = {}
        for a, c, h, s in derived:
            g = gcd(*a)
            if g == 0:
                if c > 0:
                    return []
                continue
            a = tuple(x // g for x in a)
            c = -(-c // g)
            if a not in strongest or c > strongest[a][0]:
                strongest[a] = (c, h, s)
        system = [(a, c, h, s) for a, (c, h, s) in sorted(strongest.items())]
    points = []

    def walk(k, z):
        if k == r:
            points.append(tuple(z))
            return
        lo = max(-(c // -a) for c, a in bounds[k][0])
        hi = min(c // a for c, a in bounds[k][1])
        for v in range(lo, hi + 1):
            for row, a in moves[k]:
                row[0] -= a * v
            walk(k + 1, [x + v * e for x, e in zip(z, lift[k])])
            for row, a in moves[k]:
                row[0] += a * v

    walk(0, [0] * len(lift[0]))
    return points


def enumerate_effective(md, cutoff):
    """All lattice points of the Mori cone with ell-degree <= cutoff.

    Saturated enumeration: lattice points of the rational cone, not just
    semigroup combinations of the generators.  In chart coordinates ``y``
    the points form the polytope ``{f . y >= 0 for every facet normal f,
    ell . y <= cutoff}``, bounded because ``ell`` is positive on the pointed
    cone.  Its Fourier-Motzkin projections give each coordinate an exact
    integer range once the earlier ones are fixed, so a depth-first walk
    visits every lattice point and few others.  Sorted by (ell, lex); the
    zero class comes first.
    """
    fan = md.fan
    zero = (0,) * fan.n_rays
    if cutoff < 0:
        return []
    _, surviving, basis = fan.chart
    r = len(basis)
    ys = [tuple(g[j] for j in surviving) for g in md.generators]
    ell_y = tuple(md.ell_of(b) for b in basis)
    rows = [(f, 0) for f in _facet_normals(ys, r)]
    rows.append((tuple(-x for x in ell_y), -cutoff))
    # each point comes out as (ell, class), its own sort key
    points = sorted(_lattice_points(
        rows, r, [(x,) + b for x, b in zip(ell_y, basis)]))
    assert points and points[0] == (0,) + zero
    return [p[1:] for p in points]


def effectivity_witness(fan, pc):
    """Section pattern realizing the primitive class as a quasimap degree.

    Degree-1 sections on P, zero sections on gamma(1), nonzero constants
    elsewhere; nondegeneracy is anchored at a maximal cone containing gamma,
    which exists by completeness.
    """
    pattern = tuple("linear" if i in pc.rays else "zero" if i in pc.gamma
                    else "constant" for i in range(fan.n_rays))
    sigma_max = next((cone for cone in fan.max_cones
                      if set(pc.gamma) <= set(cone)), None)
    assert sigma_max is not None, "complete fan must have a cone containing gamma"
    return Witness(degrees=primitive_class(fan, pc), pattern=pattern,
                   sigma_max=sigma_max)
