"""Primitive collections, the Mori cone, and effective curve classes.

Curve classes are kept basis-free as integer vectors ``(b_rho)`` indexed by
rays, living in the kernel lattice of the ray matrix (``sum b_rho u_rho = 0``);
the pairing of a class with the divisor ``D_rho`` is read off as ``b_rho``.
A primitive collection ``P`` (minimal non-face of the fan's cone complex)
produces the relation ``sum_{rho in P} u_rho = sum_{rho in gamma(1)} c_rho
u_rho`` and hence the primitive class with entries 1 on ``P``, ``-c_rho`` on
``gamma(1)`` and 0 elsewhere.  The Mori cone is generated by these classes;
semipositivity means the anticanonical divisor ``sum D_rho`` pairs >= 0 with
each of them.  When the cone is simplicial, ``MoriData.generator_inverse``
reads a class's coordinates over the generators from its chart coordinates.

Effective classes up to an ell-cutoff are the lattice points of a bounded
polytope in the chart coordinates of ``fan.chart``: a class is fixed by its
entries on the rays outside ``sigma0``.  They are enumerated by a depth-first
walk whose per-coordinate ranges come from exact Fourier-Motzkin projections
of that polytope, so the work follows the number of classes, not the volume
of a bounding box.  Chernikov's rule (Chernikov 1965; Kohler 1967; Imbert,
"Fourier's elimination: which to choose?", 1993) keeps the projections
small: after ``s`` eliminations a row combining more than ``s + 1`` of the
given rows is redundant, so it is never formed.  The same walk searches for
the smallest positive functional.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd

from . import lattice
from .fan import chart, minimal_cone_containing


class NonIntegralCoefficient(ValueError):
    """Primitive relation with fractional coefficients (not a smooth fan)."""


class KernelCheckFailed(AssertionError):
    """Alleged curve class pairs nontrivially with the lattice (internal bug)."""


class NoPositiveFunctional(ValueError):
    """Mori cone is not strictly convex: the fan is not projective."""


@dataclass(frozen=True)
class PrimitiveCollection:
    """A minimal non-face with its relation data filled in."""

    rays: tuple          # index set P
    gamma: tuple         # ray indices of the minimal cone of sum(u_rho)
    coeffs: tuple        # positive integers aligned with gamma


@dataclass(frozen=True)
class Witness:
    """Line-bundle/section data realizing a primitive class by a quasimap."""

    degrees: tuple       # b_rho per ray
    pattern: tuple       # per ray: "linear" | "zero" | "constant"
    sigma_max: tuple     # a maximal cone containing gamma


@dataclass(frozen=True)
class MoriData:
    fan: object
    collections: tuple   # PrimitiveCollection, canonical order
    generators: tuple    # primitive classes, aligned with collections
    ell: tuple           # strictly positive integral functional on the cone
    semipositive: bool

    def ell_of(self, beta):
        return sum(a * b for a, b in zip(self.ell, beta))

    @cached_property
    def generator_inverse(self):
        """Inverse of the generators' chart coordinates, or None.

        Row i, spread over all rays with zeros on ``sigma0``'s, dotted with a
        class of the curve lattice (which its chart coordinates fix) gives
        the class's coordinate on generator i.  None unless the Mori cone is
        simplicial.  Computed once per MoriData.
        """
        surviving = chart(self.fan)[1]
        gens = self.generators
        inv = len(gens) == len(surviving) and lattice.invert_rational(
            [[g[j] for g in gens] for j in surviving])
        if not inv:
            return None
        pos = {j: k for k, j in enumerate(surviving)}
        return tuple(tuple(row[pos[j]] if j in pos else 0
                           for j in range(self.fan.n_rays)) for row in inv)


def primitive_collections(fan):
    """Minimal non-faces of the cone complex, sorted canonically.

    A set is returned iff it is contained in no maximal cone while every
    proper subset is.  Candidates beyond dim+1 elements cannot qualify (their
    big proper subsets are already too large to be faces).
    """
    faces = set()
    for cone in fan.max_cones:
        for k in range(len(cone) + 1):
            faces.update(combinations(cone, k))
    found = []
    for size in range(2, fan.dim + 2):
        for cand in combinations(range(fan.n_rays), size):
            if cand in faces:
                continue
            if all(sub in faces for sub in combinations(cand, size - 1)):
                found.append(cand)
    return sorted(found)


def primitive_relation(fan, P):
    """Fill in the minimal cone and coefficients for a primitive collection."""
    total = [sum(fan.rays[i][k] for i in P) for k in range(fan.dim)]
    gamma, coeffs = minimal_cone_containing(fan, total)
    for c in coeffs:
        if not isinstance(c, int):
            raise NonIntegralCoefficient(f"relation of {P} has coefficient {c}")
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


# --- exact linear programming (Fourier-Motzkin) ------------------------------


def _fm_eliminate(system, k, steps):
    """One Fourier-Motzkin step on rows ``(a, c, history)``: drop ``x_k``.

    A row stands for ``a . x >= c``; its history is the bit mask of the
    original rows it combines.  Returns the rows without ``x_k`` (those with
    ``a[k] == 0`` followed by one positive combination per lower/upper pair)
    and the rows bounding ``x_k`` from below (``a[k] > 0``) and from above
    (``a[k] < 0``).  ``steps`` counts the eliminations so far, this one
    included.  By Chernikov's rule a combination of more than ``steps + 1``
    original rows is redundant in the projection, so it is not formed.
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
    for al, cl, hl in lower:
        for au, cu, hu in upper:
            h = hl | hu
            if h.bit_count() > steps + 1:
                continue
            coeff = [al[j] * (-au[k]) + au[j] * al[k] for j in range(len(al))]
            keep.append((coeff, cl * (-au[k]) + cu * al[k], h))
    return keep, lower, upper


def positive_functional(generators, nvars):
    """The smallest integral ell with ell . beta >= 1 for every generator.

    Smallest means minimal sup-norm, then minimal 1-norm, then
    lexicographically least -- a deterministic tie-break.  A rational
    Fourier-Motzkin projection of ``{g . ell >= 1}`` decides whether ell
    exists; if it does, the lattice points of that system in the boxes
    ``[-k, k]^nvars`` are searched for ``k = 1, 2, ...``.  Raises
    NoPositiveFunctional when the cone is not strictly convex.
    """
    if not generators:
        return (0,) * nvars
    constraints = [(g, 1) for g in generators]
    system = [(g, 1, 1 << i) for i, g in enumerate(generators)]
    for steps, k in enumerate(range(nvars - 1, -1, -1), 1):
        system = _fm_eliminate(system, k, steps)[0]
    if any(c > 0 for _, c, _ in system):
        raise NoPositiveFunctional(
            "no functional is >= 1 on all Mori generators; fan is not projective")
    # a rational ell scales to an integral one, so some box holds a point;
    # none has sup-norm below k, so every point found has norm k
    axes = [tuple(sign * int(i == j) for i in range(nvars))
            for j in range(nvars) for sign in (1, -1)]
    k = 1
    while True:
        box = [(e, -k) for e in axes]          # -k <= ell_i <= k
        points = _lattice_points(constraints + box, nvars)
        if points:
            return min(points, key=lambda p: (sum(abs(x) for x in p), p))
        k += 1


def mori_data(fan):
    """All primitive classes, a positive functional, and the nef-ness flag."""
    cols = [primitive_relation(fan, P) for P in primitive_collections(fan)]
    gens = tuple(primitive_class(fan, pc) for pc in cols)
    ell = positive_functional(gens, fan.n_rays)
    semipositive = all(sum(g) >= 0 for g in gens)
    return MoriData(fan=fan, collections=tuple(cols), generators=gens,
                    ell=tuple(ell), semipositive=semipositive)


# --- effective class enumeration ---------------------------------------------


def _kernel_setup(fan):
    """Basis of the curve-class lattice, one vector per surviving ray.

    The vector of surviving ray ``j`` of ``fan.chart`` is ``e_j`` minus
    ``u_j``'s coordinates placed on ``sigma0``'s rays, so a class's
    coordinates in this basis are its entries on the surviving rays.
    """
    sigma0, surviving, coords = chart(fan)
    basis = []
    for j, c in zip(surviving, coords):
        b = [0] * fan.n_rays
        b[j] = 1
        for i, x in zip(sigma0, c):
            b[i] = -x
        basis.append(b)
    return basis, surviving


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
    start = lattice.rref([list(c) for c in zip(*vectors)])[1]
    inv = lattice.invert_rational([list(vectors[i]) for i in start])
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


def _lattice_points(rows, r):
    """Integer points of the bounded system ``a . y >= c`` in ``ZZ^r``.

    Eliminates ``y_{r-1}``, then ``y_{r-2}``, down to ``y_0`` by
    Fourier-Motzkin.  Level ``k`` holds the rows of the projection onto
    ``y_0..y_k`` that involve ``y_k``, split into lower and upper bounds.
    Chernikov's rule (Chernikov 1965; Imbert, "Fourier's elimination: which
    to choose?", 1993) leaves out every combination of more than ``s + 1``
    given rows after ``s`` eliminations, which keeps the levels small.
    Every derived row is divided by the gcd of its coefficients with the
    constant rounded up (valid for integer points), and only the strongest
    row per coefficient vector is kept.  A derived row ``0 >= c`` with
    ``c > 0`` proves there is no integer point.  Otherwise a depth-first
    walk takes each coordinate's integer range from its level once the
    earlier ones are fixed.  Every given row bounds the coordinate of its
    last nonzero entry, so each point found satisfies the system, and every
    row of a level holds at every integer point, so every point is found.
    Points come in lex order.
    """
    levels = [None] * r
    system = [(a, c, 1 << i) for i, (a, c) in enumerate(rows)]
    for steps, k in enumerate(range(r - 1, -1, -1), 1):
        derived, lower, upper = _fm_eliminate(system, k, steps)
        assert lower and upper, "the system must be bounded"
        levels[k] = (lower, upper)
        strongest = {}
        for a, c, h in derived:
            g = gcd(*a)
            if g == 0:
                if c > 0:
                    return []
                continue
            a = tuple(x // g for x in a)
            c = -(-c // g)
            if a not in strongest or c > strongest[a][0]:
                strongest[a] = (c, h)
        system = [(a, c, h) for a, (c, h) in sorted(strongest.items())]
    points = []
    y = [0] * r

    def walk(k):
        lower, upper = levels[k]
        lo = max(-((c - sum(a[j] * y[j] for j in range(k))) // -a[k])
                 for a, c, _ in lower)
        hi = min((c - sum(a[j] * y[j] for j in range(k))) // a[k]
                 for a, c, _ in upper)
        for v in range(lo, hi + 1):
            y[k] = v
            if k + 1 < r:
                walk(k + 1)
            else:
                points.append(tuple(y))

    walk(0)
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
    basis, surviving = _kernel_setup(fan)
    r = len(basis)
    if r == 0 or not md.generators:
        return [zero]
    ys = [tuple(g[j] for j in surviving) for g in md.generators]
    assert len(lattice.rref([list(y) for y in ys])[1]) == r, \
        "Mori cone of a projective fan must span the curve-class lattice"
    ell_y = tuple(md.ell_of(b) for b in basis)
    rows = [(f, 0) for f in _facet_normals(ys, r)]
    rows.append((tuple(-x for x in ell_y), -cutoff))
    points = []
    for y in _lattice_points(rows, r):
        b = tuple(sum(y[a] * basis[a][i] for a in range(r))
                  for i in range(fan.n_rays))
        points.append((md.ell_of(b), b))
    points.sort()
    assert points and points[0][1] == zero
    return [b for _, b in points]


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
