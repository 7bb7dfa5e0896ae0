"""Test-local oracles: the Fraction arithmetic that the integer kernel replaced,
and the helpers that have no caller in ``toriq`` itself.

``mult_table`` is the dense table of structure constants, which the ring
does not store (it multiplies through its divisor columns): for every basis
pair ``i <= j``, the Fraction coefficients of the normal form of
``basis[i] * basis[j]`` under the test-local ``dp_reduce``, zeros included.
Classes are tuples of Fractions; ``frac_mul`` multiplies two of them through the table as the old
``CohClass.__mul__`` did, and ``frac_add``, ``frac_sub`` and ``frac_scale``
are the old elementwise operations.  A Laurent polynomial is a dict from hbar
powers to such tuples.  ``gkz_coefficient`` is the naive series coefficient,
expanded from its definition in this arithmetic alone.

The Groebner and cone oracles are the routines the engine used before its
work was pruned: ``nullspace_rational`` with ``facet_normals``, which solves
one nullspace per ``(r-1)``-subset of the generators; ``fm_feasible_point``,
plain Fourier-Motzkin elimination with back-substitution, which keeps every
combination of rows; ``chernikov_eliminate``, the walker's elimination step
under Chernikov's rule instead of Imbert's, which swapped into
``moricone._fm_eliminate`` gives the reference walker; ``dp_reduce``, which
scans every pending level for the least ell and forms every tail's class; ``complete``, which reduces every
S-pair; ``module_matrices``, which reduces every ray variable on every basis
monomial into a dense grid, ``{rho: rows x cols of NovikovScalar}``; and
``normal_form``, which reduces a polynomial in the full ray variables to one
NovikovScalar per basis monomial.  These three, and ``mult_table``, reduce
through this ``dp_reduce``.  ``module_scalars`` reads ``toriq``'s module, the
column reader's integer table, into the same grid through the public
constructor, and ``star_column`` reads one column of that grid, so the tests
compare the two and read entries as scalars.

``curve_lattice_basis`` reads the curve-class lattice in a chart of its own,
for the scans that check effective-class enumeration; ``box_scan_effective``
is such a scan, over a bounding box and against ``facet_normals``.

``toriq`` keeps an HLaurent as a record of its buckets, with no sum or
scaling.  ``hlaurent`` builds one from ``{hbar power: class}``, the inverse
of ``HLaurent.terms``, and ``hlaurent_one``, ``hlaurent_add`` and
``hlaurent_scale`` are its unit, sum and scaling.
``apply_gkz_operator`` is the HLaurent form of the box operator, one class
product per linear factor, the reference for ``gkz``'s integer sides.
``i_function`` is the HLaurent form of the series, the reference for
``gkz``'s integer prefixes: each ray's factor is an HLaurent, built with
``nilpotent_geometric`` (the exact inverse of ``D + m hbar``) for a positive
pairing and ``linear_factor_apply`` (one linear factor, reading the divisor
columns with a loop of its own, in Fractions) for a negative one, and
prefixes multiply by ``HLaurent.__mul__``.  That product runs through the
same divisor columns as ``gkz``, so ``test_cohomring`` checks class and
HLaurent products against ``mult_table`` on its own.  ``kirwan_divisors`` builds each
divisor class from its Kirwan lift, as the ring did before its divisor
kernel.
``perturbed_series`` changes one coefficient of a series, for the tests
that the annihilation check must fail.  ``relabel`` lists a fan's rays in
another order, for the tests that nothing depends on ray order,
``subdivided_p3`` gives the smooth complete threefolds, two of them not
projective, on which the commands are checked beyond the catalog, and
``product_fan`` gives the product of two fans and ``p1_bundle`` a toric
P1-bundle over a fan.  ``least_functional`` finds the smallest positive
functional by a pruned scan of boxes, with no Fourier-Motzkin elimination.

``q_mul``, ``q_add`` and ``q_inverse`` are truncated Novikov scalars as
plain ``{beta: c}`` dicts, with a Neumann inverse of their own, and
``dp_sub``, ``dp_mul_scalar``, ``_unit_lead`` and ``_monicize`` are the level
arithmetic of the completion on top of them.  ``complete`` and
``normal_form`` monicize and scale through these alone, so the reference
completion shares neither ``NovikovScalar``'s arithmetic nor ``batyrev``'s
level helpers with the code it checks.  The reference ``_monicize`` keeps
the inverted-scalar form, dividing by the lead's coefficient across all
levels so that no tail holds its lead at any level, while ``batyrev``
divides by the rational q^0 coefficient alone; both give the same reduced
rules, which is the independent check of the rational division.

``check_module`` checks Batyrev's module from its table alone, by the
same ``q_mul`` and ``q_add``: no ``dp_reduce`` and no ``complete``.  It
finds the primitive relations from the cones with its own linear algebra
(``primitive_relations``) and takes only ``ell`` from ``mori_data``.
``wall_semipositive`` decides semipositivity from the wall relations, with
no primitive collection.  ``check_series_support`` checks the classes that
``gkz.i_function`` skips against the reference walk, which skips none.

``psub``, ``groebner``, ``monomial_basis_classes``, ``q0`` and
``poincare_dual_basis`` (with ``SingularPairing``) have no caller in
``toriq``: the polynomial difference, the classical ring's reduced Groebner
basis read from its rules, the basis monomials as classes, a Novikov
scalar's q^0 coefficient and the dual basis of the Poincare pairing.

``rref`` is a Fraction Gauss-Jordan elimination of its own, the reference
for ``lattice``'s fraction-free one, and nothing here calls ``lattice``:
``invert_rational`` (also the dual basis's inverse, since the pairing's Gram
matrix is rational), ``nullspace_rational`` and ``_solve`` read it, and
``det_leibniz`` expands a determinant over permutations with no elimination.
``validate_smooth_by_det`` and ``validate_complete_by_det`` are the fan
checks as they were before ``Fan.cone_inverses`` served them, on
``det_leibniz``: one determinant per maximal cone for smoothness, and two
per wall, of the wall's rays plus each cone's remaining ray, whose signs
must differ; the covering degree reads its signs from ``invert_rational``.
They raise ``ValidationError`` with the library's messages.
"""

import heapq
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, count, permutations, product
from math import factorial, gcd, lcm

from toriq import gkz
from toriq import polynomials as P
from toriq.batyrev import NonUnitLeadingCoefficient
from toriq.catalog import CATALOG, builtin_fan
from toriq.cohomring import (CohClass, build_cohomology_ring, divisor_class,
                             gram_matrix)
from toriq.fan import ValidationError, make_fan
from toriq.moricone import enumerate_effective, mori_data
from toriq.novikov import HLaurent, NovikovContext, NovikovScalar, NovikovSeries

_TABLES = {}
# scalars of the classical ring: the q^0 level alone
Q0 = NovikovContext(n_rays=0, ell=(), cutoff=0)


class SingularPairing(ValueError):
    """Poincare pairing failed to be perfect."""


def psub(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def groebner(ring):
    """Reduced Groebner basis, polynomials in the surviving variables: the
    lead minus the tail of each rule."""
    return tuple(psub({lead: 1}, tail.get((), {}))
                 for lead, tail in ring.rules)


def monomial_basis_classes(ring):
    """The basis monomials as classes, in the ring's basis order."""
    return [CohClass(ring, [int(i == j) for j in range(ring.dim)])
            for i in range(ring.dim)]


def q0(scalar):
    """A NovikovScalar's coefficient of q^0."""
    return scalar.terms.get(scalar.ctx.zero_class, Fraction(0))


def poincare_dual_basis(ring):
    """Bases ({T_a}, {T^a}) with <T_a, T^b> = delta under integration."""
    T = monomial_basis_classes(ring)
    inv = invert_rational(gram_matrix(ring))
    if inv is None:
        raise SingularPairing("Poincare pairing matrix is singular")
    duals = []
    for a in range(ring.dim):
        acc = ring.zero()
        for b in range(ring.dim):
            acc = acc + T[b].scale(inv[b][a])
        duals.append(acc)
    return T, duals


def mult_table(ring):
    """Dense ``(i, j) -> coefficient tuple`` table of basis products, each
    monomial product reduced by the rules through the test-local
    ``dp_reduce``, independently of the ring's divisor columns."""
    if id(ring) not in _TABLES:
        table = {}
        for i, mi in enumerate(ring.basis):
            for j in range(i, ring.dim):
                nf = dp_reduce({(): {P.mono_mul(mi, ring.basis[j]):
                                     Fraction(1)}}, ring.rules, Q0).get((), {})
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
    return hlaurent(ring, {k: CohClass(ring, v) for k, v in f.items()})


def hlaurent(ring, terms):
    """The HLaurent of ``{hbar power: class}``: the degree-p part of the
    class at power ``k`` goes to bucket ``k + p``."""
    parts = {}
    for k, v in terms.items():
        for p in range(ring.top_degree + 1):
            num = [a if d == p else 0 for a, d in zip(v.num, ring.basis_degrees)]
            if any(num):
                parts.setdefault(k + p, []).append((num, v.den))
    return HLaurent(ring, {s: ring._from_parts(ps) for s, ps in parts.items()})


def hlaurent_one(ring):
    return HLaurent(ring, {0: ring.one()})


def hlaurent_add(f, g):
    out = dict(f.buckets)
    for s, v in g.buckets.items():
        out[s] = out[s] + v if s in out else v
    return HLaurent(f.ring, out)


def hlaurent_scale(h, c):
    return HLaurent(h.ring, {s: v.scale(c) for s, v in h.buckets.items()})


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


def apply_gkz_operator(beta, I):
    """Reference for ``gkz.apply_gkz_operator``: each side multiplies the
    coefficients' HLaurents by one factor ``(D_rho + c hbar)`` at a time,
    through class products, and the sides are subtracted as HLaurents.  The
    first side has ``beta_rho`` factors of each ray with ``beta_rho > 0``,
    the second ``-beta_rho`` of each ray with ``beta_rho < 0``."""
    ring, ctx = I.ring, I.ctx
    reduced_cutoff = ctx.cutoff - ctx.ell_of(beta)
    out_ctx = NovikovContext(n_rays=ctx.n_rays, ell=ctx.ell,
                             cutoff=reduced_cutoff)

    @cache
    def linear(rho, c):
        return hlaurent(ring, {0: divisor_class(ring, rho),
                               1: ring.one().scale(c)})

    def side(h, b, sign):
        for rho, d in enumerate(beta):
            for m in range(max(sign * d, 0)):
                h = linear(rho, b[rho] - m) * h
        return h

    terms = {}
    for beta_p, h in I.terms.items():
        if out_ctx.ell_of(beta_p) <= reduced_cutoff:
            terms[beta_p] = side(h, beta_p, 1)
    for beta_pp, h in I.terms.items():
        target = tuple(x + y for x, y in zip(beta_pp, beta))
        if out_ctx.ell_of(target) <= reduced_cutoff:
            acc = hlaurent_scale(side(h, beta_pp, -1), -1)
            terms[target] = hlaurent_add(terms[target], acc) \
                if target in terms else acc
    return NovikovSeries(out_ctx, ring, terms)


class NotNilpotent(ValueError):
    """Geometric expansion of a class with nonzero scalar part."""


def nilpotent_geometric(D, m):
    """Exact inverse (D + m*hbar)^(-1) for a nilpotent class D.

    Equals ``sum_{l>=0} (-1)^l D^l / (m^(l+1) hbar^(l+1))``, a finite sum.
    """
    if m == 0:
        raise ZeroDivisionError("m must be a nonzero integer")
    if D.num[D.ring.basis.index((0,) * len(D.ring.surviving))]:
        raise NotNilpotent("class has nonzero scalar part")
    ring = D.ring
    terms = {}
    power = ring.one()
    l = 0
    while power:
        # (-1)^l / m^(l+1) with a positive denominator
        sign = (-1) ** l if m > 0 else -1
        part = [sign * a for a in power.num], power.den * abs(m) ** (l + 1)
        terms[-(l + 1)] = ring._from_parts((part,))
        power = power * D
        l += 1
    return hlaurent(ring, terms)


def linear_factor_apply(h, mult, c):
    """Multiply an HLaurent by ``(D + c*hbar)`` for a degree-1 class ``D``
    given by its entry of ``ring.divisor_columns``: bucket ``s`` becomes
    ``(D + c) h_s`` at ``s + 1``, each column read here as Fractions."""
    ring = h.ring
    columns, den = mult
    buckets = {}
    for s, v in h.buckets.items():
        out = [c * x for x in v.coeffs]
        for column, x in zip(columns, v.coeffs):
            for k, y in column:
                out[k] += x * Fraction(y, den)
        buckets[s + 1] = CohClass(ring, out)
    return HLaurent(ring, buckets)


def _ray_factor(D, mult, d, cache):
    """HLaurent factor of a ray with divisor class ``D`` at pairing ``d``:
    the one at ``d - 1`` times ``nilpotent_geometric(D, d)`` when ``d > 0``,
    the one at ``d + 1`` times ``(D + (d + 1) hbar)`` when ``d < 0``."""
    if d not in cache:
        if d > 0:
            cache[d] = _ray_factor(D, mult, d - 1, cache) * \
                nilpotent_geometric(D, d)
        else:
            cache[d] = linear_factor_apply(
                _ray_factor(D, mult, d + 1, cache), mult, d + 1)
    return cache[d]


def i_function(ring, md, cutoff):
    """Reference for ``gkz.i_function``: the same walk over the classes in
    lex order with prefix products, each factor and prefix an HLaurent
    multiplied by ``HLaurent.__mul__``; the divisor classes are the Kirwan
    lifts of ``kirwan_divisors``."""
    ctx = NovikovContext(n_rays=md.fan.n_rays, ell=md.ell, cutoff=cutoff)
    classes = enumerate_effective(md, cutoff)
    one = hlaurent_one(ring)
    divisors = kirwan_divisors(ring)
    caches = [{0: one} for _ in divisors]
    prefix = [None] * (ctx.n_rays + 1)
    previous = ()
    coefficients = {}
    for beta in sorted(classes):
        start = 0
        while start < len(previous) and beta[start] == previous[start]:
            start += 1
        for rho in range(start, ctx.n_rays):
            acc = prefix[rho]
            d = beta[rho]
            if d and (acc is None or acc):
                factor = _ray_factor(divisors[rho],
                                     ring.divisor_columns[rho], d, caches[rho])
                acc = factor if acc is None else acc * factor
            prefix[rho + 1] = acc
        last = prefix[-1]
        coefficients[beta] = one if last is None else last
        previous = beta
    return NovikovSeries(ctx, ring, {b: coefficients[b] for b in classes})


def check_series_support(fan, cutoff):
    """Check that ``gkz.i_function`` skips exactly the classes whose
    coefficient vanishes: it keeps the effective classes whose negative
    support, as a set of rays, lies in a maximal cone, and those are the
    nonzero classes of the reference walk, which visits every class, with
    equal coefficients and in the same order."""
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    I = gkz.i_function(ring, md, cutoff)
    reference = i_function(ring, md, cutoff)
    cones = [set(cone) for cone in fan.max_cones]
    supported = [beta for beta in enumerate_effective(md, cutoff)
                 if any({rho for rho, d in enumerate(beta) if d < 0} <= cone
                        for cone in cones)]
    assert list(I.terms) == supported == list(reference.terms), cutoff
    assert I == reference, cutoff


def perturbed_series(I, beta, shift):
    """``I`` with ``2 D_0 hbar^(s - 1 + shift)`` added to the coefficient of
    ``q^beta``, which is homogeneous of total degree ``s``.  With ``shift``
    0 the change has that same total degree; with 1 it lands in bucket
    ``s + 1``, so the coefficient is no longer homogeneous.  The factor 2
    keeps the change from cancelling the series coefficient ``-D_0 hbar^(s
    - 1)`` of wdP5 at ``(-2, 1, 0, 0, 0, 0, 1)``; the assertion below
    catches a coefficient that it would cancel."""
    ring = I.ring
    (s,) = I.terms[beta].buckets
    change = HLaurent(ring, {s + shift: divisor_class(ring, 0).scale(2)})
    terms = dict(I.terms)
    terms[beta] = hlaurent_add(terms[beta], change)
    assert set(terms[beta].buckets) == {s, s + shift}
    return NovikovSeries(I.ctx, ring, terms)


def reconstruct_coefficient(ring, table, beta):
    """Round-trip check: rebuild the q^beta coefficient from the table."""
    _, duals = poincare_dual_basis(ring)
    out = {}
    for a, k, b in table.entries:
        if b == tuple(beta):
            out[-k - 1] = out.get(-k - 1, ring.zero()) + \
                duals[a].scale(table.value(a, k, b))
    return hlaurent(ring, out)


def variable_class(ring, j):
    """Class of the j-th surviving variable, a basis monomial."""
    y = tuple(int(i == j) for i in range(len(ring.surviving)))
    return CohClass(ring, [int(m == y) for m in ring.basis])


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


def wdp4():
    return cycle_fan("wdP4", [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0),
                              (-1, -1), (-1, -2), (0, -1)])


def wdp3():
    # the 9 boundary lattice points of conv{(-1,-1),(2,-1),(-1,2)}
    return cycle_fan("wdP3", [(1, 0), (0, 1), (-1, 2), (-1, 1), (-1, 0),
                              (-1, -1), (0, -1), (1, -1), (2, -1)])


def product_fan(a, b, name=None):
    """The product of two fans, ``a``'s rays first: its rays are ``(u, 0)``
    and ``(0, v)``, and its maximal cones are the products of a maximal cone
    of each."""
    rays = [u + (0,) * b.dim for u in a.rays] + \
        [(0,) * a.dim + v for v in b.rays]
    return make_fan(a.dim + b.dim, rays,
                    [ca + tuple(a.n_rays + i for i in cb)
                     for ca in a.max_cones for cb in b.max_cones],
                    name=name or f"{a.name}x{b.name}")


def p1_bundle(base, twists):
    """The toric P1-bundle P(O + L) over ``base``, L twisted by ``a`` =
    ``twists``: its rays are ``(u_i, a_i)`` for the base's rays ``u_i``, then
    ``(0, 1)`` and ``(0, -1)``, and its maximal cones are ``sigma + (0, 1)``
    and ``sigma + (0, -1)`` for each maximal cone ``sigma`` of the base."""
    n, zero = base.n_rays, (0,) * base.dim
    rays = [u + (a,) for u, a in zip(base.rays, twists)]
    return make_fan(base.dim + 1, rays + [zero + (1,), zero + (-1,)],
                    [cone + (end,) for cone in base.max_cones
                     for end in (n, n + 1)],
                    name=f"P({base.name},{','.join(map(str, twists))})")


def p1xdp6():
    return product_fan(dp6(), builtin_fan("P1"), "P1xdP6")


def p2xp2():
    return product_fan(builtin_fan("P2"), builtin_fan("P2"), "P2xP2")


def rref(M):
    """Reduced row echelon form over Fraction; returns (rows, pivot_cols).
    The reference for ``lattice``'s fraction-free elimination."""
    rows = [[Fraction(x) for x in row] for row in M]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def det_leibniz(A):
    """Determinant of a square matrix by the Leibniz formula: a signed sum
    over permutations, with no elimination at all."""
    total = 0
    for perm in permutations(range(len(A))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


def validate_smooth_by_det(fan):
    """``fan.validate_smooth`` by determinants: each must be +-1."""
    for cone in fan.max_cones:
        d = det_leibniz(fan.cone_rays(cone))
        if abs(d) != 1:
            raise ValidationError(
                f"fan is not smooth: cone {tuple(i + 1 for i in cone)} "
                f"has determinant {d}")


def validate_complete_by_det(fan):
    """``fan.validate_complete`` by determinants: the cones at a wall lie on
    opposite sides when ``det(wall, u)`` differs in sign between their
    remaining rays ``u``."""
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
        sides = [det_leibniz(fan.cone_rays(wall) + [list(fan.rays[i])])
                 for ci in cones for i in fan.max_cones[ci] if i not in wall]
        if sides[0] * sides[1] >= 0:
            raise ValidationError(
                f"fan is not complete: the cones at wall {name} overlap")
    adj = {i: set() for i in range(len(fan.max_cones))}
    for a, b in walls.values():
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
    big = max(abs(x) for u in fan.rays for x in u)
    n = factorial(fan.dim - 1) * big ** (fan.dim - 1) + 2
    point = [n ** k for k in range(fan.dim)]
    degree = 0
    for cone in fan.max_cones:
        inverse = invert_rational(list(zip(*fan.cone_rays(cone))))
        degree += all(sum(a * x for a, x in zip(row, point)) > 0
                      for row in inverse)
    if degree != 1:
        raise ValidationError(
            f"fan is not complete: its cones cover space {degree} times, "
            f"expected once")


def subdivided_p3(diagonals):
    """A smooth complete threefold as fan JSON data (1-based cones).

    P^3's fan with its three edges at ``(1, 1, 1)`` subdivided by the rays
    ``w_i = (1, 1, 1) - e_i`` (rays 5-7).  Each quadrilateral ``w_i, -e_i,
    -e_j, w_j``, for ``(i, j)`` in ``(1, 2), (2, 3), (3, 1)``, is cut by one
    diagonal: ``w_i -e_j`` where ``diagonals`` holds True, else ``-e_i w_j``.
    The two cyclic choices, all True or all False, are pinwheels, which are
    not projective (Oda, *Convex Bodies and Algebraic Geometry*, 1988); the
    six others are projective and semipositive.
    """
    w = {1: 5, 2: 6, 3: 7}
    cones = [[1, 2, 3], [4, 5, 6], [4, 6, 7], [4, 7, 5]]
    for cut, (i, j) in zip(diagonals, ((1, 2), (2, 3), (3, 1))):
        a, b, c, d = (w[i], j, i, w[j]) if cut else (i, w[j], w[i], j)
        cones += [[a, b, c], [a, b, d]]
    return {"dim": 3, "max_cones": cones,
            "rays": [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1],
                     [0, 1, 1], [1, 0, 1], [1, 1, 0]]}


def relabel(fan, perm):
    """The same fan with its rays listed in another order: ray ``k`` of the
    result is ray ``perm[k]`` of ``fan``."""
    new = {old: k for k, old in enumerate(perm)}
    return make_fan(fan.dim, [fan.rays[i] for i in perm],
                    [[new[i] for i in cone] for cone in fan.max_cones],
                    name=fan.name)


def invert_rational(A):
    """Exact inverse of a square rational matrix by Fraction Gauss-Jordan;
    None when singular.  The reference for ``lattice.invert_int``."""
    n = len(A)
    aug = [[Fraction(A[i][j]) for j in range(n)]
           + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def nullspace_rational(A):
    """Basis of the rational nullspace of A (list of Fraction vectors)."""
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    if nrows == 0:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
                for j in range(ncols)]
    red, pivots = rref(A)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][fc]
        basis.append(v)
    return basis


def _primitive(v):
    """The primitive integer vector on the ray of a rational vector."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


def facet_normals(vectors, r):
    """Supporting normals of cone(vectors) in QQ^r from (r-1)-subsets.

    Every facet of a full-dimensional pointed cone is spanned by generators,
    so its normal is found; a subset of rank below ``r - 1`` can add a
    supporting normal that is not a facet's.
    """
    normals = set()
    for subset in combinations(vectors, r - 1):
        ns = nullspace_rational([list(v) for v in subset]) if subset \
            else [[Fraction(1) if i == j else Fraction(0) for i in range(r)]
                  for j in range(r)]
        for f in ns:
            fi = _primitive(f)
            if all(x == 0 for x in fi):
                continue
            dots = [sum(a * b for a, b in zip(fi, w)) for w in vectors]
            if all(d >= 0 for d in dots):
                normals.add(tuple(fi))
            elif all(d <= 0 for d in dots):
                normals.add(tuple(-x for x in fi))
    return sorted(normals)


def _fm_eliminate(system, k):
    """One Fourier-Motzkin step on rows ``a . x >= c``: drop variable ``k``,
    combining every lower bound with every upper bound."""
    keep, lower, upper = [], [], []
    for a, c in system:
        if a[k] == 0:
            keep.append((a, c))
        elif a[k] > 0:
            lower.append((a, c))   # x_k >= (c - rest)/a_k
        else:
            upper.append((a, c))
    for al, cl in lower:
        for au, cu in upper:
            coeff = [al[j] * (-au[k]) + au[j] * al[k] for j in range(len(al))]
            keep.append((coeff, cl * (-au[k]) + cu * al[k]))
    return keep, lower, upper


def chernikov_eliminate(system, k, eliminated):
    """``moricone._fm_eliminate`` under Chernikov's rule alone (Chernikov
    1965), the reference for its Imbert rule.  After ``s`` eliminations,
    ``s`` the number of a row's variables in ``eliminated``, a combination
    of more than ``s + 1`` given rows is not formed, whatever variables it
    involves.  Rows are ``(a, c, history, support)``."""
    keep, lower, upper = [], [], []
    for row in system:
        a = row[0]
        (keep if a[k] == 0 else lower if a[k] > 0 else upper).append(row)
    for al, cl, hl, sl in lower:
        steps = (eliminated & ((1 << len(al)) - 1)).bit_count()
        for au, cu, hu, su in upper:
            if (hl | hu).bit_count() > steps + 1:
                continue
            coeff = [al[j] * (-au[k]) + au[j] * al[k] for j in range(len(al))]
            keep.append((coeff, cl * (-au[k]) + cu * al[k], hl | hu, sl | su))
    return keep, lower, upper


def fm_feasible_point(constraints, nvars):
    """A rational point satisfying ``a . x >= c`` for each (a, c), else None."""
    system = [([Fraction(x) for x in a], Fraction(c)) for a, c in constraints]
    stack = []
    for k in range(nvars - 1, -1, -1):
        system, lower, upper = _fm_eliminate(system, k)
        stack.append((k, lower, upper))
    if any(c > 0 for _, c in system):
        return None
    # back-substitute, innermost variable first
    point = [Fraction(0)] * nvars
    for k, lower, upper in reversed(stack):
        lo, hi = None, None
        for a, c in lower:
            bound = (c - sum(a[j] * point[j] for j in range(nvars) if j != k)) / a[k]
            lo = bound if lo is None else max(lo, bound)
        for a, c in upper:
            bound = (c - sum(a[j] * point[j] for j in range(nvars) if j != k)) / a[k]
            hi = bound if hi is None else min(hi, bound)
        if lo is not None:
            point[k] = lo
        elif hi is not None:
            point[k] = hi
        # else unconstrained: keep 0
    for a, c in constraints:
        assert sum(Fraction(x) * p for x, p in zip(a, point)) >= c
    return point


# --- truncated scalars as plain ``{beta: c}`` dicts --------------------------


@cache
def ell_of(ell, beta):
    """``ell . beta``, memoized: the matrix products of ``check_module`` meet
    the same few classes again and again."""
    return sum(e * x for e, x in zip(ell, beta))


def q_mul_into(acc, a, b, ell, cutoff):
    """Add the truncated product ``a * b`` into ``acc``; ``ell`` is
    additive, so a pair past the cutoff is skipped before its class is
    formed.  Sums that cancel stay in ``acc`` as zeros."""
    right = [(b2, c2, ell_of(ell, b2)) for b2, c2 in b.items()]
    for b1, c1 in a.items():
        room = cutoff - ell_of(ell, b1)
        for b2, c2, e2 in right:
            if e2 <= room:
                beta = tuple(x + y for x, y in zip(b1, b2))
                acc[beta] = acc.get(beta, 0) + c1 * c2
    return acc


def nonzero(x):
    return {beta: c for beta, c in x.items() if c}


def q_mul(a, b, ell, cutoff):
    return nonzero(q_mul_into({}, a, b, ell, cutoff))


def q_add(a, b, scale=1):
    out = dict(a)
    for beta, c in b.items():
        out[beta] = out.get(beta, 0) + scale * c
    return nonzero(out)


def q_inverse(a, ell, cutoff):
    """Inverse of a unit by the Neumann series: ``a = c0 (1 - n)`` with
    ``c0`` its q^0 coefficient, so ``1/a = (1 + n + ... + n^cutoff) / c0``,
    since every nonzero class has ``ell >= 1``."""
    zero = (0,) * len(ell)
    c0 = Fraction(a.get(zero, 0))
    if not c0:
        raise ZeroDivisionError("no q^0 part")
    n = {beta: -c / c0 for beta, c in a.items() if beta != zero}
    total = power = {zero: 1}
    for _ in range(cutoff):
        power = q_mul(power, n, ell, cutoff)
        total = q_add(total, power)
    return {beta: c / c0 for beta, c in total.items()}


def dp_sub(a, b):
    """``a - b`` level by level; the levels it empties are dropped."""
    out = {beta: psub(a.get(beta, {}), b.get(beta, {})) for beta in {**a, **b}}
    return {beta: poly for beta, poly in out.items() if poly}


def dp_mul_scalar(dp, scalar, ell, cutoff):
    """A level-indexed polynomial times a ``{beta: c}`` scalar: the
    coefficient of each monomial across levels is one truncated product."""
    out = {}
    for m in {m for poly in dp.values() for m in poly}:
        coeff = {beta: poly[m] for beta, poly in dp.items() if m in poly}
        for beta, c in q_mul(coeff, scalar, ell, cutoff).items():
            out.setdefault(beta, {})[m] = c
    return out


def _unit_lead(dp, zero):
    """The largest monomial of the q^0 level, or None if it is empty."""
    return max(dp.get(zero, {}), key=P.term_key, default=None)


def _monicize(dp, ctx):
    """The rule ``(lead, x^lead - dp / lam)`` that ``dp`` gives, for
    ``lead`` its unit lead and ``lam`` the lead's coefficient across
    levels."""
    lead = _unit_lead(dp, ctx.zero_class)
    if lead is None:
        raise NonUnitLeadingCoefficient("no monomial has a unit coefficient")
    lam = {beta: poly[lead] for beta, poly in dp.items() if lead in poly}
    monic = dp_mul_scalar(dp, q_inverse(lam, ctx.ell, ctx.cutoff),
                          ctx.ell, ctx.cutoff)
    return lead, dp_sub({ctx.zero_class: {lead: 1}}, monic)


def dp_reduce(dp, rules, ctx):
    """Normal form modulo ``(lead, tail)`` rules, taking the least pending
    level by a scan and forming every tail's class before testing its ell."""
    zero = ctx.zero_class
    levels = {b: dict(p) for b, p in dp.items()
              if p and ctx.ell_of(b) <= ctx.cutoff}
    out = {}
    while levels:
        beta = min(levels, key=lambda b: (ctx.ell_of(b), b))
        work = levels.pop(beta)
        poly = {}
        while work:
            m = max(work, key=P.term_key)
            c = work.pop(m)
            for lead, tail in rules:
                if P.mono_divides(lead, m):
                    break
            else:
                poly[m] = c
                continue
            quot = P.mono_div(m, lead)
            for tbeta, tpoly in tail.items():
                if tbeta == zero:
                    work = P.padd(work, P.pmul_term(tpoly, quot, c))
                    continue
                target = tuple(x + y for x, y in zip(beta, tbeta))
                if ctx.ell_of(target) > ctx.cutoff:
                    continue
                levels[target] = P.padd(levels.get(target, {}),
                                        P.pmul_term(tpoly, quot, c))
                if not levels[target]:
                    del levels[target]
        if poly:
            out[beta] = poly
    return out


def complete(gens, ctx):
    """Completion that reduces every S-pair, coprime leads included; a
    residue with no unit coefficient waits to be reduced by the final rules.

    Returns ``(rules, added, reductions)``, where ``reductions`` counts the
    ``dp_reduce`` calls.
    """
    calls = [0]

    def nf(dp, rules):
        calls[0] += 1
        return dp_reduce(dp, rules, ctx)

    rules = [_monicize(g, ctx) for g in gens if g]
    pairs, order, held = [], count(), []

    def push(i, j):
        lcm = P.mono_lcm(rules[i][0], rules[j][0])
        heapq.heappush(pairs, (P.term_key(lcm), next(order), i, j))

    for i in range(len(rules)):
        for j in range(i):
            push(i, j)
    added = 0
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        (lead_i, tail_i), (lead_j, tail_j) = rules[i], rules[j]
        lcm = P.mono_lcm(lead_i, lead_j)
        spair = dp_sub(_times(tail_j, P.mono_div(lcm, lead_j)),
                       _times(tail_i, P.mono_div(lcm, lead_i)))
        residue = nf(spair, rules)
        if residue and _unit_lead(residue, ctx.zero_class) is None:
            held.append(residue)
        elif residue:
            rules.append(_monicize(residue, ctx))
            added += 1
            for k in range(len(rules) - 1):
                push(len(rules) - 1, k)
    if any(nf(residue, rules) for residue in held):
        raise NonUnitLeadingCoefficient("an S-pair is a pure-q element")
    keep = []
    for i, (lead, tail) in enumerate(rules):
        redundant = any(
            k != i and P.mono_divides(rules[k][0], lead)
            and (rules[k][0] != lead or k < i)
            for k in range(len(rules)))
        if not redundant:
            keep.append((lead, tail))
    canonical = [(lead, nf({ctx.zero_class: {lead: Fraction(1)}}, keep))
                 for lead, _ in keep]
    canonical.sort(key=lambda r: P.term_key(r[0]))
    return tuple(canonical), added, calls[0]


def _times(dp, mono):
    """A level-indexed polynomial times the monomial ``x^mono``."""
    return {b: P.pmul_term(p, mono, 1) for b, p in dp.items()}


def module_matrices(ideal):
    """Multiplication matrix of every ray variable, each column reduced:
    ``{rho: rows x cols of NovikovScalar}``, zeros included."""
    ring, ctx = ideal.ring, ideal.ctx
    dim = ring.dim
    matrices = {}
    for rho in range(ring.fan.n_rays):
        ray = ring.ray_poly(rho)
        cols = [_expansion(ring, ctx, dp_reduce(
                    {ctx.zero_class: P.pmul(ray, {mono: Fraction(1)})},
                    ideal.rules, ctx))
                for mono in ring.basis]
        matrices[rho] = [[cols[a][b] for a in range(dim)] for b in range(dim)]
    return matrices


def module_scalars(module):
    """``{rho: rows x cols of NovikovScalar}`` of a ``BatyrevModule``'s
    table, each entry built by the public constructor from
    ``Fraction(numerator, den)``; an absent entry is the zero scalar."""
    ctx, dim, den = module.ideal.ctx, module.ring.dim, module.den
    return {rho: [[NovikovScalar(ctx, {
        b: Fraction(x, den) for b, x in col.get(k, {}).items()})
        for col in cols] for k in range(dim)]
        for rho, cols in enumerate(module.columns)}


def star_column(module, rho, a):
    """The scalars of ``x_rho basis[a]``, one per basis monomial, read
    through ``module_scalars``."""
    return [row[a] for row in module_scalars(module)[rho]]


def normal_form(ideal, ray_terms):
    """Reduce a polynomial in the full ray variables to its basis expansion.

    ``ray_terms`` maps exponent tuples over *all* rays to NovikovScalar (or
    plain rational) coefficients.  Eliminated variables are substituted first.
    Returns one NovikovScalar per basis monomial of the classical ring.
    """
    ring, ctx = ideal.ring, ideal.ctx
    dp = {}
    for mono, coeff in ray_terms.items():
        expanded = ring.ray_product(enumerate(mono))
        if isinstance(coeff, NovikovScalar):
            contrib = dp_mul_scalar({ctx.zero_class: expanded}, coeff.terms,
                                    ctx.ell, ctx.cutoff)
        else:
            contrib = {ctx.zero_class: P.pscale(expanded, coeff)}
        for beta, poly in contrib.items():
            dp[beta] = P.padd(dp.get(beta, {}), poly)
    return _expansion(ring, ctx, dp_reduce(dp, ideal.rules, ctx))


def _expansion(ring, ctx, reduced):
    """One NovikovScalar per basis monomial of a reduced level polynomial."""
    terms = [{} for _ in ring.basis]
    for beta, poly in reduced.items():
        for m, c in poly.items():
            terms[ring.basis.index(m)][beta] = c
    return [NovikovScalar(ctx, t) for t in terms]



def primitive_relations(fan):
    """``(P, beta_P)`` for each primitive collection ``P`` of a smooth
    complete fan, found from the cones alone: ``P`` is a minimal set of rays
    spanning no cone, and ``beta_P`` is 1 on ``P`` and ``-c_rho`` on the
    rays of the cone where ``sum_{rho in P} u_rho = sum c_rho u_rho`` with
    every ``c_rho >= 0``."""
    faces = {face for cone in fan.max_cones for k in range(fan.dim + 1)
             for face in combinations(cone, k)}
    for size in range(2, fan.dim + 2):
        for rays in combinations(range(fan.n_rays), size):
            if rays in faces or not all(
                    sub in faces for sub in combinations(rays, size - 1)):
                continue
            total = [sum(fan.rays[i][k] for i in rays)
                     for k in range(fan.dim)]
            for cone in fan.max_cones:
                coords = _solve([fan.rays[i] for i in cone], total)
                if all(x >= 0 for x in coords):
                    break
            beta = [1 if i in rays else 0 for i in range(fan.n_rays)]
            for i, x in zip(cone, coords):
                assert x.denominator == 1, (rays, cone)
                beta[i] -= int(x)
            yield rays, tuple(beta)


def wall_semipositive(fan):
    """Whether ``-K`` is nef, read off the walls alone (Cox, Little and
    Schenck, *Toric Varieties*, 2011, chapter 6): maximal cones ``tau + u``
    and ``tau + u'`` that share the wall ``tau`` give ``u + u' + sum_{j in
    tau} b_j u_j = 0``, and the wall's curve has ``-K . C = 2 + sum b_j``."""
    cones = [set(cone) for cone in fan.max_cones]
    for a, b in combinations(cones, 2):
        tau = sorted(a & b)
        if len(tau) == fan.dim - 1:
            (u,), (v,) = a - b, b - a
            target = [-x - y for x, y in zip(fan.rays[u], fan.rays[v])]
            *coeffs, residual = _solve([fan.rays[j] for j in tau], target)
            assert residual == 0, (tau, u, v)
            if 2 + sum(coeffs) < 0:
                return False
    return True


def _far_cone(fan):
    """The maximal cone whose complement is lexicographically greatest."""
    return max(fan.max_cones, key=lambda cone: [
        i for i in range(fan.n_rays) if i not in cone])


def curve_lattice_basis(fan):
    """A basis of the curve-class lattice, in another chart than toriq's.

    ``fan.chart`` reads classes at the maximal cone whose complement is
    lexicographically least; this reads them at the cone whose complement
    is greatest (``_far_cone``), so a scan over these coordinates shares
    none with the code it checks.  Each ray ``j`` outside that cone gives
    ``e_j`` minus ``u_j``'s coordinates on the cone's rays, and a class's
    coordinates are its entries on those rays.
    """
    tau = _far_cone(fan)
    basis = []
    for j in range(fan.n_rays):
        if j not in tau:
            b = [int(i == j) for i in range(fan.n_rays)]
            for i, x in zip(tau, _solve([fan.rays[i] for i in tau],
                                        fan.rays[j])):
                assert x.denominator == 1, (j, tau)
                b[i] = -int(x)
            basis.append(b)
    return basis


def least_functional(generators, nvars):
    """The integral ``ell`` with ``ell . g >= 1`` for every generator of
    least sup-norm, then least 1-norm, then lexicographically least, by a
    scan of the boxes ``[-k, k]^nvars`` for ``k = 1, 2, ...``.

    The scan fixes one coordinate at a time in increasing order, so points
    come in lex order, and drops a partial point once a generator's sum can
    no longer reach 1 (each open coordinate adds at most ``k |g_j|``) or its
    1-norm reaches the best one found.  The first box with a point holds no
    point of smaller sup-norm, so its best point is the answer.  Loops
    forever when no ``ell`` exists.
    """
    for k in count(1):
        reach = [[k * sum(abs(x) for x in g[j:]) for g in generators]
                 for j in range(nvars + 1)]
        best = [None, None]         # 1-norm, point

        def walk(point, sums, norm):
            j = len(point)
            if any(s + r < 1 for s, r in zip(sums, reach[j])) or \
                    best[0] is not None and norm >= best[0]:
                return
            if j == nvars:
                best[:] = norm, tuple(point)
                return
            for v in range(-k, k + 1):
                walk(point + [v], [s + v * g[j] for s, g in
                                   zip(sums, generators)], norm + abs(v))

        walk([], [0] * len(generators), 0)
        if best[1] is not None:
            return best[1]


def kirwan_divisors(ring):
    """Each ray's divisor class as the ring built it before it had divisor
    columns: its Kirwan lift, whose variables are basis monomials, made a
    class through Fractions."""
    return tuple(CohClass(ring, [ring.ray_poly(rho).get(m, 0)
                                 for m in ring.basis])
                 for rho in range(ring.fan.n_rays))


def box_scan_effective(md, cutoff):
    """Effective classes with ell at most ``cutoff``, sorted by (ell, lex):
    the bounding-box scan that enumeration ran before its walk.

    A class is ``sum lambda_P beta_P`` over the generators with every
    ``lambda_P >= 0``, and ``ell(beta_P) >= 1`` gives ``sum lambda_P <=
    cutoff``, so its entry on ray ``j`` lies in ``[-b_j, b_j]`` with ``b_j =
    cutoff * max_P |beta_P[j]|``.  The scan keeps the points of that box in
    the cone, tested against the normals of ``facet_normals``, in the chart
    of ``curve_lattice_basis``: it shares no chart and no cone code with
    ``moricone``.
    """
    fan = md.fan
    zero = (0,) * fan.n_rays
    if cutoff < 0:
        return []
    basis = curve_lattice_basis(fan)
    r = len(basis)
    if r == 0 or not md.generators:
        return [zero]
    tau = _far_cone(fan)
    outside = [j for j in range(fan.n_rays) if j not in tau]
    ys = [tuple(g[j] for j in outside) for g in md.generators]
    assert len(rref([list(y) for y in ys])[1]) == r
    normals = facet_normals(ys, r)
    points = []
    bounds = [cutoff * max(abs(g[j]) for g in md.generators) for j in outside]
    for y in product(*[range(-b, b + 1) for b in bounds]):
        if any(sum(f[a] * y[a] for a in range(r)) < 0 for f in normals):
            continue
        b = tuple(sum(y[a] * basis[a][i] for a in range(r))
                  for i in range(fan.n_rays))
        ell = md.ell_of(b)
        if 0 <= ell <= cutoff:
            points.append((ell, b))
    points.sort()
    assert points and points[0][1] == zero
    return [b for _, b in points]


def _solve(columns, target):
    """Exact ``x`` with ``sum_j x_j columns[j] == target`` for a basis."""
    red, _ = rref([[col[i] for col in columns] + [target[i]]
                   for i in range(len(target))])
    return [row[-1] for row in red]


def check_module(fan, ell, cutoff, module):
    """Check, with no Groebner basis, that ``module`` is Batyrev's module.

    Each ``module.columns[rho]`` is taken as the action of ``x_rho`` on the
    standard monomials ``module.ring.basis``, over the Novikov ring truncated
    at ``ell . beta <= cutoff``: its column ``a`` holds the entries of
    ``x_rho basis[a]`` as ``{k: {beta: numerator}}`` over ``module.den``,
    read as plain ``{beta: Fraction}`` dicts, zero where absent.  Requires,
    raising AssertionError otherwise:

    (a) ``sum_rho <e_k, u_rho> M_rho = 0`` for each lattice coordinate k;
    (b) every pair of matrices commutes;
    (c) ``prod_{rho in P} M_rho = q^beta_P prod_gamma M_rho^c_rho`` for each
        primitive relation (``primitive_relations``);
    (d) ``x^m`` carries the unit basis vector to ``e_m`` for each standard
        monomial ``m``.

    By (a)-(c), ``f -> f(M) e_unit`` is well defined on Batyrev's quotient Q
    over the truncated ring R.  R is local and Artinian and the standard
    monomials span Q's fibre at q = 0, so by Nakayama's lemma they generate
    Q, and ``e_m -> m`` maps R^basis onto Q.  By (d) the composite is the
    identity, so both maps are isomorphisms and the matrices are exactly
    Batyrev's module at this cutoff (Batyrev, Asterisque 218, 1993).
    """
    ring = module.ring
    dim, zero, ell = ring.dim, (0,) * fan.n_rays, tuple(ell)

    def matmul(A, B):
        out = [[{} for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for k in range(dim):
                if A[i][k]:
                    for j in range(dim):
                        if B[k][j]:
                            q_mul_into(out[i][j], A[i][k], B[k][j],
                                       ell, cutoff)
        return [[nonzero(x) for x in row] for row in out]

    def scalar(s):
        return [[dict(s) if i == j else {} for j in range(dim)]
                for i in range(dim)]

    assert len(module.columns) == fan.n_rays
    assert all(len(cols) == dim and set().union(*cols) <= set(range(dim))
               for cols in module.columns)
    M = {rho: [[{b: Fraction(x, module.den)
                 for b, x in col.get(k, {}).items()} for col in cols]
               for k in range(dim)]
         for rho, cols in enumerate(module.columns)}
    for k in range(fan.dim):
        total = scalar({})
        for rho, u in enumerate(fan.rays):
            total = [[q_add(t, m, u[k]) for t, m in zip(trow, mrow)]
                     for trow, mrow in zip(total, M[rho])]
        assert total == scalar({}), f"linear relation of coordinate {k}"
    for rho, sigma in combinations(range(fan.n_rays), 2):
        assert matmul(M[rho], M[sigma]) == matmul(M[sigma], M[rho]), \
            f"x{rho + 1} and x{sigma + 1} do not commute"
    identity = scalar({zero: 1})
    for rays, beta in primitive_relations(fan):
        lhs = identity
        for rho in rays:
            lhs = matmul(lhs, M[rho])
        rhs = scalar(q_mul({zero: 1}, {beta: 1}, ell, cutoff))
        for rho, b in enumerate(beta):
            for _ in range(max(-b, 0)):
                rhs = matmul(rhs, M[rho])
        assert lhs == rhs, f"primitive relation of {rays} with class {beta}"
    unit = ring.basis.index((0,) * len(ring.surviving))
    for a, mono in enumerate(ring.basis):
        vec = identity[unit]
        for j, e in enumerate(mono):
            for _ in range(e):
                vec = [
                    reduce(q_add, (q_mul(x, v, ell, cutoff)
                                   for x, v in zip(row, vec)), {})
                    for row in M[ring.surviving[j]]]
        assert vec == identity[a], \
            f"x^{mono} does not carry the unit to its basis vector"


# the fans the kernel is checked on: the catalog, the hexagon, two
# products, wdP5, whose divisor columns have denominator 2, and wdP4
# and wdP3, whose completions skip most S-pairs by the chain criterion
KERNEL_FANS = dict(
    [(name, lambda name=name: builtin_fan(name)) for name in sorted(CATALOG)]
    + [("dP6", dp6), ("P2xP2", p2xp2), ("P1xdP6", p1xdp6), ("wdP5", wdp5),
       ("wdP4", wdp4), ("wdP3", wdp3)])
