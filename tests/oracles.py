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

The Groebner and cone oracles are the routines the engine used before its
work was pruned: ``nullspace_rational`` with ``facet_normals``, which solves
one nullspace per ``(r-1)``-subset of the generators; ``fm_feasible_point``,
plain Fourier-Motzkin elimination with back-substitution, which keeps every
combination of rows; ``dp_reduce``, which scans every pending level for the
least ell and forms every tail's class; ``complete``, which reduces every
S-pair; and ``module_matrices``, which reduces every ray variable.

``curve_lattice_basis`` reads the curve-class lattice in a chart of its own,
for the scans that check effective-class enumeration.

``perturbed_series`` changes one coefficient of a series, for the tests
that the annihilation check must fail.

``check_module`` checks Batyrev's module from its matrices alone, by plain
dict arithmetic: no ``dp_reduce`` and no ``complete``.  It finds the
primitive relations from the cones with its own linear algebra
(``primitive_relations``) and takes only ``ell`` from ``mori_data``.

``psub``, ``groebner`` and ``poincare_dual_basis`` (with ``SingularPairing``)
have no caller in ``toriq``: the polynomial difference, the classical ring's
reduced Groebner basis read from its rules, and the dual basis of the
Poincare pairing.
"""

import heapq
from fractions import Fraction
from functools import reduce
from itertools import combinations, count

from toriq import lattice, polynomials as P
from toriq.batyrev import (
    BatyrevModule,
    NonUnitLeadingCoefficient,
    _monicize,
    _unit_lead,
    dp_clean,
    dp_mul_term,
    dp_sub,
    normal_form_surviving,
)
from toriq.catalog import CATALOG, builtin_fan
from toriq.cohomring import (
    CohClass,
    _normal_form,
    divisor_class,
    gram_matrix,
    monomial_basis_classes,
)
from toriq.fan import make_fan
from toriq.novikov import HLaurent, NovikovSeries

_TABLES = {}


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
    """Reduced Groebner basis, polynomials in the surviving variables."""
    return tuple(element[()] for _, element in ring.rules)


def poincare_dual_basis(ring):
    """Bases ({T_a}, {T^a}) with <T_a, T^b> = delta under integration."""
    T = monomial_basis_classes(ring)
    inv = lattice.invert_rational(gram_matrix(ring))
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


def perturbed_series(I, beta, shift):
    """``I`` with ``D_0 hbar^(s - 1 + shift)`` added to the coefficient of
    ``q^beta``, which is homogeneous of total degree ``s``.  With ``shift``
    0 the change has that same total degree; with 1 it lands in bucket
    ``s + 1``, so the coefficient is no longer homogeneous."""
    ring = I.ring
    (s,) = I.terms[beta].buckets
    change = HLaurent.of_class(divisor_class(ring, 0), s - 1 + shift)
    terms = dict(I.terms)
    terms[beta] = terms[beta] + change
    assert set(terms[beta].buckets) == {s, s + shift}
    return NovikovSeries(I.ctx, ring, terms)


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


def wdp4():
    return cycle_fan("wdP4", [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0),
                              (-1, -1), (-1, -2), (0, -1)])


def wdp3():
    # the 9 boundary lattice points of conv{(-1,-1),(2,-1),(-1,2)}
    return cycle_fan("wdP3", [(1, 0), (0, 1), (-1, 2), (-1, 1), (-1, 0),
                              (-1, -1), (0, -1), (1, -1), (2, -1)])


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


def nullspace_rational(A):
    """Basis of the rational nullspace of A (list of Fraction vectors)."""
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    if nrows == 0:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
                for j in range(ncols)]
    red, pivots = lattice.rref(A)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][fc]
        basis.append(v)
    return basis


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
            fi = lattice.primitive_vector(f)
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


def dp_reduce(dp, rules, ctx):
    """Normal form modulo monic rules, taking the least pending level by a
    scan and forming every tail's class before testing its ell."""
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
            for lead, element in rules:
                if P.mono_divides(lead, m):
                    break
            else:
                poly[m] = c
                continue
            quot = P.mono_div(m, lead)
            for ebeta, epoly in element.items():
                if ebeta == zero:
                    for em, ec in epoly.items():
                        if em == lead:
                            continue
                        key = P.mono_mul(em, quot)
                        s = work.get(key, 0) - c * ec
                        if s:
                            work[key] = s
                        else:
                            work.pop(key, None)
                    continue
                target = tuple(x + y for x, y in zip(beta, ebeta))
                if ctx.ell_of(target) > ctx.cutoff:
                    continue
                levels[target] = psub(levels.get(target, {}),
                                      P.pmul_term(epoly, quot, c))
                if not levels[target]:
                    del levels[target]
        if poly:
            out[beta] = poly
    return out


def complete(gens, ctx):
    """Completion that reduces every S-pair, coprime leads included.

    Returns ``(rules, added, reductions)``, where ``reductions`` counts the
    ``dp_reduce`` calls.
    """
    calls = [0]

    def nf(dp, rules):
        calls[0] += 1
        return dp_reduce(dp, rules, ctx)

    rules = [_monicize(g, ctx) for g in gens if g]
    pairs, order = [], count()

    def push(i, j):
        lcm = P.mono_lcm(rules[i][0], rules[j][0])
        heapq.heappush(pairs, (P.term_key(lcm), next(order), i, j))

    for i in range(len(rules)):
        for j in range(i):
            push(i, j)
    added = 0
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        lead_i, gi = rules[i]
        lead_j, gj = rules[j]
        lcm = P.mono_lcm(lead_i, lead_j)
        spair = dp_sub(dp_mul_term(gi, P.mono_div(lcm, lead_i), 1),
                       dp_mul_term(gj, P.mono_div(lcm, lead_j), 1))
        residue = nf(spair, rules)
        if residue:
            if _unit_lead(residue, ctx) is None:
                raise NonUnitLeadingCoefficient(
                    f"S-pair of {lead_i} and {lead_j} is a pure-q element")
            rules.append(_monicize(residue, ctx))
            added += 1
            for k in range(len(rules) - 1):
                push(len(rules) - 1, k)
    keep = []
    for i, (lead, g) in enumerate(rules):
        redundant = any(
            k != i and P.mono_divides(rules[k][0], lead)
            and (rules[k][0] != lead or k < i)
            for k in range(len(rules)))
        if not redundant:
            keep.append((lead, g))
    canonical = []
    for lead, _ in keep:
        normal = nf({ctx.zero_class: {lead: Fraction(1)}}, keep)
        element = dp_sub({ctx.zero_class: {lead: Fraction(1)}}, normal)
        canonical.append((lead, dp_clean(element)))
    canonical.sort(key=lambda r: P.term_key(r[0]))
    return tuple(canonical), added, calls[0]


def module_matrices(ideal):
    """Multiplication matrix of every ray variable, each one reduced."""
    ring = ideal.ring
    dim = ring.dim
    matrices = {}
    for rho in range(ring.fan.n_rays):
        ray = ring.ray_poly(rho)
        cols = [normal_form_surviving(ideal, P.pmul(ray, {mono: Fraction(1)}))
                for mono in ring.basis]
        matrices[rho] = [[cols[a][b] for a in range(dim)] for b in range(dim)]
    return BatyrevModule(ideal=ideal, matrices=matrices)



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


def curve_lattice_basis(fan):
    """A basis of the curve-class lattice, in another chart than toriq's.

    ``fan.chart`` reads classes at the maximal cone whose complement is
    lexicographically least; this reads them at the cone whose complement
    is greatest, so a scan over these coordinates shares none with the code
    it checks.  Each ray ``j`` outside that cone gives ``e_j`` minus
    ``u_j``'s coordinates on the cone's rays, and a class's coordinates are
    its entries on those rays.
    """
    tau = max(fan.max_cones, key=lambda cone: [
        i for i in range(fan.n_rays) if i not in cone])
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


def _solve(columns, target):
    """Exact ``x`` with ``sum_j x_j columns[j] == target`` for a basis."""
    n = len(target)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])]
            for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


def check_module(fan, ell, cutoff, module):
    """Check, with no Groebner basis, that ``module`` is Batyrev's module.

    Each ``module.matrices[rho]`` is taken as the action of ``x_rho`` on the
    standard monomials ``module.ring.basis``, over the Novikov ring truncated
    at ``ell . beta <= cutoff``; entries are read as plain ``{beta: coeff}``
    dicts.  Requires, raising AssertionError otherwise:

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
    dim, zero = ring.dim, (0,) * fan.n_rays

    def mul(a, b):
        # ell is additive: a pair past the cutoff is skipped before its
        # class is formed
        right = [(b2, c2, sum(e * x for e, x in zip(ell, b2)))
                 for b2, c2 in b.items()]
        out = {}
        for b1, c1 in a.items():
            room = cutoff - sum(e * x for e, x in zip(ell, b1))
            for b2, c2, e2 in right:
                if e2 <= room:
                    beta = tuple(x + y for x, y in zip(b1, b2))
                    out[beta] = out.get(beta, 0) + c1 * c2
        return {beta: c for beta, c in out.items() if c}

    def add(a, b, scale=1):
        out = dict(a)
        for beta, c in b.items():
            out[beta] = out.get(beta, 0) + scale * c
        return {beta: c for beta, c in out.items() if c}

    def matmul(A, B):
        out = [[{} for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for k in range(dim):
                if A[i][k]:
                    for j in range(dim):
                        if B[k][j]:
                            out[i][j] = add(out[i][j], mul(A[i][k], B[k][j]))
        return out

    def scalar(s):
        return [[dict(s) if i == j else {} for j in range(dim)]
                for i in range(dim)]

    assert sorted(module.matrices) == list(range(fan.n_rays))
    M = {rho: [[dict(x.terms) for x in row] for row in mat]
         for rho, mat in module.matrices.items()}
    for k in range(fan.dim):
        total = scalar({})
        for rho, u in enumerate(fan.rays):
            total = [[add(t, m, u[k]) for t, m in zip(trow, mrow)]
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
        rhs = scalar(mul({zero: 1}, {beta: 1}))
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
                    reduce(add, (mul(x, v) for x, v in zip(row, vec)), {})
                    for row in M[ring.surviving[j]]]
        assert vec == identity[a], \
            f"x^{mono} does not carry the unit to its basis vector"


# the fans the kernel is checked on: the catalog, the hexagon, two
# products, wdP5, whose structure constants have denominator 2, and wdP4
# and wdP3, whose completions skip most S-pairs by the chain criterion
KERNEL_FANS = dict(
    [(name, lambda name=name: builtin_fan(name)) for name in sorted(CATALOG)]
    + [("dP6", dp6), ("P2xP2", p2xp2), ("P1xdP6", p1xdp6), ("wdP5", wdp5),
       ("wdP4", wdp4), ("wdP3", wdp3)])
