"""Batyrev's quantum deformation of the cohomology presentation.

The deformed ideal replaces each Stanley-Reisner generator
``prod_{rho in P} x_rho`` by the binomial ``prod_{rho in P} x_rho -
q^{beta_P} prod_{rho in gamma(1)} x_rho^{c_rho}`` coming from the primitive
relation of ``P``.  After the linear eliminations the coefficients live in the
truncated semigroup algebra; polynomials are stored level by level as
``{curve class -> rational polynomial}``.

Reduction runs in increasing ell-degree: the level-0 layer of every rule is a
classical polynomial whose leading monomial has a unit coefficient, so each
reduction step cancels a monomial at the current level against strictly
smaller classical terms while pushing deformation tails to strictly higher
levels (every nonzero effective class has ell >= 1) -- which is what makes the
procedure terminate.  Buchberger completion over these rules only ever adds
elements mirroring the classical completion of the level-0 layer; an S-pair
residue with no unit coefficient at all would mean the quotient is not free
over the truncated scalars and is reported, never skipped.

``complete`` and ``dp_reduce`` are the package's only Groebner engine.  At
cutoff 0 only the q^0 level occurs, the deformation disappears and they
compute the classical reduced Groebner basis and normal forms, which is how
``cohomring`` builds the cohomology ring.
"""

import heapq
from dataclasses import dataclass
from itertools import count

from . import polynomials as P
from .novikov import NovikovContext, NovikovScalar


class NonUnitLeadingCoefficient(ValueError):
    """Completion needed to divide by a coefficient in the maximal ideal."""


class RelationNonzero(AssertionError):
    """An extracted relation failed to reduce to zero (completion bug)."""


class HypothesisUnmet(ValueError):
    """Isomorphism certificate requested for a non-semipositive fan."""


class BasisNotPreserved(AssertionError):
    """A ray variable does not carry a basis monomial to the next one."""


# --- level-indexed polynomials -----------------------------------------------


def dp_clean(dp):
    return {b: p for b, p in dp.items() if p}


def dp_add(a, b):
    out = dict(a)
    for beta, poly in b.items():
        s = P.padd(out[beta], poly) if beta in out else poly
        if s:
            out[beta] = s
        else:
            out.pop(beta, None)
    return out


def dp_neg(a):
    return {b: P.pscale(p, -1) for b, p in a.items()}


def dp_sub(a, b):
    return dp_add(a, dp_neg(b))


def dp_mul_term(dp, mono, coeff):
    """Multiply by a single x-monomial with a rational coefficient."""
    return dp_clean({b: P.pmul_term(p, mono, coeff) for b, p in dp.items()})


def dp_shift(dp, beta, ctx):
    """Multiply by q^beta, truncating levels beyond the cutoff."""
    out = {}
    for b, poly in dp.items():
        target = tuple(x + y for x, y in zip(b, beta))
        if ctx.ell_of(target) <= ctx.cutoff:
            out[target] = poly
    return out


def dp_mul_scalar(dp, scalar, ctx):
    """Multiply by a NovikovScalar: convolution over levels with truncation."""
    out = {}
    for b1, poly in dp.items():
        for b2, c in scalar.terms.items():
            target = tuple(x + y for x, y in zip(b1, b2))
            if ctx.ell_of(target) > ctx.cutoff:
                continue
            contrib = P.pscale(poly, c)
            s = P.padd(out[target], contrib) if target in out else contrib
            if s:
                out[target] = s
            else:
                out.pop(target, None)
    return out


def dp_coefficient_scalar(dp, mono, ctx):
    """The full NovikovScalar coefficient of an x-monomial across levels."""
    terms = {}
    for beta, poly in dp.items():
        c = poly.get(mono)
        if c:
            terms[beta] = c
    return NovikovScalar(ctx, terms)


def dp_reduce(dp, rules, ctx):
    """Full normal form modulo monic rules, by increasing ell-level.

    Levels wait in a heap keyed by ``(ell, class)``.  Within a level the
    largest monomial left is taken next: the first rule whose lead divides it
    cancels it against strictly smaller classical terms, otherwise it is
    final.  Deformation tails move to levels of strictly larger ell; ``ell``
    is additive, so a tail whose ``ell(beta) + ell(level)`` exceeds the
    cutoff is dropped before its class is formed, and the others are
    subtracted into their target level in place.  The loop therefore
    terminates with every surviving monomial standard.  Each monomial's
    reducer (an index into ``rules``, -1 for none) and each rule's tails with
    their ells are found once per call.
    """
    zero, cutoff, ell_of = ctx.zero_class, ctx.cutoff, ctx.ell_of
    reducer, tails = {}, {}
    levels, heap = {}, []
    for b, p in dp.items():
        e = ell_of(b)
        if p and e <= cutoff:
            levels[b] = dict(p)
            heap.append((e, b))
    heapq.heapify(heap)
    out = {}
    while heap:
        e, beta = heapq.heappop(heap)
        work = levels.pop(beta)
        poly = {}
        while work:
            m = max(work, key=P.term_key)
            c = work.pop(m)
            i = reducer.get(m)
            if i is None:
                i = reducer[m] = next((i for i, (lead, _) in enumerate(rules)
                                       if P.mono_divides(lead, m)), -1)
            if i < 0:
                poly[m] = c
                continue
            lead, element = rules[i]
            if i not in tails:
                tails[i] = [(b, p, None if b == zero else ell_of(b))
                            for b, p in element.items()]
            quot = P.mono_div(m, lead)
            for ebeta, epoly, t_ell in tails[i]:
                if ebeta == zero:
                    # the lead term cancels m exactly; the rest is smaller
                    target, level = None, work
                else:
                    t_ell += e
                    if t_ell > cutoff:
                        continue
                    target = tuple(x + y for x, y in zip(beta, ebeta))
                    level = levels.get(target)
                    if level is None:
                        level = levels[target] = {}
                        heapq.heappush(heap, (t_ell, target))
                for em, ec in epoly.items():
                    if target is None and em == lead:
                        continue
                    key = P.mono_mul(em, quot)
                    s = level.get(key, 0) - c * ec
                    if s:
                        level[key] = s
                    else:
                        level.pop(key, None)
        if poly:
            out[beta] = poly
    return out


def _unit_lead(dp, ctx):
    """Leading monomial of the level-0 layer, or None (no unit coefficient)."""
    zero_poly = dp.get(ctx.zero_class)
    if not zero_poly:
        return None
    return P.leading(zero_poly)[0]


def _monicize(dp, ctx):
    lead = _unit_lead(dp, ctx)
    if lead is None:
        raise NonUnitLeadingCoefficient(
            "element has no monomial with invertible coefficient")
    lam = dp_coefficient_scalar(dp, lead, ctx)
    out = dp_mul_scalar(dp, lam.inverse(), ctx)
    assert dp_coefficient_scalar(out, lead, ctx) == NovikovScalar.unit(ctx)
    return lead, out


@dataclass(frozen=True)
class DeformedIdeal:
    ring: object
    ctx: NovikovContext
    rules: tuple              # (lead monomial, monic element) pairs
    completion_added: int

    @property
    def cutoff(self):
        return self.ctx.cutoff


def _deformed_generators(fan, md, ring, ctx):
    gens = []
    for pc, beta in zip(md.collections, md.generators):
        head = ring.ray_product((rho, 1) for rho in pc.rays)
        tail = ring.ray_product(zip(pc.gamma, pc.coeffs))
        element = dp_add({ctx.zero_class: head},
                         dp_shift({ctx.zero_class: P.pscale(tail, -1)},
                                  beta, ctx))
        gens.append(dp_clean(element))
    return gens


def complete(gens, ctx):
    """Complete level-indexed generators to a canonical rewriting system.

    Returns ``(rules, added)``: the rules are ``(lead monomial, monic
    element)`` pairs sorted by lead, each element equal to its lead minus the
    lead's full normal form (hence supported on standard monomials at every
    level), and ``added`` counts the S-pair residues the completion inserted.
    S-pairs are processed smallest leading-lcm first, the oldest pair first
    among equal lcms; residues are reduced fully before insertion.  A pair
    whose leads share no variable is never formed: the leads are monic, so
    by Buchberger's product criterion (1979) its S-polynomial reduces to
    zero, at every level of the truncated scalars as classically.  At cutoff
    0 only the q^0 level occurs and this is the classical reduced Groebner
    basis.
    """
    rules = [_monicize(g, ctx) for g in gens if g]
    pairs, order = [], count()

    def push(i, j):
        a, b = rules[i][0], rules[j][0]
        if any(x and y for x, y in zip(a, b)):
            lcm = P.mono_lcm(a, b)
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
        residue = dp_reduce(spair, rules, ctx)
        if residue:
            if _unit_lead(residue, ctx) is None:
                raise NonUnitLeadingCoefficient(
                    f"S-pair of {lead_i} and {lead_j} reduced to a pure-q "
                    f"element: quotient is not free on the classical basis")
            rules.append(_monicize(residue, ctx))
            added += 1
            for k in range(len(rules) - 1):
                push(len(rules) - 1, k)
    # minimalize leads, then canonicalize right-hand sides to normal forms
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
        nf = dp_reduce({ctx.zero_class: {lead: 1}}, keep, ctx)
        element = dp_sub({ctx.zero_class: {lead: 1}}, nf)
        canonical.append((lead, dp_clean(element)))
    canonical.sort(key=lambda r: P.term_key(r[0]))
    return tuple(canonical), added


def build_deformed_ideal(fan, md, ring, cutoff):
    """Complete the deformed generators to a rewriting system."""
    ctx = NovikovContext(n_rays=fan.n_rays, ell=md.ell, cutoff=cutoff)
    rules, added = complete(_deformed_generators(fan, md, ring, ctx), ctx)
    return DeformedIdeal(ring=ring, ctx=ctx, rules=rules,
                         completion_added=added)


def normal_form(ideal, ray_terms):
    """Reduce a polynomial in the full ray variables to its basis expansion.

    ``ray_terms`` maps exponent tuples over *all* rays to NovikovScalar (or
    plain rational) coefficients.  Eliminated variables are substituted first.
    Returns one NovikovScalar per basis monomial of the classical ring.
    """
    ring = ideal.ring
    ctx = ideal.ctx
    dp = {}
    for mono, coeff in ray_terms.items():
        expanded = ring.ray_product(enumerate(mono))
        if isinstance(coeff, NovikovScalar):
            contrib = dp_mul_scalar({ctx.zero_class: expanded}, coeff, ctx)
        else:
            contrib = {ctx.zero_class: P.pscale(expanded, coeff)}
        dp = dp_add(dp, contrib)
    return _basis_expansion(ideal, dp)


def normal_form_surviving(ideal, poly):
    """Basis expansion of a polynomial already in the surviving variables."""
    return _basis_expansion(ideal, {ideal.ctx.zero_class: poly})


def _basis_expansion(ideal, dp):
    """Reduce, then read off one NovikovScalar per classical basis monomial."""
    ctx = ideal.ctx
    out = [NovikovScalar(ctx) for _ in ideal.ring.basis]
    index = {m: i for i, m in enumerate(ideal.ring.basis)}
    for beta, poly in dp_reduce(dp, ideal.rules, ctx).items():
        for m, c in poly.items():
            assert m in index, f"non-standard monomial {m} survived reduction"
            out[index[m]] = out[index[m]] + NovikovScalar.monomial(ctx, beta, c)
    return out


@dataclass(frozen=True)
class BatyrevModule:
    ideal: DeformedIdeal
    matrices: dict            # ray index -> rows x cols of NovikovScalar

    @property
    def ring(self):
        return self.ideal.ring

    def star_column(self, rho, basis_index):
        """Expansion of x_rho * basis[a] over the basis."""
        mat = self.matrices[rho]
        return [mat[b][basis_index] for b in range(len(mat))]


def module_matrices(ideal):
    """Multiplication matrix of every ray variable on the classical basis.

    Only the surviving variables are reduced.  An eliminated ray's matrix is
    the combination of theirs that its Kirwan lift ``ring.eliminations[rho]``
    gives, since the normal form is linear.
    """
    ring, dim = ideal.ring, ideal.ring.dim
    matrices = {}
    for rho in ring.surviving:
        ray = ring.ray_poly(rho)
        cols = [normal_form_surviving(ideal, P.pmul(ray, {mono: 1}))
                for mono in ring.basis]
        matrices[rho] = [[cols[a][b] for a in range(dim)] for b in range(dim)]
    zero = NovikovScalar(ideal.ctx)
    for rho, coeffs in ring.eliminations.items():
        lift = [(matrices[s], c) for s, c in zip(ring.surviving, coeffs) if c]
        matrices[rho] = [[sum((m[b][a].scale(c) for m, c in lift), zero)
                          for a in range(dim)] for b in range(dim)]
    return BatyrevModule(ideal=ideal, matrices=dict(sorted(matrices.items())))


def relation_check(ideal, operators):
    """Reduce each operator's binomial ``x^positive - q^beta x^negative``.

    Raises ``RelationNonzero`` naming the first binomial that does not vanish
    in the quotient; returns nothing.  The two monomials of a nonzero class
    have disjoint supports, so they differ.
    """
    ctx = ideal.ctx
    for op in operators:
        expansion = normal_form(ideal, {
            op.positive_exponents: NovikovScalar.unit(ctx),
            op.negative_exponents: NovikovScalar.monomial(ctx, op.beta, -1)})
        if any(expansion):
            raise RelationNonzero(
                f"relation of {op.beta} does not vanish in the quotient")


# --- isomorphism certificate --------------------------------------------------


def certify_isomorphism(ideal, md):
    """Replay of the quantum-module / deformed-ring comparison.

    Raises ``HypothesisUnmet`` unless the fan is semipositive (the theorem's
    hypothesis).  Checks that the box operators annihilate the series
    (``AnnihilationFailure``) and that their hbar -> 0 relations reduce to
    zero in the deformed quotient (``RelationNonzero``).  Then ``phi``, the
    map from the monomial lifts of the basis to the deformed basis, must be
    the identity, so its determinant is 1: for each basis monomial ``m != 1``
    with last nonzero exponent ``j``, the module column of ``x_j`` on the
    basis monomial ``m / x_j`` (standard monomials are closed under
    division) must be the unit vector of ``m`` (``BasisNotPreserved``).
    Returns the checked ``BatyrevModule``, so a report renders from it
    without recomputing it.
    """
    from .gkz import annihilation_certificate, gkz_operator, i_function

    ring = ideal.ring
    ctx = ideal.ctx
    if not md.semipositive:
        raise HypothesisUnmet(
            "fan is not semipositive: the comparison theorem does not apply")
    annihilation_certificate(i_function(ring, md, ctx.cutoff), md)
    relation_check(ideal, [gkz_operator(beta) for beta in md.generators])
    module = module_matrices(ideal)
    index = {m: i for i, m in enumerate(ring.basis)}
    unit, zero = NovikovScalar.unit(ctx), NovikovScalar(ctx)
    for a, mono in enumerate(ring.basis):
        if any(mono):
            j = max(k for k, e in enumerate(mono) if e)
            below = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
            rho = ring.surviving[j]
            col = [unit if b == a else zero for b in range(ring.dim)]
            if module.star_column(rho, index[below]) != col:
                raise BasisNotPreserved(
                    f"x{rho + 1} * {below} is not the basis monomial {mono}")
    return module
