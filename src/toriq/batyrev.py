"""Batyrev's quantum deformation of the cohomology presentation.

The deformed ideal replaces each Stanley-Reisner generator
``prod_{rho in P} x_rho`` by the binomial ``prod_{rho in P} x_rho -
q^{beta_P} prod_{rho in gamma(1)} x_rho^{c_rho}`` coming from the primitive
relation of ``P``, which is ``x^(beta+) - q^beta x^(beta-)`` for ``beta =
beta_P``.  ``_binomial`` reads it off the class, for these generators and
for the box operators' hbar -> 0 limits that ``relation_check`` reduces.
After the linear eliminations the coefficients live in the truncated
semigroup algebra; polynomials are stored level by level as
``{curve class -> rational polynomial}``.  A rewriting rule is a pair
``(lead, tail)``: it rewrites the monomial ``x^lead`` to ``tail`` and stands
for the monic element ``x^lead - tail`` of the ideal; in the rules that
``complete`` returns, each tail is its lead's normal form.

Terms ``q^beta x^m`` are ordered by ``ell(beta)`` first, lower ell ranking
higher, then by the graded order on ``m``, and reduction runs in this order:
the level-0 layer of every tail holds only monomials smaller than its lead,
so each reduction step replaces a monomial at the current level by strictly
smaller classical terms while pushing deformation tails to strictly higher
levels (every nonzero effective class has ell >= 1) -- which is what makes
the procedure terminate.  Dividing an element by the rational q^0
coefficient of its unit lead makes it monic in this order, whatever its
q-levels hold, so no Novikov scalar is ever inverted.
Buchberger completion over these rules only ever adds elements mirroring the
classical completion of the level-0 layer.  An S-pair residue with no unit
coefficient waits for the classical leads to be complete: only a residue
that the final rules do not reduce to zero shows that the quotient is not
free over the truncated scalars, and it is reported, never skipped.  Because
every lead is monic, Buchberger's product and chain criteria carry over from
fields unchanged: a pair they drop has an S-polynomial that is a monomial
combination of S-polynomials already reduced, so it has a standard
representation at every level of the truncated scalars.

``complete`` and ``dp_reduce`` are the package's only Groebner engine.  The
normal form of a variable ``y`` times a standard monomial ``m`` is ``y m``
when that is standard, the rule's tail when it is a lead, and a reduction
only for the rest of the border; ``_multiplication_columns`` reads these
columns, which are Batyrev's module.  At cutoff 0 only the q^0 level occurs,
and the rules and columns are the classical reduced Groebner basis and
multiplication, from which ``cohomring`` builds the cohomology ring.
"""

import heapq
from collections import namedtuple
from itertools import count
from math import lcm

from . import polynomials as P
from .moricone import _binomial_exponents
from .novikov import NovikovContext


class NonUnitLeadingCoefficient(ValueError):
    """Completion needed to divide by a coefficient in the maximal ideal."""


class RelationNonzero(AssertionError):
    """An extracted relation failed to reduce to zero (completion bug)."""


class HypothesisUnmet(ValueError):
    """Isomorphism certificate requested for a non-semipositive fan."""


class BasisNotPreserved(AssertionError):
    """A ray variable does not carry a basis monomial to the next one."""


# --- level-indexed polynomials -----------------------------------------------


def dp_sub(a, b):
    """``a - b`` level by level; the levels it empties are dropped."""
    out = dict(a)
    for beta, poly in b.items():
        level = P.padd(out.get(beta, {}), P.pscale(poly, -1))
        if level:
            out[beta] = level
        else:
            out.pop(beta, None)
    return out


def dp_reduce(dp, rules, ctx):
    """Full normal form modulo ``(lead, tail)`` rules, by increasing ell-level.

    Levels wait in a heap keyed by ``(ell, class)``.  Within a level the
    largest monomial left is taken next: the first rule whose lead divides it
    replaces it by the rule's tail times the quotient, whose classical terms
    are strictly smaller, otherwise it is final.  Deformation tails move to
    levels of strictly larger ell; ``ell`` is additive, so a tail whose
    ``ell(beta) + ell(level)`` exceeds the cutoff is dropped before its class
    is formed, and the others are added into their target level in place.
    The loop therefore terminates with every surviving monomial standard.
    Each monomial's reducer (an index into ``rules``, -1 for none) and each
    rule's tail levels with their ells are found once per call.
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
            lead, tail = rules[i]
            if i not in tails:
                tails[i] = [(b, p, ell_of(b)) for b, p in tail.items()]
            quot = P.mono_div(m, lead)
            for tbeta, tpoly, t_ell in tails[i]:
                if tbeta == zero:
                    level = work
                else:
                    t_ell += e
                    if t_ell > cutoff:
                        continue
                    target = P.mono_mul(beta, tbeta)
                    level = levels.get(target)
                    if level is None:
                        level = levels[target] = {}
                        heapq.heappush(heap, (t_ell, target))
                for tm, tc in tpoly.items():
                    key = P.mono_mul(tm, quot)
                    s = level.get(key, 0) + c * tc
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


def _support(mono):
    """Bitmask of the variables a monomial contains."""
    return sum(1 << v for v, e in enumerate(mono) if e)


def _monicize(dp, ctx):
    """The rule ``(lead, tail)`` that ``dp`` gives: ``lead`` is its unit
    lead and ``tail`` is ``x^lead - dp / c``, for ``c`` the lead's rational
    coefficient at q^0, so the tail's q^0 layer lacks the lead; its q-levels
    may hold it, below ``x^lead`` in the order that ranks lower ell first."""
    lead = _unit_lead(dp, ctx)
    if lead is None:
        raise NonUnitLeadingCoefficient(
            "element has no monomial with invertible coefficient")
    inv = dp[ctx.zero_class][lead]
    if inv not in (1, -1):     # 1 and -1 are their own inverses
        from fractions import Fraction
        inv = 1 / Fraction(inv)
    tail = dp_sub({ctx.zero_class: {lead: 1}},
                  {b: P.pscale(p, inv) for b, p in dp.items()})
    return lead, tail


class DeformedIdeal(namedtuple("DeformedIdeal", (
        "ring",
        "ctx",                # NovikovContext
        "rules",              # (lead, normal form of lead) pairs
        "completion_added"))):
    __slots__ = ()


def _binomial(ring, ctx, beta):
    """Batyrev's relation ``x^(beta+) - q^beta x^(beta-)`` of a class,
    level-indexed; the level ``beta`` is dropped past the cutoff."""
    pos, neg = _binomial_exponents(beta)
    out = {ctx.zero_class: ring.ray_product(enumerate(pos))}
    if ctx.ell_of(beta) <= ctx.cutoff:
        out[tuple(beta)] = P.pscale(ring.ray_product(enumerate(neg)), -1)
    return out


def complete(gens, ctx):
    """Complete level-indexed generators to a canonical rewriting system.

    Returns ``(rules, added)``: the rules are ``(lead, tail)`` pairs sorted
    by lead, each rewriting the lead monomial to its tail, the lead's full
    normal form (hence supported on standard monomials at every level), and
    ``added`` counts the S-pair residues the completion inserted.  The
    S-pair of two rules is ``m_j tail_j - m_i tail_i`` for ``m_k`` the lcm
    of their leads over ``lead_k``; the leads cancel.  S-pairs are processed
    smallest leading-lcm first, the oldest pair first among equal lcms;
    residues are reduced fully before insertion.  ``_monicize`` makes each
    monic by its lead's rational q^0 coefficient alone (see the module
    docstring), so the S-pair is the S-polynomial; the final step clears
    the leads out of the tails' q-levels.  Two criteria of Buchberger
    (1979) drop pairs without reducing them, and both hold at every level of
    the truncated scalars as classically because the leads are monic.  A
    pair whose leads share no variable is never formed (the product
    criterion).  A pair (i, j) is skipped when a third rule k has a lead
    dividing lcm(lead_i, lead_j) and neither (i, k) nor (j, k) still waits
    (the chain criterion): S(i, j) is then a monomial combination of
    S(i, k) and S(j, k), which already have standard representations, so it
    has one through k.  A variable-support bitmask of each lead rejects most
    candidates k before the divisibility test.  A residue with no unit
    coefficient is held until the pairs run out, since a rule found later
    may still reduce its q-level terms.  Reduction never creates a q^0 term, so
    each held residue then reduces to zero, or the quotient is not free
    over the truncated scalars and ``NonUnitLeadingCoefficient`` is raised.
    At cutoff 0 only the q^0 level occurs and this is the classical reduced
    Groebner basis.
    """
    rules, masks, held = [], [], []
    pairs, waiting, order = [], set(), count()

    def push(i, j):
        if masks[i] & masks[j]:
            lcm = P.mono_lcm(rules[i][0], rules[j][0])
            heapq.heappush(pairs, (P.term_key(lcm), next(order), i, j))
            waiting.add((i, j))

    def add(dp):
        rules.append(_monicize(dp, ctx))
        masks.append(_support(rules[-1][0]))
        for k in range(len(rules) - 1):
            push(len(rules) - 1, k)

    def chain(i, j, lcm):
        both = masks[i] | masks[j]
        return any(
            not masks[k] & ~both and k != i and k != j
            and (max(i, k), min(i, k)) not in waiting
            and (max(j, k), min(j, k)) not in waiting
            and P.mono_divides(rules[k][0], lcm)
            for k in range(len(rules)))

    for g in gens:
        if g:
            add(g)
    added = 0
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        waiting.discard((i, j))
        (lead_i, tail_i), (lead_j, tail_j) = rules[i], rules[j]
        lcm = P.mono_lcm(lead_i, lead_j)
        if chain(i, j, lcm):
            continue
        m_i, m_j = P.mono_div(lcm, lead_i), P.mono_div(lcm, lead_j)
        spair = dp_sub({b: P.pmul_term(p, m_j, 1) for b, p in tail_j.items()},
                       {b: P.pmul_term(p, m_i, 1) for b, p in tail_i.items()})
        residue = dp_reduce(spair, rules, ctx)
        if residue and _unit_lead(residue, ctx) is None:
            held.append((lead_i, lead_j, residue))
        elif residue:
            add(residue)
            added += 1
    for lead_i, lead_j, residue in held:
        if dp_reduce(residue, rules, ctx):
            raise NonUnitLeadingCoefficient(
                f"S-pair of {lead_i} and {lead_j} reduced to a pure-q "
                f"element: quotient is not free on the classical basis")
    # minimalize leads, then canonicalize tails to normal forms
    keep = []
    for i, (lead, tail) in enumerate(rules):
        redundant = any(
            k != i and P.mono_divides(rules[k][0], lead)
            and (rules[k][0] != lead or k < i)
            for k in range(len(rules)))
        if not redundant:
            keep.append((lead, tail))
    canonical = [(lead, dp_reduce({ctx.zero_class: {lead: 1}}, keep, ctx))
                 for lead, _ in keep]
    canonical.sort(key=lambda r: P.term_key(r[0]))
    return tuple(canonical), added


def build_deformed_ideal(md, ring, cutoff):
    """Complete the binomials of the Mori generators to a rewriting system."""
    ctx = NovikovContext(n_rays=md.fan.n_rays, ell=md.ell, cutoff=cutoff)
    rules, added = complete([_binomial(ring, ctx, b) for b in md.generators],
                            ctx)
    return DeformedIdeal(ring=ring, ctx=ctx, rules=rules,
                         completion_added=added)


def _multiplication_columns(ring, rules, ctx):
    """``(columns, den)``: ``columns[rho][a]`` maps each basis index ``k``
    to the levels ``{beta: integer numerator}`` of ``basis[k]`` in the
    normal form of ``x_rho basis[a]``, all over the one denominator ``den``.

    A surviving variable ``y``'s normal form of ``y m`` is the product
    itself when it is standard, the rule's tail when it is a lead (every
    lead of a reduced system is on the border), and ``dp_reduce``'s, once
    per monomial, for the rest of the border (Kehrein and Kreuzer, J. Pure
    Appl. Algebra 196, 2005).  Every ray's columns are the combination of
    these that its Kirwan lift, its column of the chart's curve basis,
    gives, since the normal form is linear.  Zero entries are dropped.
    """
    zero, basis = ctx.zero_class, ring.basis
    index = {m: k for k, m in enumerate(basis)}
    forms = {m: {zero: {m: 1}} for m in basis}
    forms.update(rules)

    def form(ym):
        if ym not in forms:
            forms[ym] = dp_reduce({zero: {ym: 1}}, rules, ctx)
        return forms[ym]

    normal = [[form(m[:v] + (m[v] + 1,) + m[v + 1:]) for m in basis]
              for v in range(len(ring.surviving))]
    den = lcm(*(c.denominator for column in normal for f in column
                for poly in f.values() for c in poly.values()))
    columns = []
    for rho in range(ring.fan.n_rays):
        lift = [b[rho] for b in ring.fan.chart[2]]
        cols = [{} for _ in basis]
        for column, c in zip(normal, lift):
            for col, f in zip(cols, column if c else ()):
                for beta, poly in f.items():
                    for m, x in poly.items():
                        levels = col.setdefault(index[m], {})
                        levels[beta] = levels.get(beta, 0) + c * x
        columns.append([{k: {b: int(x * den) for b, x in levels.items() if x}
                         for k, levels in col.items() if any(levels.values())}
                        for col in cols])
    return columns, den


class BatyrevModule(namedtuple("BatyrevModule", (
        "ideal",              # DeformedIdeal
        "columns",            # ray -> basis index a -> {k: {beta: numerator}}
        "den"))):             # the one denominator of every numerator
    __slots__ = ()

    @property
    def ring(self):
        return self.ideal.ring


def module_matrices(ideal):
    """Batyrev's module: the column reader's table of every ray variable on
    the classical basis, ``columns[rho][a]`` the nonzero entries of
    ``x_rho basis[a]`` as integer numerators over ``den``."""
    columns, den = _multiplication_columns(ideal.ring, ideal.rules, ideal.ctx)
    return BatyrevModule(ideal=ideal, columns=columns, den=den)


def relation_check(ideal, classes):
    """Reduce each class's ``_binomial``, its box operator's hbar -> 0
    limit.  Raises ``RelationNonzero`` naming the first class whose
    relation does not vanish in the quotient; returns nothing."""
    for beta in classes:
        if dp_reduce(_binomial(ideal.ring, ideal.ctx, beta), ideal.rules,
                     ideal.ctx):
            raise RelationNonzero(
                f"relation of {beta} does not vanish in the quotient")


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
    division) must be the unit vector of ``m``, the column ``{m: {0: den}}``
    since the column reader drops zero entries (``BasisNotPreserved``).
    Returns the checked ``BatyrevModule``, so a report renders from it
    without recomputing it.
    """
    from .gkz import annihilation_certificate, i_function

    ring = ideal.ring
    ctx = ideal.ctx
    if not md.semipositive:
        raise HypothesisUnmet(
            "fan is not semipositive: the comparison theorem does not apply")
    annihilation_certificate(i_function(ring, md, ctx.cutoff), md)
    relation_check(ideal, md.generators)
    module = module_matrices(ideal)
    index = {m: i for i, m in enumerate(ring.basis)}
    for a, mono in enumerate(ring.basis):
        if any(mono):
            j = max(k for k, e in enumerate(mono) if e)
            below = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
            rho = ring.surviving[j]
            if module.columns[rho][index[below]] != \
                    {a: {ctx.zero_class: module.den}}:
                raise BasisNotPreserved(
                    f"x{rho + 1} * {below} is not the basis monomial {mono}")
    return module
