"""GKZ-type hypergeometric series and the box-operator annihilation check.

For an effective class ``beta`` with pairings ``d_rho = <D_rho, beta>``, the
series coefficient is the exact product over rays of

* ``1``                                          when ``d = 0``,
* ``prod_{m=1..d} (D_rho + m hbar)^(-1)``        when ``d > 0``,
* ``D_rho``                                      when ``d = -1``,
* ``D_rho * prod_{m=d+1..-1} (D_rho + m hbar)``  when ``d <= -2``.

The reduced series (exponential prefactor stripped) is assembled over all
effective classes up to the cutoff.  Every coefficient is homogeneous of
total degree ``-sum_rho d_rho``, so it is a ``novikov.HLaurent`` of the one
bucket read off ``beta``.  With hbar = 1 a ray's factor is a
polynomial in the nilpotent ``D_rho`` whose coefficients depend only on ``d``
and the top degree, so all rays share one factor polynomial per pairing,
applied through the ring's divisor columns.  Classes are visited in lex
order and share the product of the factors of their common prefix, carried
on integer numerators: the series forms no HLaurent product.

Box operators act coefficientwise through the rule "hbar-derivative along
the divisor direction = multiplication by ``D_rho + hbar d'_rho``", which
maps a bucket's class ``x`` to ``(D_rho + d'_rho) x`` one bucket up, through
the same kernel; an operator's sides run on integer numerators and form a
class only where they differ.  Applying the operator
of any Mori generator must annihilate the series exactly on the certified
range, and the hbar -> 0 limit of the operator is the binomial relation fed
to the quantum-deformed ring.  Two-point invariants pair a class's nonzero
numerators with sparse Gram rows.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .cohomring import gram_matrix
from .moricone import enumerate_effective
from .novikov import HLaurent, NovikovContext, NovikovSeries


class PositiveHbarPower(ValueError):
    """Two-point extraction hit hbar^0 or higher: not a semipositive series."""


class InsufficientCutoff(ValueError):
    """Operator degree exceeds the series truncation."""


class AnnihilationFailure(AssertionError):
    """A box operator failed to annihilate the series (internal bug)."""


class GKZOperator(namedtuple("GKZOperator", (
        "beta",
        "positive",   # (ray index, d_rho > 0)
        "negative"))):  # (ray index, -d_rho for d_rho < 0)
    """Box operator of a curve class: positive and negative ray factors.

    Its hbar -> 0 limit is the binomial relation ``x^positive_exponents -
    q^beta x^negative_exponents`` of the quantum-deformed ring.
    """

    __slots__ = ()

    @property
    def positive_exponents(self):
        """Per-ray exponents ``max(d_rho, 0)`` of the leading monomial."""
        return tuple(max(d, 0) for d in self.beta)

    @property
    def negative_exponents(self):
        """Per-ray exponents ``max(-d_rho, 0)`` of the q^beta monomial."""
        return tuple(max(-d, 0) for d in self.beta)


def gkz_operator(beta):
    pos = tuple((i, d) for i, d in enumerate(beta) if d > 0)
    neg = tuple((i, -d) for i, d in enumerate(beta) if d < 0)
    return GKZOperator(beta=tuple(beta), positive=pos, negative=neg)


def _factor(d, t):
    """Ray factor at pairing ``d`` as a polynomial in ``D``, truncated above
    ``D^t``: its integer coefficients of ``D^0 .. D^t`` and one positive
    denominator, reduced.  ``(D + m)^(-1)`` is ``sum_l (-1)^l m^(t-l) D^l``
    over ``m^(t+1)``."""
    if d >= 0:
        num, den = [1] + [0] * t, 1
        for m in range(1, d + 1):
            inverse = [(-1) ** l * m ** (t - l) for l in range(t + 1)]
            num = [sum(num[j] * inverse[l - j] for j in range(l + 1))
                   for l in range(t + 1)]
            den *= m ** (t + 1)
    else:
        num, den = [0, 1] + [0] * (t - 1), 1
        for m in range(d + 1, 0):
            num = [m * a + b for a, b in zip(num, [0] + num)]
    g = gcd(den, *num)
    return [a // g for a in num], den // g


def i_function(ring, md, cutoff):
    """Reduced series: sum over effective classes of q^beta times the coefficient.

    Classes are visited in lex order with a stack of prefix products
    (``prefix[k]`` is the product over rays ``< k``), so a class only
    multiplies the factors after its common prefix with the class before
    it.  Prefixes are unreduced ``(numerators, denominator)`` pairs; each
    coefficient is reduced once, when it is stored, in bucket ``-sum(beta)``.
    """
    ctx = NovikovContext(n_rays=md.fan.n_rays, ell=md.ell, cutoff=cutoff)
    classes = enumerate_effective(md, cutoff)
    factors = {}
    prefix = [(ring.one().num, 1)] + [None] * ctx.n_rays
    previous = ()
    coefficients = {}
    for beta in sorted(classes):
        start = 0
        while start < len(previous) and beta[start] == previous[start]:
            start += 1
        for rho in range(start, ctx.n_rays):
            acc, d = prefix[rho], beta[rho]
            if d and any(acc[0]):   # a zero prefix stays zero
                if d not in factors:
                    factors[d] = _factor(d, ring.top_degree)
                acc = ring._times_polynomial(*acc, rho, factors[d])
            prefix[rho + 1] = acc
        coefficients[beta] = HLaurent(ring, {
            -sum(beta): ring._from_parts((prefix[-1],))})
        previous = beta
    # the series keeps its terms in enumeration order, (ell, lex)
    return NovikovSeries(ctx, ring, {b: coefficients[b] for b in classes})


class LeadingTerms(namedtuple("LeadingTerms", (
        "i0",           # beta -> CohClass (hbar^0 parts)
        "i1",           # beta -> CohClass (hbar^-1 parts)
        "i0_is_one"))):
    __slots__ = ()


def leading_terms(I):
    """Split off the hbar^0 and hbar^-1 layers and test i0 == 1."""
    ring = I.ring
    i0, i1 = ({beta: h.terms[k] for beta, h in sorted(I.terms.items())
               if k in h.terms} for k in (0, -1))
    zero = I.ctx.zero_class
    i0_is_one = set(i0) == {zero} and i0[zero] == ring.one()
    return LeadingTerms(i0=i0, i1=i1, i0_is_one=i0_is_one)


class TwoPointTable(namedtuple("TwoPointTable", "entries")):
    """Invariants <T_a psi^k, 1> keyed by (basis index a, k, beta)."""

    __slots__ = ()

    def value(self, a, k, beta):
        return self.entries.get((a, int(k), tuple(beta)), Fraction(0))


def extract_two_point_invariants(ring, I):
    """Decompose each coefficient over the dual basis; read off psi powers.

    The coefficient of q^beta equals ``sum_a <T_a/(hbar - psi), 1> T^a``; its
    T_a-component (extracted by pairing against T_a) is ``sum_k hbar^(-k-1)
    <T_a psi^k, 1>``.  Every hbar power must be <= -1.  The pairing is read
    from the Gram matrix: each nonzero numerator times its sparse Gram row.
    """
    gram = gram_matrix(ring)
    gden = lcm(*(x.denominator for row in gram for x in row))
    rows = [[(a, int(g * gden)) for a, g in enumerate(r) if g] for r in gram]
    entries = {}
    for beta, h in sorted(I.terms.items()):
        if beta == I.ctx.zero_class:
            continue
        for power, cls in sorted(h.terms.items()):
            if power > -1:
                raise PositiveHbarPower(
                    f"coefficient of q^{beta} has hbar^{power} term")
            k = -power - 1
            pairs = {}
            for b, x in enumerate(cls.num):
                if x:
                    for a, g in rows[b]:
                        pairs[a] = pairs.get(a, 0) + x * g
            for a, val in sorted(pairs.items()):
                if val:
                    entries[(a, k, beta)] = Fraction(val, cls.den * gden)
    return TwoPointTable(entries=entries)


def check_cutoff(ell_of, generators, cutoff):
    """Raise ``InsufficientCutoff`` at the first of ``generators`` whose
    ell, the degree of its box operator, exceeds ``cutoff``."""
    for beta in generators:
        if ell_of(beta) > cutoff:
            raise InsufficientCutoff(
                f"box operator of {beta} needs cutoff >= {ell_of(beta)}, "
                f"got {cutoff}")


def apply_gkz_operator(op, I):
    """Difference of the two operator products applied to the reduced series.

    Valid (and returned) on classes with ``ell(beta') <= cutoff - ell(op.beta)``;
    raises InsufficientCutoff when the operator degree exceeds the cutoff.
    Each side runs on integer numerators over a running denominator, and
    the sides are cross-multiplied: only a nonzero difference makes a class.
    """
    ring, ctx = I.ring, I.ctx
    check_cutoff(ctx.ell_of, (op.beta,), ctx.cutoff)
    op_ell = ctx.ell_of(op.beta)
    reduced_cutoff = ctx.cutoff - op_ell
    out_ctx = ctx._replace(cutoff=reduced_cutoff)
    zero = ((0,) * ring.dim, 1)
    sides = {}      # (class, bucket) -> both sides' (numerators, denominator)

    def side(i, at, h, beta, factors):
        steps = [(rho, beta[rho] - m) for rho, d in factors for m in range(d)]
        for s, v in h.buckets.items():
            sides.setdefault((at, s + len(steps)), [zero, zero])[i] = \
                ring._times_linear(v.num, v.den, steps)

    for beta, h in I.terms.items():
        ell = ctx.ell_of(beta)      # once per class: ell is additive
        if ell <= reduced_cutoff:
            side(0, beta, h, beta, op.positive)
        if ell + op_ell <= reduced_cutoff:
            # the second side lands shifted by q^{op.beta}: built only there
            side(1, tuple(map(add, beta, op.beta)), h, beta, op.negative)
    diff = {}
    for (beta, s), ((na, da), (nb, db)) in sides.items():
        if [x * db for x in na] != [y * da for y in nb]:
            diff.setdefault(beta, {})[s] = ring._from_parts(
                ((na, da), ([-y for y in nb], db)))
    return NovikovSeries(out_ctx, ring, {
        beta: HLaurent(ring, b) for beta, b in diff.items()})


def annihilation_certificate(I, md):
    """Check that every Mori generator's box operator kills the series ``I``.

    Raises ``AnnihilationFailure`` naming the first surviving term; returns
    ``(generator, certified ell)`` pairs, the operator of ``generator``
    being zero on classes with ell up to ``certified ell``.
    """
    for beta in md.generators:
        result = apply_gkz_operator(gkz_operator(beta), I)
        if result:
            bad_beta = sorted(result.terms)[0]
            power = result.terms[bad_beta].powers()[0]
            raise AnnihilationFailure(
                f"operator of {beta} leaves q^{bad_beta} hbar^{power}")
    return [(beta, I.ctx.cutoff - md.ell_of(beta)) for beta in md.generators]
