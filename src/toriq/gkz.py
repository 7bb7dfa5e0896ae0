"""GKZ-type hypergeometric series and the box-operator annihilation check.

For an effective class ``beta`` with pairings ``d_rho = <D_rho, beta>``, the
series coefficient is the exact product over rays of

* ``1``                                          when ``d = 0``,
* ``prod_{m=1..d} (D_rho + m hbar)^(-1)``        when ``d > 0``,
* ``D_rho``                                      when ``d = -1``,
* ``D_rho * prod_{m=d+1..-1} (D_rho + m hbar)``  when ``d <= -2``.

The reduced series (exponential prefactor stripped) is assembled over all
effective classes up to the cutoff.  A ray's factor depends only on the ray
and ``d``, so each ray keeps a cache of its factors, the factor at ``d``
built from the one at ``d - 1`` (``d + 1`` when negative) with one new term.
Classes are visited in lex order and share the product of the factors of
their common prefix.

Box operators act coefficientwise through the rule "hbar-derivative along
the divisor direction = multiplication by ``D_rho + hbar d'_rho``".  Every
coefficient is homogeneous of total degree ``-sum_rho d_rho``, so it is one
class (see ``novikov.HLaurent``), and such a factor maps that class ``x`` to
``(D_rho + d'_rho) x`` one degree up, through ``D_rho``'s integer
multiplication columns, built once per ray from the ring's structure
constants.  Applying the operator of any Mori generator must annihilate the
series exactly on the certified range, and the hbar -> 0 limit of the
operator is the binomial relation fed to the quantum-deformed ring.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cohomring import divisor_class, gram_matrix
from .moricone import enumerate_effective
from .novikov import (
    HLaurent,
    NovikovContext,
    NovikovSeries,
    nilpotent_geometric,
)


class PositiveHbarPower(ValueError):
    """Two-point extraction hit hbar^0 or higher: not a semipositive series."""


class InsufficientCutoff(ValueError):
    """Operator degree exceeds the series truncation."""


class AnnihilationFailure(AssertionError):
    """A box operator failed to annihilate the series (internal bug)."""


@dataclass(frozen=True)
class GKZOperator:
    """Box operator of a curve class: positive and negative ray factors.

    Its hbar -> 0 limit is the binomial relation ``x^positive_exponents -
    q^beta x^negative_exponents`` of the quantum-deformed ring.
    """

    beta: tuple
    positive: tuple   # (ray index, d_rho > 0)
    negative: tuple   # (ray index, -d_rho for d_rho < 0)

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


def _ray_factor(D, mult, d, cache):
    """Factor of a ray with divisor class ``D`` at pairing ``d != 0``.

    ``mult`` is ``_divisor_columns(D)`` and ``cache`` maps pairings of this
    one ray to their factors.  The factor at ``d`` is the one at ``d - 1``
    (``d + 1`` when negative) times one new term: ``(D + d hbar)^(-1)`` for
    ``d >= 2``, ``(D + (d + 1) hbar)`` for ``d <= -2``.
    """
    if d not in cache:
        if d == 1:
            cache[d] = nilpotent_geometric(D, 1)
        elif d > 1:
            cache[d] = _ray_factor(D, mult, d - 1, cache) * \
                nilpotent_geometric(D, d)
        elif d == -1:
            cache[d] = HLaurent.of_class(D)
        else:
            cache[d] = _linear_factor_apply(
                _ray_factor(D, mult, d + 1, cache), mult, d + 1)
    return cache[d]


def i_function(ring, md, cutoff):
    """Reduced series: sum over effective classes of q^beta times the coefficient.

    Each ray's divisor class is built once, and each ray keeps a cache of its
    factors by pairing.  Classes are visited in lex order with a stack of
    prefix products (``prefix[k]`` is the product over rays ``< k``, ``None``
    standing for 1), so a class only multiplies the factors after its common
    prefix with the class before it.
    """
    ctx = NovikovContext(n_rays=md.fan.n_rays, ell=md.ell, cutoff=cutoff)
    classes = enumerate_effective(md, cutoff)
    divisors = [divisor_class(ring, rho) for rho in range(ctx.n_rays)]
    mults = [_divisor_columns(D) for D in divisors]
    caches = [{} for _ in divisors]
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
            if d:
                factor = _ray_factor(divisors[rho], mults[rho], d, caches[rho])
                acc = factor if acc is None else acc * factor
            prefix[rho + 1] = acc
        last = prefix[-1]
        coefficients[beta] = HLaurent.one(ring) if last is None else last
        previous = beta
    # the series keeps its terms in enumeration order, (ell, lex)
    terms = {beta: coefficients[beta] for beta in classes}
    return NovikovSeries(ctx, ring, terms)


@dataclass(frozen=True)
class LeadingTerms:
    i0: dict            # beta -> CohClass (hbar^0 parts)
    i1: dict            # beta -> CohClass (hbar^-1 parts)
    i0_is_one: bool


def leading_terms(I):
    """Split off the hbar^0 and hbar^-1 layers and test i0 == 1."""
    ring = I.ring
    i0, i1 = ({beta: h.terms[k] for beta, h in sorted(I.terms.items())
               if k in h.terms} for k in (0, -1))
    zero = I.ctx.zero_class
    i0_is_one = set(i0) == {zero} and i0[zero] == ring.one()
    return LeadingTerms(i0=i0, i1=i1, i0_is_one=i0_is_one)


@dataclass(frozen=True)
class TwoPointTable:
    """Invariants <T_a psi^k, 1> keyed by (basis index a, k, beta)."""

    entries: dict

    def value(self, a, k, beta):
        return self.entries.get((a, int(k), tuple(beta)), Fraction(0))


def extract_two_point_invariants(ring, I):
    """Decompose each coefficient over the dual basis; read off psi powers.

    The coefficient of q^beta equals ``sum_a <T_a/(hbar - psi), 1> T^a``; its
    T_a-component (extracted by pairing against T_a) is ``sum_k hbar^(-k-1)
    <T_a psi^k, 1>``.  Every hbar power must be <= -1.  The pairing is read
    from the Gram matrix: the class numerators dotted with the column of T_a.
    """
    gram = gram_matrix(ring)
    gden = lcm(*(x.denominator for row in gram for x in row))
    columns = [[int(row[a] * gden) for row in gram] for a in range(ring.dim)]
    entries = {}
    for beta, h in sorted(I.terms.items()):
        if beta == I.ctx.zero_class:
            continue
        for power, cls in sorted(h.terms.items()):
            if power > -1:
                raise PositiveHbarPower(
                    f"coefficient of q^{beta} has hbar^{power} term")
            k = -power - 1
            for a, column in enumerate(columns):
                val = sum(x * g for x, g in zip(cls.num, column))
                if val:
                    entries[(a, k, beta)] = Fraction(val, cls.den * gden)
    return TwoPointTable(entries=entries)


def _divisor_columns(D):
    """``(columns, den)``: ``D * x`` has numerators ``sum_j x.num[j] *
    columns[j]`` (each column its nonzero ``(k, c)`` pairs) over ``x.den *
    den``, where ``den = D.den * ring.denominator``."""
    ring = D.ring
    columns = []
    for j in range(ring.dim):
        col = [0] * ring.dim
        for i, a in enumerate(D.num):
            if a:
                for k, c in ring.structure[i][j]:
                    col[k] += a * c
        columns.append(tuple((k, c) for k, c in enumerate(col) if c))
    return tuple(columns), D.den * ring.denominator


def _linear_factor_apply(h, mult, c):
    """Multiply an HLaurent by ``(D + c*hbar)`` for a degree-1 class ``D``
    given by its ``_divisor_columns``: bucket ``s`` becomes ``(D + c) h_s``
    at ``s + 1``."""
    columns, den = mult
    ring = h.ring
    out = {}
    for s, v in h.buckets.items():
        num = [c * den * a for a in v.num]
        for j, b in enumerate(v.num):
            if b:
                for k, x in columns[j]:
                    num[k] += b * x
        out[s + 1] = ring._from_parts(((num, v.den * den),))
    return HLaurent._graded(ring, out)


def apply_gkz_operator(op, I):
    """Difference of the two operator products applied to the reduced series.

    Valid (and returned) on classes with ``ell(beta') <= cutoff - ell(op.beta)``;
    raises InsufficientCutoff when the operator degree exceeds the cutoff.
    """
    ring = I.ring
    ctx = I.ctx
    ell_op = ctx.ell_of(op.beta)
    reduced_cutoff = ctx.cutoff - ell_op
    if reduced_cutoff < 0:
        raise InsufficientCutoff(
            f"box operator of {op.beta} needs cutoff >= {ell_op}, "
            f"got {ctx.cutoff}")
    out_ctx = NovikovContext(n_rays=ctx.n_rays, ell=ctx.ell,
                             cutoff=reduced_cutoff)
    mults = {rho: _divisor_columns(divisor_class(ring, rho))
             for rho, _ in op.positive + op.negative}

    def product(h, beta, factors):
        for rho, d in factors:
            for m in range(d):
                h = _linear_factor_apply(h, mults[rho], beta[rho] - m)
        return h

    terms = {}
    for beta_p, h in I.terms.items():
        if out_ctx.ell_of(beta_p) > reduced_cutoff:
            continue
        terms[beta_p] = product(h, beta_p, op.positive)
    for beta_pp, h in I.terms.items():
        # second product, shifted by q^{op.beta}: built only where it lands
        target = tuple(x + y for x, y in zip(beta_pp, op.beta))
        if out_ctx.ell_of(target) > reduced_cutoff:
            continue
        acc = product(h, beta_pp, op.negative)
        terms[target] = terms[target] - acc if target in terms \
            else acc.scale(-1)
    # the series keeps the nonzero differences only
    return NovikovSeries(out_ctx, ring, terms)


def annihilation_certificate(I, md):
    """Check that every Mori generator's box operator kills the series ``I``.

    Raises ``AnnihilationFailure`` naming the first surviving term; returns
    ``(generator, certified ell)`` pairs, the operator of ``generator``
    being zero on classes with ell up to ``certified ell``.
    """
    cutoff = I.ctx.cutoff
    for beta in md.generators:
        result = apply_gkz_operator(gkz_operator(beta), I)
        if result:
            bad_beta = sorted(result.terms)[0]
            power = result.terms[bad_beta].powers()[0]
            raise AnnihilationFailure(
                f"operator of {beta} leaves q^{bad_beta} hbar^{power}")
    return [(beta, cutoff - md.ell_of(beta)) for beta in md.generators]
