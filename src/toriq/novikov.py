"""Truncated series over the effective-class semigroup.

Three layers, each exact:

* ``NovikovScalar`` -- a finite QQ-linear combination of semigroup symbols
  ``q^beta`` keyed by full curve-class vectors, truncated by the positive
  functional ``ell`` at a fixed cutoff: a sparse polynomial whose exponents
  are curve classes, so ``polynomials`` does its arithmetic and the
  constructor truncates and normalizes.  The pipeline builds none.
* ``HLaurent`` -- a finitely supported Laurent polynomial in the formal
  variable hbar whose coefficients are cohomology classes; nothing is ever
  windowed or silently dropped.  It is a record of one class per total
  degree (``deg hbar = deg D_rho = 1``), built by ``gkz`` from integer
  numerators, with one constructor and a read-only ``{power: class}`` view;
  its sums and scalings live with the tests' oracles.
* ``NovikovSeries`` -- ``q^beta``-indexed families of HLaurent coefficients,
  truncated at the cutoff.
"""

from collections import namedtuple
from operator import mul

from . import polynomials as P


class CutoffMismatch(ValueError):
    """Binary operation between series with different truncation data."""


class NovikovContext(namedtuple("NovikovContext", "n_rays ell cutoff")):
    """Shared truncation data: ray count, positive functional, cutoff."""

    __slots__ = ()

    def ell_of(self, beta):
        return sum(map(mul, self.ell, beta))

    @property
    def zero_class(self):
        return (0,) * self.n_rays


def _check_ctx(a, b):
    if a.ctx != b.ctx:
        raise CutoffMismatch(f"{a.ctx} vs {b.ctx}")


class NovikovScalar:
    """Exact element of the truncated semigroup algebra QQ[[NE]]."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        clean = {}
        for beta, c in (terms or {}).items():
            c = P._rational(c)
            if c and ctx.ell_of(beta) <= ctx.cutoff:
                clean[tuple(beta)] = c
        self.terms = clean

    @classmethod
    def unit(cls, ctx, c=1):
        return cls(ctx, {ctx.zero_class: c})

    @classmethod
    def monomial(cls, ctx, beta, c=1):
        return cls(ctx, {tuple(beta): c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NovikovScalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        _check_ctx(self, other)
        return NovikovScalar(self.ctx, P.padd(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NovikovScalar(self.ctx, P.pscale(self.terms, -1))

    def __mul__(self, other):
        _check_ctx(self, other)
        return NovikovScalar(self.ctx, P.pmul(self.terms, other.terms))

    def scale(self, c):
        return NovikovScalar(self.ctx, P.pscale(self.terms, c))

    def __repr__(self):
        return f"NovikovScalar({self.terms})"


class HLaurent:
    """hbar-Laurent polynomial with cohomology-class coefficients.

    A record of its buckets, with ``deg hbar = deg D_rho = 1``: ``buckets[s]``
    is one class whose degree-p part is the coefficient of ``hbar^(s-p)``.
    ``HLaurent(ring, buckets)`` is the only constructor; it drops zero
    buckets, so every HLaurent has exactly one form, ``==`` compares buckets
    and zero means no bucket.  A homogeneous series (every series
    coefficient and every box-operator factor) is a single bucket.  The
    read-only ``{power: class}`` view is ``terms``, built at most once.
    ``__mul__`` stays only because ``perfbench``'s tracer counts it, until
    the tracer reads work counters; the pipeline forms no HLaurent product.
    """

    __slots__ = ("ring", "buckets", "_terms")

    def __init__(self, ring, buckets):
        self.ring, self._terms = ring, None
        self.buckets = {s: v for s, v in buckets.items() if v}

    @property
    def terms(self):
        """``{hbar power: class}``, the nonzero coefficients."""
        if self._terms is None:
            self._terms = _regrade(self.ring, self.buckets)
        return self._terms

    def __bool__(self):
        return bool(self.buckets)

    def __eq__(self, other):
        return isinstance(other, HLaurent) and self.buckets == other.buckets

    def __mul__(self, other):
        ring, parts = self.ring, {}
        for s1, v1 in self.buckets.items():
            for s2, v2 in other.buckets.items():
                parts.setdefault(s1 + s2, []).append(ring._times(
                    (v1.num, v1.den), (v2.num, v2.den)))
        return HLaurent(ring, {s: ring._from_parts(p)
                               for s, p in parts.items()})

    def powers(self):
        return sorted(self.terms)

    def __repr__(self):
        return f"HLaurent({self.terms})"


def _regrade(ring, buckets):
    """``{hbar power: class}`` of ``buckets``: the degree-p part of bucket
    ``s`` is the coefficient of ``hbar^(s-p)``."""
    parts = {}
    for s, v in buckets.items():
        for p in range(ring.top_degree + 1):
            num = [a if d == p else 0 for a, d in zip(v.num, ring.basis_degrees)]
            if any(num):
                parts.setdefault(s - p, []).append((num, v.den))
    return {k: ring._from_parts(ps) for k, ps in parts.items()}


class NovikovSeries:
    """Map from effective classes to HLaurent coefficients, truncated by ell."""

    __slots__ = ("ctx", "ring", "terms")

    def __init__(self, ctx, ring, terms=None):
        self.ctx = ctx
        self.ring = ring
        clean = {}
        for beta, h in (terms or {}).items():
            if h and ctx.ell_of(beta) <= ctx.cutoff:
                clean[tuple(beta)] = h
        self.terms = clean

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NovikovSeries) and self.terms == other.terms \
            and self.ctx == other.ctx
