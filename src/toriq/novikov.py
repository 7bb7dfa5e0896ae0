"""Truncated series over the effective-class semigroup.

Three layers, each exact:

* ``NovikovScalar`` -- a finite QQ-linear combination of semigroup symbols
  ``q^beta`` keyed by full curve-class vectors, truncated by the positive
  functional ``ell`` at a fixed cutoff: a sparse polynomial whose exponents
  are curve classes, so ``polynomials`` does its arithmetic and only the
  public constructor truncates and normalizes (``_exact`` skips both).
* ``HLaurent`` -- a finitely supported Laurent polynomial in the formal
  variable hbar whose coefficients are cohomology classes; nothing is ever
  windowed or silently dropped.  It is stored as one class per total degree
  (``deg hbar = deg D_rho = 1``), so a product of homogeneous series, which
  every series coefficient and box-operator factor is, is one class product
  on integer numerators, reduced once; ``gkz`` works on such numerators.
* ``NovikovSeries`` -- ``q^beta``-indexed families of HLaurent coefficients,
  truncated at the cutoff.
"""

from collections import namedtuple
from fractions import Fraction
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
    def _exact(cls, ctx, terms):
        """A scalar of ``terms`` kept as given: each coefficient nonzero and
        as ``polynomials._rational`` gives it, each class under the cutoff."""
        out = cls.__new__(cls)
        out.ctx, out.terms = ctx, terms
        return out

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

    def q0(self):
        """Coefficient of q^0."""
        return self.terms.get(self.ctx.zero_class, Fraction(0))

    def __repr__(self):
        return f"NovikovScalar({self.terms})"


class HLaurent:
    """hbar-Laurent polynomial with cohomology-class coefficients.

    Stored by total degree, with ``deg hbar = deg D_rho = 1``: ``buckets[s]``
    is one class whose degree-p part is the coefficient of ``hbar^(s-p)``.
    Every HLaurent has exactly one such form, so ``==`` compares buckets and
    zero means every bucket is zero.  A product of two series is one class
    product per pair of buckets, and a homogeneous series (every series
    coefficient and every box-operator factor) is a single bucket.  The
    ``{power: class}`` form is ``terms``, built from the buckets at most once.
    """

    __slots__ = ("ring", "buckets", "_terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self._terms = {k: v for k, v in (terms or {}).items() if v}
        self.buckets = _regrade(ring, self._terms, 1)

    @classmethod
    def _graded(cls, ring, buckets):
        out = cls.__new__(cls)
        out.ring, out._terms = ring, None
        out.buckets = {s: v for s, v in buckets.items() if v}
        return out

    @classmethod
    def one(cls, ring):
        return cls(ring, {0: ring.one()})

    @classmethod
    def of_class(cls, c, power=0):
        return cls(c.ring, {power: c})

    @property
    def terms(self):
        """``{hbar power: class}``, the nonzero coefficients."""
        if self._terms is None:
            self._terms = _regrade(self.ring, self.buckets, -1)
        return self._terms

    def __bool__(self):
        return bool(self.buckets)

    def __eq__(self, other):
        return isinstance(other, HLaurent) and self.buckets == other.buckets

    def __add__(self, other):
        out = dict(self.buckets)
        for s, v in other.buckets.items():
            out[s] = out[s] + v if s in out else v
        return HLaurent._graded(self.ring, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return HLaurent._graded(
            self.ring, {s: v.scale(c) for s, v in self.buckets.items()})

    def __mul__(self, other):
        ring, parts = self.ring, {}
        for s1, v1 in self.buckets.items():
            for s2, v2 in other.buckets.items():
                parts.setdefault(s1 + s2, []).append(ring._times(
                    (v1.num, v1.den), (v2.num, v2.den)))
        return HLaurent._graded(ring, {s: ring._from_parts(p)
                                       for s, p in parts.items()})

    def coefficient(self, power):
        return self.terms.get(power, self.ring.zero())

    def powers(self):
        return sorted(self.terms)

    def __repr__(self):
        return f"HLaurent({self.terms})"


def _regrade(ring, classes, sign):
    """Move the degree-p part of the class at each key ``k`` to ``k + sign*p``.

    Sign 1 takes ``{hbar power: class}`` to buckets, sign -1 takes it back.
    """
    parts = {}
    for k, v in classes.items():
        for p in range(ring.top_degree + 1):
            num = [a if d == p else 0 for a, d in zip(v.num, ring.basis_degrees)]
            if any(num):
                parts.setdefault(k + sign * p, []).append((num, v.den))
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

    def coefficient(self, beta):
        return self.terms.get(tuple(beta), HLaurent(self.ring))
