"""Truncated series over the effective-class semigroup.

Three layers, each exact:

* ``NovikovScalar`` -- a finite QQ-linear combination of semigroup symbols
  ``q^beta`` keyed by full curve-class vectors, truncated by the positive
  functional ``ell`` at a fixed cutoff.  Units are the scalars with nonzero
  ``q^0`` part; their inverses come from a finite Neumann series because every
  nonzero effective class has ``ell >= 1``.
* ``HLaurent`` -- a finitely supported Laurent polynomial in the formal
  variable hbar whose coefficients are cohomology classes.  Nilpotency of
  positive-degree classes keeps every expansion finite; nothing is ever
  windowed or silently dropped.  It is stored as one class per total degree
  (``deg hbar = deg D_rho = 1``), so a product of homogeneous series, which
  every series coefficient and box-operator factor is, is one class product
  on integer numerators, reduced once.
* ``NovikovSeries`` -- ``q^beta``-indexed families of HLaurent coefficients,
  truncated at the cutoff.
"""

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import _rational


class CutoffMismatch(ValueError):
    """Binary operation between series with different truncation data."""


class NotAUnit(ValueError):
    """Inversion of an element of the maximal ideal."""


class NotNilpotent(ValueError):
    """Geometric expansion of a class with nonzero scalar part."""


@dataclass(frozen=True)
class NovikovContext:
    """Shared truncation data: ray count, positive functional, cutoff."""

    n_rays: int
    ell: tuple
    cutoff: int

    def ell_of(self, beta):
        return sum(a * b for a, b in zip(self.ell, beta))

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
            c = _rational(c)
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
        out = dict(self.terms)
        for b, c in other.terms.items():
            s = out.get(b, 0) + c
            if s:
                out[b] = s
            else:
                out.pop(b, None)
        return NovikovScalar(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NovikovScalar(self.ctx, {b: -c for b, c in self.terms.items()})

    def __mul__(self, other):
        _check_ctx(self, other)
        ctx = self.ctx
        out = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                b = tuple(x + y for x, y in zip(b1, b2))
                if ctx.ell_of(b) > ctx.cutoff:
                    continue
                s = out.get(b, 0) + c1 * c2
                if s:
                    out[b] = s
                else:
                    out.pop(b, None)
        return NovikovScalar(ctx, out)

    def scale(self, c):
        return NovikovScalar(self.ctx, {b: x * c for b, x in self.terms.items()})

    def q0(self):
        """Coefficient of q^0."""
        return self.terms.get(self.ctx.zero_class, Fraction(0))

    def inverse(self):
        """Exact inverse of a unit, by finite Neumann iteration over ell."""
        c0 = self.q0()
        if c0 == 0:
            raise NotAUnit("scalar has no q^0 part")
        ctx = self.ctx
        rest = NovikovScalar(
            ctx, {b: c for b, c in self.terms.items() if b != ctx.zero_class})
        n = rest.scale(Fraction(1) / c0)
        acc = NovikovScalar.unit(ctx)
        power = NovikovScalar.unit(ctx)
        sign = 1
        for _ in range(ctx.cutoff):
            power = power * n
            if not power:
                break
            sign = -sign
            acc = acc + power.scale(sign)
        inv = acc.scale(Fraction(1) / c0)
        assert (inv * self) == NovikovScalar.unit(ctx)
        return inv

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
        parts = {}
        for s1, v1 in self.buckets.items():
            for s2, v2 in other.buckets.items():
                parts.setdefault(s1 + s2, []).append(v1._times(v2))
        ring = self.ring
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


def nilpotent_geometric(D, m):
    """Exact inverse (D + m*hbar)^(-1) for a nilpotent class D.

    Equals ``sum_{l>=0} (-1)^l D^l / (m^(l+1) hbar^(l+1))``, a finite sum.
    """
    if m == 0:
        raise ZeroDivisionError("m must be a nonzero integer")
    if D.degree_zero_coefficient() != 0:
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
    return HLaurent(ring, terms)


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
