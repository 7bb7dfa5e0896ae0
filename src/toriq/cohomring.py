"""Rational cohomology of a smooth complete toric variety, presented exactly.

The ring is the polynomial ring on one variable per ray, modulo the linear
relations ``sum <m, u_rho> x_rho`` and the square-free Stanley-Reisner ideal.
The variables of the maximal cone ``sigma0`` of ``Fan.chart`` are eliminated
through the linear relations; their coefficients are the surviving rays'
integer coordinates in ``sigma0``'s basis, so the surviving variables are the
chart's basis of the Picard group.  The image of the Stanley-Reisner ideal
in the surviving variables is completed to a reduced Groebner basis; the
standard monomials form the module basis, with one basis element per
maximal cone.

There is no separate classical Groebner code.  The completion is
``batyrev.complete`` at cutoff 0, where the deformed ring is the classical
one, and Batyrev's module is multiplication by the divisors.  So the column
reader of ``batyrev`` gives, for every ray, the ring's divisor columns:
integers over one denominator, and the ring's only multiplication data.
``D_rho + c`` acts on integer numerators through them, for the series
factors, both sides of every box operator, each divisor class (``D_rho``
times 1) and the maximal-cone products below.  Standard monomials are closed
under division, so each basis monomial is 1 times a chain of surviving
divisors: a class product applies each basis monomial's chain of one factor
to the other, and the pairing pulls the top coefficient back through it.

A class is stored as integer numerators over the basis and one positive
integer denominator, reduced by their gcd, so equal classes have equal
representations; ``CohClass.coeffs`` and ``gram_matrix`` build Fractions.

Integration is normalized by requiring every maximal-cone monomial
``prod_{rho in sigma} D_rho`` to integrate to 1: each such product, applied
to 1 through the divisor columns, is the same class ``c m`` on the one
top-degree basis monomial ``m``, the last, whose integral is ``1/c``.
"""

from collections import namedtuple
from functools import cached_property
from math import gcd, lcm

from . import polynomials as P
from .batyrev import _multiplication_columns, complete
from .moricone import primitive_collections
from .novikov import NovikovContext

# Scalars of the classical ring: the q^0 level alone, so no curve classes.
_Q0 = NovikovContext(n_rays=0, ell=(), cutoff=0)


class DimensionMismatch(ValueError):
    """Quotient dimension disagrees with the maximal-cone count."""


class InconsistentNormalization(ValueError):
    """Maximal-cone integrals admit no common normalization (internal bug)."""


class CohomRing(namedtuple("CohomRing", (
        "fan",
        "sigma0",                 # eliminated ray indices
        "surviving",              # remaining ray indices, ascending
        "eliminations",           # eliminated ray -> integer coeffs over surviving
        "rules",                  # (lead, normal form of lead) from complete
        "basis",                  # standard monomials (exponent tuples)
        "basis_degrees",
        "point_integrals",        # (num, den), den > 0: basis[-1]'s integral
        # per ray, (columns, den): D_rho * x has numerators sum_j x.num[j] *
        # columns[j] (each column its nonzero (k, c) pairs) over x.den * den
        "divisor_columns",
        "var_names"), defaults=((),))):

    @property
    def dim(self):
        return len(self.basis)

    @property
    def top_degree(self):
        return self.fan.dim

    @cached_property
    def divisors(self):
        """Degree-2 class of each ray's toric divisor, built once per ring:
        ``D_rho`` times 1, through its divisor columns."""
        one = self.one().num
        return tuple(self._from_parts((self._times_linear(
            one, 1, ((rho, 0),)),)) for rho in range(self.fan.n_rays))

    def zero(self):
        return CohClass(self, (0,) * self.dim)

    def one(self):
        return CohClass(self, (1,) + (0,) * (self.dim - 1))  # basis[0] is 1

    @cached_property
    def _chains(self):
        """Per basis monomial, the surviving rays whose divisors carry 1 to
        it, ascending."""
        return tuple(tuple(rho for rho, e in zip(self.surviving, m)
                           for _ in range(e)) for m in self.basis)

    @staticmethod
    def _sum(parts):
        """Numerators and denominator of the sum of ``num / den`` over the
        ``(num, den)`` parts, not reduced.  Parts that share a denominator
        add their numerators directly."""
        parts = iter(parts)
        num, den = next(parts)
        for other, d in parts:
            if d == den:
                num = [a + b for a, b in zip(num, other)]
            else:
                g = gcd(den, d)
                s, t = d // g, den // g
                num = [a * s + b * t for a, b in zip(num, other)]
                den *= s
        return num, den

    def _from_parts(self, parts):
        """Class of the sum of ``num / den`` over the ``(num, den)`` parts,
        reduced by the gcd once, at the end."""
        num, den = self._sum(parts)
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [a // g for a in num]
                den //= g
        out = CohClass.__new__(CohClass)
        out.ring, out.num, out.den = self, tuple(num), den
        return out

    def _times(self, a, b):
        """Numerators and denominator of the product of the ``(num, den)``
        parts ``a`` and ``b``, not reduced: for each basis monomial of
        ``a``, its chain of divisors applied to ``b``."""
        (na, da), (nb, db) = a, b
        parts = [([0] * len(na), 1)]
        for x, chain in zip(na, self._chains):
            if x:
                num, den = self._times_linear(nb, da * db,
                                              ((rho, 0) for rho in chain))
                parts.append(([x * y for y in num], den))
        return self._sum(parts)

    def _times_linear(self, num, den, steps):
        """Numerators and denominator of ``num / den`` times ``prod (D_rho +
        c)`` over the ``(rho, c)`` in ``steps``, through ``D_rho``'s divisor
        columns, not reduced."""
        for rho, c in steps:
            columns, d = self.divisor_columns[rho]
            out = [c * d * a for a in num]
            for column, b in zip(columns, num):
                if b:
                    for k, x in column:
                        out[k] += b * x
            num, den = out, den * d
        return num, den

    def _times_polynomial(self, num, den, rho, poly):
        """Numerators and denominator of ``num / den`` times ``sum_l c_l
        D_rho^l / cden`` for ``poly = ([c_0, c_1, ...], cden)``, not
        reduced; the powers ``D_rho^l num`` stop at the first that vanishes."""
        (c0, *coeffs), cden = poly
        d = self.divisor_columns[rho][1]
        out, power = [c0 * a for a in num], num
        for c in coeffs:
            power = self._times_linear(power, 1, ((rho, 0),))[0]
            if not any(power):
                break
            out, den = [a * d + c * b for a, b in zip(out, power)], den * d
        return out, den * cden

    def ray_poly(self, rho):
        """Polynomial representative (the Kirwan lift) of D_rho."""
        nv = len(self.surviving)
        if rho in self.surviving:
            return P.pvar(nv, self.surviving.index(rho))
        return {tuple(int(i == j) for i in range(nv)): c
                for j, c in enumerate(self.eliminations[rho]) if c}

    def ray_product(self, exponents):
        """Polynomial of ``prod D_rho^e`` over ``(rho, e)`` pairs."""
        poly = P.pconst(len(self.surviving))
        for rho, e in exponents:
            for _ in range(e):
                poly = P.pmul(poly, self.ray_poly(rho))
        return poly


class CohClass:
    """Element of the cohomology ring: integer numerators ``num`` over the
    basis and one positive denominator ``den``, reduced by their gcd (zero
    has ``den`` 1), so ``==`` and ``hash`` are value equality."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, coeffs):
        self.ring, self.num, self.den = ring, tuple(coeffs), 1
        if any(type(c) is not int for c in self.num):
            from fractions import Fraction
            den = self.den = lcm(*(Fraction(c).denominator for c in self.num))
            self.num = tuple(int(Fraction(c) * den) for c in self.num)

    @property
    def coeffs(self):
        """Coefficients over the basis, as Fractions."""
        from fractions import Fraction
        return tuple(Fraction(a, self.den) for a in self.num)

    def __eq__(self, other):
        return isinstance(other, CohClass) and self.num == other.num \
            and self.den == other.den and self.ring is other.ring

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __add__(self, other):
        return self.ring._from_parts(((self.num, self.den),
                                      (other.num, other.den)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.ring._from_parts((([-a for a in self.num], self.den),))

    def scale(self, c):
        n, d = c.as_integer_ratio()
        return self.ring._from_parts((([a * n for a in self.num],
                                       self.den * d),))

    def __mul__(self, other):
        ring = self.ring
        return ring._from_parts((ring._times((self.num, self.den),
                                             (other.num, other.den)),))

    def __repr__(self):
        return f"CohClass({render_class(self)})"


def build_cohomology_ring(fan):
    sigma0, surviving, coords = fan.chart
    nv = len(surviving)
    # x_rho = -sum_j <m_rho, u_j> x_j over surviving rays j, where m_rho is
    # the dual basis of sigma0's rays: <m_rho, u_j> is u_j's rho-coordinate
    eliminations = {rho: tuple(-c[pos] for c in coords)
                    for pos, rho in enumerate(sigma0)}

    ring = CohomRing(
        fan=fan, sigma0=sigma0, surviving=surviving,
        eliminations=eliminations, rules=(), basis=(), basis_degrees=(),
        point_integrals=(), divisor_columns=(),
        var_names=tuple(f"x{j + 1}" for j in surviving))

    sr_gens = [{(): ring.ray_product((rho, 1) for rho in coll)}
               for coll in primitive_collections(fan)]
    rules, _ = complete(sr_gens, _Q0)
    basis = tuple(P.standard_monomials([lead for lead, _ in rules], nv))
    if len(basis) != len(fan.max_cones):
        raise DimensionMismatch(
            f"quotient has dimension {len(basis)}, expected "
            f"{len(fan.max_cones)} maximal cones")
    ring = ring._replace(rules=rules, basis=basis, basis_degrees=tuple(
        P.mono_deg(m) for m in basis))

    columns, den = _multiplication_columns(ring, rules, _Q0)
    ring = ring._replace(divisor_columns=tuple(
        (tuple(tuple((k, c[()]) for k, c in col.items()) for col in cols), den)
        for cols in columns))

    # each maximal-cone monomial integrates to 1 and is c times the top one
    one = (1,) + (0,) * (len(basis) - 1)
    forms = {ring._from_parts((ring._times_linear(
        one, 1, ((rho, 0) for rho in cone)),)) for cone in fan.max_cones}
    support = [k for k, a in enumerate(next(iter(forms)).num) if a]
    if len(forms) != 1 or support != [len(basis) - 1]:
        raise InconsistentNormalization(
            "maximal-cone monomials do not reduce to one common term")
    (form,) = forms
    c = form.num[-1]
    return ring._replace(point_integrals=(form.den * (c // abs(c)), abs(c)))


def integrate(ring, c):
    """Integral over the variety of a class's top-degree part, a Fraction."""
    from fractions import Fraction
    num, den = ring.point_integrals
    return Fraction(c.num[-1] * num, c.den * den)


def pairing(ring, a, b):
    return integrate(ring, a * b)


def gram_matrix(ring):
    """Poincare pairings ``<T_a, T_b>`` of the basis classes, as Fractions."""
    from fractions import Fraction
    rows, den = _gram(ring)
    return [[Fraction(x, den) for x in row] for row in rows]


def _gram(ring):
    """``(rows, den)``: the Gram matrix ``rows[a][b] / den`` in integers,
    with no class product: row ``a`` is the top coefficient pulled back
    through ``T_a``'s chain, as ``T_a = D_rho T_a'`` pairs ``x`` like
    ``T_a'`` pairs ``D_rho x``, times the point integral."""
    rows = {(): ([0] * (ring.dim - 1) + [1], 1)}
    for chain in ring._chains[1:]:
        row, den = rows[chain[:-1]]     # the basis is closed under division
        columns, d = ring.divisor_columns[chain[-1]]
        rows[chain] = [sum(row[k] * x for k, x in col)
                       for col in columns], den * d
    num, den = ring.point_integrals
    common = lcm(*(d for _, d in rows.values()))
    return [[x * num * (common // d) for x in row]
            for row, d in rows.values()], common * den


def divisor_class(ring, rho):
    """Degree-2 class of the toric divisor attached to ray ``rho``."""
    return ring.divisors[rho]


def render_class(c):
    """``render_poly`` of the class's polynomial, read off its numerators:
    the basis is in increasing term order, so it is walked backwards."""
    return P._signed_sum(
        (P._ratio(a, c.den), P.render_monomial(m, c.ring.var_names))
        for m, a in zip(reversed(c.ring.basis), reversed(c.num)) if a)
