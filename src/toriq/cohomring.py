"""Rational cohomology of a smooth complete toric variety, presented exactly.

The ring is the polynomial ring on one variable per ray, modulo the linear
relations ``sum <m, u_rho> x_rho`` and the square-free Stanley-Reisner ideal.
The variables of the maximal cone ``sigma0`` of ``fan.chart`` are eliminated
through the linear relations; their coefficients are the surviving rays'
integer coordinates in ``sigma0``'s basis, so the surviving variables are the
chart's basis of the Picard group.  The image of the Stanley-Reisner ideal
in the surviving variables is completed to a reduced Groebner basis; the
standard monomials form the module basis, with one basis element per
maximal cone.

There is no separate classical Groebner code: the completion and every normal
form here are ``batyrev.complete`` and ``batyrev.dp_reduce`` run at cutoff 0,
where only the q^0 level occurs and the deformed ring is the classical one.

A class is stored as integer numerators over the basis and one positive
integer denominator, reduced by their gcd, so equal classes have equal
representations.  The products of basis elements are kept sparsely: for each
pair of basis indices only the nonzero ``(k, c)`` terms, each ``c`` an integer
over one ring-wide common denominator.  Products, sums and scalings of classes
therefore run on ints alone; ``CohClass.coeffs`` gives the coefficients as
Fractions for rendering and integration.

Integration is normalized by requiring every maximal-cone monomial
``prod_{rho in sigma} D_rho`` to integrate to 1; the Poincare pairing of the
monomial basis classes is their Gram matrix under integration.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import lattice, polynomials as P
from .batyrev import complete, dp_reduce
from .fan import chart
from .moricone import primitive_collections
from .novikov import NovikovContext

# Scalars of the classical ring: the q^0 level alone, so no curve classes.
_Q0 = NovikovContext(n_rays=0, ell=(), cutoff=0)


class DimensionMismatch(ValueError):
    """Quotient dimension disagrees with the maximal-cone count."""


class InconsistentNormalization(ValueError):
    """Maximal-cone integrals admit no common normalization (internal bug)."""


@dataclass(frozen=True)
class CohomRing:
    fan: object
    sigma0: tuple                 # eliminated ray indices
    surviving: tuple              # remaining ray indices, ascending
    eliminations: dict            # eliminated ray -> integer coeffs over surviving
    rules: tuple                  # (lead, {(): monic polynomial}) from complete
    basis: tuple                  # standard monomials (exponent tuples)
    basis_degrees: tuple
    structure: tuple              # [i][j] -> nonzero (k, integer c) pairs
    denominator: int              # common denominator of every c
    point_integrals: dict         # top-degree basis monomial -> Fraction
    var_names: tuple = field(default=(), compare=False)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def top_degree(self):
        return self.fan.dim

    def basis_index(self, mono):
        return self.basis.index(mono)

    def zero(self):
        return CohClass(self, (0,) * self.dim)

    def one(self):
        coeffs = [0] * self.dim
        coeffs[self.basis.index((0,) * len(self.surviving))] = 1
        return CohClass(self, coeffs)

    def from_poly(self, poly):
        """Class of a polynomial in the surviving variables."""
        nf = _normal_form(self.rules, poly)
        coeffs = [0] * self.dim
        for m, c in nf.items():
            coeffs[self.basis.index(m)] = c
        return CohClass(self, coeffs)

    def _from_parts(self, parts):
        """Class of the sum of ``num / den`` over the ``(num, den)`` parts.

        Parts that share a denominator add their numerators directly; the
        sum is reduced by the gcd once, at the end.
        """
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
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [a // g for a in num]
                den //= g
        out = CohClass.__new__(CohClass)
        out.ring, out.num, out.den = self, tuple(num), den
        return out

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
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        self.ring, self.den = ring, den
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)

    @property
    def coeffs(self):
        """Coefficients over the basis, as Fractions."""
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
        return self.ring._from_parts((self._times(other),))

    def _times(self, other):
        """Numerators and denominator of ``self * other``, not reduced."""
        ring = self.ring
        out = [0] * len(self.num)
        right = [(j, b) for j, b in enumerate(other.num) if b]
        for i, a in enumerate(self.num):
            if a:
                row = ring.structure[i]
                for j, b in right:
                    ab = a * b
                    for k, c in row[j]:
                        out[k] += ab * c
        return out, self.den * other.den * ring.denominator

    def degree_zero_coefficient(self):
        """Coefficient of the unit basis monomial."""
        idx = self.ring.basis.index((0,) * len(self.ring.surviving))
        return Fraction(self.num[idx], self.den)

    def __repr__(self):
        return f"CohClass({render_class(self)})"


def build_cohomology_ring(fan):
    sigma0, surviving, coords = chart(fan)
    nv = len(surviving)
    # x_rho = -sum_j <m_rho, u_j> x_j over surviving rays j, where m_rho is
    # the dual basis of sigma0's rays: <m_rho, u_j> is u_j's rho-coordinate
    eliminations = {rho: tuple(-c[pos] for c in coords)
                    for pos, rho in enumerate(sigma0)}

    ring_stub = CohomRing(
        fan=fan, sigma0=sigma0, surviving=surviving,
        eliminations=eliminations, rules=(), basis=(), basis_degrees=(),
        structure=(), denominator=1, point_integrals={})

    sr_gens = [{(): ring_stub.ray_product((rho, 1) for rho in coll)}
               for coll in primitive_collections(fan)]
    rules, _ = complete(sr_gens, _Q0)
    basis = tuple(P.standard_monomials([lead for lead, _ in rules], nv))
    if len(basis) != len(fan.max_cones):
        raise DimensionMismatch(
            f"quotient has dimension {len(basis)}, expected "
            f"{len(fan.max_cones)} maximal cones")
    degrees = tuple(P.mono_deg(m) for m in basis)

    products = {}
    for i, mi in enumerate(basis):
        for j in range(i, len(basis)):
            nf = _normal_form(rules, {P.mono_mul(mi, basis[j]): 1})
            products[i, j] = products[j, i] = \
                sorted((basis.index(m), c) for m, c in nf.items() if c)
    denominator = lcm(*(c.denominator for terms in products.values()
                        for _, c in terms))
    structure = tuple(
        tuple(tuple((k, int(c * denominator)) for k, c in products[i, j])
              for j in range(len(basis)))
        for i in range(len(basis)))

    # integration: every maximal-cone monomial has integral 1
    top = [i for i, d in enumerate(degrees) if d == fan.dim]
    rows, rhs = [], []
    for cone in fan.max_cones:
        nf = _normal_form(rules, ring_stub.ray_product((rho, 1) for rho in cone))
        row = [Fraction(0)] * len(top)
        for m, c in nf.items():
            if P.mono_deg(m) != fan.dim:
                raise InconsistentNormalization(
                    f"maximal-cone monomial reduced to degree {P.mono_deg(m)}")
            row[top.index(basis.index(m))] = c
        rows.append(row)
        rhs.append(Fraction(1))
    sol = lattice.solve_rational(rows, rhs)
    if sol is None:
        raise InconsistentNormalization(
            "no integral assignment satisfies all maximal-cone normalizations")
    for row, target in zip(rows, rhs):  # rref sets free vars to 0; verify all rows
        if sum(a * s for a, s in zip(row, sol)) != target:
            raise InconsistentNormalization("normalization system is inconsistent")
    integrals = {basis[top[k]]: sol[k] for k in range(len(top))}

    return CohomRing(
        fan=fan, sigma0=sigma0, surviving=surviving,
        eliminations=eliminations, rules=rules, basis=basis,
        basis_degrees=degrees, structure=structure,
        denominator=denominator, point_integrals=integrals,
        var_names=tuple(f"x{j + 1}" for j in surviving))


def _normal_form(rules, poly):
    """Normal form of a surviving-variable polynomial modulo the ring's rules."""
    return dp_reduce({(): poly}, rules, _Q0).get((), {})


def integrate(ring, c):
    """Integral over the variety of the top-degree component of a class."""
    total = Fraction(0)
    for coeff, mono, deg in zip(c.coeffs, ring.basis, ring.basis_degrees):
        if deg == ring.top_degree and coeff:
            total += coeff * ring.point_integrals[mono]
    return total


def pairing(ring, a, b):
    return integrate(ring, a * b)


def monomial_basis_classes(ring):
    return [CohClass(ring, [int(i == j) for j in range(ring.dim)])
            for i in range(ring.dim)]


def gram_matrix(ring):
    """Poincare pairings ``<T_a, T_b>`` of the monomial basis classes."""
    T = monomial_basis_classes(ring)
    return [[pairing(ring, a, b) for b in T] for a in T]


def divisor_class(ring, rho):
    """Degree-2 class of the toric divisor attached to ray ``rho``."""
    return ring.from_poly(ring.ray_poly(rho))


def graded_dimensions(ring):
    return [ring.basis_degrees.count(d) for d in range(ring.top_degree + 1)]


def render_class(c):
    ring = c.ring
    poly = {m: Fraction(a, c.den) for m, a in zip(ring.basis, c.num) if a}
    return P.render_poly(poly, ring.var_names)
