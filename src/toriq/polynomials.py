"""Multivariate polynomials over exact rationals: arithmetic and term order.

A monomial is an exponent tuple; a polynomial is a dict mapping monomials to
nonzero rationals, each an ``int`` when it is integral where it is made
(``pconst``, ``pvar``, ``pscale``, ``pmul_term``) and a ``Fraction`` only
where a division leaves one; the two compare and hash alike.  ``fractions``
is imported only then: ``_rational`` passes an ``int`` straight through.
The term order is graded lexicographic with the *last* variable most
significant (variables are indexed by their ray order and a later ray
outranks an earlier one); this is the order under which the Stanley-Reisner
images of the catalog fans have square-free-power leading terms and finite
standard monomial bases.

There is no Groebner code here: one completion (``batyrev.complete``, with
``batyrev.dp_reduce``) serves both the classical and the deformed ring.

Every signed sum in the reports -- polynomials, classes, Novikov scalars,
basis expansions and rewriting rules -- is rendered by ``_signed_sum``, which
``cli`` shares the way ``novikov`` shares ``_rational``.
"""

from itertools import product
from math import gcd
from operator import add, le, sub


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_deg(a):
    return sum(a)


def term_key(m):
    """Sort key implementing the graded order (degree, reversed exponents)."""
    return (sum(m), tuple(reversed(m)))


def _rational(c):
    """``c`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(c) is int:
        return c
    from fractions import Fraction
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def pconst(nvars, c=1):
    c = _rational(c)
    return {} if c == 0 else {(0,) * nvars: c}


def pvar(nvars, j):
    return {tuple(1 if i == j else 0 for i in range(nvars)): 1}


def padd(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pscale(p, c):
    c = _rational(c)
    if c == 0:
        return {}
    return {m: x * c for m, x in p.items()}


def pmul_term(p, mono, coeff):
    coeff = _rational(coeff)
    if coeff == 0:
        return {}
    return {mono_mul(m, mono): c * coeff for m, c in p.items()}


def pmul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def leading(p):
    """(monomial, coefficient) of the order-largest term; None for 0."""
    m = max(p, key=term_key, default=None)
    return None if m is None else (m, p[m])


def standard_monomials(lead_monomials, nvars):
    """Monomials divisible by no leading monomial, sorted by the term order.

    Requires a zero-dimensional quotient: each variable must admit a pure
    power among the leading monomials, which bounds the search box.
    """
    bounds = []
    for j in range(nvars):
        pure = [m[j] for m in lead_monomials
                if m[j] > 0 and all(m[i] == 0 for i in range(nvars) if i != j)]
        if not pure:
            raise ValueError(f"quotient is not finite-dimensional in variable {j}")
        bounds.append(min(pure))
    return sorted((exps for exps in product(*[range(b) for b in bounds])
                   if not any(mono_divides(lm, exps) for lm in lead_monomials)),
                  key=term_key)


def render_monomial(mono, names):
    """``x1*x2^3``-style product of the named variables; "" for the unit."""
    return "*".join(f"{names[j]}^{e}" if e > 1 else names[j]
                    for j, e in enumerate(mono) if e)


def _ratio(a, den):
    """``a / den`` for ``den > 0`` as a ``Fraction`` prints it: an int, or
    ``"a/b"`` in lowest terms."""
    g = gcd(a, den)
    return a // g if den == g else f"{a // g}/{den // g}"


def _signed_sum(terms):
    """Render ``(coefficient, factor)`` pairs as one signed sum; "0" if none.

    A coefficient of 1 or -1 before a factor is left out, one before the
    empty factor stands alone, and one that is itself a sum is parenthesized.
    Coefficients are numbers or already rendered strings.
    """
    parts = []
    for coeff, factor in terms:
        c = str(coeff)
        if not factor:
            parts.append(c)
        elif c in ("1", "-1"):
            parts.append(c[:-1] + factor)
        elif "+" in c or " - " in c:
            parts.append(f"({c})*{factor}")
        else:
            parts.append(f"{c}*{factor}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def render_poly(p, var_names):
    """Deterministic human-readable form, leading term first."""
    return _signed_sum((p[m], render_monomial(m, var_names))
                       for m in sorted(p, key=term_key, reverse=True))
