import random
from fractions import Fraction

import pytest

from toriq.batyrev import complete, dp_reduce
from toriq.novikov import NovikovContext
from toriq.polynomials import (
    _signed_sum,
    leading,
    mono_div,
    mono_lcm,
    padd,
    pconst,
    pmul,
    pmul_term,
    pvar,
    render_poly,
    standard_monomials,
    term_key,
)

from oracles import psub

# Classical polynomials are the q^0 level of the completion engine.
Q0 = NovikovContext(n_rays=0, ell=(), cutoff=0)


def P(terms):
    return {m: Fraction(c) for m, c in terms.items() if c}


def buchberger(gens):
    """Reduced Groebner basis through ``complete`` at cutoff 0."""
    rules, _ = complete([{(): g} for g in gens], Q0)
    return [element[()] for _, element in rules]


def normal_form(p, gb):
    """Normal form modulo a monic basis through ``dp_reduce`` at cutoff 0."""
    rules = [(leading(g)[0], {(): g}) for g in gb]
    return dp_reduce({(): p}, rules, Q0).get((), {})


def s_poly(f, g):
    (mf, cf), (mg, cg) = leading(f), leading(g)
    lcm = mono_lcm(mf, mg)
    return psub(pmul_term(f, mono_div(lcm, mf), 1 / cf),
                pmul_term(g, mono_div(lcm, mg), 1 / cg))


def test_term_order_precedence():
    # graded first, then later variable outranks earlier
    assert term_key((0, 2)) > term_key((1, 1)) > term_key((2, 0))
    assert term_key((0, 0, 1)) > term_key((0, 1, 0)) > term_key((1, 0, 0))
    assert term_key((3, 0)) > term_key((0, 2))


def test_leading_f2_generator():
    g = P({(0, 2): 1, (1, 1): 2})  # x2^2 + 2 x1 x2
    assert leading(g) == ((0, 2), Fraction(1))


def test_arith_roundtrip():
    x1, x2 = pvar(2, 0), pvar(2, 1)
    p = padd(pmul(x1, x2), pconst(2, 3))
    q = psub(p, p)
    assert q == {}
    assert pmul(p, pconst(2, 0)) == {}


def test_normal_form_f2_classical():
    # GB of the F2 Stanley-Reisner image: {x1^2, x2^2 + 2 x1 x2}
    gb = [P({(2, 0): 1}), P({(0, 2): 1, (1, 1): 2})]
    nf = normal_form(P({(0, 2): 1}), gb)
    assert nf == P({(1, 1): -2})
    assert normal_form(P({(2, 0): 1}), gb) == {}
    # x1^2 x2 -> 0, x1 x2^2 -> -2 x1^2 x2 -> 0
    assert normal_form(P({(1, 2): 1}), gb) == {}


def test_buchberger_f2():
    gens = [P({(2, 0): 1}), P({(0, 2): 1, (1, 1): 2})]
    gb = buchberger(gens)
    assert gb == [P({(2, 0): 1}), P({(0, 2): 1, (1, 1): 2})]


def test_buchberger_p2():
    gb = buchberger([P({(3,): 1})])
    assert gb == [P({(3,): 1})]


def test_buchberger_nontrivial_completion():
    # <x1^2, x1 x2 + x2^2> needs x2^3 in its basis
    gens = [P({(2, 0): 1}), P({(1, 1): 1, (0, 2): 1})]
    gb = buchberger(gens)
    leads = {leading(g)[0] for g in gb}
    assert (0, 3) in leads or (0, 2) in leads
    assert normal_form(P({(0, 3): 1}), gb) == {}


def test_standard_monomials_f2():
    sm = standard_monomials([(2, 0), (0, 2)], 2)
    assert sm == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_standard_monomials_requires_zero_dimensional():
    with pytest.raises(ValueError):
        standard_monomials([(1, 1)], 2)


def test_spoly_membership_property():
    rng = random.Random(4242)
    for _ in range(15):
        nvars = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = {}
            for _ in range(rng.randint(1, 4)):
                m = tuple(rng.randint(0, 2) for _ in range(nvars))
                p[m] = p.get(m, 0) + rng.randint(-3, 3)
            p = P(p)
            if p:
                gens.append(p)
        if not gens:
            continue
        gb = buchberger(gens)
        # every generator reduces to zero modulo its own GB
        for g in gens:
            assert normal_form(g, gb) == {}
        # GB property: all S-polynomials reduce to zero
        for i in range(len(gb)):
            for j in range(i):
                assert normal_form(s_poly(gb[i], gb[j]), gb) == {}


def test_render_poly():
    p = P({(0, 2): 1, (1, 1): -2, (0, 0): Fraction(1, 2)})
    assert render_poly(p, ["x1", "x2"]) == "x2^2 - 2*x1*x2 + 1/2"


@pytest.mark.parametrize("terms,text", [
    ([], "0"),
    ([(1, "x1"), (-1, "x2")], "x1 - x2"),
    ([(-1, "x1"), (1, "q1*x2")], "-x1 + q1*x2"),
    ([(1, ""), (-1, ""), (3, "")], "1 - 1 + 3"),
    ([(2, "x1"), (-5, "")], "2*x1 - 5"),
    ([(Fraction(1, 2), "x1"), (Fraction(-3, 4), "")], "1/2*x1 - 3/4"),
    ([(Fraction(2), "x1")], "2*x1"),
    ([("1 + q1", "x1"), ("q1 - 2*q2", "x2"), ("-q1", "x3"), ("-1/2", "x4"),
      ("2 + q1", "")],
     "(1 + q1)*x1 + (q1 - 2*q2)*x2 - q1*x3 - 1/2*x4 + 2 + q1"),
    ([(-2, "x1"), (3, "x2")], "-2*x1 + 3*x2"),
    ([(-1, "")], "-1"),
], ids=["empty", "units", "negative-unit-first", "empty-factor",
        "constant-last", "fractions", "integral-fraction", "compound",
        "negative-first", "minus-one"])
def test_signed_sum(terms, text):
    # the one rendering rule of the reports' signed sums
    assert _signed_sum(terms) == text
