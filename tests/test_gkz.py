import random
import re
from fractions import Fraction
from math import gcd

import pytest

import oracles
import toriq.gkz
from toriq.catalog import CATALOG, SEMIPOSITIVE, builtin_fan
from toriq.cohomring import (
    CohomRing,
    build_cohomology_ring,
    divisor_class,
    integrate,
)
from toriq.gkz import (
    AnnihilationFailure,
    InsufficientCutoff,
    PositiveHbarPower,
    annihilation_certificate,
    apply_gkz_operator,
    extract_two_point_invariants,
    i_function,
    leading_terms,
    _factor,
)
from toriq.moricone import _binomial_exponents, enumerate_effective, mori_data
from toriq.novikov import HLaurent, NovikovSeries

from oracles import (
    KERNEL_FANS,
    dp6,
    frac_scale,
    gkz_coefficient,
    hlaurent,
    hlaurent_one,
    laurent_mul,
    laurent_of,
    linear_factor_apply,
    max_power,
    monomial_basis_classes,
    mult_table,
    nilpotent_geometric,
    p1xdp6,
    p2xp2,
    perturbed_series,
    random_laurent,
    reconstruct_coefficient,
    to_hlaurent,
    variable_class,
    wdp5,
)


def setup(name):
    fan = builtin_fan(name)
    return fan, mori_data(fan), build_cohomology_ring(fan)


def test_coefficient_zero_class_is_one():
    for name in ("P1", "P2", "F2"):
        _, _, ring = setup(name)
        beta0 = (0,) * ring.fan.n_rays
        assert gkz_coefficient(ring, beta0) == hlaurent_one(ring)


def test_coefficient_p2_generator():
    _, _, ring = setup("P2")
    h = variable_class(ring, 0)
    c = gkz_coefficient(ring, (1, 1, 1))
    assert c.terms == {
        -3: ring.one(),
        -4: h.scale(-3),
        -5: (h * h).scale(6),
    }


def test_coefficient_p1_generator():
    _, _, ring = setup("P1")
    h = variable_class(ring, 0)
    c = gkz_coefficient(ring, (1, 1))
    assert c.terms == {-2: ring.one(), -3: h.scale(-2)}


def test_coefficient_f2_first_generator():
    _, _, ring = setup("F2")
    d2 = divisor_class(ring, 1)
    c = gkz_coefficient(ring, (1, -2, 1, 0))
    assert c.terms[-1] == d2.scale(-1)
    assert 0 not in c.terms
    # full value: D2(D2 - hbar) (D1 + hbar)^-1 (D3 + hbar)^-1 with D1 = D3 = x1
    x1 = variable_class(ring, 0)
    lead = hlaurent(ring, {0: d2, 1: ring.one().scale(-1)}) * \
        hlaurent(ring, {0: d2})
    inv = hlaurent(ring, {0: x1, 1: ring.one()})
    assert inv * inv * c == lead


def test_hbar_power_counting():
    # lowest/highest powers follow the case analysis: max power is -N where
    # N = sum d_rho + #{d_rho <= -1}
    for name in ("P2", "F1", "F2", "F3", "BlP2"):
        fan, md, ring = setup(name)
        from toriq.moricone import enumerate_effective
        for beta in enumerate_effective(md, 3):
            if all(x == 0 for x in beta):
                continue
            c = gkz_coefficient(ring, beta)
            N = sum(beta) + sum(1 for d in beta if d <= -1)
            if c:
                assert max_power(c) <= -N, (name, beta)
                if N > 0:
                    assert 0 not in c.terms, (name, beta)


def test_i_function_p1_cutoff1():
    _, md, ring = setup("P1")
    h = variable_class(ring, 0)
    I = i_function(ring, md, 1)
    assert I.terms[(0, 0)] == hlaurent_one(ring)
    assert I.terms[(1, 1)].terms == {-2: ring.one(), -3: h.scale(-2)}
    assert set(I.terms) == {(0, 0), (1, 1)}


def test_i_function_cutoff0_is_one():
    for name in SEMIPOSITIVE:
        fan, md, ring = setup(name)
        I = i_function(ring, md, 0)
        assert set(I.terms) == {(0,) * fan.n_rays}
        assert I.terms[(0,) * fan.n_rays] == hlaurent_one(ring)


def test_leading_terms_semipositive():
    for name in SEMIPOSITIVE:
        fan, md, ring = setup(name)
        for cutoff in range(5):
            lt = leading_terms(i_function(ring, md, cutoff))
            assert lt.i0_is_one, (name, cutoff)


def test_leading_terms_f2_i1():
    _, md, ring = setup("F2")
    lt = leading_terms(i_function(ring, md, 2))
    assert lt.i0_is_one
    d2 = divisor_class(ring, 1)
    assert lt.i1[(1, -2, 1, 0)] == d2.scale(-1)


def test_leading_terms_f3_fails():
    _, md, ring = setup("F3")
    lt = leading_terms(i_function(ring, md, 2))
    assert not lt.i0_is_one
    # the hbar^0 obstruction sits at the fiber-class relation
    assert (1, -3, 1, 0) in lt.i0
    d2 = divisor_class(ring, 1)
    assert lt.i0[(1, -3, 1, 0)] == d2.scale(2)


def test_leading_terms_p1_i1_empty():
    _, md, ring = setup("P1")
    lt = leading_terms(i_function(ring, md, 3))
    assert lt.i0_is_one
    assert lt.i1 == {}


def test_two_point_p2():
    _, md, ring = setup("P2")
    I = i_function(ring, md, 2)
    table = extract_two_point_invariants(ring, I)
    beta = (1, 1, 1)
    a_one = ring.basis.index((0,))
    a_h = ring.basis.index((1,))
    a_h2 = ring.basis.index((2,))
    assert table.value(a_h2, 2, beta) == 1
    assert table.value(a_h, 3, beta) == -3
    assert table.value(a_one, 4, beta) == 6
    assert table.value(a_h2, 1, beta) == 0
    assert table.value(a_one, 0, beta) == 0


def test_two_point_p1():
    _, md, ring = setup("P1")
    I = i_function(ring, md, 1)
    table = extract_two_point_invariants(ring, I)
    beta = (1, 1)
    a_one = ring.basis.index((0,))
    a_h = ring.basis.index((1,))
    assert table.value(a_h, 1, beta) == 1
    assert table.value(a_one, 2, beta) == -2


def test_two_point_roundtrip():
    for name in ("P1", "P2", "F2", "BlP2"):
        _, md, ring = setup(name)
        I = i_function(ring, md, 2)
        table = extract_two_point_invariants(ring, I)
        for beta in I.terms:
            if all(x == 0 for x in beta):
                continue
            assert reconstruct_coefficient(ring, table, beta) == \
                I.terms[beta], (name, beta)


def test_two_point_degree_matching():
    # dimension axiom: a nonzero <T_a psi^k, 1> at beta forces
    # deg_x(T_a) + k = dim + (-K . beta) - 1
    for name in ("P1", "P2", "F1", "F2", "BlP2", "P1xP2"):
        fan, md, ring = setup(name)
        I = i_function(ring, md, 3)
        table = extract_two_point_invariants(ring, I)
        for a, k, beta in table.entries:
            assert table.value(a, k, beta) != 0
            assert sum(ring.basis[a]) + k == fan.dim + sum(beta) - 1, \
                (name, a, k, beta)


def test_two_point_rejects_f3():
    _, md, ring = setup("F3")
    I = i_function(ring, md, 2)
    with pytest.raises(PositiveHbarPower):
        extract_two_point_invariants(ring, I)


def test_apply_operator_p1_telescopes():
    _, md, ring = setup("P1")
    I = i_function(ring, md, 4)
    out = apply_gkz_operator((1, 1), I)
    assert not out


def test_apply_operator_zero_series():
    from toriq.novikov import NovikovContext, NovikovSeries
    _, md, ring = setup("F2")
    ctx = NovikovContext(n_rays=4, ell=md.ell, cutoff=3)
    zero = NovikovSeries(ctx, ring, {})
    out = apply_gkz_operator((0, 1, 0, 1), zero)
    assert not out


def test_apply_operator_insufficient_cutoff():
    _, md, ring = setup("P1")
    I = i_function(ring, md, 0)
    with pytest.raises(InsufficientCutoff):
        apply_gkz_operator((2, 2), I)


def test_annihilation_all_catalog():
    for name in CATALOG:
        fan, md, ring = setup(name)
        pairs = annihilation_certificate(i_function(ring, md, 3), md)
        assert pairs == [(beta, 3 - md.ell_of(beta))
                         for beta in md.generators], name


def test_annihilation_f3():
    # annihilation is a theorem for every smooth projective fan,
    # semipositive or not
    _, md, ring = setup("F3")
    assert annihilation_certificate(i_function(ring, md, 3), md) == [
        (beta, 3 - md.ell_of(beta)) for beta in md.generators]


def test_box_operators_of_all_effective_classes_annihilate():
    # the series satisfies the whole hypergeometric system, not only the
    # operators of the Mori generators
    from toriq.moricone import enumerate_effective
    for name in ("F2", "BlP2", "F3", "P1xP2"):
        _, md, ring = setup(name)
        I = i_function(ring, md, 4)
        for beta in enumerate_effective(md, 2):
            if not any(beta):
                continue
            out = apply_gkz_operator(beta, I)
            assert not out, (name, beta)


def test_projective_three_space():
    # dim 3 sanity with independently expanded values: the degree-1
    # coefficient of P3 is (h + hbar)^(-4) = hbar^-4 - 4h hbar^-5
    # + 10h^2 hbar^-6 - 20h^3 hbar^-7
    from toriq.fan import make_fan
    from toriq.moricone import mori_data as mk_md
    fan = make_fan(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], name="P3")
    md = mk_md(fan)
    assert list(md.generators) == [(1, 1, 1, 1)]
    ring = build_cohomology_ring(fan)
    assert ring.dim == 4
    h = variable_class(ring, 0)
    c = gkz_coefficient(ring, (1, 1, 1, 1))
    assert c.terms == {
        -4: ring.one(),
        -5: h.scale(-4),
        -6: (h * h).scale(10),
        -7: (h * h * h).scale(-20),
    }
    I = i_function(ring, md, 2)
    table = extract_two_point_invariants(ring, I)
    beta = (1, 1, 1, 1)
    assert table.value(ring.basis.index((3,)), 3, beta) == 1
    assert table.value(ring.basis.index((2,)), 4, beta) == -4
    assert table.value(ring.basis.index((1,)), 5, beta) == 10
    assert table.value(ring.basis.index((0,)), 6, beta) == -20
    assert annihilation_certificate(i_function(ring, md, 3), md) == [(beta, 2)]


def test_binomial_exponents_examples():
    assert _binomial_exponents((1, -2, 1, 0)) == ((1, 0, 1, 0), (0, 2, 0, 0))
    assert _binomial_exponents((0, 1, 0, 1)) == ((0, 1, 0, 1), (0, 0, 0, 0))
    assert _binomial_exponents((1, 1, 1)) == ((1, 1, 1), (0, 0, 0))


def test_relation_strings_of_f2():
    from toriq.cli import _relation_str
    _, md, _ = setup("F2")
    assert md.generators == ((1, -2, 1, 0), (0, 1, 0, 1))
    assert [_relation_str(md, beta) for beta in md.generators] == [
        "x1*x3 - q1*x2^2", "x2*x4 - q2"]


def _naive_coefficient(ring, beta):
    """Reference: every factor of every ray rebuilt from scratch."""
    out = hlaurent_one(ring)
    for rho, d in enumerate(beta):
        if d == 0:
            continue
        D = divisor_class(ring, rho)
        if d > 0:
            for m in range(1, d + 1):
                out = out * nilpotent_geometric(D, m)
        else:
            factor = hlaurent(ring, {0: D})
            for m in range(d + 1, 0):
                factor *= hlaurent(ring, {0: D, 1: ring.one().scale(m)})
            out = out * factor
    return out


SERIES_CASES = [(name, lambda name=name: builtin_fan(name), 3)
                for name in sorted(CATALOG)] + \
    [("dP6", dp6, 4), ("P1xdP6", p1xdp6, 2)]


@pytest.mark.parametrize("name,make,cutoff", SERIES_CASES,
                         ids=[case[0] for case in SERIES_CASES])
def test_series_matches_naive_coefficients(name, make, cutoff):
    fan = make()
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    I = i_function(ring, md, cutoff)
    classes = enumerate_effective(md, cutoff)
    assert set(I.terms) <= set(classes)
    zero = HLaurent(ring, {})
    for beta in classes:
        naive = _naive_coefficient(ring, beta)
        assert I.terms.get(beta, zero) == naive, (name, beta)
        assert gkz_coefficient(ring, beta) == naive, (name, beta)


REFERENCE_CASES = [(f"{name}@4", make, 4)
                   for name, make in sorted(KERNEL_FANS.items())] + \
    [("dP6@6", dp6, 6), ("P2xP2@8", p2xp2, 8), ("wdP5@5", wdp5, 5)]


@pytest.mark.parametrize("make,cutoff", [case[1:] for case in REFERENCE_CASES],
                         ids=[case[0] for case in REFERENCE_CASES])
def test_i_function_matches_hlaurent_reference(make, cutoff):
    # the integer prefixes give the HLaurent walk's series, term order
    # included, and skip exactly the classes whose coefficient is zero: a
    # coefficient is prod_{beta_rho < 0} D_rho times a unit, zero exactly
    # when those rays span no cone
    oracles.check_series_support(make(), cutoff)


DROP_CASES = [("F1@3", lambda: builtin_fan("F1"), 3),
              ("P1xP2@3", lambda: builtin_fan("P1xP2"), 3), ("dP6@4", dp6, 4)]


@pytest.mark.parametrize("make,cutoff", [case[1:] for case in DROP_CASES],
                         ids=[case[0] for case in DROP_CASES])
def test_annihilation_fails_without_a_kept_class(make, cutoff):
    # the series keeps only nonzero classes, and the box operators still
    # tie each one to its neighbours: dropping any class within every
    # operator's certified range makes the certificate fail
    fan = make()
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    I = i_function(ring, md, cutoff)
    reach = cutoff - max(md.ell_of(beta) for beta in md.generators)
    kept = [beta for beta in I.terms if md.ell_of(beta) <= reach]
    assert len(kept) > 2
    for beta in kept:
        dropped = NovikovSeries(I.ctx, ring, {
            b: h for b, h in I.terms.items() if b != beta})
        with pytest.raises(AnnihilationFailure):
            annihilation_certificate(dropped, md)


def test_i_function_dp6_work(monkeypatch):
    # no HLaurent product, one coefficient formed and reduced, when stored,
    # per class whose negative support is a cone (180 of the 462), and one
    # factor polynomial per distinct pairing (12), not one per ray and
    # pairing (72), shared by every ray
    fan = dp6()
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    from_parts = CohomRing._from_parts
    calls, built = [], []

    def counted(self, parts):
        calls.append(1)
        return from_parts(self, parts)

    def counted_factor(d, t):
        built.append(d)
        return _factor(d, t)

    def forbidden(*args):
        raise AssertionError("the series formed an HLaurent product")

    monkeypatch.setattr(CohomRing, "_from_parts", counted)
    monkeypatch.setattr(HLaurent, "__mul__", forbidden)
    monkeypatch.setattr(toriq.gkz, "_factor", counted_factor)
    I = i_function(ring, md, 6)
    classes = enumerate_effective(md, 6)
    assert len(calls) == len(I.terms) == 180 and len(classes) == 462
    pairings = {d for beta in classes for d in beta if d}
    assert sorted(built) == sorted(pairings) and len(built) == 12
    assert len({(rho, d) for beta in classes
                for rho, d in enumerate(beta) if d}) == 72


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_factor_polynomials_match_taylor_expansion(t):
    # prod_{m=1..d} (x + m)^(-1) inverted modulo x^(t+1) by sympy, and
    # x prod_{m=d+1..-1} (x + m) expanded by sympy, truncated above x^t
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for d in range(-8, 9):
        if d >= 0:
            expected = sympy.invert(
                sympy.prod([x + m for m in range(1, d + 1)]), x ** (t + 1), x)
        else:
            expected = x * sympy.prod([x + m for m in range(d + 1, 0)])
        poly = sympy.Poly(expected, x, domain="QQ")
        num, den = _factor(d, t)
        assert len(num) == t + 1 and den > 0 and gcd(den, *num) == 1, (t, d)
        assert [Fraction(a, den) for a in num] == [
            Fraction(int(c.p), int(c.q))
            for c in (poly.coeff_monomial(x ** l) for l in range(t + 1))], \
            (t, d)


@pytest.mark.parametrize("name", ["F2", "BlP2"])
def test_linear_factor_apply_matches_product(name):
    _, md, ring = setup(name)
    samples = [hlaurent_one(ring), HLaurent(ring, {})]
    for rho in range(ring.fan.n_rays):
        D = divisor_class(ring, rho)
        samples.append(nilpotent_geometric(D, 2))
        samples.append(hlaurent(ring, {-1: D, 2: ring.one().scale(3)}))
    samples += [gkz_coefficient(ring, b) for b in enumerate_effective(md, 2)]
    for rho in range(ring.fan.n_rays):
        D = divisor_class(ring, rho)
        mult = ring.divisor_columns[rho]
        for c in (0, 1, -1, 2, -3):
            factor = hlaurent(ring, {0: D, 1: ring.one().scale(c)})
            for h in samples:
                assert linear_factor_apply(h, mult, c) == factor * h, \
                    (name, rho, c)


@pytest.mark.parametrize("name", sorted(KERNEL_FANS))
def test_linear_factor_apply_matches_fraction_oracle(name):
    ring = build_cohomology_ring(KERNEL_FANS[name]())
    table = mult_table(ring)
    one = ring.one().coeffs
    rng = random.Random(f"linear-{name}")
    for rho in range(ring.fan.n_rays):
        D = divisor_class(ring, rho)
        mult = ring.divisor_columns[rho]
        for c in (0, 1, -1, 2, -3):
            factor = {0: D.coeffs, 1: frac_scale(one, c)} if c else \
                {0: D.coeffs}
            for _ in range(4):
                f = random_laurent(rng, ring.dim)
                got = linear_factor_apply(to_hlaurent(ring, f), mult, c)
                assert laurent_of(got) == laurent_mul(table, factor, f), \
                    (name, rho, c)


@pytest.mark.parametrize("make,cutoff,scale",
                         [(dp6, 4, 1), (wdp5, 3, 1), (p1xdp6, 2, 1),
                          (dp6, 4, Fraction(2, 3))],
                         ids=["dP6", "wdP5", "P1xdP6", "dP6-stub"])
def test_two_point_matches_integration(make, cutoff, scale):
    # the Gram-column dot product gives what integrating cls * T_a gave; the
    # stub scales the point integrals so the Gram matrix has a denominator
    fan = make()
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    (num, den), scale = ring.point_integrals, Fraction(scale)
    ring = ring._replace(point_integrals=(num * scale.numerator,
                                          den * scale.denominator))
    I = i_function(ring, md, cutoff)
    table = extract_two_point_invariants(ring, I)
    T = monomial_basis_classes(ring)
    expected = {}
    for beta, h in I.terms.items():
        if any(beta):
            for power, cls in h.terms.items():
                for a, Ta in enumerate(T):
                    val = integrate(ring, cls * Ta)
                    if val:
                        expected[(a, -power - 1, beta)] = val
    assert {key: table.value(*key) for key in table.entries} == expected
    # each entry is an integer pair, its denominator positive
    assert all(type(n) is int and type(d) is int and d > 0
               for n, d in table.entries.values())


PERTURBED = [("F1", lambda: builtin_fan("F1"), (1, -1, 1, 0)),
             ("dP6", dp6, (0, 1, -1, 1, 0, 0))]


@pytest.mark.parametrize("shift", [0, 1], ids=["same-degree", "other-degree"])
@pytest.mark.parametrize("make,beta", [case[1:] for case in PERTURBED],
                         ids=[case[0] for case in PERTURBED])
def test_annihilation_fails_on_perturbed_coefficient(make, beta, shift):
    # one changed coefficient, at the series' total degree or in a second
    # bucket, makes the check fail and name that class
    fan = make()
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    I = perturbed_series(i_function(ring, md, 3), beta, shift)
    with pytest.raises(AnnihilationFailure,
                       match=re.escape(f"leaves q^{beta} hbar^")):
        annihilation_certificate(I, md)


@pytest.mark.parametrize("name", sorted(KERNEL_FANS))
def test_apply_operator_matches_hlaurent_reference(name):
    # the integer sides give the reference's whole series: on the genuine
    # series for the generators and every class with ell <= 2, and on a copy
    # perturbed at each such class for the generators, whose first surviving
    # term names the class and hbar power of AnnihilationFailure
    fan = KERNEL_FANS[name]()
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    I = i_function(ring, md, 4)
    low = enumerate_effective(md, 2)
    for beta in dict.fromkeys([*md.generators, *low[1:]]):
        assert apply_gkz_operator(beta, I) == \
            oracles.apply_gkz_operator(beta, I)
    perturbed = 0
    for beta in low:
        if beta not in I.terms:
            continue
        for shift in (0, 1):
            P = perturbed_series(I, beta, shift)
            messages = []
            for g in md.generators:
                expected = oracles.apply_gkz_operator(g, P)
                assert apply_gkz_operator(g, P) == expected, (beta, g)
                if expected:
                    bad = sorted(expected.terms)[0]
                    power = expected.terms[bad].powers()[0]
                    messages.append(
                        f"operator of {g} leaves q^{bad} hbar^{power}")
            assert messages, (beta, shift)
            with pytest.raises(AnnihilationFailure) as failure:
                annihilation_certificate(P, md)
            assert str(failure.value) == messages[0]
            perturbed += 1
    assert perturbed >= len(I.terms.keys() & set(low))


def test_annihilation_dp6_forms_no_class(monkeypatch):
    # on a genuine series both sides agree at every class, so the check
    # runs on integer numerators alone
    fan = dp6()
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    I = i_function(ring, md, 6)

    def forbidden(*args):
        raise AssertionError("the check formed a class")

    monkeypatch.setattr(CohomRing, "_from_parts", forbidden)
    assert annihilation_certificate(I, md) == [
        (beta, 6 - md.ell_of(beta)) for beta in md.generators]
