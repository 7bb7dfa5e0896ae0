import dataclasses
import random
from fractions import Fraction

import pytest

from toriq import batyrev
from toriq.batyrev import (
    BasisNotPreserved,
    BatyrevModule,
    DeformedIdeal,
    HypothesisUnmet,
    build_deformed_ideal,
    certify_isomorphism,
    module_matrices,
    normal_form,
    relation_check,
)
from toriq.catalog import CATALOG, SEMIPOSITIVE, builtin_fan
from toriq.cli import main
from toriq.cohomring import build_cohomology_ring, divisor_class
from toriq.gkz import gkz_operator
from toriq.moricone import mori_data
from toriq.novikov import NovikovContext, NovikovScalar

import oracles

B1 = (1, -2, 1, 0)
B2 = (0, 1, 0, 1)
B12 = tuple(a + b for a, b in zip(B1, B2))


def setup(name, cutoff=3):
    fan = builtin_fan(name)
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    ideal = build_deformed_ideal(fan, md, ring, cutoff)
    return fan, md, ring, ideal


def scal(ideal, terms):
    return NovikovScalar(ideal.ctx, terms)


def test_f2_rewriting_system():
    _, _, ring, ideal = setup("F2")
    assert ideal.completion_added == 0
    rules = dict(ideal.rules)
    assert set(rules) == {(2, 0), (0, 2)}
    # x1^2 -> q1 q2 - 2 q1 x1 x2 (canonical normal-form right-hand side)
    elem = rules[(2, 0)]
    assert elem[ideal.ctx.zero_class] == {(2, 0): Fraction(1)}
    assert elem[B1] == {(1, 1): Fraction(2)}
    assert elem[B12] == {(0, 0): Fraction(-1)}
    # x2^2 -> q2 - 2 x1 x2
    elem2 = rules[(0, 2)]
    assert elem2[ideal.ctx.zero_class] == {(0, 2): Fraction(1), (1, 1): Fraction(2)}
    assert elem2[B2] == {(0, 0): Fraction(-1)}


def test_p2_p1_rewriting_systems():
    _, _, _, ideal = setup("P2")
    rules = dict(ideal.rules)
    assert set(rules) == {(3,)}
    assert rules[(3,)][(1, 1, 1)] == {(0,): Fraction(-1)}
    _, _, _, ideal = setup("P1")
    rules = dict(ideal.rules)
    assert rules[(2,)][(1, 1)] == {(0,): Fraction(-1)}


def test_q0_recovers_classical_groebner():
    for name in CATALOG:
        _, _, ring, ideal = setup(name)
        classical = {}
        for g in oracles.groebner(ring):
            from toriq.polynomials import leading
            classical[leading(g)[0]] = g
        deformed_q0 = {}
        for lead, elem in ideal.rules:
            deformed_q0[lead] = elem.get(ideal.ctx.zero_class, {})
        assert deformed_q0 == classical, name


def test_normal_form_f2_golden():
    _, _, ring, ideal = setup("F2")
    # x1^2 in the full ray variables
    expansion = normal_form(ideal, {(2, 0, 0, 0): Fraction(1)})
    unit_idx = ring.basis.index((0, 0))
    x1x2_idx = ring.basis.index((1, 1))
    assert expansion[unit_idx] == scal(ideal, {B12: 1})
    assert expansion[x1x2_idx] == scal(ideal, {B1: -2})
    for i, s in enumerate(expansion):
        if i not in (unit_idx, x1x2_idx):
            assert not s


def test_normal_form_unit_untouched():
    for name in ("P1", "P2", "F2"):
        fan, _, ring, ideal = setup(name)
        expansion = normal_form(ideal, {(0,) * fan.n_rays: Fraction(1)})
        assert expansion[ring.basis.index((0,) * len(ring.surviving))] == \
            NovikovScalar.unit(ideal.ctx)
        assert sum(1 for s in expansion if s) == 1


def test_normal_form_p2_h4():
    _, _, ring, ideal = setup("P2")
    expansion = normal_form(ideal, {(4, 0, 0): Fraction(1)})
    h_idx = ring.basis.index((1,))
    assert expansion[h_idx] == scal(ideal, {(1, 1, 1): 1})
    assert sum(1 for s in expansion if s) == 1


def test_linear_ideal_acts_trivially():
    # sum <m, u_rho> x_rho normal-forms to 0 for every m in a basis of M
    for name in CATALOG:
        fan, _, _, ideal = setup(name)
        for k in range(fan.dim):
            terms = {}
            for rho in range(fan.n_rays):
                coeff = fan.rays[rho][k]
                if coeff:
                    mono = tuple(1 if i == rho else 0 for i in range(fan.n_rays))
                    terms[mono] = Fraction(coeff)
            expansion = normal_form(ideal, terms)
            assert all(not s for s in expansion), (name, k)


def test_module_matrix_f2_star_products():
    _, _, ring, ideal = setup("F2")
    module = module_matrices(ideal)
    unit_idx = ring.basis.index((0, 0))
    x1_idx = ring.basis.index((1, 0))
    x2_idx = ring.basis.index((0, 1))
    x1x2_idx = ring.basis.index((1, 1))
    # x1 * x1 = q1 q2 - 2 q1 x1x2
    col = module.star_column(0, x1_idx)
    assert col[unit_idx] == scal(ideal, {B12: 1})
    assert col[x1x2_idx] == scal(ideal, {B1: -2})
    assert not col[x1_idx] and not col[x2_idx]
    # x2 * x2 = q2 - 2 x1x2
    col = module.star_column(1, x2_idx)
    assert col[unit_idx] == scal(ideal, {B2: 1})
    assert col[x1x2_idx] == scal(ideal, {ideal.ctx.zero_class: -2})


def test_module_matrix_p2_star():
    _, _, ring, ideal = setup("P2")
    module = module_matrices(ideal)
    h2_idx = ring.basis.index((2,))
    unit_idx = ring.basis.index((0,))
    col = module.star_column(0, h2_idx)
    assert col[unit_idx] == scal(ideal, {(1, 1, 1): 1})
    assert sum(1 for s in col if s) == 1


def test_module_matrix_p1_star():
    _, _, ring, ideal = setup("P1")
    module = module_matrices(ideal)
    h_idx = ring.basis.index((1,))
    col = module.star_column(0, h_idx)
    assert col[ring.basis.index((0,))] == scal(ideal, {(1, 1): 1})


def test_column_of_unit_is_divisor_class():
    for name in CATALOG:
        fan, _, ring, ideal = setup(name)
        module = module_matrices(ideal)
        unit_idx = ring.basis.index((0,) * len(ring.surviving))
        for rho in range(fan.n_rays):
            col = module.star_column(rho, unit_idx)
            expected = divisor_class(ring, rho)
            for b in range(ring.dim):
                q0 = col[b].q0()
                assert q0 == expected.coeffs[b], (name, rho, b)
                # degree reasons: no quantum correction on 1 at the catalog
                # cutoffs when semipositive
                if name in SEMIPOSITIVE:
                    assert set(col[b].terms) <= {ideal.ctx.zero_class}


def test_matrices_commute():
    for name in CATALOG:
        fan, _, ring, ideal = setup(name, cutoff=3)
        module = module_matrices(ideal)
        ctx = ideal.ctx
        dim = ring.dim
        mats = module.matrices
        for r1 in range(fan.n_rays):
            for r2 in range(r1 + 1, fan.n_rays):
                A, B = mats[r1], mats[r2]
                AB = [[sum((A[i][k] * B[k][j] for k in range(dim)),
                           NovikovScalar(ctx)) for j in range(dim)]
                      for i in range(dim)]
                BA = [[sum((B[i][k] * A[k][j] for k in range(dim)),
                           NovikovScalar(ctx)) for j in range(dim)]
                      for i in range(dim)]
                assert AB == BA, (name, r1, r2)


def test_q0_limit_is_classical_cup():
    from toriq.cohomring import CohClass
    for name in CATALOG:
        fan, _, ring, ideal = setup(name)
        module = module_matrices(ideal)
        for rho in range(fan.n_rays):
            D = divisor_class(ring, rho)
            for a in range(ring.dim):
                coeffs = [Fraction(0)] * ring.dim
                coeffs[a] = Fraction(1)
                classical = D * CohClass(ring, coeffs)
                for b in range(ring.dim):
                    assert module.matrices[rho][b][a].q0() == \
                        classical.coeffs[b], (name, rho, a, b)


def test_grading_homogeneous():
    # deg(x-part) + anticanonical degree of the level is constant per rule
    for name in CATALOG:
        _, _, _, ideal = setup(name)
        for lead, elem in ideal.rules:
            target = sum(lead)
            for beta, poly in elem.items():
                k = sum(beta)
                for mono in poly:
                    assert sum(mono) + k == target, (name, lead, beta, mono)


def test_relation_checks():
    for name in CATALOG:
        _, md, ring, ideal = setup(name)
        operators = [gkz_operator(beta) for beta in md.generators]
        assert relation_check(ideal, operators) is None, name


def test_relation_multiple_reduces():
    # (x2 x4 - q2) * x1 is still in the ideal
    _, _, ring, ideal = setup("F2")
    ctx = ideal.ctx
    terms = {
        (1, 1, 0, 1): NovikovScalar.unit(ctx),
        (1, 0, 0, 0): NovikovScalar.monomial(ctx, B2, -1),
    }
    expansion = normal_form(ideal, terms)
    assert all(not s for s in expansion)


def test_normal_form_idempotent_random():
    rng = random.Random(31415)
    for name in CATALOG:
        fan, _, ring, ideal = setup(name, cutoff=3)
        ctx = ideal.ctx
        classes = [ctx.zero_class] + [tuple(g) for g in
                                      mori_data(fan).generators]
        for _ in range(200 // len(CATALOG) + 5):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = tuple(rng.randint(0, 2) for _ in range(fan.n_rays))
                beta = classes[rng.randrange(len(classes))]
                coeff = NovikovScalar.monomial(ctx, beta, rng.randint(-3, 3))
                terms[mono] = terms.get(mono, NovikovScalar(ctx)) + coeff
            expansion = normal_form(ideal, terms)
            # re-reduce the expansion: basis monomials are already standard
            again = [NovikovScalar(ctx) for _ in ring.basis]
            for i, s in enumerate(expansion):
                mono_full = [0] * fan.n_rays
                for j, e in enumerate(ring.basis[i]):
                    mono_full[ring.surviving[j]] = e
                sub = normal_form(ideal, {tuple(mono_full): s})
                for b in range(ring.dim):
                    again[b] = again[b] + sub[b]
            assert again == expansion, name


def test_certify_semipositive_catalog():
    for name in SEMIPOSITIVE:
        _, md, _, ideal = setup(name, cutoff=3)
        module = certify_isomorphism(ideal, md)
        assert isinstance(module, BatyrevModule) and module.ideal is ideal


# the oracle check of wdP3's module at cutoff 4 alone takes about 20 s;
# the certify golden entry for wdP3 at cutoff 4 pins that module instead
@pytest.mark.parametrize("name", sorted(oracles.KERNEL_FANS))
def test_module_passes_groebner_free_oracle(name):
    # the module certify_isomorphism returns is Batyrev's module, checked
    # without a Groebner basis; F3 is not semipositive, so certify_isomorphism
    # refuses it and its module comes from module_matrices
    fan = oracles.KERNEL_FANS[name]()
    md = mori_data(fan)
    ideal = build_deformed_ideal(fan, md, build_cohomology_ring(fan), 4)
    module = certify_isomorphism(ideal, md) if md.semipositive \
        else module_matrices(ideal)
    oracles.check_module(fan, md.ell, 4, module)


@pytest.mark.parametrize("name", ["dP6", "P2", "wdP5", "F1"])
def test_module_oracle_rejects_doubled_rule_tail(name):
    # double the first q-level coefficient of the first rule that has one
    fan = oracles.KERNEL_FANS[name]()
    md = mori_data(fan)
    ideal = build_deformed_ideal(fan, md, build_cohomology_ring(fan), 4)
    zero = ideal.ctx.zero_class
    i = next(i for i, (_, element) in enumerate(ideal.rules)
             if set(element) - {zero})
    lead, element = ideal.rules[i]
    beta = min(set(element) - {zero})
    mono = min(element[beta])
    element = dict(element)
    element[beta] = {**element[beta], mono: 2 * element[beta][mono]}
    rules = ideal.rules[:i] + ((lead, element),) + ideal.rules[i + 1:]
    broken = module_matrices(dataclasses.replace(ideal, rules=rules))
    with pytest.raises(AssertionError,
                       match="do not commute|primitive relation"):
        oracles.check_module(fan, md.ell, 4, broken)


def test_certify_rejects_module_not_preserving_basis(monkeypatch, capsys):
    # F1 with x1 * 1 = x1 + 1: phi's determinant stays 1, so only the
    # identity check sees the fault
    real = batyrev.module_matrices

    def broken(ideal):
        module = real(ideal)
        one = module.ring.basis.index((0, 0))
        mat = module.matrices[0]
        mat[one][one] = mat[one][one] + NovikovScalar.unit(ideal.ctx)
        return module

    _, md, _, ideal = setup("F1")
    monkeypatch.setattr(batyrev, "module_matrices", broken)
    with pytest.raises(BasisNotPreserved, match=r"\(1, 0\)"):
        certify_isomorphism(ideal, md)
    assert main(["certify", "--fan", "F1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certificate failure:")
    assert "Traceback" not in captured.err


def test_certify_f3_hypothesis_unmet():
    _, md, ring, ideal = setup("F3", cutoff=3)
    with pytest.raises(HypothesisUnmet):
        certify_isomorphism(ideal, md)


def test_monicize_rejects_pure_q_element():
    from toriq.batyrev import NonUnitLeadingCoefficient, _monicize
    _, _, ring, ideal = setup("F2")
    ctx = ideal.ctx
    with pytest.raises(NonUnitLeadingCoefficient):
        _monicize({B1: {(1, 0): Fraction(1)}}, ctx)


def test_projective_three_space_module():
    from toriq.fan import make_fan
    fan = make_fan(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], name="P3")
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    ideal = build_deformed_ideal(fan, md, ring, 3)
    assert dict(ideal.rules)[(4,)] == {
        ideal.ctx.zero_class: {(4,): Fraction(1)},
        (1, 1, 1, 1): {(0,): Fraction(-1)},
    }
    module = module_matrices(ideal)
    # h * h^3 = q
    col = module.star_column(0, ring.basis.index((3,)))
    assert col[ring.basis.index((0,))] == \
        NovikovScalar(ideal.ctx, {(1, 1, 1, 1): 1})
    assert certify_isomorphism(ideal, md).matrices == module.matrices


def test_del_pezzo_seven_completion_path():
    # 5-ray Fano surface outside the catalog: the five deformed generators
    # are not a rewriting system by themselves, so completion must add one
    from toriq.fan import make_fan
    fan = make_fan(
        2,
        [(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        name="dP7")
    md = mori_data(fan)
    assert md.semipositive
    assert len(md.generators) == 5
    ring = build_cohomology_ring(fan)
    assert ring.dim == 5
    ideal = build_deformed_ideal(fan, md, ring, 3)
    assert ideal.completion_added == 1
    assert (3, 0, 0) in {lead for lead, _ in ideal.rules}
    oracles.check_module(fan, md.ell, 3, certify_isomorphism(ideal, md))


# --- the completion engine against the unpruned oracles -----------------------


# the cutoff-0 cases of the wide fans are their Stanley-Reisner generators,
# where the chain criterion skips most S-pairs
ENGINE_CASES = [(name, cutoff) for name in sorted(CATALOG)
                for cutoff in range(6)] + [
    ("dP6", 6), ("P2xP2", 8), ("P1xdP6", 3), ("wdP5", 4)] + [
    (name, 0) for name in ("dP6", "P1xdP6", "wdP5", "wdP4", "wdP3")]


def _deformed_setup(name, cutoff):
    fan = oracles.KERNEL_FANS[name]()
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    ctx = NovikovContext(n_rays=fan.n_rays, ell=md.ell, cutoff=cutoff)
    return ring, ctx, batyrev._deformed_generators(fan, md, ring, ctx)


@pytest.mark.parametrize("name,cutoff", ENGINE_CASES)
def test_complete_and_module_match_oracles(name, cutoff):
    ring, ctx, gens = _deformed_setup(name, cutoff)
    rules, added = batyrev.complete(gens, ctx)
    oracle_rules, oracle_added, _ = oracles.complete(gens, ctx)
    assert (rules, added) == (oracle_rules, oracle_added)
    ideal = DeformedIdeal(ring=ring, ctx=ctx, rules=rules,
                          completion_added=added)
    assert module_matrices(ideal).matrices == \
        oracles.module_matrices(ideal).matrices


def _counted_complete(monkeypatch, gens, ctx):
    """``complete``'s rules and ``added``, its ``dp_reduce`` calls, and the
    S-pairs its chain criterion skipped.

    Every rule ``complete`` inserts passes through ``_monicize``; the pairs
    of those leads that share a variable are the pairs formed, and each
    ``dp_reduce`` call beyond the one per final rule reduced one of them.
    """
    leads, calls = [], []
    monicize, reduce_ = batyrev._monicize, batyrev.dp_reduce

    def recording(dp, ctx):
        rule = monicize(dp, ctx)
        leads.append(rule[0])
        return rule

    def counting(dp, rules, ctx):
        calls.append(1)
        return reduce_(dp, rules, ctx)

    with monkeypatch.context() as m:
        m.setattr(batyrev, "_monicize", recording)
        m.setattr(batyrev, "dp_reduce", counting)
        rules, added = batyrev.complete(gens, ctx)
    formed = sum(any(x and y for x, y in zip(a, b))
                 for i, a in enumerate(leads) for b in leads[:i])
    return rules, added, len(calls), formed - (len(calls) - len(rules))


def test_complete_matches_oracle_random_cutoff0(monkeypatch):
    rng = random.Random(297)
    ctx = NovikovContext(n_rays=0, ell=(), cutoff=0)
    coeffs = [-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]
    for _ in range(300):
        nv = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 4)):
            poly = {tuple(rng.randint(0, 2) for _ in range(nv)):
                    rng.choice(coeffs) for _ in range(rng.randint(1, 3))}
            gens.append({(): poly})
        rules, added = batyrev.complete(gens, ctx)
        oracle_rules, oracle_added, _ = oracles.complete(gens, ctx)
        assert (rules, added) == (oracle_rules, oracle_added), gens
    # 5-8 square-free quadrics in 4-6 variables, where the chain criterion
    # fires
    skipping = 0
    for _ in range(60):
        nv = rng.randint(4, 6)
        quadrics = [tuple(int(v in (a, b)) for v in range(nv))
                    for a in range(nv) for b in range(a + 1, nv)]
        gens = [{(): {m: rng.choice(coeffs)
                      for m in rng.sample(quadrics, rng.randint(1, 3))}}
                for _ in range(rng.randint(5, 8))]
        rules, added, _, skipped = _counted_complete(monkeypatch, gens, ctx)
        oracle_rules, oracle_added, _ = oracles.complete(gens, ctx)
        assert (rules, added) == (oracle_rules, oracle_added), gens
        skipping += skipped > 0
    assert skipping >= 30


@pytest.mark.parametrize("name,cutoff", [("dP6", 6), ("P1xdP6", 3)])
def test_integral_rules_have_int_coefficients(name, cutoff):
    _, ctx, gens = _deformed_setup(name, cutoff)
    rules, _ = batyrev.complete(gens, ctx)
    coeffs = [c for _, element in rules for poly in element.values()
              for c in poly.values()]
    assert coeffs and all(type(c) is int for c in coeffs)


def test_complete_reduces_less_than_oracle(monkeypatch):
    _, ctx, gens = _deformed_setup("dP6", 6)
    calls = []
    real = batyrev.dp_reduce

    def counting(dp, rules, ctx):
        calls.append(1)
        return real(dp, rules, ctx)

    monkeypatch.setattr(batyrev, "dp_reduce", counting)
    batyrev.complete(gens, ctx)
    _, _, oracle_calls = oracles.complete(gens, ctx)
    assert 0 < len(calls) < oracle_calls


@pytest.mark.parametrize("name,cutoff,pinned,product_only", [
    ("wdP3", 0, 150, 350), ("P1xdP6", 3, 35, 69)])
def test_complete_work_is_pinned(monkeypatch, name, cutoff, pinned,
                                 product_only):
    # dp_reduce calls inside complete, S-pairs and canonical step together;
    # ``product_only`` is the count with the product criterion alone, which
    # a completion that loses the chain criterion would return to
    _, ctx, gens = _deformed_setup(name, cutoff)
    _, _, calls, _ = _counted_complete(monkeypatch, gens, ctx)
    assert calls == pinned < product_only
