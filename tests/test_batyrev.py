import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from toriq import batyrev
from toriq.batyrev import (
    BasisNotPreserved,
    BatyrevModule,
    DeformedIdeal,
    HypothesisUnmet,
    NonUnitLeadingCoefficient,
    RelationNonzero,
    build_deformed_ideal,
    certify_isomorphism,
    module_matrices,
    relation_check,
)
from toriq.catalog import CATALOG, SEMIPOSITIVE, builtin_fan
from toriq.cli import fan_from_dict, main
from toriq.cohomring import (
    CohClass,
    build_cohomology_ring,
    divisor_class,
)
from toriq.gkz import gkz_operator
from toriq.moricone import mori_data
from toriq.novikov import NovikovContext, NovikovScalar
from toriq.polynomials import mono_divides

import oracles
from oracles import normal_form

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
    tail = rules[(2, 0)]
    assert ideal.ctx.zero_class not in tail
    assert tail[B1] == {(1, 1): Fraction(-2)}
    assert tail[B12] == {(0, 0): Fraction(1)}
    # x2^2 -> q2 - 2 x1 x2
    tail2 = rules[(0, 2)]
    assert tail2[ideal.ctx.zero_class] == {(1, 1): Fraction(-2)}
    assert tail2[B2] == {(0, 0): Fraction(1)}


def test_p2_p1_rewriting_systems():
    _, _, _, ideal = setup("P2")
    rules = dict(ideal.rules)
    assert set(rules) == {(3,)}
    assert rules[(3,)][(1, 1, 1)] == {(0,): Fraction(1)}
    _, _, _, ideal = setup("P1")
    rules = dict(ideal.rules)
    assert rules[(2,)][(1, 1)] == {(0,): Fraction(1)}


def test_q0_recovers_classical_groebner():
    for name in CATALOG:
        _, _, ring, ideal = setup(name)
        classical = {}
        for g in oracles.groebner(ring):
            from toriq.polynomials import leading
            classical[leading(g)[0]] = g
        deformed_q0 = {}
        for lead, tail in ideal.rules:
            deformed_q0[lead] = oracles.psub(
                {lead: 1}, tail.get(ideal.ctx.zero_class, {}))
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
    col = oracles.star_column(module, 0, x1_idx)
    assert col[unit_idx] == scal(ideal, {B12: 1})
    assert col[x1x2_idx] == scal(ideal, {B1: -2})
    assert not col[x1_idx] and not col[x2_idx]
    # x2 * x2 = q2 - 2 x1x2
    col = oracles.star_column(module, 1, x2_idx)
    assert col[unit_idx] == scal(ideal, {B2: 1})
    assert col[x1x2_idx] == scal(ideal, {ideal.ctx.zero_class: -2})


def test_module_matrix_p2_star():
    _, _, ring, ideal = setup("P2")
    module = module_matrices(ideal)
    h2_idx = ring.basis.index((2,))
    unit_idx = ring.basis.index((0,))
    col = oracles.star_column(module, 0, h2_idx)
    assert col[unit_idx] == scal(ideal, {(1, 1, 1): 1})
    assert sum(1 for s in col if s) == 1


def test_module_matrix_p1_star():
    _, _, ring, ideal = setup("P1")
    module = module_matrices(ideal)
    h_idx = ring.basis.index((1,))
    col = oracles.star_column(module, 0, h_idx)
    assert col[ring.basis.index((0,))] == scal(ideal, {(1, 1): 1})


def test_column_of_unit_is_divisor_class():
    for name in CATALOG:
        fan, _, ring, ideal = setup(name)
        module = module_matrices(ideal)
        unit_idx = ring.basis.index((0,) * len(ring.surviving))
        for rho in range(fan.n_rays):
            col = oracles.star_column(module, rho, unit_idx)
            expected = divisor_class(ring, rho)
            for b in range(ring.dim):
                q0 = oracles.q0(col[b])
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
        mats = oracles.module_scalars(module)
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
        mats = oracles.module_scalars(module_matrices(ideal))
        for rho in range(fan.n_rays):
            D = divisor_class(ring, rho)
            for a in range(ring.dim):
                coeffs = [Fraction(0)] * ring.dim
                coeffs[a] = Fraction(1)
                classical = D * CohClass(ring, coeffs)
                for b in range(ring.dim):
                    assert oracles.q0(mats[rho][b][a]) == \
                        classical.coeffs[b], (name, rho, a, b)


def test_grading_homogeneous():
    # deg(x-part) + anticanonical degree of the level is constant per rule
    for name in CATALOG:
        _, _, _, ideal = setup(name)
        for lead, tail in ideal.rules:
            target = sum(lead)
            for beta, poly in tail.items():
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
    i = next(i for i, (_, tail) in enumerate(ideal.rules)
             if set(tail) - {zero})
    lead, tail = ideal.rules[i]
    beta = min(set(tail) - {zero})
    mono = min(tail[beta])
    tail = {**tail, beta: {**tail[beta], mono: 2 * tail[beta][mono]}}
    rules = ideal.rules[:i] + ((lead, tail),) + ideal.rules[i + 1:]
    broken = module_matrices(ideal._replace(rules=rules))
    with pytest.raises(AssertionError,
                       match="do not commute|primitive relation"):
        oracles.check_module(fan, md.ell, 4, broken)


# border monomials y * m (y a surviving variable, m standard) that are
# neither standard nor a rule's lead, at cutoff 4; on P1xdP6 they are 21,
# six of them the product of two different (y, m) pairs
REDUCED_BORDER = {"dP6": 3, "wdP5": 4, "wdP4": 5, "wdP3": 6, "P1xdP6": 21,
                  "P2xP2": 4}


@pytest.mark.parametrize("name", sorted(oracles.KERNEL_FANS))
def test_module_reduces_only_the_rest_of_the_border(monkeypatch, name):
    # a column whose product is standard or a rule's lead is read off the
    # rules: module_matrices reduces each other border monomial once
    fan = oracles.KERNEL_FANS[name]()
    md = mori_data(fan)
    ideal = build_deformed_ideal(fan, md, build_cohomology_ring(fan), 4)
    basis = set(ideal.ring.basis)
    border = {m[:v] + (m[v] + 1,) + m[v + 1:]
              for m in basis for v in range(len(m))}
    rest = border - basis - {lead for lead, _ in ideal.rules}
    reduced = []
    real = batyrev.dp_reduce

    def recording(dp, rules, ctx):
        (mono,) = dp[ctx.zero_class]
        reduced.append(mono)
        return real(dp, rules, ctx)

    monkeypatch.setattr(batyrev, "dp_reduce", recording)
    module_matrices(ideal)
    assert sorted(reduced) == sorted(rest)
    assert len(rest) == REDUCED_BORDER.get(name, len(rest))


@pytest.mark.parametrize("name", sorted(oracles.KERNEL_FANS))
def test_module_scalars_equal_the_public_constructor(name):
    # the module is the column reader's table: every numerator a nonzero
    # int, every class under the cutoff, no empty entry or level; and its
    # scalars are those the public constructor builds from the table
    fan = oracles.KERNEL_FANS[name]()
    md = mori_data(fan)
    ideal = build_deformed_ideal(fan, md, build_cohomology_ring(fan), 4)
    module = module_matrices(ideal)
    assert (module.columns, module.den) == batyrev._multiplication_columns(
        ideal.ring, ideal.rules, ideal.ctx)
    assert type(module.den) is int and module.den > 0
    dim = ideal.ring.dim
    assert len(module.columns) == fan.n_rays
    for rho, cols in enumerate(module.columns):
        assert len(cols) == dim
        for a, col in enumerate(cols):
            for k, levels in col.items():
                assert 0 <= k < dim and levels, (rho, a, k)
                for b, x in levels.items():
                    assert type(x) is int and x, (rho, a, k, b)
                    assert ideal.ctx.ell_of(b) <= 4, (rho, a, k, b)
    scalars = oracles.module_scalars(module)
    for rho, cols in enumerate(module.columns):
        for k in range(dim):
            for a, col in enumerate(cols):
                expected = NovikovScalar(ideal.ctx, {
                    b: Fraction(x, module.den)
                    for b, x in col.get(k, {}).items()})
                assert scalars[rho][k][a] == expected, (rho, k, a)
                assert bool(expected) == (k in col), (rho, k, a)


@pytest.mark.parametrize("name,rejected,total", [("dP6", 45, 58),
                                                 ("P1xdP6", 46, 59)])
def test_relation_check_rejects_doubled_rule_coefficients(name, rejected,
                                                           total):
    # every doubling of one q-level coefficient of one rule: relation_check
    # rejects exactly those whose operator binomials do not all reduce to
    # zero under the reference normal form, naming the first such class
    fan = oracles.KERNEL_FANS[name]()
    md = mori_data(fan)
    ideal = build_deformed_ideal(fan, md, build_cohomology_ring(fan), 4)
    ctx, zero = ideal.ctx, ideal.ctx.zero_class
    operators = [gkz_operator(beta) for beta in md.generators]
    tried = caught = 0
    for i, (lead, tail) in enumerate(ideal.rules):
        for beta in sorted(set(tail) - {zero}):
            for mono, c in sorted(tail[beta].items()):
                changed = {**tail, beta: {**tail[beta], mono: 2 * c}}
                broken = ideal._replace(rules=ideal.rules[:i] + (
                    (lead, changed),) + ideal.rules[i + 1:])
                failing = [op.beta for op in operators if any(normal_form(
                    broken, {op.positive_exponents: NovikovScalar.unit(ctx),
                             op.negative_exponents:
                                 NovikovScalar.monomial(ctx, op.beta, -1)}))]
                tried += 1
                if failing:
                    caught += 1
                    with pytest.raises(RelationNonzero, match=re.escape(
                            f"relation of {failing[0]} does not vanish")):
                        relation_check(broken, operators)
                else:
                    relation_check(broken, operators)
    assert (caught, tried) == (rejected, total)


def test_certify_rejects_module_not_preserving_basis(monkeypatch, capsys):
    # F1 with x1 * 1 = x1 + 1: phi's determinant stays 1, so only the
    # identity check sees the fault
    real = batyrev.module_matrices

    def broken(ideal):
        module = real(ideal)
        one = module.ring.basis.index((0, 0))
        levels = module.columns[0][one].setdefault(one, {})
        zero = ideal.ctx.zero_class
        levels[zero] = levels.get(zero, 0) + module.den
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


def test_monicize_divides_by_the_q0_coefficient_alone():
    # the lead x2 has coefficient 2 + q^B1: the rule divides by 2 and keeps
    # the lead at level B1, below x2 at q^0 since ell(B1) = 1
    from toriq.batyrev import _monicize
    _, _, _, ideal = setup("F2")
    ctx = ideal.ctx
    zero = ctx.zero_class
    dp = {zero: {(0, 1): 2, (1, 0): 1}, B1: {(0, 1): 1, (0, 0): 3}}
    assert _monicize(dp, ctx) == ((0, 1), {
        zero: {(1, 0): Fraction(-1, 2)},
        B1: {(0, 1): Fraction(-1, 2), (0, 0): Fraction(-3, 2)}})
    # the reference completion inverts 2 + q^B1 and gets the same rules,
    # also through an S-pair with x1*x2
    gens = [dp, {zero: {(1, 1): 1}}]
    rules, added = batyrev.complete(gens, ctx)
    assert (rules, added) == oracles.complete(gens, ctx)[:2]
    assert added == 1
    assert rules[0] == ((0, 1), {
        zero: {(1, 0): Fraction(-1, 2)},
        B1: {(1, 0): Fraction(1, 4), (0, 0): Fraction(-3, 2)},
        tuple(2 * x for x in B1): {(1, 0): Fraction(-1, 8),
                                   (0, 0): Fraction(3, 4)},
        tuple(3 * x for x in B1): {(1, 0): Fraction(1, 16),
                                   (0, 0): Fraction(-3, 8)}})


def test_projective_three_space_module():
    from toriq.fan import make_fan
    fan = make_fan(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], name="P3")
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    ideal = build_deformed_ideal(fan, md, ring, 3)
    assert dict(ideal.rules)[(4,)] == {(1, 1, 1, 1): {(0,): Fraction(1)}}
    module = module_matrices(ideal)
    # h * h^3 = q
    col = oracles.star_column(module, 0, ring.basis.index((3,)))
    assert col[ring.basis.index((0,))] == \
        NovikovScalar(ideal.ctx, {(1, 1, 1, 1): 1})
    certified = certify_isomorphism(ideal, md)
    assert (certified.columns, certified.den) == (module.columns, module.den)


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
# where the chain criterion skips most S-pairs; wdP4 runs at cutoffs 2 and 3
# and wdP3 at cutoff 2, since at cutoff 4 the reference completion, which
# reduces every S-pair, takes tens of seconds on them.  wdP5 at cutoffs 4
# and 6, wdP4 at 2 and 3 and wdP3 at 2 have residues whose lead coefficient
# has a q-term, which the rules divide by its q^0 part alone.
ENGINE_CASES = [(name, cutoff) for name in sorted(CATALOG)
                for cutoff in range(6)] + [
    ("dP6", 6), ("P2xP2", 8), ("P1xdP6", 3), ("wdP5", 4), ("wdP5", 6),
    ("wdP4", 2), ("wdP4", 3), ("wdP3", 2)] + [
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
    assert oracles.module_scalars(module_matrices(ideal)) == \
        oracles.module_matrices(ideal)


@pytest.mark.parametrize("name", sorted(oracles.KERNEL_FANS))
def test_divisor_columns_are_the_module_at_cutoff_0(name):
    # at q = 0 multiplying by D_rho is Batyrev's module matrix of x_rho, and
    # both are the class product D_rho * T_a
    fan = oracles.KERNEL_FANS[name]()
    ring = build_cohomology_ring(fan)
    ideal = build_deformed_ideal(fan, mori_data(fan), ring, 0)
    module = module_matrices(ideal)
    T = oracles.monomial_basis_classes(ring)
    for rho, (columns, den) in enumerate(ring.divisor_columns):
        for a, column in enumerate(columns):
            coeffs = [0] * ring.dim
            for k, c in column:
                assert c and type(c) is int, (name, rho, a, k)
                coeffs[k] = Fraction(c, den)
            assert oracles.star_column(module, rho, a) == [
                NovikovScalar(ideal.ctx, {ideal.ctx.zero_class: c})
                for c in coeffs], (name, rho, a)
            assert CohClass(ring, coeffs) == ring.divisors[rho] * T[a], \
                (name, rho, a)


@pytest.mark.parametrize("name", sorted(oracles.KERNEL_FANS))
def test_rules_are_in_normal_form(name):
    # a rule is (lead, normal form of lead), for the deformed ideal at
    # cutoff 4 and the classical ring at cutoff 0: no monomial of a tail, at
    # any level, is divisible by a lead, and the reference reduction of the
    # lead gives the stored tail
    fan = oracles.KERNEL_FANS[name]()
    ring = build_cohomology_ring(fan)
    ideal = build_deformed_ideal(fan, mori_data(fan), ring, 4)
    for rules, ctx in ((ideal.rules, ideal.ctx), (ring.rules, oracles.Q0)):
        leads = [lead for lead, _ in rules]
        for lead, tail in rules:
            assert not any(mono_divides(other, m) for other in leads
                           for poly in tail.values() for m in poly), lead
            assert dict(rules)[lead] == oracles.dp_reduce(
                {ctx.zero_class: {lead: 1}}, rules, ctx), lead


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
    coeffs = [c for _, tail in rules for poly in tail.values()
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


# wdP5 with its rays listed in reverse.  From cutoff 1 on, an S-pair residue
# has no unit coefficient while the classical leads are still incomplete; a
# rule found later reduces it to zero.
REVERSED_WDP5 = {
    "dim": 2,
    "rays": [[0, -1], [-1, -1], [-1, 0], [0, 1], [1, 1], [2, 1], [1, 0]],
    "max_cones": [[7, 6], [6, 5], [5, 4], [4, 3], [3, 2], [2, 1], [1, 7]]}


def test_reversed_wdp5_certifies(tmp_path, capsys):
    path = tmp_path / "wdP5.json"
    path.write_text(json.dumps(REVERSED_WDP5))
    assert main(["certify", "--fan", str(path), "--cutoff", "4"]) == 0
    assert capsys.readouterr().err == ""
    fan = oracles.relabel(oracles.wdp5(), range(6, -1, -1))
    assert fan == fan_from_dict(REVERSED_WDP5)._replace(name="wdP5")
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    oracles.check_module(fan, md.ell, 4, module_matrices(
        build_deformed_ideal(fan, md, ring, 4)))
    # the reference reduces every S-pair, which is slow at cutoff 4
    for cutoff in (1, 2):
        ctx = NovikovContext(n_rays=fan.n_rays, ell=md.ell, cutoff=cutoff)
        gens = batyrev._deformed_generators(fan, md, ring, ctx)
        assert batyrev.complete(gens, ctx) == oracles.complete(gens, ctx)[:2]


def _orders(n):
    """The ray orders of an n-cycle obtained by rotation and reflection."""
    return [[(s * k + r) % n for k in range(n)] for r in range(n)
            for s in (1, -1)]


RAY_ORDERS = [("wdP5", p) for p in _orders(7)] + [
    ("wdP4", [3, 4, 5, 6, 7, 0, 1, 2]), ("wdP4", [4, 3, 2, 1, 0, 7, 6, 5])]


@pytest.mark.parametrize("name,perm", RAY_ORDERS, ids=[
    f"{name}-{''.join(map(str, perm))}" for name, perm in RAY_ORDERS])
def test_certificate_does_not_depend_on_ray_order(name, perm):
    fan = oracles.relabel(oracles.KERNEL_FANS[name](), perm)
    md = mori_data(fan)
    ideal = build_deformed_ideal(fan, md, build_cohomology_ring(fan), 4)
    certify_isomorphism(ideal, md)


def test_torsion_still_raises():
    # x^2 and x^2 - q: their S-pair is the pure-q element q, which no rule
    # reduces
    ctx = NovikovContext(n_rays=1, ell=(1,), cutoff=2)
    gens = [{(0,): {(2,): 1}}, {(0,): {(2,): 1}, (1,): {(0,): -1}}]
    with pytest.raises(NonUnitLeadingCoefficient):
        batyrev.complete(gens, ctx)
    with pytest.raises(NonUnitLeadingCoefficient):
        oracles.complete(gens, ctx)


@pytest.mark.parametrize("cuts", [c for c in itertools.product(
    (True, False), repeat=3) if len(set(c)) == 2],
    ids=lambda cuts: "".join("TF"[not cut] for cut in cuts))
def test_projective_subdivided_p3_certifies(cuts):
    fan = fan_from_dict(oracles.subdivided_p3(cuts))
    md = mori_data(fan)
    assert md.semipositive and max(map(md.ell_of, md.generators)) == 4
    ideal = build_deformed_ideal(fan, md, build_cohomology_ring(fan), 4)
    oracles.check_module(fan, md.ell, 4, certify_isomorphism(ideal, md))
