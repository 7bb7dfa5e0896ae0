"""The ``ifunction`` and ``certify`` reports, built and rendered as text.

This code reads the series and Groebner layers, so it loads with them: the
package registers it as a lazy module (see the package docstring) and
``cli`` reaches it through that module object, so fan ingestion and
``analyze`` never compile it.  Every signed sum is rendered by
``polynomials._signed_sum``; a Novikov coefficient's exponents over the
Mori generators are dot products with the cached
``MoriData.generator_inverse``.
"""

from operator import mul

from . import batyrev, cohomring, gkz
from . import polynomials as P
from .cli import SCHEMA, _label, fan_block
from .moricone import _binomial_exponents, mori_data

# --- rendering helpers ----------------------------------------------------------


def novikov_monomial_str(md, beta):
    """``q^beta`` as a monomial over the Mori generators; "1" for beta = 0.

    Its exponents are the rows of ``md.generator_inverse`` dotted with beta,
    over its ``d``, exact because beta lies in the curve lattice: the
    effective classes, the generators and the q-levels of rules and module
    entries all do.  A non-simplicial Mori cone, or an exponent that is
    negative or not an integer, gives the vector form ``q^(b_1,...,b_n)``
    instead.
    """
    if not any(beta):
        return "1"
    rows, d = md.generator_inverse or ((), 1)
    dots = [sum(map(mul, row, beta)) for row in rows]
    if not dots or any(x % d or x < 0 for x in dots):
        return "q^(" + ",".join(map(str, beta)) + ")"
    return "*".join(f"q{i + 1}^{x // d}" if x > d else f"q{i + 1}"
                    for i, x in enumerate(dots) if x)


def scalar_str(levels, den, md):
    """Render a module entry, ``{beta: numerator}`` over ``den``, with
    generator-coordinate monomials, lowest ell first."""
    return P._signed_sum(
        (P._ratio(levels[b], den), novikov_monomial_str(md, b) if any(b)
         else "") for b in sorted(levels, key=lambda b: (md.ell_of(b), b)))


def basis_monomial_str(ring, mono):
    return P.render_monomial(mono, ring.var_names) or "1"


def expansion_str(ring, md, column, den):
    """Render a module column, ``{basis index: levels}`` over ``den``."""
    return P._signed_sum(
        (scalar_str(column[k], den, md),
         P.render_monomial(ring.basis[k], ring.var_names))
        for k in sorted(column))


def hlaurent_entries(h):
    return [{"hbar_power": power,
             "class": cohomring.render_class(h.terms[power])}
            for power in sorted(h.terms, reverse=True)]


# --- report builders -----------------------------------------------------------


def run_ifunction(fan, cutoff):
    md = mori_data(fan)
    gkz.check_cutoff(md.ell_of, md.generators, cutoff)
    ring = cohomring.build_cohomology_ring(fan)
    I = gkz.i_function(ring, md, cutoff)
    lt = gkz.leading_terms(I)
    coeff_rows = []
    for beta in sorted(I.terms, key=lambda b: (md.ell_of(b), b)):
        coeff_rows.append({
            "class": list(beta),
            "ell": md.ell_of(beta),
            "novikov": novikov_monomial_str(md, beta),
            "terms": hlaurent_entries(I.terms[beta]),
        })
    report = {
        "schema": SCHEMA,
        "command": "ifunction",
        "fan": fan_block(fan),
        "cutoff": cutoff,
        "i_function": coeff_rows,
        "leading_terms": {
            "i0_is_one": lt.i0_is_one,
            "i0_deviations": [
                {"class": list(b), "value": cohomring.render_class(c)}
                for b, c in sorted(lt.i0.items())
                if any(b) or c != ring.one()],
            "i1": [
                {"class": list(b), "value": cohomring.render_class(c)}
                for b, c in sorted(lt.i1.items())],
        },
    }
    failures = []
    try:
        table = gkz.extract_two_point_invariants(ring, I)
        entries = []
        for (a, k, beta), val in sorted(table.entries.items(),
                                        key=lambda kv: (kv[0][2], kv[0][1],
                                                        kv[0][0])):
            entries.append({
                "basis_monomial": basis_monomial_str(ring, ring.basis[a]),
                "psi_power": k,
                "class": list(beta),
                "value": str(P._ratio(*val)),
            })
        report["two_point_invariants"] = {"status": "ok", "entries": entries}
    except gkz.PositiveHbarPower as exc:
        status = "skipped" if not md.semipositive else "failed"
        report["two_point_invariants"] = {"status": status, "reason": str(exc)}
        if md.semipositive:
            failures.append(f"two-point extraction failed: {exc}")
    try:
        ann = gkz.annihilation_certificate(I, md)
        # the check raises on a failing generator, so each "ok" is true
        report["annihilation"] = {
            "status": "ok",
            "generators": [
                {"class": list(beta), "certified_ell": certified, "ok": True}
                for beta, certified in ann],
        }
    except gkz.AnnihilationFailure as exc:
        report["annihilation"] = {"status": "failed", "reason": str(exc)}
        failures.append(f"annihilation failed: {exc}")
    if md.semipositive and not lt.i0_is_one:
        failures.append("leading term is not 1 on a semipositive fan")
    report["failures"] = failures
    return report


def run_certify(fan, cutoff):
    md = mori_data(fan)
    report = {
        "schema": SCHEMA,
        "command": "certify",
        "fan": fan_block(fan),
        "cutoff": cutoff,
        "semipositive": md.semipositive,
    }
    if not md.semipositive:
        report["certificate"] = {
            "verdict": "hypothesis_unmet",
            "reason": "theorem not applicable: fan is not semipositive",
        }
        return report
    gkz.check_cutoff(md.ell_of, md.generators, cutoff)
    ring = cohomring.build_cohomology_ring(fan)
    ideal = batyrev.build_deformed_ideal(md, ring, cutoff)
    module = batyrev.certify_isomorphism(ideal, md)
    var_all = [f"x{r + 1}" for r in range(fan.n_rays)]
    report["presentation"] = {
        "eliminated": {
            var_all[rho]: P.render_poly(ring.ray_poly(rho), ring.var_names)
            for rho in ring.sigma0},
        "rules": [
            {"lead": basis_monomial_str(ring, lead),
             "rhs": _rule_rhs_str(ring, md, ideal.ctx, tail)}
            for lead, tail in ideal.rules],
        "completion_added": ideal.completion_added,
    }
    stars = []
    for rho in range(fan.n_rays):
        for a, mono in enumerate(ring.basis):
            stars.append({
                "variable": var_all[rho],
                "basis_monomial": basis_monomial_str(ring, mono),
                "value": expansion_str(ring, md, module.columns[rho][a],
                                       module.den),
            })
    report["module"] = {
        "basis": [basis_monomial_str(ring, m) for m in ring.basis],
        "star_products": stars,
    }
    # certify_isomorphism raises on any failed check, so these are constant
    report["relations"] = [
        {"relation": _relation_str(md, beta), "vanishes": True}
        for beta in md.generators]
    report["certificate"] = {
        "annihilation_ok": True,
        "relations_ok": True,
        "determinant": "1",
        "det_is_unit": True,
        "verdict": "certified",
    }
    return report


def _rule_rhs_str(ring, md, ctx, rhs):
    """Right-hand side of a rule: its tail, the normal form of the lead."""
    terms = []
    for beta in sorted(rhs, key=lambda b: (ctx.ell_of(b), b)):
        q = novikov_monomial_str(md, beta) if any(beta) else ""
        for mono in sorted(rhs[beta], key=P.term_key, reverse=True):
            m = P.render_monomial(mono, ring.var_names)
            terms.append((rhs[beta][mono], "*".join(f for f in (q, m) if f)))
    return P._signed_sum(terms)


def _relation_str(md, beta):
    """The hbar -> 0 binomial of a class's box operator."""
    names = [f"x{r + 1}" for r in range(md.fan.n_rays)]
    pos, neg = (P.render_monomial(e, names) for e in _binomial_exponents(beta))
    q = novikov_monomial_str(md, beta)
    rhs = f"{q}*{neg}" if neg else q
    return f"{pos or 1} - {rhs}"


# --- text emission --------------------------------------------------------------


def _text_ifunction(report, out):
    out.append(f"reduced series up to ell <= {report['cutoff']} "
               f"({_label(report['fan'])})")
    for row in report["i_function"]:
        terms = "; ".join(
            f"hbar^{t['hbar_power']}: {t['class']}" for t in row["terms"])
        out.append(f"  {row['novikov']} [ell {row['ell']}]: {terms or '0'}")
    lt = report["leading_terms"]
    out.append(f"leading term I0 == 1: {str(lt['i0_is_one']).lower()}")
    for dev in lt["i0_deviations"]:
        out.append(f"  I0 deviation at {tuple(dev['class'])}: {dev['value']}")
    for entry in lt["i1"]:
        out.append(f"  I1 at {tuple(entry['class'])}: {entry['value']}")
    tp = report["two_point_invariants"]
    out.append(f"two-point invariants: {tp['status']}")
    for e in tp.get("entries", []):
        out.append(
            f"  <{e['basis_monomial']} psi^{e['psi_power']}, 1> at "
            f"{tuple(e['class'])} = {e['value']}")
    if "reason" in tp:
        out.append(f"  reason: {tp['reason']}")
    ann = report["annihilation"]
    out.append(f"annihilation: {ann['status']}")
    for g in ann.get("generators", []):
        out.append(f"  box operator of {tuple(g['class'])}: zero on "
                   f"ell <= {g['certified_ell']}")
    for f in report["failures"]:
        out.append(f"FAILURE: {f}")


def _text_certify(report, out):
    out.append(f"certification at cutoff {report['cutoff']} "
               f"({_label(report['fan'])})")
    cert = report["certificate"]
    if cert["verdict"] == "hypothesis_unmet":
        out.append(cert["reason"])
        return
    pres = report["presentation"]
    out.append("eliminations:")
    for var, val in pres["eliminated"].items():
        out.append(f"  {var} = {val}")
    out.append("rewriting rules:")
    for rule in pres["rules"]:
        out.append(f"  {rule['lead']} -> {rule['rhs']}")
    out.append(f"completion added {pres['completion_added']} element(s)")
    out.append("module action:")
    for s in report["module"]["star_products"]:
        out.append(f"  {s['variable']} * {s['basis_monomial']} = {s['value']}")
    out.append("relations:")
    for r in report["relations"]:
        out.append(f"  {r['relation']} -> 0")
    out.append(f"det(phi) = {cert['determinant']} "
               f"(unit: {str(cert['det_is_unit']).lower()})")
    out.append(f"verdict: {cert['verdict']}")
