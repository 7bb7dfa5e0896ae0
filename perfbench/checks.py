"""Output checks made apart from the program.

Everything the checks compare against is computed here from the benchmark's
own fan definitions: faces and minimal non-faces from the cone list, the
h-vector from the face counts, primitive classes by exact linear algebra,
closed-form series coefficients for products of projective spaces, and the
classical cup product from a sympy Groebner basis of the Stanley-Reisner
presentation.  The only values taken from a report are the Mori generators
and the positive functional of a fan's ``analyze`` report, after that report
has passed its own checks; the later commands on the same fan are checked
against them.
"""

import json
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import sympy
from sympy.solvers.simplex import InfeasibleLPError, linprog


class CheckFailed(Exception):
    """A report disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# --- combinatorics and linear algebra of a fan --------------------------------


def faces(fan):
    out = set()
    for cone in fan.cones:
        for k in range(len(cone) + 1):
            out.update(combinations(sorted(cone), k))
    return out


def minimal_nonfaces(fan):
    """Ray sets in no cone whose proper subsets all are faces, sorted."""
    fs = faces(fan)
    found = []
    for size in range(2, fan.dim + 2):
        for cand in combinations(range(len(fan.rays)), size):
            if cand not in fs and all(s in fs for s in
                                      combinations(cand, size - 1)):
                found.append(cand)
    return found


def h_vector(fan):
    """h_k = sum_i (-1)^(k-i) C(d-i, k-i) f_i, with f_i the faces of i rays."""
    d = fan.dim
    f = [0] * (d + 1)
    for face in faces(fan):
        f[len(face)] += 1
    return [sum((-1) ** (k - i) * comb(d - i, k - i) * f[i]
                for i in range(k + 1)) for k in range(d + 1)]


def solve(columns, target):
    """Exact x with sum x_j columns[j] == target, for independent columns."""
    n = len(target)
    rows = [[Fraction(columns[j][i]) for j in range(len(columns))]
            + [Fraction(target[i])] for i in range(n)]
    m = len(columns)
    for col in range(m):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[j][m] for j in range(m)]


def primitive_class(fan, P):
    """Class with 1 on P and -c on the cone gamma where sum_P u = sum c u."""
    s = [sum(fan.rays[i][k] for i in P) for k in range(fan.dim)]
    for cone in fan.cones:
        c = solve([fan.rays[i] for i in cone], s)
        if all(x >= 0 for x in c):
            b = [0] * len(fan.rays)
            for i in P:
                b[i] = 1
            for i, x in zip(cone, c):
                require(x.denominator == 1, f"fan is not smooth at {cone}")
                b[i] -= int(x)
            return tuple(b)
    raise CheckFailed(f"{P}: sum of rays lies in no cone; fan is not complete")


def sr_groebner(ref):
    """A Groebner basis of the Stanley-Reisner presentation, all rays as
    variables x1, x2, ...: linear forms plus minimal non-face monomials."""
    xs = sympy.symbols(f"x1:{len(ref.fan.rays) + 1}")
    gens = [sum(u[k] * x for u, x in zip(ref.fan.rays, xs))
            for k in range(ref.fan.dim)]
    gens += [sympy.Mul(*[xs[i] for i in P]) for P in ref.nonfaces]
    return sympy.groebner(gens, *xs, order="grevlex", domain="QQ")


def in_kernel(fan, b):
    return all(sum(x * u[k] for x, u in zip(b, fan.rays)) == 0
               for k in range(fan.dim))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class FanRef:
    """What the checks expect of one fan, computed from its definition."""

    def __init__(self, fan):
        self.fan = fan
        self.faces = faces(fan)
        self.nonfaces = minimal_nonfaces(fan)
        self.generators = [primitive_class(fan, P) for P in self.nonfaces]
        self.semipositive = all(sum(g) >= 0 for g in self.generators)
        self.h_vector = h_vector(fan)

    def fan_block(self):
        cones = sorted(tuple(sorted(c)) for c in self.fan.cones)
        return {"name": self.fan.name, "dim": self.fan.dim,
                "rays": [list(u) for u in self.fan.rays],
                "max_cones": [[i + 1 for i in c] for c in cones]}


# --- per-command checks ---------------------------------------------------------


def check_analyze(report, ref):
    fan = ref.fan
    n_cones = len(fan.cones)
    require(report["validation"] == {"smooth": True, "complete": True},
            "validation block")
    require(report["euler_characteristic"] == n_cones,
            "euler characteristic is not the number of maximal cones")
    coh = report["cohomology"]
    require(coh["dimension"] == n_cones,
            "cohomology dimension is not the number of maximal cones")
    require(coh["graded_dimensions"] == ref.h_vector,
            f"graded dimensions {coh['graded_dimensions']} != h-vector "
            f"{ref.h_vector}")
    pcs = report["primitive_collections"]
    got = sorted(tuple(i - 1 for i in pc["rays"]) for pc in pcs)
    require(got == ref.nonfaces, "primitive collections are not the minimal "
            "non-faces of the cone list")
    mori = report["mori"]
    gens = [tuple(g) for g in mori["generators"]]
    require(gens == [tuple(pc["class"]) for pc in pcs],
            "generators are not the classes of the primitive collections")
    for pc in pcs:
        P = tuple(i - 1 for i in pc["rays"])
        b = tuple(pc["class"])
        require(in_kernel(fan, b), f"generator {b} is not a relation")
        require(b == ref.generators[ref.nonfaces.index(P)],
                f"class of {pc['rays']} is {b}, expected "
                f"{ref.generators[ref.nonfaces.index(P)]}")
        require(pc["anticanonical_degree"] == sum(b),
                f"anticanonical degree of {b}")
    ell = mori["positive_functional"]
    for g in gens:
        require(dot(ell, g) >= 1, f"positive functional is {dot(ell, g)} on {g}")
    require(mori["semipositive"] == all(sum(g) >= 0 for g in gens),
            "semipositive flag disagrees with the generators")
    require(mori["semipositive"] == ref.semipositive, "semipositive flag")
    require(mori["fano"] == all(sum(g) > 0 for g in gens), "fano flag")
    return {"generators": gens, "ell": tuple(ell),
            "semipositive": mori["semipositive"]}


def semigroup_points(gens, ell, cutoff):
    """Non-negative integer combinations of the generators with ell <= cutoff."""
    zero = (0,) * len(gens[0])
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(a + b for a, b in zip(p, g))
                if q not in seen and dot(ell, q) <= cutoff:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def negative_support(b):
    return tuple(i for i, x in enumerate(b) if x < 0)


def in_rational_cone(gens, b):
    """Exact LP: is b a non-negative rational combination of the generators?"""
    G = sympy.Matrix([[g[i] for g in gens] for i in range(len(b))])
    try:   # G lam == b as G lam <= b and -G lam <= -b, lam >= 0
        linprog([0] * len(gens), G.col_join(-G), [*b, *(-x for x in b)])
    except InfeasibleLPError:
        return False
    return True


def closed_form(ref, b, hs):
    """prod over factors P^k of prod_{m=1..d} (H + m hbar)^-(k+1), as {hbar power: poly}."""
    out = {0: sympy.Integer(1)}
    for group, H in zip(ref.fan.factors, hs):
        k = len(group) - 1
        d = b[group[0]]
        require(all(b[i] == d for i in group), f"{b} is not a curve class")
        for m in range(1, d + 1):
            # (H + m hbar)^-1 = sum_j (-1)^j H^j (m hbar)^(-j-1), H^(k+1) = 0
            inv = {-j - 1: sympy.Rational((-1) ** j, m ** (j + 1)) * H ** j
                   for j in range(k + 1)}
            for _ in range(k + 1):
                prod = {}
                for p, a in out.items():
                    for q, c in inv.items():
                        prod[p + q] = prod.get(p + q, 0) + a * c
                out = {p: truncate(sympy.expand(a), hs, ref.fan.factors)
                       for p, a in prod.items()}
    return {p: a for p, a in out.items() if a != 0}


def truncate(expr, hs, factors):
    poly = sympy.Poly(expr, *hs)
    return sum((c * sympy.Mul(*[h ** e for h, e in zip(hs, mono)])
                for mono, c in poly.terms()
                if all(e < len(g) for e, g in zip(mono, factors))),
               sympy.Integer(0))


def parse_poly(text):
    """A rendered polynomial (``-1/2*x1^2 + x3``) as a sympy expression."""
    return sympy.sympify(text.replace("^", "**"))


def check_closed_form(report, ref):
    hs = sympy.symbols(f"H1:{len(ref.fan.factors) + 1}")
    factor_of = {}
    for group, H in zip(ref.fan.factors, hs):
        for i in group:
            factor_of[sympy.Symbol(f"x{i + 1}")] = H
    for row in report["i_function"]:
        b = tuple(row["class"])
        want = closed_form(ref, b, hs)
        got = {}
        for t in row["terms"]:
            expr = sympy.expand(parse_poly(t["class"]).subs(factor_of))
            got[t["hbar_power"]] = truncate(expr, hs, ref.fan.factors)
        got = {p: a for p, a in got.items() if a != 0}
        require(got == want, f"coefficient of {b} is not the closed form")


def check_ifunction(report, ref, cutoff, mori):
    require(report["cutoff"] == cutoff, "cutoff")
    require(report["failures"] == [], f"failures: {report['failures']}")
    gens, ell = mori["generators"], mori["ell"]
    require(report["leading_terms"]["i0_is_one"] == mori["semipositive"],
            "i0_is_one must hold exactly on semipositive fans")
    tp = report["two_point_invariants"]["status"]
    require(tp == ("ok" if mori["semipositive"] else "skipped"),
            f"two-point invariants status {tp}")
    ann = report["annihilation"]
    require(ann["status"] == "ok", "annihilation status")
    entries = {tuple(e["class"]): e for e in ann["generators"]}
    require(sorted(entries) == sorted(gens),
            "annihilation does not cover exactly the Mori generators")
    for g, e in entries.items():
        require(e["ok"] and e["certified_ell"] == cutoff - dot(ell, g),
                f"annihilation of {g}: certified_ell {e['certified_ell']}, "
                f"expected {cutoff - dot(ell, g)}")
    classes = [tuple(row["class"]) for row in report["i_function"]]
    require(len(set(classes)) == len(classes), "a class is listed twice")
    for row, b in zip(report["i_function"], classes):
        require(row["ell"] == dot(ell, b) <= cutoff, f"ell of {b}")
        require(in_kernel(ref.fan, b), f"{b} is not a curve class")
    # The coefficient of q^b carries the factor prod D_rho over the rays with
    # b_rho < 0, times units; so it is nonzero exactly when those rays span a
    # cone, and the report lists exactly those classes.
    for b in classes:
        require(negative_support(b) in ref.faces,
                f"{b} is listed but its coefficient must vanish")
    combos = {b for b in semigroup_points(gens, ell, cutoff)
              if negative_support(b) in ref.faces}
    missing = combos - set(classes)
    require(not missing, f"{len(missing)} effective classes missing, e.g. "
            f"{min(missing) if missing else None}")
    for b in set(classes) - combos:
        require(in_rational_cone(gens, b), f"{b} is outside the Mori cone")
    if ref.fan.factors:
        check_closed_form(report, ref)


_Q = re.compile(r"q\^\([-0-9,]+\)|q\d+")


def q0_part(text):
    """The q^0 part of a rendered module expansion: every Novikov monomial -> 0."""
    return parse_poly(_Q.sub("0", text))


def check_certify(report, ref, cutoff, mori):
    require(report["cutoff"] == cutoff, "cutoff")
    require(report["semipositive"] == mori["semipositive"], "semipositive")
    cert = report["certificate"]
    if not mori["semipositive"]:
        require(cert["verdict"] == "hypothesis_unmet",
                f"verdict {cert['verdict']} on a fan that is not semipositive")
        return
    require(cert["verdict"] == "certified", f"verdict {cert['verdict']}")
    require(cert["annihilation_ok"] and cert["relations_ok"]
            and cert["det_is_unit"], "certificate flags")
    rels = report["relations"]
    require(len(rels) == len(mori["generators"]) and
            all(r["vanishes"] for r in rels), "a relation does not vanish")
    module = report["module"]
    n_rays = len(ref.fan.rays)
    require(len(module["basis"]) == len(ref.fan.cones), "module basis size")
    stars = module["star_products"]
    require(len(stars) == n_rays * len(module["basis"]),
            "star products do not cover every ray and basis element")
    G = sr_groebner(ref)
    for s in stars:
        diff = q0_part(s["value"]) - (sympy.Symbol(s["variable"])
                                      * parse_poly(s["basis_monomial"]))
        require(G.reduce(sympy.expand(diff))[1] == 0,
                f"q^0 part of {s['variable']} * {s['basis_monomial']} is not "
                f"the cup product")


def check_report(case, stdout, ref, mori):
    """Check one report; return the Mori data an ``analyze`` report carries."""
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    try:
        require(report["schema"] == "toriq/1", "schema")
        require(report["command"] == case.command, "command")
        require(report["fan"] == ref.fan_block(), "fan block")
        if case.command == "analyze":
            return check_analyze(report, ref)
        require(mori is not None,
                f"no checked analyze report for {case.fan} in this run")
        if case.command == "ifunction":
            check_ifunction(report, ref, case.cutoff, mori)
        else:
            check_certify(report, ref, case.cutoff, mori)
    except (KeyError, TypeError, IndexError, AttributeError,
            sympy.SympifyError) as exc:
        raise CheckFailed(f"malformed report: {exc!r}") from None
    return mori


def without_fan(stdout):
    report = json.loads(stdout)
    report.pop("fan")
    return json.dumps(report, indent=2)


def check_invariant(stdout, identity_stdout, identity_ref):
    """The report for the transformed fan matches the untransformed one."""
    try:
        identity = json.loads(identity_stdout)
        require(identity["fan"] == identity_ref.fan_block(),
                "builtin fan differs from the benchmark's definition")
        require(without_fan(stdout) == without_fan(identity_stdout),
                "report changes under a change of lattice coordinates")
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"malformed report: {exc!r}") from None
