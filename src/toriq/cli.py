"""Command surface: fan ingestion, analysis pipeline, report emission.

Three subcommands over a fan (builtin catalog name or JSON file):

* ``analyze``   -- validation, primitive collections/relations/classes, Mori
                   generators, semipositivity, effectivity witnesses, and
                   the fan's h-vector as graded dimensions: no ring is built.
* ``ifunction`` -- series coefficients, leading terms, two-point invariant
                   table, annihilation certificate.
* ``certify``   -- deformed presentation, module matrices, relation checks,
                   isomorphism certificate.

Exit codes: 0 all certificates passed, 1 certificate failure, 2 input or
usage error (including a cutoff below the ell of a Mori generator, checked
before any series is built), 3 theorem hypothesis unmet, 141 stdout closed
early.  ``main()`` called with no argv owns the process and ends it with
no interpreter teardown.  ``batyrev``, ``cohomring``, ``gkz`` and
``polynomials`` are held here as lazy modules (see the package docstring)
and load on a command's first call through them.
Reports are deterministic; the JSON form carries ``"schema": "toriq/1"``
and renders every rational exactly as a string.

Every signed sum is rendered by ``polynomials._signed_sum``; a Novikov
coefficient's exponents over the Mori generators are dot products with the
cached ``MoriData.generator_inverse``.
"""

import atexit
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from operator import mul

from . import batyrev, cohomring, gkz
from . import polynomials as P
from .catalog import CATALOG, builtin_fan
from .fan import (ValidationError, h_vector, make_fan, validate_complete,
                  validate_smooth)
from .moricone import (NoPositiveFunctional, _binomial_exponents,
                       effectivity_witness, mori_data)

SCHEMA = "toriq/1"


class ParseError(ValueError):
    """Fan file is structurally malformed."""


# --- ingestion ----------------------------------------------------------------


def ingest(source):
    """Builtin name or path to a fan JSON file -> validated Fan."""
    if source in CATALOG:
        fan = builtin_fan(source)
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ParseError(f"{source} is not valid JSON: {exc}") from exc
        fan = fan_from_dict(data, origin=source)
    validate_smooth(fan)
    validate_complete(fan)
    return fan


def fan_from_dict(data, origin="<fan>"):
    if not isinstance(data, dict):
        raise ParseError(f"{origin}: expected a JSON object")
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise ParseError(f"{origin}: missing field {key!r}")
    dim = data["dim"]
    rays = data["rays"]
    cones = data["max_cones"]
    # ``type(x) is int``: JSON true/false load as bool, a subclass of int
    if type(dim) is not int:
        raise ParseError(f"{origin}: dim must be an integer")
    if not isinstance(rays, list) or not all(
            isinstance(u, list) and all(type(x) is int for x in u)
            for u in rays):
        raise ParseError(f"{origin}: rays must be lists of integers")
    if not isinstance(cones, list) or not all(
            isinstance(c, list) and all(type(i) is int for i in c)
            for c in cones):
        raise ParseError(f"{origin}: max_cones must be lists of integers")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f"{origin}: name must be a string")
    for c in cones:
        for i in c:
            if not 1 <= i <= len(rays):
                raise ParseError(
                    f"{origin}: cone index {i} out of range (1-based)")
    return make_fan(dim, [tuple(u) for u in rays],
                    [tuple(i - 1 for i in c) for c in cones], name=name)


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


def fan_block(fan):
    return {
        "name": fan.name,
        "dim": fan.dim,
        "rays": [list(u) for u in fan.rays],
        "max_cones": [[i + 1 for i in cone] for cone in fan.max_cones],
    }


def run_analyze(fan):
    md = mori_data(fan)
    collections = []
    for pc, beta in zip(md.collections, md.generators):
        w = effectivity_witness(fan, pc)
        collections.append({
            "rays": [i + 1 for i in pc.rays],
            "gamma": [i + 1 for i in pc.gamma],
            "coefficients": list(pc.coeffs),
            "class": list(beta),
            "anticanonical_degree": sum(beta),
            "witness": {
                "degrees": list(w.degrees),
                "pattern": list(w.pattern),
                "sigma_max": [i + 1 for i in w.sigma_max],
            },
        })
    return {
        "schema": SCHEMA,
        "command": "analyze",
        "fan": fan_block(fan),
        "validation": {"smooth": True, "complete": True},
        "euler_characteristic": len(fan.max_cones),
        "cohomology": {
            "dimension": len(fan.max_cones),
            "graded_dimensions": h_vector(fan),
        },
        "primitive_collections": collections,
        "mori": {
            "generators": [list(g) for g in md.generators],
            "positive_functional": list(md.ell),
            "semipositive": md.semipositive,
            "fano": all(sum(g) > 0 for g in md.generators),
        },
    }


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


def _label(fan):
    """The fan's name as one printable ASCII line, ``<file>`` if empty."""
    return fan["name"].encode("unicode_escape").decode("ascii") or "<file>"


def _text_analyze(report, out):
    fan = report["fan"]
    out.append(f"fan {_label(fan)}: dim {fan['dim']}, "
               f"{len(fan['rays'])} rays, {len(fan['max_cones'])} maximal cones")
    out.append("validation: smooth=ok complete=ok")
    out.append(f"euler characteristic: {report['euler_characteristic']}")
    dims = report["cohomology"]["graded_dimensions"]
    out.append("cohomology dims by degree: " + " ".join(map(str, dims)))
    out.append("primitive collections:")
    for pc in report["primitive_collections"]:
        rays = ",".join(map(str, pc["rays"]))
        gamma = ",".join(map(str, pc["gamma"]))
        out.append(
            f"  P={{{rays}}} gamma={{{gamma}}} c={tuple(pc['coefficients'])} "
            f"class={tuple(pc['class'])} -K.beta={pc['anticanonical_degree']}")
        w = pc["witness"]
        out.append(
            f"    witness: degrees={tuple(w['degrees'])} "
            f"pattern={','.join(w['pattern'])} "
            f"sigma_max={{{','.join(map(str, w['sigma_max']))}}}")
    mori = report["mori"]
    out.append("mori generators: " +
               " ".join(str(tuple(g)) for g in mori["generators"]))
    out.append(f"positive functional: {tuple(mori['positive_functional'])}")
    out.append(f"semipositive: {str(mori['semipositive']).lower()}")
    out.append(f"fano: {str(mori['fano']).lower()}")


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


def render_text(report):
    out = []
    if report["command"] == "analyze":
        _text_analyze(report, out)
    elif report["command"] == "ifunction":
        _text_ifunction(report, out)
    else:
        _text_certify(report, out)
    return "\n".join(out) + "\n"


def _dumps(report):
    """The bytes of ``json.dumps(report, indent=2)``.  An indent puts the
    stdlib on its pure-Python encoder; this writer passes each string to the
    C function that encoder uses."""
    out = []
    _dump(report, out, "\n")
    return "".join(out)


def _dump(obj, out, indent):
    """Append the JSON of ``obj`` (dicts with str keys, lists, str, int, bool
    and None) to ``out``; raise ``TypeError`` on any other type or key."""
    t = type(obj)
    if t is str:
        out.append(encode_basestring_ascii(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif (t is dict or t is list) and obj:
        inner = indent + "  "
        sep = ("{" if t is dict else "[") + inner
        for item in obj.items() if t is dict else obj:
            if t is dict:
                key, item = item
                if type(key) is not str:
                    raise TypeError(f"key {key!r} is not a str")
                sep += encode_basestring_ascii(key) + ": "
            out.append(sep)
            _dump(item, out, inner)
            sep = "," + inner
        out.append(indent + ("}" if t is dict else "]"))
    elif t is dict or t is list:
        out.append("{}" if t is dict else "[]")
    elif obj is None or t is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


# --- entry point -----------------------------------------------------------------


def exit_code_for(report):
    cert = report.get("certificate")
    if cert is not None:
        return 3 if cert["verdict"] == "hypothesis_unmet" else 0
    return 1 if report.get("failures") else 0


# argparse's help and usage text at 80 columns: importing argparse and
# building its parsers cost each process about 8 ms
USAGE = "usage: toriq [-h] {analyze,ifunction,certify} ...\n"
HELP = USAGE + """
exact quantum-deformation certificates for toric fans

positional arguments:
  {analyze,ifunction,certify}
    analyze             combinatorial and cohomological analysis
    ifunction           series coefficients and annihilation certificate
    certify             deformed module and isomorphism certificate

options:
  -h, --help            show this help message and exit
"""
COMMAND_USAGE = ("usage: toriq %s [-h] --fan FAN [--cutoff CUTOFF] "
                 "[--format {text,json}]\n")
COMMAND_HELP = COMMAND_USAGE + """
options:
  -h, --help            show this help message and exit
  --fan FAN             builtin name (BlP2, F0, F1, F2, F3, P1, P1xP1, P1xP2,
                        P2) or path to a fan JSON file
  --cutoff CUTOFF       truncation degree for the series (default 3)
  --format {text,json}
"""
OPTIONS = ("-h", "--help", "--fan", "--cutoff", "--format")


def _fail(command, message):
    """Write a usage error as argparse did and exit 2."""
    usage, prog = ((COMMAND_USAGE % command, f"toriq {command}") if command
                   else (USAGE, "toriq"))
    sys.stderr.write(f"{usage}{prog}: error: {message}\n")
    sys.exit(2)


def _option(word, command):
    """``(option, its "=value" or None)`` for a word naming an option or a
    unique prefix of one (only -h/--help before the command), ``(word, None)``
    for another option word and ``(None, None)`` for a value such as ``-1``."""
    if word[:1] != "-" or word == "-" or re.fullmatch(r"-\d+|-\d*\.\d+", word):
        return None, None
    name, eq, value = word.partition("=")
    found = [o for o in (OPTIONS if command else OPTIONS[:2])
             if name != "--" and o.startswith(name)]
    if len(found) > 1:
        _fail(command,
              f"ambiguous option: {word} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    return (None if " " in word else word), None


def parse_args(argv):
    """``(command, fan, cutoff, format)`` from the words after ``toriq``,
    parsed as argparse did."""
    command, extras = None, []
    args = {"--cutoff": 3, "--format": "text"}
    words = [(word, *_option(word, None)) for word in argv]
    while words:
        word, option, value = words.pop(0)
        if option in ("-h", "--help"):
            if value is not None:
                _fail(command, "argument -h/--help: ignored explicit "
                      f"argument {value!r}")
            sys.stdout.write(COMMAND_HELP % command if command else HELP)
            sys.exit(0)
        elif command is None and option is None:
            if word not in ("analyze", "ifunction", "certify"):
                _fail(None, f"argument command: invalid choice: {word!r} "
                      "(choose from 'analyze', 'ifunction', 'certify')")
            command = word
            words = [(w, *_option(w, command)) for w, _, _ in words]
        elif command and option in OPTIONS:
            if value is None:
                if not words or words[0][1] is not None:
                    _fail(command, f"argument {option}: expected one argument")
                value = words.pop(0)[0]
            try:
                args[option] = int(value) if option == "--cutoff" else value
            except ValueError:
                args[option] = -1
            if option == "--cutoff" and args[option] < 0:
                _fail(command, "argument --cutoff: cutoff must be a "
                      f"non-negative integer, got {value!r}")
            if option == "--format" and value not in ("text", "json"):
                _fail(command, f"argument --format: invalid choice: "
                      f"{value!r} (choose from 'text', 'json')")
        else:
            extras.append(word)
    if command is None or "--fan" not in args:
        _fail(command, "the following arguments are required: "
              + ("--fan" if command else "command"))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return command, args["--fan"], args["--cutoff"], args["--format"]


def main(argv=None):
    """Run the command in ``argv``, by default the words after ``toriq`` in
    ``sys.argv``, and return its exit code.

    Called with no argv, main owns the process.  Once the command returns,
    it runs the ``atexit`` handlers, flushes what they and the command wrote
    to stdout and stderr, and ends the process by ``os._exit``, skipping the
    interpreter's teardown of every module that it and ``site`` loaded.
    Under a profiler or a tracer, which write at exit, it returns the code
    instead.
    """
    if argv is not None:
        return _run(argv)
    code = _run(sys.argv[1:])
    monitoring = getattr(sys, "monitoring", None)   # cProfile's, from 3.12
    if sys.getprofile() or sys.gettrace() or monitoring and any(
            map(monitoring.get_tool, range(6))):
        return code
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _run(argv):
    command, source, cutoff, fmt = parse_args(argv)
    try:
        fan = ingest(source)
    except (ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        if command == "analyze":
            report = run_analyze(fan)
        elif command == "ifunction":
            report = run_ifunction(fan, cutoff)
        else:
            report = run_certify(fan, cutoff)
    except NoPositiveFunctional as exc:
        # its own clause: evaluating the next one loads the series layers
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except gkz.InsufficientCutoff as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (gkz.AnnihilationFailure, batyrev.RelationNonzero,
            batyrev.BasisNotPreserved,
            batyrev.NonUnitLeadingCoefficient) as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    try:
        print(_dumps(report) if fmt == "json" else render_text(report),
              end="\n" if fmt == "json" else "", flush=True)
    except BrokenPipeError:
        # the reader closed stdout early: point fd 1 at devnull so that the
        # interpreter's last flush does not raise again; 141 = 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return exit_code_for(report)


if __name__ == "__main__":
    sys.exit(main())
