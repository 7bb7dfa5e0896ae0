#!/usr/bin/env python3
"""Show that the benchmark's output checks reject corrupted reports.

Usage (from the root of a source checkout):

    python3 perfbench/selftest.py

It runs ``analyze``, ``ifunction`` and ``certify`` in-process on P2, F1 and
F3 (in seed-0 coordinates), requires every genuine report to pass, then
corrupts the reports one way at a time -- a dropped class, a wrong
generator, a changed invariant, a wrong coefficient, a changed star product,
a flipped verdict -- and requires each corrupted report to be rejected.  The
determinism and invariance checks get the same treatment.  Exits 0 when every
corruption is rejected, 1 otherwise.
"""

import json
import sys

import checks
import run
import workloads
from workloads import Case

FANS = ("P2", "F1", "F3")
CUTOFF = 3


def analyze_corruptions():
    def drop_collection(r):
        r["primitive_collections"].pop()
        r["mori"]["generators"].pop()

    def wrong_generator(r):
        pc = r["primitive_collections"][0]
        pc["class"][0] += 1
        pc["anticanonical_degree"] += 1
        r["mori"]["generators"][0] = list(pc["class"])

    def euler(r):
        r["euler_characteristic"] += 1

    def graded(r):
        r["cohomology"]["graded_dimensions"][1] += 1

    def semipositive(r):
        r["mori"]["semipositive"] = not r["mori"]["semipositive"]

    def functional(r):
        r["mori"]["positive_functional"] = [0] * len(
            r["mori"]["positive_functional"])

    return [drop_collection, wrong_generator, euler, graded, semipositive,
            functional]


def ifunction_corruptions(ref, mori):
    def drop_class(r):
        r["i_function"].pop()

    def class_outside_cone(r):
        b = [-x for x in mori["generators"][0]]
        r["i_function"].append({"class": b, "ell": checks.dot(mori["ell"], b),
                                "terms": []})

    def certified_ell(r):
        r["annihilation"]["generators"][0]["certified_ell"] += 1

    def i0(r):
        r["leading_terms"]["i0_is_one"] = not r["leading_terms"]["i0_is_one"]

    def coefficient(r):
        term = r["i_function"][1]["terms"][0]
        term["class"] = f"2*({term['class']})"

    def failure(r):
        r["failures"].append("injected")

    # only products of projective spaces have a closed form to compare with
    return [drop_class, class_outside_cone, certified_ell, i0, failure] + (
        [coefficient] if ref.fan.factors else [])


def certify_corruptions():
    def star_product(r):
        r["module"]["star_products"][0]["value"] += " + 1"

    def star_q_part_kept(r):
        # only the q-part may change freely; this must still pass
        s = r["module"]["star_products"][0]
        s["value"] = f"({s['value']})"

    def det(r):
        r["certificate"]["det_is_unit"] = False

    def verdict(r):
        r["certificate"]["verdict"] = "failed"

    def relation(r):
        r["relations"][0]["vanishes"] = False

    return [star_product, det, verdict, relation], [star_q_part_kept]


def main():
    cli = run.import_toriq()
    fans = workloads.write_fans("catalog-sweep", 0, run.OUT / "selftest")
    refs = {name: checks.FanRef(fans[name][0]) for name in FANS}
    accepted, rejected = [], 0

    def expect(ok, label, fn, *args):
        nonlocal rejected
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            if ok:
                accepted.append(f"{label}: genuine input rejected: {exc}")
            else:
                rejected += 1
                print(f"rejected  {label}: {exc}")
            return
        if not ok:
            accepted.append(f"{label}: corruption accepted")

    for name in FANS:
        mori = None
        for command in workloads.COMMANDS:
            case = Case(command, name, CUTOFF)
            _, stdout, _ = run.in_process(cli, [
                command, "--fan", str(fans[name][1]), "--cutoff", str(CUTOFF),
                "--format", "json"])
            label = case.key
            expect(True, label, checks.check_report, case, stdout, refs[name],
                   mori)
            if command == "analyze":
                mori = checks.check_report(case, stdout, refs[name], None)
                bad, good = analyze_corruptions(), []
            elif command == "ifunction":
                bad, good = ifunction_corruptions(refs[name], mori), []
            elif refs[name].semipositive:
                bad, good = certify_corruptions()
            else:
                def certified(r):
                    r["certificate"]["verdict"] = "certified"
                bad, good = [certified], []
            for fn, ok in [(f, False) for f in bad] + [(f, True) for f in good]:
                report = json.loads(stdout)
                fn(report)
                expect(ok, f"{label} {fn.__name__}", checks.check_report,
                       case, json.dumps(report).encode(), refs[name], mori)

    # determinism: a repeated operation with different bytes fails
    verifier = run.Verifier(fans)
    case = Case("analyze", "P2", CUTOFF)
    verifier.record(case, 0, b"{}", b"")
    verifier.record(case, 0, b"{ }", b"")
    if verifier.failed == 1:
        rejected += 1
        print("rejected  determinism: second run printed different bytes")
    else:
        accepted.append("determinism: changed bytes accepted")

    # invariance: a report that changes with the coordinates fails
    case = Case("analyze", "F1", CUTOFF)
    _, genuine, _ = run.in_process(cli, ["analyze", "--fan", "F1",
                                         "--format", "json"])
    transformed = json.loads(genuine)
    transformed["euler_characteristic"] += 1
    expect(False, "invariance", checks.check_invariant,
           json.dumps(transformed).encode(), genuine,
           checks.FanRef(workloads.FANS["F1"]))
    expect(True, "invariance genuine", checks.check_invariant, genuine,
           genuine, checks.FanRef(workloads.FANS["F1"]))

    for line in accepted:
        print(f"NOT REJECTED  {line}")
    print(f"{rejected} corruptions rejected, {len(accepted)} problems")
    return 1 if accepted else 0


if __name__ == "__main__":
    sys.exit(main())
