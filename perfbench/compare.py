#!/usr/bin/env python3
"""Compare two sets of benchmark results for one workload.

Usage (from the root of a checkout):

    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds the last stdout line of several runs, one JSON object per
line.  For each metric the script prints both sides' median and quartiles
(``statistics.quantiles(n=4)``), the change of the median relative to the
base, and the base's own spread (quartile distance over median).  For an
end-to-end metric it flags a change worse than its bound in BENCHMARK.json
as REGRESSION, and a difference smaller than the base spread as unresolved.
"""

import json
import statistics
import sys
from pathlib import Path


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    values = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    failed = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    return values, failed, all(r["correct"] for r in runs)


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(base_path, new_path):
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]
              + bench["per_layer"]}
    base, base_failed, base_ok = load(base_path)
    new, new_failed, new_ok = load(new_path)
    print(f"failed share: base {base_failed:.4f}, new {new_failed:.4f}; "
          f"correct: base {base_ok}, new {new_ok}")
    print(f"{'metric':32} {'base q1/med/q3':>32} {'new q1/med/q3':>32} "
          f"{'change':>8} {'spread':>7}")
    for name in base:
        if name not in new:
            continue
        b, n = summary(base[name]), summary(new[name])
        change = (n[1] - b[1]) / b[1] if b[1] else 0.0
        spread = (b[2] - b[0]) / b[1] if b[1] else 0.0
        worse = change if better.get(name, "lower") == "lower" else -change
        verdict = ""
        if name in e2e:
            if worse > e2e[name]["bound"]:
                verdict = "REGRESSION"
            elif abs(change) <= spread:
                verdict = "unresolved"
        print(f"{name:32} {b[0]:10.4g} {b[1]:10.4g} {b[2]:10.4g} "
              f"{n[0]:10.4g} {n[1]:10.4g} {n[2]:10.4g} {change:+8.3f} "
              f"{spread:7.3f} {verdict}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
