#!/usr/bin/env python3
"""Compare two benchmark result sets written by benchmark/run.py.

    python3 benchmark/compare.py A.json B.json

A is the baseline (parent commit), B the candidate.  For every
(workload, metric) it prints each side's median and quartiles over the
runs in the file and a verdict:

- end-to-end metrics (untraced runs), against the metric's bound in
  BENCHMARK.json:
  - "unresolved": either side's quartile spread exceeds the bound,
    unless every B run beats every A run ("improved");
  - "regressed": B's median is worse than A's by more than the bound;
  - "improved": B's median beats A's by more than A's quartile spread
    and B wins at least 9 of 10 same-seed pairs;
  - "within bound" otherwise;
- per-layer metrics (traced runs) have no bound: "same" when the
  medians are equal, else "changed".

Exits 1 if any end-to-end metric regressed.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, traced, metric): {seed: value}} from a results file."""
    with open(path) as f:
        runs = json.load(f)["runs"]
    out = {}
    for r in runs:
        for name, m in r["metrics"].items():
            key = (r["workload"], r["trace"], name)
            out.setdefault(key, {})[r["seed"]] = m["value"]
    return out


def stats(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def rel(a, b):
    return (b - a) / abs(a) if a else (0.0 if a == b else float("inf"))


def verdict(metric, a, b):
    """Verdict for one end-to-end metric; a and b map seed -> value."""
    sign = 1 if metric["better"] == "lower" else -1
    ma, qa1, qa3 = stats(list(a.values()))
    mb, qb1, qb3 = stats(list(b.values()))
    spread_a = (qa3 - qa1) / abs(ma) if ma else 0.0
    spread_b = (qb3 - qb1) / abs(mb) if mb else 0.0
    worse = sign * rel(ma, mb)
    all_better = all(sign * (x - y) > 0 for x in b.values()
                     for y in a.values())
    if all_better:
        return "improved"
    if max(spread_a, spread_b) > metric["bound"]:
        return "unresolved"
    if worse > metric["bound"]:
        return "regressed"
    pairs = [sign * (a[s] - b[s]) for s in a if s in b and a[s] != b[s]]
    wins = sum(1 for d in pairs if d > 0)
    if pairs and wins >= 0.9 * len(pairs) and -worse > spread_a:
        return "improved"
    return "within bound"


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    workloads = [w["name"] for w in spec["workloads"]]
    sections = [(False, spec["end_to_end"]), (True, spec["per_layer"])]
    regressed = 0
    print(f"{'workload':18} {'metric':30} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'delta':>8}  verdict")
    for traced, metrics in sections:
        for w in workloads:
            for m in metrics:
                key = (w, traced, m["name"])
                if key not in a or key not in b:
                    continue
                sa, sb = stats(list(a[key].values())), \
                    stats(list(b[key].values()))
                if traced:
                    v = "same" if sa[0] == sb[0] else "changed"
                else:
                    v = verdict(m, a[key], b[key])
                    regressed += v == "regressed"
                fmt = "{:.5g} [{:.5g}, {:.5g}]".format
                print(f"{w:18} {m['name']:30} {fmt(*sa):>34} "
                      f"{fmt(*sb):>34} {rel(sa[0], sb[0]):+8.2%}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
