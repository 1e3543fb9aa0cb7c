#!/usr/bin/env python3
"""Compare two sets of hentt_e2e run files, metric by metric.

usage: compare.py A_DIR B_DIR [--bench BENCHMARK.json]
       compare.py --self-test

A is the baseline (the parent commit), B the candidate. Each directory
holds run files (the JSON run.sh writes under --results). Runs pair up
in the order they started, so alternate A and B runs when taking them.

For every workload and every metric BENCHMARK.json declares, prints
both sets' medians and quartiles and a verdict:

  improved    at least 10 pairs, B wins at least 9 in 10 of them (ties
              count for neither), and the medians differ by more than
              A's quartile spread
  worse       B's median is worse than A's by more than the bound
  unresolved  the run-to-run spread (quartile distance over median) of
              either set is wider than the bound, unless every B run
              beats every A run
  unchanged   none of the above

Per-layer metrics have no bound: they are improved or worse by the pair
rule alone, otherwise unchanged. Fewer than 10 pairs never give a
pair-rule verdict. Exits 1 when any end-to-end metric is worse.
"""

import argparse
import json
import os
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a, b, better, bound):
    """Verdict of candidate runs b against baseline runs a."""
    lower = better == "lower"

    def beats(x, y):  # x is strictly better than y
        return x < y if lower else x > y

    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    pairs = list(zip(a, b))
    enough = len(pairs) >= 10
    wins = sum(1 for x, y in pairs if beats(y, x))
    improved = (enough and wins >= 0.9 * len(pairs) and
                abs(med_b - med_a) > q3a - q1a and beats(med_b, med_a))
    if bound is None:
        losses = sum(1 for x, y in pairs if beats(x, y))
        worse = (enough and losses >= 0.9 * len(pairs) and
                 abs(med_b - med_a) > q3a - q1a)
        return "improved" if improved else "worse" if worse else "unchanged"
    spread = max((q3 - q1) / abs(med) if med else 0.0
                 for (q1, q3), med in ((quartiles(a), med_a),
                                       (quartiles(b), med_b)))
    if spread > bound:
        every = all(beats(y, x) for x in a for y in b)
        return "improved" if every and improved else "unresolved"
    if improved:
        return "improved"
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if (change if lower else -change) > bound:
        return "worse"
    return "unchanged"


def compare(bench, runs_a, runs_b, out=sys.stdout):
    """Print the comparison table; return the verdicts by key."""
    specs = [(m, m["bound"]) for m in bench["end_to_end"]] + \
            [(m, None) for m in bench["per_layer"]]
    verdicts = {}
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        a = [r for r in runs_a if r["workload"] == workload]
        b = [r for r in runs_b if r["workload"] == workload]
        if not a or not b:
            continue
        print(f"{workload}: {len(a)} A runs, {len(b)} B runs", file=out)
        for spec, bound in specs:
            va = [r["metrics"][spec["name"]]["value"] for r in a
                  if r["metrics"].get(spec["name"], {}).get("value")
                  is not None]
            vb = [r["metrics"][spec["name"]]["value"] for r in b
                  if r["metrics"].get(spec["name"], {}).get("value")
                  is not None]
            if not va or not vb:
                continue
            v = verdict(va, vb, spec["better"], bound)
            verdicts[(workload, spec["name"])] = v
            qa, qb = quartiles(va), quartiles(vb)
            print(f"  {spec['name']:30s} {spec['unit']:6s} "
                  f"A {statistics.median(va):12.6g} "
                  f"[{qa[0]:.6g}, {qa[1]:.6g}]  "
                  f"B {statistics.median(vb):12.6g} "
                  f"[{qb[0]:.6g}, {qb[1]:.6g}]  {v}"
                  + ("" if bound is None else f" (bound {bound:g})"),
                  file=out)
    return verdicts


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                run = json.load(fh)
            run["_file"] = name
            runs.append(run)
    return sorted(runs, key=lambda r: (r.get("started", 0), r["_file"]))


def self_test():
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "p50_ms", "unit": "ms", "better": "lower",
             "bound": 0.1},
            {"name": "throughput_rps", "unit": "req/s", "better": "higher",
             "bound": 0.1},
        ],
        "per_layer": [{"name": "he.mul_ms", "unit": "ms",
                       "better": "lower"}],
    }

    def runs(p50, rps, mul):
        return [{"workload": "w", "metrics": {
            "p50_ms": {"value": x, "unit": "ms"},
            "throughput_rps": {"value": y, "unit": "req/s"},
            "he.mul_ms": {"value": z, "unit": "ms"}}}
            for x, y, z in zip(p50, rps, mul)]

    jitter = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    base = runs([10 * j for j in jitter], [500 * j for j in jitter],
                [2 * j for j in jitter])
    sink = open(os.devnull, "w", encoding="utf-8")
    failures = []

    same = compare(bench, base, base, sink)
    if set(same.values()) != {"unchanged"}:
        failures.append(f"identical sets must pass: {same}")

    slow = compare(bench, base,
                   runs([20 * j for j in jitter], [500 * j for j in jitter],
                        [2 * j for j in jitter]), sink)
    if slow[("w", "p50_ms")] != "worse" or \
            slow[("w", "throughput_rps")] != "unchanged":
        failures.append(f"a 2x p50 slowdown must fail alone: {slow}")

    fast = compare(bench, base,
                   runs([10 * j for j in jitter], [500 * j for j in jitter],
                        [1 * j for j in jitter]), sink)
    if fast[("w", "he.mul_ms")] != "improved":
        failures.append(f"a halved layer time must improve: {fast}")
    few = compare(bench, base[:3],
                  runs([10 * j for j in jitter[:3]],
                       [500 * j for j in jitter[:3]],
                       [1 * j for j in jitter[:3]]), sink)
    if few[("w", "he.mul_ms")] != "unchanged":
        failures.append(f"3 pairs must not claim a gain: {few}")

    wide = [0.6, 1.4, 0.8, 1.3, 0.7, 1.2, 0.9, 1.5, 1.0, 1.1]
    noisy = compare(bench, runs([10 * j for j in wide],
                                [500 * j for j in jitter],
                                [2 * j for j in jitter]),
                    runs([10 * j for j in reversed(wide)],
                         [500 * j for j in jitter],
                         [2 * j for j in jitter]), sink)
    if noisy[("w", "p50_ms")] != "unresolved":
        failures.append(f"spread wider than the bound is unresolved: "
                        f"{noisy}")
    sink.close()

    for failure in failures:
        print("compare.py self-test FAILED: " + failure, file=sys.stderr)
    print("compare.py self-test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("a", nargs="?", help="baseline run directory")
    parser.add_argument("b", nargs="?", help="candidate run directory")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..",
        "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.a or not args.b:
        parser.error("need A_DIR and B_DIR")
    with open(args.bench, encoding="utf-8") as fh:
        bench = json.load(fh)
    verdicts = compare(bench, load_runs(args.a), load_runs(args.b))
    e2e = {m["name"] for m in bench["end_to_end"]}
    worse = [k for k, v in verdicts.items() if v == "worse" and k[1] in e2e]
    unresolved = [k for k, v in verdicts.items()
                  if v == "unresolved" and k[1] in e2e]
    print(f"end-to-end: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
