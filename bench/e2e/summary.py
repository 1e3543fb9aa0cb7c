#!/usr/bin/env python3
"""Print the one-line JSON summary of a hentt_e2e run file.

usage: summary.py BENCHMARK.json RUN_FILE

The summary holds the metrics BENCHMARK.json declares: every
end_to_end metric for an untraced run, every per_layer metric for a
traced one. Exits non-zero, after printing, when the run was not
correct or a declared metric is missing, has another unit, or is not a
finite number.
"""

import json
import sys


def summarize(bench, run):
    declared = bench["per_layer" if run["trace"] else "end_to_end"]
    metrics, bad = {}, []
    for spec in declared:
        got = run["metrics"].get(spec["name"])
        if got is None or got["value"] is None or \
                got["unit"] != spec["unit"]:
            bad.append(spec["name"])
            continue
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": bool(run["correct"]) and not bad,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }, bad


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        run = json.load(fh)
    summary, bad = summarize(bench, run)
    if bad:
        print("summary: missing or malformed metrics: " + ", ".join(bad),
              file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
