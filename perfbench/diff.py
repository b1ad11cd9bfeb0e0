#!/usr/bin/env python3
"""Compares two sets of benchmark runs metric by metric.

    python3 perfbench/diff.py BASE NEW

BASE and NEW are directories of run records written by perfbench/run.py
(.bench_build/results/<workload>-seed<n>-trace0.json; copy the directory
aside between commits). For every workload and every end-to-end metric of
BENCHMARK.json the tool compares the medians of the two sets:

  regressed   NEW is worse than BASE by more than the metric's bound
  improved    NEW is better than BASE by more than the bound
  within      the change is inside the bound
  unresolved  either set's spread (first-to-third quartile distance over
              the median) is wider than the bound, so the runs cannot tell
              a change of that size from noise; unless every NEW run beats
              every BASE run, which is reported as improved

Exit status: 0 when every metric is within or improved, 1 when something
regressed, 3 when nothing regressed but something is unresolved (the
comparison cannot vouch for it), 2 on bad input.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {metric: [values]}} from the untraced run records."""
    runs = {}
    files = sorted(Path(directory).glob("*-trace0.json"))
    if not files:
        raise SystemExit(f"diff: no *-trace0.json run records in {directory}")
    for path in files:
        record = json.loads(path.read_text())
        if not record.get("correct"):
            print(f"diff: skipping failed run {path}", file=sys.stderr)
            continue
        per_metric = runs.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return runs


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, new, better, bound):
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = (new_median - base_median) / abs(base_median)
    worse = change if better == "lower" else -change
    beats = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    noise = max(spread(base), spread(new))
    if noise > bound:
        return ("improved" if beats else "unresolved"), change, noise
    if worse > bound:
        return "regressed", change, noise
    if -worse > bound:
        return "improved", change, noise
    return "within", change, noise


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(sys.argv[1]), load(sys.argv[2])
    regressed = unresolved = False
    print(f"{'workload':9s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) | set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base.get(workload, {}).get(name, [])
            b = new.get(workload, {}).get(name, [])
            if not a or not b:
                print(f"{workload:9s} {name:20s} missing in "
                      f"{'BASE' if not a else 'NEW'}")
                continue
            result, change, noise = verdict(a, b, metric["better"],
                                            metric["bound"])
            regressed |= result == "regressed"
            unresolved |= result == "unresolved"
            print(f"{workload:9s} {name:20s} {statistics.median(a):12.5g} "
                  f"{statistics.median(b):12.5g} {change:+8.1%} "
                  f"{noise:7.1%} {metric['bound']:6.0%}  {result}")
    sys.exit(1 if regressed else 3 if unresolved else 0)


if __name__ == "__main__":
    main()
