#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 vpbench/compare.py BASE_DIR CHANGE_DIR [--bench BENCHMARK.json]

Each directory holds one file per run, named <workload>-<seed>.json (or any
name ending in -<seed> plus an extension), containing the run's stdout; its
last line is the benchmark's JSON result. For example:

    python3 vpbench/run.py --workload walk_fix --seed 3 --seconds 20 \
        --trace 0 > base/walk_fix-3.json

Per workload and end-to-end metric it prints each side's median and
quartiles. Runs of the same workload and seed on both sides form pairs;
with pairs it gives two verdicts:

  gain    the change is better in at least nine tenths of the pairs (ties
          count for neither) and the medians differ by more than the
          baseline's interquartile range;
  bound   the change's median is no worse than the baseline's by more than
          the metric's bound. Where the baseline's own spread (IQR over
          median) exceeds the bound, the result is "unresolved" unless
          every change run is better than every baseline run.

It also prints the attempted and failed operations of both sides. Exits 1
when any metric breaks its bound or the failed share differs.
"""
import argparse
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    runs = {}  # (workload, seed) -> result
    for name in sorted(os.listdir(directory)):
        m = re.match(r"(.+)-(\d+)\.[A-Za-z0-9]+$", name)
        if not m:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print("skipping %s: last line is not a result" % name)
            continue
        runs[(m.group(1), int(m.group(2)))] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def main():
    p = argparse.ArgumentParser()
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--bench", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load_runs(args.base), load_runs(args.change)
    workloads = sorted({w for w, _ in base} | {w for w, _ in change})
    broken = False

    for wl in workloads:
        b_runs = {s: r for (w, s), r in base.items() if w == wl}
        c_runs = {s: r for (w, s), r in change.items() if w == wl}
        paired = sorted(set(b_runs) & set(c_runs))
        print("== %s: %d base runs, %d change runs, %d pairs"
              % (wl, len(b_runs), len(c_runs), len(paired)))
        for side, runs in (("base", b_runs), ("change", c_runs)):
            att = sum(r["attempted"] for r in runs.values())
            fail = sum(r["failed"] for r in runs.values())
            print("   %-6s attempted %d, failed %d (%.4f)"
                  % (side, att, fail, fail / att if att else 0.0))
        b_share = {r["failed"] / r["attempted"] for r in b_runs.values()}
        c_share = {r["failed"] / r["attempted"] for r in c_runs.values()}
        if b_runs and c_runs and b_share != c_share:
            print("   failed share differs: base %s, change %s"
                  % (sorted(b_share), sorted(c_share)))
            broken = True
        for name, spec in metrics.items():
            bv = [r["metrics"][name]["value"] for r in b_runs.values()
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()
                  if name in r["metrics"]]
            if not bv or not cv:
                continue
            bq, cq = quartiles(bv), quartiles(cv)
            unit = spec["unit"]
            line = ("   %-24s base %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g] %s"
                    % (name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], unit))
            direction = spec["better"]
            worse_by = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            if direction == "higher":
                worse_by = -worse_by
            spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            all_better = all(better(c, b, direction) for c in cv for b in bv)
            if worse_by > spec["bound"]:
                verdict = "REGRESSION (%.1f%% worse, bound %.0f%%)" % (
                    100 * worse_by, 100 * spec["bound"])
                broken = True
            elif spread > spec["bound"] and not all_better:
                verdict = "unresolved (base spread %.1f%% > bound)" % (100 * spread)
            else:
                verdict = "within bound (%+.1f%%)" % (-100 * worse_by)
            if paired:
                wins = 0
                for s in paired:
                    b = b_runs[s]["metrics"][name]["value"]
                    c = c_runs[s]["metrics"][name]["value"]
                    wins += better(c, b, direction)
                gain = (wins >= 0.9 * len(paired)
                        and abs(cq[1] - bq[1]) > bq[2] - bq[0])
                verdict += "; %d/%d pairs better, %s" % (
                    wins, len(paired), "GAIN" if gain else "no gain claimed")
            print(line + "\n      " + verdict)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
