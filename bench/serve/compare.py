#!/usr/bin/env python3
"""Compares sets of bench_serve runs against BENCHMARK.json's bounds.

  python3 bench/serve/compare.py --base A --change B   # verdict per metric x workload
  python3 bench/serve/compare.py --spread A            # run-to-run spread of one set
  python3 bench/serve/compare.py --self-test

A and B are results JSON files bench_serve or run.py wrote, or directories of
them. Untraced runs are grouped by workload, and base and change runs pair up
in seed order: run both sides with the same seeds, alternating which runs
first. For each end-to-end metric of each workload the verdict is

  unresolved  the base's spread (IQR / median) is wider than the bound, and
              not every change run is better than every base run;
  better      the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the base's IQR;
  worse       the change's median is worse than the base's by more than the
              bound;
  same        otherwise.

Exit status is 1 when any pairing is worse, else 0.
"""

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(paths):
    """Untraced runs from result files and directories, by workload."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.json")) if path.is_dir() else [path]
    by_workload = {}
    for path in files:
        with open(path) as f:
            doc = json.load(f)
        for run in doc.get("runs", [doc]):
            if "workload" in run and not run.get("trace"):
                by_workload.setdefault(run["workload"], []).append(run)
    for runs in by_workload.values():
        runs.sort(key=lambda run: run.get("seed", 0))
    return by_workload


def values(runs, metric, section="metrics"):
    return [run[section][metric]["value"] for run in runs
            if metric in run.get(section, {})]


def spread(samples):
    """(median, IQR, IQR / median) with quartiles as statistics gives them."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return median, q3 - q1, (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, change, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    base_median, base_iqr, base_spread = spread(base)
    change_median = statistics.median(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    every_run_better = (min(sign * c for c in change) >
                        max(sign * b for b in base))
    if base_spread > bound and not every_run_better:
        return "unresolved"
    if (sign * (change_median - base_median) > 0 and
            wins >= 0.9 * len(pairs) and
            abs(change_median - base_median) > base_iqr):
        return "better"
    if sign * (base_median - change_median) / abs(base_median) > bound:
        return "worse"
    return "same"


def compare(base_runs, change_runs, benchmark):
    """{(workload, metric): (verdict, base median, change median)}."""
    verdicts = {}
    for workload in sorted(base_runs):
        for metric in benchmark["end_to_end"]:
            base = values(base_runs[workload], metric["name"])
            change = values(change_runs.get(workload, []), metric["name"])
            if not base or not change:
                continue
            verdicts[(workload, metric["name"])] = (
                verdict(base, change, metric["bound"], metric["better"]),
                statistics.median(base), statistics.median(change))
    return verdicts


def self_test(benchmark):
    rng = random.Random(11)
    workloads = [w["name"] for w in benchmark["workloads"]]
    # A metric whose bound a 20% regression exceeds.
    target = min((m for m in benchmark["end_to_end"] if m["bound"] < 0.2),
                 key=lambda m: m["bound"])
    worse_factor = 1.2 if target["better"] == "lower" else 0.8
    target = target["name"]

    def synthetic(factors):
        runs = {}
        for workload in workloads:
            for seed in range(1, 11):
                metrics = {}
                for metric in benchmark["end_to_end"]:
                    value = 100.0 * (1 + rng.gauss(0, 0.01))
                    value *= factors.get((workload, metric["name"]), 1.0)
                    metrics[metric["name"]] = {"value": value,
                                               "unit": metric["unit"]}
                runs.setdefault(workload, []).append(
                    {"workload": workload, "seed": seed, "metrics": metrics})
        return runs

    base = synthetic({})
    worse = compare(base, synthetic({(workloads[0], target): worse_factor}),
                    benchmark)
    flagged = sorted(key for key, (v, _, _) in worse.items() if v != "same")
    expected = [(workloads[0], target)]
    if flagged != expected or worse[expected[0]][0] != "worse":
        sys.exit("self-test failed: 20%% worse %s.%s gave %s" %
                 (workloads[0], target, flagged))
    unchanged = compare(base, synthetic({}), benchmark)
    if any(v != "same" for v, _, _ in unchanged.values()):
        sys.exit("self-test failed: identical sets differ")
    print("compare.py self-test passed: 20%% worse %s.%s is the only "
          "verdict that is not 'same'" % expected[0])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", help="parent runs")
    parser.add_argument("--change", nargs="+", help="change runs")
    parser.add_argument("--spread", nargs="+", help="runs to summarise")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)

    if args.self_test:
        self_test(benchmark)
        return 0
    if args.spread:
        # End-to-end metrics against their bounds, then the diagnostics,
        # which carry none.
        runs = load_runs(args.spread)
        print("%-14s %-16s %5s %14s %10s %8s %7s" % (
            "workload", "metric", "runs", "median", "IQR/med", "bound",
            "x bound"))
        for workload in sorted(runs):
            for metric in benchmark["end_to_end"]:
                samples = values(runs[workload], metric["name"])
                if not samples:
                    continue
                median, _, relative = spread(samples)
                print("%-14s %-16s %5d %14.6g %10.4f %8.3f %7.2f" % (
                    workload, metric["name"], len(samples), median, relative,
                    metric["bound"], relative / metric["bound"]))
            diagnostics = sorted({name for run in runs[workload]
                                  for name in run.get("diagnostics", {})})
            for name in diagnostics:
                samples = values(runs[workload], name, "diagnostics")
                median, _, relative = spread(samples)
                print("%-14s %-16s %5d %14.6g %10.4f %8s %7s" % (
                    workload, name, len(samples), median, relative, "-",
                    "-"))
        return 0
    if not args.base or not args.change:
        parser.error("give --base and --change, --spread, or --self-test")
    verdicts = compare(load_runs(args.base), load_runs(args.change), benchmark)
    print("%-14s %-14s %14s %14s %8s  %s" % (
        "workload", "metric", "base", "change", "delta", "verdict"))
    for (workload, metric), (v, base, change) in sorted(verdicts.items()):
        delta = (change - base) / abs(base) if base else float("inf")
        print("%-14s %-14s %14.6g %14.6g %+7.1f%%  %s" % (
            workload, metric, base, change, 100 * delta, v))
    return 1 if any(v == "worse" for v, _, _ in verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
