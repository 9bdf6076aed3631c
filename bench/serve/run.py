#!/usr/bin/env python3
"""Runs the serving benchmark (bench/serve/README.md).

Builds bench_serve from this checkout, runs each workload in a fresh process
with every ALLOY_* variable removed from its environment, passes its
`<workload>.<metric> <value> <unit>` lines through, writes the results JSON
and prints one summary JSON object as the last line.

  python3 bench/serve/run.py --workload noop_warm --seed 1 --seconds 20 --trace 0
  python3 bench/serve/run.py                  # every workload, untraced
  python3 bench/serve/run.py --trace 1        # every workload, traced
  python3 bench/serve/run.py --smoke          # ~2 s per workload and mode

The summary's metrics are BENCHMARK.json's end_to_end metrics, or its
per_layer metrics with --trace 1. Exit status is non-zero, with no summary,
when the build fails, a run fails or is INVALID, or a metric is missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "serve"
WORKLOADS = ["noop_warm", "sort_fanout", "zipf_tenants", "bulk_body"]
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 2


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)


def run_group(command, timeout=None, **kwargs):
    """subprocess.run, but in a process group of its own that is killed
    whole, compilers under cmake included, if the command times out or
    run.py is interrupted."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as child:
        try:
            stdout, _ = child.communicate(timeout=timeout)
        except BaseException:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the group has already exited
            child.wait()
            raise
    return subprocess.CompletedProcess(command, child.returncode, stdout)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no AlloyStack sources under %s" % (ROOT / "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_serve",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the summary line.
        if run_group(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return BUILD / "bench_serve"


def run_child(binary, workload, seed, seconds, trace, smoke):
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / ("%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    if out.exists():
        out.unlink()
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--out", str(out)]
    if trace:
        command.append("--trace")
    if smoke:
        command.append("--smoke")
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALLOY_")}
    try:
        child = run_group(command, env=env, cwd=results, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, CHILD_TIMEOUT_S))
    sys.stdout.write(child.stdout)
    if child.returncode != 0:
        fail("%s exited with status %d" % (workload, child.returncode))
    with open(out) as f:
        result = json.load(f)
    result["printed"] = child.stdout
    return result


def missing(result, names):
    """The metrics among `names` that the run did not both print and record."""
    lines = []
    for name in names:
        line = "%s.%s" % (result["workload"], name)
        if name not in result["metrics"] or line + " " not in result["printed"]:
            lines.append(line)
    return lines


def errors(result):
    problems = []
    if not result["correct"]:
        problems.append("%s returned wrong results" % result["workload"])
    if result["failed"]:
        problems.append("%s: %d of %d requests failed" % (
            result["workload"], result["failed"], result["attempted"]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short runs of every workload in both modes; "
                             "checks names and results, times nothing")
    parser.add_argument("--binary", help="use this bench_serve, do not build")
    parser.add_argument("--out", help="results JSON "
                        "(default .bench_build/serve/results.json)")
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so that run_group kills and reaps the
    # running bench_serve or build step instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    benchmark = load_benchmark()
    binary = Path(args.binary).resolve() if args.binary else build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    def names(trace):
        return [m["name"] for m in
                benchmark["per_layer" if trace else "end_to_end"]]

    if args.smoke:
        problems = []
        for workload in workloads:
            for trace in (False, True):
                result = run_child(binary, workload, args.seed, SMOKE_SECONDS,
                                   trace, smoke=True)
                problems += ["%s missing" % line
                             for line in missing(result, names(trace))]
                problems += errors(result)
        if problems:
            fail("smoke failed:\n  " + "\n  ".join(problems))
        print("smoke: every metric printed, every result correct")
        return

    seconds = args.seconds or benchmark.get("run_seconds", 20)
    trace = bool(args.trace)
    runs = [run_child(binary, w, args.seed, seconds, trace, smoke=False)
            for w in workloads]
    for run in runs:
        absent = missing(run, names(trace))
        if absent:
            fail("metrics not reported: " + ", ".join(absent))

    out = Path(args.out) if args.out else BUILD / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"runs": [{k: v for k, v in run.items() if k != "printed"}
                            for run in runs]}, f, indent=2)
        f.write("\n")

    def pick(run):
        return {name: run["metrics"][name] for name in names(trace)}

    summary = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": (pick(runs[0]) if len(runs) == 1 else
                    {"%s.%s" % (run["workload"], name): value
                     for run in runs for name, value in pick(run).items()}),
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
