#!/usr/bin/env python3
"""Build riobench from source and run it.

One run, as BENCHMARK.json's command runs it:

    python3 riobench/run.py --workload mail_rio --seed 1 --seconds 15 --trace 0

builds riobench into .bench_build/riobench on first use, runs one
workload in its own process, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1
the run records bench-side spans, writes a Chrome trace under
.bench_build/riobench/traces/ and reports the per-layer metrics.

Everything at once:

    python3 riobench/run.py --all [--seed 1] [--seconds 15]

runs every workload untraced and traced (each in its own process),
prints every metric with its unit, the tracing overhead, and checks
that the simulated results of the two runs are identical. At seed 1 it
also runs the campaign over the whole Table 1 grid and checks its
corruption counts against bench_campaign's.

Exit status: 0 when every check passed, non-zero otherwise (no result
line is printed when the build or the run itself failed).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "riobench"
BINARY = BUILD / "riobench"
RUN_TIMEOUT_S = 170
# Attempt budget that covers the whole seed-1 grid (163 attempts).
ANCHOR_SECONDS = 80


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    configured = any((BUILD / f).exists()
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def run_binary(workload, seed, seconds, trace, quiet=False):
    """Run one workload; returns the parsed results file."""
    tag = "%s-seed%d-%s" % (workload, seed, "traced" if trace else "plain")
    results = BUILD / "results" / (tag + ".json")
    results.parent.mkdir(parents=True, exist_ok=True)
    if results.exists():
        results.unlink()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--results", str(results)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        # One file per workload, overwritten by the next traced run.
        cmd += ["--trace", str(traces / (workload + ".trace.json"))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            cmd, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.DEVNULL if quiet else None)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode not in (0, 1) or not results.exists():
        fail("%s failed (exit %d)" % (workload, proc.returncode))
    with open(results) as f:
        return json.load(f)


def check_names(result, spec, trace):
    """The binary and BENCHMARK.json must name the same metrics."""
    declared = spec["per_layer" if trace else "end_to_end"]
    want = [(m["name"], m["unit"]) for m in declared]
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if want != got:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))


def result_line(result):
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    })


def run_one(args, spec):
    result = run_binary(args.workload, args.seed, args.seconds,
                        args.trace == 1)
    check_names(result, spec, args.trace == 1)
    print(result_line(result))
    return 0 if result["correct"] else 1


def run_all(args, spec):
    ok = True
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        plain = run_binary(workload, args.seed, args.seconds, False, True)
        traced = run_binary(workload, args.seed, args.seconds, True, True)
        check_names(plain, spec, False)
        check_names(traced, spec, True)
        same_sim = plain["sim"] == traced["sim"]
        good = plain["correct"] and traced["correct"] and same_sim
        ok &= good
        overhead = 1 - (traced["metrics"]["trace.host_ops_per_s"]["value"] /
                        plain["metrics"]["host_ops_per_s"]["value"])
        print("== %s: %s, %d attempted, %d failed; simulated results %s; "
              "tracing overhead %.1f%%"
              % (workload, "correct" if good else "WRONG",
                 plain["attempted"], plain["failed"],
                 "identical traced/untraced" if same_sim else "DIFFER",
                 100 * overhead))
        for run in (plain, traced):
            for problem in run["problems"].values():
                print("   problem: " + problem)
            for name, m in run["metrics"].items():
                print("   %-52s %14.6g %s" % (name, m["value"], m["unit"]))
    if args.seed == 1:
        anchor = run_binary("campaign", 1, ANCHOR_SECONDS, False, True)
        rows = anchor["detail"]["corruption_anchor"]
        checked = rows["checked_against_seed1"] and anchor["correct"]
        ok &= checked
        print("== campaign anchor (whole grid, seed 1): %s"
              % ("matches bench_campaign" if checked else "MISMATCH"))
        for system in ("disk", "rio_no_protection", "rio_protected"):
            print("   %-20s %d crashes, %d corrupt"
                  % (system, rows[system]["crashes"],
                     rows[system]["corruptions"]))
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not args.all and args.workload not in [w["name"]
                                              for w in spec["workloads"]]:
        fail("--workload must be one of BENCHMARK.json's workloads")
    build()
    return run_all(args, spec) if args.all else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
