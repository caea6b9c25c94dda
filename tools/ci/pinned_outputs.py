#!/usr/bin/env python3
"""Write the pinned deterministic outputs of a built tree.

Usage: pinned_outputs.py <build-dir> <out-dir>

Runs, at reduced sizes: crashmc (four arms), Table 1 (four configs),
Table 2, the recovery, disk-fault and rio-nv ablations with
BENCH_nv.json, the shadow and registry ablations at their defaults,
the GoldenTrial tests and the riobench workloads' "sim" sections. Host parts are stripped (table1.json's "host" section,
"wrote", "workers:" and "throughput:" lines, test timings), so a
host-only change leaves `diff -r` of two out-dirs empty.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

JOBS = "3"
CRASHMC = {
    "all": {"RIO_MC_WORKLOAD": "all", "RIO_MC_OPS": "4"},
    "all-nv": {"RIO_MC_WORKLOAD": "all", "RIO_MC_OPS": "4", "RIO_MC_NV": "1"},
    "shadow-flip-trusting": {"RIO_MC_WORKLOAD": "shadow-flip",
                             "RIO_MC_OPS": "4", "RIO_MC_HARDENED": "0"},
    "torn-journal-checksum-off": {"RIO_MC_WORKLOAD": "journal-ordered",
                                  "RIO_MC_OPS": "8", "RIO_MC_TORN": "1",
                                  "RIO_MC_JCHECKSUM": "0"},
}
TABLE1 = {
    "base": {},
    "power-cycle": {"RIO_T1_NV": "1", "RIO_T1_POWERCYCLE": "1000"},
    "postcrash": {"RIO_T1_POSTCRASH": "1.0"},
    "diskfault": {"RIO_DISKFAULT_INTENSITY": "1.0",
                  "RIO_DISKFAULT_DOUBLECRASH": "0.5"},
}
ABLATIONS = {
    "ablation_recovery": {"RIO_ABL_TRIALS": "6"},
    "ablation_diskfault": {"RIO_ABL_TRIALS": "6"},
    "ablation_nv": {"RIO_ABL_TRIALS": "1", "RIO_NV_JSON": "BENCH_nv.json"},
    "ablation_shadow": {},
    "ablation_registry": {},
}
RIOBENCH = ["mail_rio", "mail_journal", "crash_recover", "campaign"]
HOST_LINE = re.compile(r"^(wrote |workers:|throughput:)")
GTEST_TIME = re.compile(r" \(\d+ ms( total)?\)")


def run(argv, env, cwd, any_exit=False):
    """stdout of @p argv run in @p cwd, so printed paths are relative,
    minus host lines. With @p any_exit a failing status is an output
    too; a signal never is. The caller's RIO_ variables are dropped."""
    env = {**{k: v for k, v in os.environ.items()
              if not k.startswith("RIO_")}, **env}
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          text=True)
    if proc.returncode < 0 or (proc.returncode != 0 and not any_exit):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{argv[0]} exited {proc.returncode}")
    return "".join(line for line in proc.stdout.splitlines(keepends=True)
                   if not HOST_LINE.match(line))


def write(path, text):
    with open(path, "w") as out:
        out.write(text)


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    build, out = (os.path.abspath(p) for p in sys.argv[1:])
    bench = lambda name: os.path.join(build, "bench", name)
    os.makedirs(out, exist_ok=True)

    for name, env in CRASHMC.items():
        d = os.path.join(out, "crashmc-" + name)
        os.makedirs(d, exist_ok=True)
        # The exit status counts unrecovered points, which the weakened
        # arms must find.
        write(os.path.join(d, "stdout.txt"),
              run([bench("crashmc_main")], {**env, "RIO_MC_JSON": "."}, d,
                  any_exit=True))

    for name, env in TABLE1.items():
        d = os.path.join(out, "table1-" + name)
        os.makedirs(d, exist_ok=True)
        write(os.path.join(d, "stdout.txt"),
              run([bench("table1_reliability")],
                  {**env, "RIO_T1_CRASHES": "1", "RIO_T1_JOBS": JOBS,
                   "RIO_T1_JSON": "."}, d))
        with open(os.path.join(d, "table1.json")) as f:
            table = json.load(f)
        table.pop("host")
        write(os.path.join(d, "table1.json"), json.dumps(table, indent=1))

    write(os.path.join(out, "table2.txt"),
          run([bench("table2_performance")], {"RIO_T1_JOBS": JOBS}, out))
    for name, env in ABLATIONS.items():
        write(os.path.join(out, name + ".txt"), run([bench(name)], env, out))
    golden = run([os.path.join(build, "tests", "rio_tests"),
                  "--gtest_filter=GoldenTrial.*"], {}, out)
    write(os.path.join(out, "golden_trial.txt"), GTEST_TIME.sub("", golden))

    with tempfile.TemporaryDirectory() as tmp:
        for workload in RIOBENCH:
            results = os.path.join(tmp, workload + ".json")
            run([bench("riobench"), "--workload", workload, "--seed", "1",
                 "--seconds", "3", "--results", results], {}, out)
            with open(results) as f:
                sim = json.load(f)["sim"]
            write(os.path.join(out, "riobench-" + workload + ".json"),
                  json.dumps(sim, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
