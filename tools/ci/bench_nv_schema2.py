#!/usr/bin/env python3
"""Check that a schema-2 BENCH_nv.json holds every value of a schema-1
one from the same seed and trial count.

Usage: bench_nv_schema2.py <schema-1 file> <schema-2 file>

Schema 2 writes each sweep arm under the trials.jsonl field names;
ARM_KEYS maps the old arm names. Every other key kept its name.
"""

import json
import sys

ARM_KEYS = {
    "power_cycles": "powerCycles", "corrupt_trials": "corrupt",
    "corrupt_files": "corruptFiles", "nv_entries_grafted": "nvEntriesGrafted",
    "nv_shadows_used": "nvShadowsUsed", "nv_bits_flipped": "nvBitsFlipped",
    "nv_lines_torn": "nvLinesTorn", "nv_mirror_writes": "nvMirrorWrites",
    "workload_ops": "workloadOps", "recovery_sim_ns": "recoveryNs",
}


def check(old, new, path=""):
    """The number of leaves of @p old; exits on one @p new lacks."""
    count = 0
    for key, value in old.items():
        name = ARM_KEYS.get(key, key)
        got = new.get(name) if isinstance(new, dict) else None
        if isinstance(value, dict):
            count += check(value, got, f"{path}{name}.")
        elif got != value or type(got) is not type(value):
            raise SystemExit(f"{path}{name}: {value!r} -> {got!r}")
        else:
            count += 1
    return count


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    old, new = (json.load(open(path)) for path in sys.argv[1:])
    if (old.pop("schema"), new.get("schema")) != (1, 2):
        raise SystemExit("expected a schema-1 and a schema-2 file")
    print(f"{check(old, new)} schema-1 values equal in schema 2")


if __name__ == "__main__":
    main()
