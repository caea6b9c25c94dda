#!/usr/bin/env python3
"""Fail when a --gtest_filter term in the CI workflow selects no test.

gtest runs a filter that matches nothing as a green, empty run, so a
renamed suite silently drops out of every CI job that names it. This
lists the tests the binary really has and checks every positive term
of every --gtest_filter in the workflow against them, with gtest's own
wildcards (`*` any string, `?` one character).

Usage:
    python3 tools/ci/check_gtest_filters.py --tests build/tests/rio_tests
    python3 tools/ci/check_gtest_filters.py --tests BIN --workflow FILE
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FILTER = re.compile(r"""--gtest_filter=['"]?([^'"\s]+)""")


def list_tests(binary):
    """Full names (Suite.Test) the binary runs."""
    out = subprocess.run([binary, "--gtest_list_tests"], check=True,
                         capture_output=True, text=True).stdout
    names, suite = [], None
    for line in out.splitlines():
        if not line.strip() or line.startswith("Running main()"):
            continue
        if not line.startswith(" "):
            suite = line.split("#")[0].strip()
        elif suite is not None:
            names.append(suite + line.split("#")[0].strip())
    return names


def pattern_regex(term):
    parts = (".*" if c == "*" else "." if c == "?" else re.escape(c)
             for c in term)
    return re.compile("".join(parts) + r"\Z")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tests", required=True,
                        help="the gtest binary, e.g. build/tests/rio_tests")
    parser.add_argument("--workflow",
                        default=str(ROOT / ".github/workflows/ci.yml"))
    args = parser.parse_args()

    names = list_tests(args.tests)
    filters = FILTER.findall(Path(args.workflow).read_text())
    dead = []
    for spec in filters:
        positive = spec.split("-", 1)[0]
        for term in filter(None, positive.split(":")):
            regex = pattern_regex(term)
            if not any(regex.match(name) for name in names):
                dead.append((spec, term))
    for spec, term in dead:
        print(f"--gtest_filter='{spec}': '{term}' matches no test",
              file=sys.stderr)
    print(f"{len(filters)} filters checked against {len(names)} tests; "
          f"{len(dead)} dead terms")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
