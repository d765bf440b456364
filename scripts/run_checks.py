#!/usr/bin/env python3
"""Run every law-check suite across the builtin groups and print a summary.

A suite that stops with an error (a tripped size guard, say) prints an
[ERR ] line with the error's type and message and counts as failing; the
remaining suites still run, and the exit status is 1.  The last line is
the process's peak resident set size, so a sweep's log shows what its
suite runs kept alive.

Usage:
  python scripts/run_checks.py [--seed N] [--max-size K] [--groups C2,S3]
"""
import argparse
import resource
import sys
import time

from spanpoly.errors import SpanPolyError
from spanpoly.groups import builtin_group
from spanpoly.suites import SUITES, run_suite


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-size", type=int, default=5)
    ap.add_argument("--groups", default="triv,C2,C3,S3")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    groups = [builtin_group(name) for name in args.groups.split(",")]
    failures = 0
    for group in groups:
        for suite in sorted(SUITES):
            t0 = time.monotonic()
            try:
                rep = run_suite(suite, group, args.seed, args.max_size)
            except SpanPolyError as exc:
                # a tripped guard fails this suite; the sweep goes on
                print(f"[ERR ] {group.name:>4} {suite:<18} "
                      f"{type(exc).__name__}: {exc}  {time.monotonic() - t0:5.2f}s")
                failures += 1
                continue
            mark = "ok  " if rep.passed else "FAIL"
            n_ok = sum(c.passed for c in rep.checks)
            print(f"[{mark}] {group.name:>4} {suite:<18} "
                  f"{n_ok}/{len(rep.checks)} checks  {time.monotonic() - t0:5.2f}s")
            if args.verbose or not rep.passed:
                print(rep.render_text())
            failures += 0 if rep.passed else 1
    print(f"{failures} failing suites" if failures else "all suites passed")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
