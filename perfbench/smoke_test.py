#!/usr/bin/env python3
"""The benchmark's own test: all four workloads at reduced size.

Runs run.py --size smoke on every workload BENCHMARK.json lists, with
--trace 0 and --trace 1, and checks for each run that:
  * it exits 0 and its last stdout line is the result object, with
    correct true and no failed command (every output digest matched the
    scalar reference, and the traced run's counters matched it too);
  * the result holds exactly the BENCHMARK.json metrics of that mode
    (end_to_end or per_layer), each a number with the listed unit;
  * every one of those metrics is also printed by name, with its unit and
    sample count, on a line above the result.
Takes under a minute after the first build.

Usage: python3 perfbench/smoke_test.py
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def check_run(workload, trace, expected):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0.5",
            "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    label = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (label, proc.returncode, proc.stderr)]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s\n%s" % (
            label, result["correct"], result["failed"], proc.stderr))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("%s: attempted=%r" % (label, result["attempted"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        errors.append("%s: metric names differ from BENCHMARK.json: %s" % (
            label, sorted(set(metrics) ^ set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"),
                                                   (int, float)):
            errors.append("%s: %s is %r, want a number in %s" % (
                label, name, m, unit))
        printed = re.compile(r"^%s\s+\S+\s+%s\s+.*n=\d+" % (
            re.escape(name), re.escape(unit)))
        if not any(printed.match(line) for line in lines[:-1]):
            errors.append("%s: no report line for %s with unit %s and n=" % (
                label, name, unit))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in modes.items():
            errors += check_run(workload, trace, expected)
    for e in errors:
        print("FAIL " + e)
    print("smoke test: %s" % ("FAILED" if errors else "OK"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
