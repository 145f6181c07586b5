#!/usr/bin/env python3
"""Roll up a mublastp-trace-v1 file into a per-stage / per-thread report.

Usage:
  trace_report.py TRACE.json [--schema=FILE] [--diff=OTHER.json] [--top=N]
  trace_report.py DOC.json --schema=FILE

Reads the Chrome trace-event JSON written by `mublastp_search --trace=FILE`
and prints:
  * the run header (engine, kernel, threads, shards, dropped spans);
  * a per-stage rollup: span count, total/mean/max duration, share of wall
    time, and per-stage hardware-counter totals when the trace carries them;
  * per-thread utilization: the fraction of the wall each (process, thread)
    timeline spent inside stage spans;
  * the critical path over the shard fan-out: index load -> slowest shard
    worker -> merge, with the measured shard imbalance.

--schema=FILE validates the document against a checked-in JSON Schema
(docs/mublastp-trace-v1.schema.json, docs/mublastp-stats-v1.schema.json)
using the embedded subset validator below (type, properties, required,
items, enum, const, minimum, anyOf) — no third-party jsonschema
dependency. A trace is then reported; any other document (a stats-v1
snapshot from --stats=json) stops after validation.

--diff=OTHER.json compares per-stage totals between two traces (e.g. two
kernels, or traced runs before and after a change) and prints the deltas.

Exit codes: 0 ok, 1 report error, 2 usage, 3 schema validation failure.

Everything here is stdlib-only by design.
"""

import json
import sys
from collections import defaultdict

STAGE_ORDER = [
    "hit_detect", "sort", "ungapped", "gapped", "finalize",
    "flatten", "index_load", "shard_worker", "batch", "merge",
]
COUNTER_KEYS = ("cycles", "instructions", "llc_misses", "branch_misses")


# ---------------------------------------------------------------------------
# Embedded JSON Schema subset validator
# ---------------------------------------------------------------------------

def _type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "null":
        return value is None
    return True  # unknown type keyword: don't reject


def validate(value, schema, path="$"):
    """Returns a list of error strings (empty = valid).

    Supports the subset the checked-in schemas use: type, properties,
    required, items, enum, const, minimum, anyOf.
    """
    errors = []
    if "const" in schema and value != schema["const"]:
        errors.append("%s: expected const %r, got %r"
                      % (path, schema["const"], value))
    if "enum" in schema and value not in schema["enum"]:
        errors.append("%s: %r not in enum %r" % (path, value, schema["enum"]))
    if "type" in schema and not _type_ok(value, schema["type"]):
        errors.append("%s: expected type %s, got %s"
                      % (path, schema["type"], type(value).__name__))
        return errors  # structural checks below assume the type matched
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append("%s: %r below minimum %r"
                      % (path, value, schema["minimum"]))
    if "anyOf" in schema:
        branches = [validate(value, sub, path) for sub in schema["anyOf"]]
        if not any(not errs for errs in branches):
            flat = branches[0] if branches else []
            errors.append("%s: matched no anyOf branch (first branch: %s)"
                          % (path, "; ".join(flat[:2]) or "empty"))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append("%s: missing required key %r" % (path, key))
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                errors.extend(validate(value[key], sub,
                                       "%s.%s" % (path, key)))
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"],
                                   "%s[%d]" % (path, i)))
    return errors


# ---------------------------------------------------------------------------
# Rollups
# ---------------------------------------------------------------------------

def load_trace(path, any_schema=False):
    with open(path, "r", encoding="utf-8") as f:
        trace = json.load(f)
    if not any_schema and trace.get("schema") != "mublastp-trace-v1":
        raise ValueError("%s: not a mublastp-trace-v1 file (schema=%r)"
                         % (path, trace.get("schema")))
    return trace


def complete_events(trace):
    return [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]


def wall_span_us(events):
    if not events:
        return 0.0
    begin = min(e["ts"] for e in events)
    end = max(e["ts"] + e["dur"] for e in events)
    return end - begin


def stage_rollup(events):
    """name -> dict(count, total_us, max_us, counters)."""
    roll = defaultdict(lambda: {"count": 0, "total_us": 0.0, "max_us": 0.0,
                                "counters": defaultdict(int)})
    for e in events:
        r = roll[e["name"]]
        r["count"] += 1
        r["total_us"] += e["dur"]
        r["max_us"] = max(r["max_us"], e["dur"])
        args = e.get("args", {})
        for key in COUNTER_KEYS:
            if key in args:
                r["counters"][key] += args[key]
    return roll


def thread_rollup(events):
    """(pid, tid) -> busy microseconds inside 'stage' spans."""
    busy = defaultdict(float)
    for e in events:
        if e.get("cat") == "stage":
            busy[(e["pid"], e["tid"])] += e["dur"]
    return busy


def fmt_us(us):
    if us >= 1e6:
        return "%.3fs" % (us / 1e6)
    if us >= 1e3:
        return "%.3fms" % (us / 1e3)
    return "%.1fus" % us


def print_report(trace, top):
    events = complete_events(trace)
    other = trace.get("otherData", {})
    print("trace: engine=%s kernel=%s threads=%s shards=%s spans=%d"
          " dropped=%s counters=%s"
          % (other.get("engine", "?"), other.get("kernel", "?"),
             other.get("threads", "?"), other.get("shards", "?"),
             len(events), other.get("dropped_spans", "?"),
             other.get("counters", False)))
    wall = wall_span_us(events)
    print("wall: %s" % fmt_us(wall))

    roll = stage_rollup(events)
    print("\nper-stage rollup:")
    print("  %-12s %8s %12s %12s %12s %7s"
          % ("stage", "spans", "total", "mean", "max", "wall%"))
    names = [n for n in STAGE_ORDER if n in roll]
    names += sorted(n for n in roll if n not in STAGE_ORDER)
    for name in names:
        r = roll[name]
        mean = r["total_us"] / r["count"] if r["count"] else 0.0
        share = 100.0 * r["total_us"] / wall if wall > 0 else 0.0
        print("  %-12s %8d %12s %12s %12s %6.1f%%"
              % (name, r["count"], fmt_us(r["total_us"]), fmt_us(mean),
                 fmt_us(r["max_us"]), share))
        if r["counters"]:
            parts = ["%s=%d" % (k, r["counters"][k])
                     for k in COUNTER_KEYS if k in r["counters"]]
            print("  %-12s %s" % ("", " ".join(parts)))

    busy = thread_rollup(events)
    if busy:
        print("\nper-thread utilization (stage spans / wall):")
        rows = sorted(busy.items(),
                      key=lambda kv: kv[1], reverse=True)[:top]
        for (pid, tid), us in rows:
            util = 100.0 * us / wall if wall > 0 else 0.0
            print("  pid %-3d tid %-4d busy %12s  %6.1f%%"
                  % (pid, tid, fmt_us(us), util))

    workers = [e for e in events if e["name"] == "shard_worker"]
    if workers:
        print("\nshard fan-out critical path:")
        load = [e for e in events if e["name"] == "index_load"]
        merge = [e for e in events if e["name"] == "merge"]
        slowest = max(workers, key=lambda e: e["dur"])
        fastest = min(workers, key=lambda e: e["dur"])
        path_us = 0.0
        if load:
            path_us += sum(e["dur"] for e in load)
            print("  index_load             %12s"
                  % fmt_us(sum(e["dur"] for e in load)))
        print("  slowest shard worker   %12s  (shard %s)"
              % (fmt_us(slowest["dur"]),
                 slowest.get("args", {}).get("shard", "?")))
        path_us += slowest["dur"]
        if merge:
            path_us += sum(e["dur"] for e in merge)
            print("  merge                  %12s"
                  % fmt_us(sum(e["dur"] for e in merge)))
        print("  critical path          %12s" % fmt_us(path_us))
        if slowest["dur"] > 0:
            imb = (slowest["dur"] - fastest["dur"]) / slowest["dur"]
            print("  worker imbalance       %11.1f%%  "
                  "(slowest %s vs fastest %s)"
                  % (100.0 * imb, fmt_us(slowest["dur"]),
                     fmt_us(fastest["dur"])))


def print_diff(trace_a, trace_b, name_a, name_b):
    roll_a = stage_rollup(complete_events(trace_a))
    roll_b = stage_rollup(complete_events(trace_b))
    names = [n for n in STAGE_ORDER if n in roll_a or n in roll_b]
    names += sorted(n for n in set(roll_a) | set(roll_b)
                    if n not in STAGE_ORDER)
    print("\nper-stage diff (%s -> %s):" % (name_a, name_b))
    print("  %-12s %12s %12s %9s" % ("stage", "A total", "B total", "ratio"))
    for name in names:
        a_us = roll_a.get(name, {}).get("total_us", 0.0)
        b_us = roll_b.get(name, {}).get("total_us", 0.0)
        ratio = "%.3fx" % (b_us / a_us) if a_us > 0 else "n/a"
        print("  %-12s %12s %12s %9s"
              % (name, fmt_us(a_us), fmt_us(b_us), ratio))


def main(argv):
    trace_path = None
    schema_path = None
    diff_path = None
    top = 16
    for arg in argv[1:]:
        if arg.startswith("--schema="):
            schema_path = arg.split("=", 1)[1]
        elif arg.startswith("--diff="):
            diff_path = arg.split("=", 1)[1]
        elif arg.startswith("--top="):
            top = int(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            print("error: unknown option %r" % arg, file=sys.stderr)
            return 2
        elif trace_path is None:
            trace_path = arg
        else:
            print("error: more than one trace file given", file=sys.stderr)
            return 2
    if trace_path is None:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: trace_report.py DOC.json [--schema=FILE]"
              " [--diff=OTHER.json] [--top=N]", file=sys.stderr)
        return 2

    try:
        # With --schema (and no --diff) any document is validated.
        trace = load_trace(trace_path, any_schema=schema_path is not None
                           and diff_path is None)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    if schema_path is not None:
        try:
            with open(schema_path, "r", encoding="utf-8") as f:
                schema = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print("error: cannot load schema: %s" % e, file=sys.stderr)
            return 1
        errors = validate(trace, schema)
        if errors:
            print("schema validation FAILED (%d error(s)):" % len(errors),
                  file=sys.stderr)
            for err in errors[:20]:
                print("  %s" % err, file=sys.stderr)
            return 3
        print("schema validation OK (%s)" % schema_path)
        if trace.get("schema") != "mublastp-trace-v1":
            return 0

    print_report(trace, top)

    if diff_path is not None:
        try:
            other = load_trace(diff_path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print("error: %s" % e, file=sys.stderr)
            return 1
        print_diff(trace, other, trace_path, diff_path)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:
        # Piped into head/grep that exited early: not an error.
        sys.exit(0)
