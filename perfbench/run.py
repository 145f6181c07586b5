#!/usr/bin/env python3
"""CLI-path benchmark of the mublastp tools.

One run builds the tools (optimized) under .bench_build/, generates one
workload from --seed with mublastp_synthgen's sprot preset, and times the
mublastp_makedb set-up. It then runs mublastp_search as a child process in a
closed loop for --seconds seconds: one command at a time, the next only
after the previous one exits, --threads=4, tabular output to a file. Each
command is measured from outside: wall clock from spawn to exit, user+sys
CPU and ru_maxrss from wait4. One untimed search comes first, so the index
is in the page cache. Every output is checked against a reference computed
once per run, untimed, with --kernel=scalar on the same database layout;
for the shard and chain layouts the run also reports whether that
reference equals the single-index search.

With --trace 1 the run also starts perfbench_layers (layers.cpp), which
repeats the search flow in its own process and times each module's entry
points; its output and counters are checked against the same reference.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--size full|smoke]

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The lines above it give each metric with
its unit and sample count, and stamp the run with workload, seed, kernel,
nproc and commit. --size smoke shrinks every input (see smoke_test.py).

Exit codes: 0 complete run (the JSON says whether it was correct),
1 build or set-up failure, 2 usage error or a distorted program (fault
injection armed, unoptimized build, no repository sources next to the
benchmark).
"""

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_ROOT = os.path.join(BUILD_ROOT, "work")

THREADS = 4        # the program's --threads: nproc of the 4-core reference VM
SETUP_REPS = 5     # set-ups per run; setup_s is their median
MIN_SAMPLES = 3    # measured commands per run even when --seconds is short
RUN_LIMIT_S = 170  # watchdog on everything after the build
RSS_SPREAD = 0.10  # peak RSS that varies more than this is called out
DB_SEED = 42       # mublastp_synthgen's default database seed


@dataclasses.dataclass(frozen=True)
class Workload:
    layout: str       # "single", "shards" (3 shards) or "chain" (2 members)
    db_residues: int  # size of the sprot-like database
    queries: str      # "mixed" (whole sequences), "fixed" or "joined"
    count: int        # number of queries
    qlen: int = 0     # query length for "fixed" and "joined"


# Why each workload exists is in BENCHMARK.json and README.md. Sizes are a
# quarter of the ones the workloads were first measured at (8M residues;
# titin against 2M) so that a run of every workload, with its scalar
# reference, fits the benchmark's time budget.
WORKLOADS = {
    "mixed64": Workload("single", 1 << 21, "mixed", 64),
    "titin": Workload("single", 1 << 19, "joined", 1, 35000),
    "short512_shards": Workload("shards", 1 << 21, "fixed", 512, 64),
    "short512_chain": Workload("chain", 1 << 21, "fixed", 512, 64),
}

SMOKE = {
    "mixed64": Workload("single", 1 << 17, "mixed", 8),
    "titin": Workload("single", 1 << 17, "joined", 1, 4000),
    "short512_shards": Workload("shards", 1 << 17, "fixed", 32, 64),
    "short512_chain": Workload("chain", 1 << 17, "fixed", 32, 64),
}

# End-to-end metrics in the result object. peak_rss_mb and failed_frac are
# printed above it but not gated: a correct run's failed_frac is 0 (the
# object's "failed" carries it), and titin's peak RSS swings by 1.5-2x with
# how many threads pick up its per-block rounds, beyond any usable bound.
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
]

# Per-layer metrics, in print order. "cpu_s" marks stage CPU summed over
# threads, which must never be read as wall time.
PER_LAYER = [
    ("fasta.parse_s", "s"),
    ("fasta.parse_mb_per_s", "MB/s"),
    ("index.open_s", "s"),
    ("index.open_mb_per_s", "MB/s"),
    ("index.build_s", "s"),
    ("index.build_mres_per_s", "Mres/s"),
    ("index.save_s", "s"),
    ("index.append_s", "s"),
    ("common.crc32_mb_per_s", "MB/s"),
    ("core.search_s", "s"),
    ("core.busy_frac", "ratio"),
    ("core.hit_detect_cpu_s", "cpu_s"),
    ("core.hit_detect_ns_per_hit", "ns"),
    ("core.sort_cpu_s", "cpu_s"),
    ("core.sort_ns_per_record", "ns"),
    ("core.ungapped_cpu_s", "cpu_s"),
    ("core.ungapped_ns_per_ext", "ns"),
    ("core.gapped_cpu_s", "cpu_s"),
    ("core.gapped_us_per_ext", "us"),
    ("core.finalize_cpu_s", "cpu_s"),
    ("core.finalize_us_per_alignment", "us"),
    ("core.workspace_peak_mb", "MB"),
    ("core.hits", "count"),
    ("core.hit_pairs", "count"),
    ("core.extensions", "count"),
    ("core.ungapped_alignments", "count"),
    ("core.gapped_extensions", "count"),
    ("core.alignments", "count"),
    ("core.prefilter_survival", "ratio"),
    ("core.ungapped_yield", "ratio"),
    ("core.gapped_yield", "ratio"),
    ("simd.int16_rerun_frac", "ratio"),
    ("report.render_s", "s"),
    ("report.ns_per_alignment", "ns"),
    ("report.mb", "MB"),
    ("cluster.load_s", "s"),
    ("cluster.search_s", "s"),
    ("cluster.slowest_member_s", "s"),
    ("cluster.imbalance", "ratio"),
    ("cluster.merge_s", "s"),
    ("run.traced_wall_s", "s"),
    ("run.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

COUNTER_KEYS = ("hits", "hit_pairs", "sorted_records", "extensions",
                "ungapped_alignments", "gapped_extensions")


class BenchError(Exception):
    """A failure that ends the run without a result (exit code 1)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- child processes --------------------------------------------------------

def _on_watchdog(signum, frame):
    raise BenchError("run exceeded %ds" % RUN_LIMIT_S)


@dataclasses.dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def run_child(argv, cwd, name):
    """Runs one command to completion, measured from outside.

    stdout and stderr go to files in `cwd` (no pipe can fill up while the
    child is timed). Wall time runs from spawn to exit; CPU and peak RSS
    come from wait4. When the watchdog fires during the wait, the child is
    killed and reaped before the error propagates.
    """
    out_path = os.path.join(cwd, name + ".stdout")
    err_path = os.path.join(cwd, name + ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    if proc.returncode != 0:
        with open(err_path, "r", encoding="utf-8", errors="replace") as f:
            log("%s exited %d: %s" % (name, proc.returncode, f.read().strip()))
    return ChildResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, stdout)


def must_run(argv, cwd, name):
    res = run_child(argv, cwd, name)
    if res.code != 0:
        raise BenchError("%s failed with exit code %d" % (name, res.code))
    return res


# --- build ------------------------------------------------------------------

def build(targets):
    """Configures (once) and builds the benchmark package, optimized."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(THREADS),
                  "--target"] + targets)
    with open(log_path, "ab") as logf:
        for step in steps:
            if subprocess.call(step, stdout=logf, stderr=logf) != 0:
                raise BenchError("build failed; see %s" % log_path)


def build_type():
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def tool(name):
    if name == "perfbench_layers":
        return os.path.join(BUILD_DIR, name)
    return os.path.join(BUILD_DIR, "tools", name)


def source_stamp():
    """The commit when the checkout is a git repository, and always a
    digest of the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    stamp = "tree:" + h.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True)
            stamp = head.stdout.strip()[:12] + " " + stamp
        except (OSError, subprocess.CalledProcessError):
            pass
    return stamp


# --- workload generation ----------------------------------------------------

def read_fasta(path):
    records = []
    with open(path, encoding="ascii") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith(">"):
                records.append((line[1:], []))
            elif line:
                records[-1][1].append(line)
    return [(name, "".join(parts)) for name, parts in records]


def write_fasta(path, records):
    with open(path, "w", encoding="ascii") as f:
        for name, seq in records:
            f.write(">%s\n" % name)
            for i in range(0, len(seq), 60):
                f.write(seq[i:i + 60] + "\n")


def sample_queries(db, spec, rng):
    """The query set, drawn from the database: fixed-length windows as
    synth::sample_queries draws them, whole sequences for "mixed"."""
    if spec.queries == "mixed":
        # One random sequence from each of `count` equal-count length
        # strata, in random order: the batch follows the database's length
        # distribution (Fig. 7) without the +-9% swing in total residues
        # that 64 independent draws from it have from seed to seed.
        by_len = sorted(db, key=lambda rec: (len(rec[1]), rec[0]))
        picks = [by_len[rng.randrange(i * len(db) // spec.count,
                                      (i + 1) * len(db) // spec.count)]
                 for i in range(spec.count)]
        rng.shuffle(picks)
        return [("q%d_mixed_%s" % (i, name), seq)
                for i, (name, seq) in enumerate(picks)]
    if spec.queries == "fixed":
        eligible = [rec for rec in db if len(rec[1]) >= spec.qlen]
        out = []
        for i in range(spec.count):
            name, seq = eligible[rng.randrange(len(eligible))]
            start = rng.randrange(len(seq) - spec.qlen + 1)
            out.append(("q%d_from_%s" % (i, name),
                        seq[start:start + spec.qlen]))
        return out
    # sprot_like caps sequences at 5,000 residues, so a titin-length query
    # joins randomly chosen database sequences.
    parts, total = [], 0
    while total < spec.qlen:
        seq = db[rng.randrange(len(db))][1]
        parts.append(seq)
        total += len(seq)
    return [("joined_%d" % spec.qlen, "".join(parts)[:spec.qlen])]


def generate(spec, seed, work):
    """db.fasta, q.fasta drawn from it with the seed, and base/delta.fasta
    for a chain. The database itself is the same for every seed, as a
    reference database is: the seed picks the query batch."""
    must_run([tool("mublastp_synthgen"), "--preset=sprot",
              "--residues=%d" % spec.db_residues, "--seed=%d" % DB_SEED,
              "--out=db.fasta"], work, "synthgen")
    db = read_fasta(os.path.join(work, "db.fasta"))
    write_fasta(os.path.join(work, "q.fasta"),
                sample_queries(db, spec, random.Random(seed)))
    if spec.layout == "chain":
        cut = len(db) * 2 // 3
        write_fasta(os.path.join(work, "base.fasta"), db[:cut])
        write_fasta(os.path.join(work, "delta.fasta"), db[cut:])


SETUP = {
    "single": ("db.mbi", [["--in=db.fasta", "--out=db.mbi"]]),
    "shards": ("db.shardset", [["--in=db.fasta", "--out=db.shardset",
                                "--shards=3"]]),
    "chain": ("chain.mbi", [["--in=base.fasta", "--out=chain.mbi"],
                            ["--append=delta.fasta", "--out=chain.mbi"]]),
}


def time_setup(spec, work):
    """Runs the workload's makedb commands SETUP_REPS times from scratch;
    returns each repetition's wall time."""
    output, commands = SETUP[spec.layout]
    times = []
    for rep in range(SETUP_REPS):
        for path in glob.glob(os.path.join(work, output + "*")):
            os.remove(path)
        total = 0.0
        for i, args in enumerate(commands):
            res = must_run([tool("mublastp_makedb")] + args, work,
                           "makedb%d_%d" % (rep, i))
            total += res.wall_s
        times.append(total)
    if spec.layout != "single":
        # The cross-partition check searches the same database as one index.
        must_run([tool("mublastp_makedb"), "--in=db.fasta", "--out=db.mbi"],
                 work, "makedb_single")
    return times


TARGET = {
    "single": ["--index=db.mbi"],
    "shards": ["--shards-manifest=db.shardset", "--shard-mode=thread"],
    "chain": ["--index=chain.mbi"],
}


def search_argv(layout, out, extra=()):
    return ([tool("mublastp_search")] + TARGET[layout] +
            ["--query=q.fasta", "--threads=%d" % THREADS, "--outfmt=tabular",
             "--out=" + out] + list(extra))


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@dataclasses.dataclass
class Reference:
    digest: str
    counters: dict
    lines: list


def reference(layout, work):
    """The untimed --kernel=scalar search of `layout`: output digest,
    pipeline counters and report lines."""
    out = "ref_%s.tab" % layout
    res = must_run(search_argv(layout, out, ["--kernel=scalar",
                                             "--stats=json"]),
                   work, "reference_" + layout)
    with open(os.path.join(work, out), "rb") as f:
        lines = f.read().splitlines()
    return Reference(digest(os.path.join(work, out)),
                     json.loads(res.stdout)["counters"], lines)


# --- statistics and printing ------------------------------------------------

def describe(values):
    """Sample count and spread, printed next to a median."""
    s = sorted(values)
    p90 = s[min(len(s) - 1, int(0.9 * len(s)))]
    return "n=%d min %.4g p90 %.4g max %.4g" % (len(s), s[0], p90, s[-1])


def print_metric(name, value, unit, detail):
    print("%-32s %14.6g %-7s %s" % (name, value, unit, detail))


# --- the run ----------------------------------------------------------------

def cross_partition_note(spec, ref, work):
    """Compares the partitioned layout's reference with the single-index
    one. Reported, not gated: on a few seeds in twenty the two differ by
    an alignment or two (a batch- and partition-dependent difference in
    the program, see README.md), which no benchmark run can repair."""
    if spec.layout == "single":
        return ""
    single = reference("single", work)
    if single.digest == ref.digest:
        return "; equals the single-index search"
    differing = set(single.lines) ^ set(ref.lines)
    return ("; DIFFERS from the single-index search in %d report lines"
            % len(differing))


def measure(spec, args, work):
    setup_times = time_setup(spec, work)
    ref = reference(spec.layout, work)
    partition_note = cross_partition_note(spec, ref, work)

    correct = True
    warm = run_child(search_argv(spec.layout, "out.tab", ["--stats=json"]),
                     work, "warmup")
    if warm.code != 0 or digest(os.path.join(work, "out.tab")) != ref.digest:
        log("warm-up search output differs from the reference")
        correct = False
    kernel = json.loads(warm.stdout)["kernel"] if warm.code == 0 else "?"

    samples, ok_samples = [], []
    attempted = failed = 0
    argv = search_argv(spec.layout, "out.tab")
    t_start = time.perf_counter()
    while attempted < MIN_SAMPLES or time.perf_counter() - t_start < args.seconds:
        res = run_child(argv, work, "search")
        attempted += 1
        samples.append(res)
        if res.code == 0 and digest(os.path.join(work, "out.tab")) == ref.digest:
            ok_samples.append(res)
        else:
            failed += 1
            log("search %d failed: exit %d or output differs from the "
                "reference" % (attempted, res.code))
    timed = ok_samples or samples

    walls = [r.wall_s for r in timed]
    cpus = [r.cpu_s for r in timed]
    rss = [r.rss_mb for r in timed]
    e2e = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_times),
    }

    print("# perfbench workload=%s seed=%d size=%s kernel=%s nproc=%d "
          "threads=%d build=%s commit=%s"
          % (args.workload, args.seed, args.size, kernel, os.cpu_count(),
             THREADS, build_type(), source_stamp()))
    print("# closed loop: %d mublastp_search commands in %.1fs; scalar "
          "reference %d alignments, sha256 %s%s"
          % (attempted, time.perf_counter() - t_start, len(ref.lines),
             ref.digest[:16], partition_note))
    print_metric("wall_s", e2e["wall_s"], "s", "median, " + describe(walls))
    print_metric("cpu_s", e2e["cpu_s"], "s",
                 "median user+sys over all threads, " + describe(cpus))
    print_metric("peak_rss_mb", e2e["peak_rss_mb"], "MB",
                 "median ru_maxrss, " + describe(rss))
    print_metric("setup_s", e2e["setup_s"], "s",
                 "median of %d makedb set-ups, %s"
                 % (len(setup_times), describe(setup_times)))
    print_metric("failed_frac", failed / attempted, "ratio",
                 "%d of %d commands failed" % (failed, attempted))
    if max(rss) - min(rss) > RSS_SPREAD * e2e["peak_rss_mb"]:
        print("# note: peak_rss_mb does not repeat within a tenth across "
              "commands (%.1f..%.1f MB): per-thread workspaces depend on "
              "which threads pick up each query's per-block rounds"
              % (min(rss), max(rss)))

    if args.trace == 0:
        return correct, attempted, failed, e2e, dict(END_TO_END)

    res = must_run([tool("perfbench_layers"), "--layout=" + spec.layout,
                    "--dir=.", "--query=q.fasta", "--out=traced.tab",
                    "--threads=%d" % THREADS], work, "layers")
    doc = json.loads(res.stdout)
    layers = doc["metrics"]
    layers["trace.overhead_frac"] = (layers["run.traced_wall_s"] /
                                     e2e["wall_s"] - 1.0)
    if digest(os.path.join(work, "traced.tab")) != ref.digest:
        log("traced run output differs from the reference")
        correct = False
    if any(doc["counters"][k] != ref.counters[k] for k in COUNTER_KEYS):
        log("traced run counters differ from the reference: %s vs %s"
            % (doc["counters"], ref.counters))
        correct = False
    if layers["core.alignments"] != len(ref.lines):
        log("traced run alignment count differs from the reference")
        correct = False
    print("# traced run (in-process): spans %s"
          % ", ".join("%s %.4fs" % (s["name"], s["s"]) for s in doc["spans"]))
    for name, unit in PER_LAYER:
        print_metric(name, layers[name], unit, "n=1 traced run")
    return correct, attempted, failed, layers, dict(PER_LAYER)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in ("MUBLASTP_FAULTS", "MUBLASTP_FAULTS_KILL"):
        if os.environ.get(var):
            log("error: %s is set; refusing to measure a program with armed "
                "fault injection" % var)
            return 2
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "CMakeLists.txt"))):
        log("error: no repository sources (src/, tools/) next to %s"
            % BENCH_DIR)
        return 2

    spec = (SMOKE if args.size == "smoke" else WORKLOADS)[args.workload]
    work = os.path.join(WORK_ROOT, args.workload)
    try:
        targets = ["mublastp_search", "mublastp_makedb", "mublastp_synthgen"]
        build(targets + (["perfbench_layers"] if args.trace else []))
        if build_type() not in ("Release", "RelWithDebInfo"):
            log("error: build type '%s' is not optimized" % build_type())
            return 2
        signal.signal(signal.SIGALRM, _on_watchdog)
        signal.alarm(RUN_LIMIT_S)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        generate(spec, args.seed, work)
        correct, attempted, failed, values, units = measure(spec, args, work)
        signal.alarm(0)
    except BenchError as e:
        log("error: %s" % e)
        return 1
    finally:
        signal.alarm(0)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
