// mublastp_search: search FASTA queries against a saved index — the
// "blastp" step of the database-indexed workflow.
//
// Usage:
//   mublastp_search (--index=db.mbi | --shards-manifest=db.shardset
//                    [--shard-mode=thread|process])
//                   --query=q.fasta [--threads=N]
//                   [--outfmt=pairwise|tabular|none] [--max-alignments=K]
//                   [--stats[=json]] [--no-mmap]
//                   [--kernel=auto|scalar|avx2]
//                   [--strict] [--inject=site:Nth[:errno]]
//                   [--time-budget=SEC] [--mem-budget-mb=N]
//                   [--out=FILE] [--checkpoint=FILE] [--batch-size=16]
//                   [--trace=FILE] [--trace-counters] [--progress[=force]]
//
// Database layouts. --index opens the newest generation published next to
// the path (docs/INCREMENTAL.md): the bare index file when `mublastp_makedb
// --append` never ran, else the MUGEN01 base + delta chain. A corrupt
// newest manifest fails closed (exit 5). --shards-manifest opens the shards
// of a MUSHARD01 manifest written by `mublastp_makedb --shards=N`
// (docs/SHARDING.md). Every layout is one cluster::MemberSet, searched by
// one engine pass over every member's blocks with E-values priced over the
// whole database, so the report is byte-identical to a search of one index
// over the same sequences. Every flag applies to every layout.
//
// --shard-mode=thread (the default) searches the shards in that one pass.
// --shard-mode=process fork(2)s one single-threaded child per shard,
// reads results back over CRC-framed pipes and merges them. --shard-mode
// needs --shards-manifest: chain members always run in this process.
//
// --trace=FILE records a span timeline of the whole run (index load, every
// stage of every (block, query) round; process-mode shard workers and their
// merge) and writes it as Chrome trace-event JSON (schema
// "mublastp-trace-v1", loadable in Perfetto / chrome://tracing; see
// docs/OBSERVABILITY.md).
// --trace-counters additionally samples hardware counters (cycles,
// instructions, LLC misses, branch mispredicts) per stage span via
// perf_event_open(2) — silently degrading to plain timestamps where the
// kernel forbids it — and folds per-stage totals into the stats-v1
// "perf_counters" object.
//
// --progress prints a one-line heartbeat to stderr at each block's serial
// point (blocks done, quarantines, ETA). It is suppressed when stdout or
// stderr is not a TTY so piped output stays clean; --progress=force prints
// regardless.
//
// Numeric flags take decimal digits only and are range-checked: --threads
// 1..1024 (default: the OpenMP thread pool size, omp_get_max_threads),
// --max-alignments and --batch-size at least 1, --mem-budget-mb small
// enough that its bytes fit 64 bits, and --time-budget a finite number
// >= 0. A bad value, or a flag the tool does not take or given twice,
// exits 2 naming the flag, before the index is opened. --kernel selects
// the kernel ("auto", the default, is avx2 where the CPU has it, else
// scalar) used by hit detection and the banded gapped extension; ungapped
// extension is scalar on every kernel. Results are bit-identical for
// every kernel.
//
// Index loading: index files are memory-mapped by default (zero-copy;
// pages shared with other processes serving the same database); --no-mmap
// reads each file into memory instead. Either way the search runs on the
// same validated image.
//
// Degraded mode (the default; see docs/ROBUSTNESS.md): an index block whose
// checksum fails is quarantined and the search continues over the surviving
// blocks; a failed mmap load is retried once after a short backoff and then
// falls back to reading the file; worker failures inside one block quarantine
// that block. A shard or chain member that cannot be used at all (index
// rot, a dead worker, an injected fault) is quarantined whole and named in
// the "quarantined_shards" list. Any degradation marks the run partial
// (exit code 3) and is reported in the stats-v1 "degraded" object.
// --strict turns all of this off: the first failure aborts the run with a
// typed exit code.
//
// --time-budget cuts off any query whose stage-1/2 time exceeds SEC seconds;
// --mem-budget-mb bounds the total retained workspace bytes across threads.
// Fork-mode shard children run the plain per-query search, without either.
//
// --checkpoint journals completed query batches (of --batch-size queries)
// into FILE so a killed run resumes without re-searching; it requires --out
// because resuming truncates the output file back to the last durable batch
// boundary. Resumed output is bit-identical to an uninterrupted run.
//
// --stats prints a human-readable pipeline-telemetry table to stderr;
// --stats=json emits the machine-readable snapshot (schema
// "mublastp-stats-v1", see docs/ALGORITHMS.md) to stdout. Every in-process
// layout reports the pass's full pipeline telemetry, its per-block rows
// numbered by position in the joined view; a single index adds an "index"
// object recording the load mode/time/residency, and shards a "shards"
// object with per-shard timings and imbalance. Process-mode shards report
// the merged counters without per-block rows. Degraded runs add the
// "degraded" object. Combine --stats=json with --outfmt=none (or --out) for
// a stdout that is pure JSON.
//
// Exit codes: 0 complete, 1 generic failure, 2 usage error, 3 partial
// results (degraded), 4 I/O error, 5 corrupt input, 6 resource exhaustion,
// 7 canceled (budget exceeded in --strict mode).
#include <fcntl.h>
#include <omp.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "cli_args.hpp"
#include "cluster/member_set.hpp"
#include "common/checkpoint.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/timer.hpp"
#include "fasta/fasta.hpp"
#include "report/report.hpp"
#include "simd/dispatch.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mublastp;
using namespace mublastp::cli;
using cluster::MemberSet;

/// The most --threads and --time-budget accept.
constexpr int kMaxThreads = 1024;
constexpr double kMaxTimeBudgetSeconds = 1e9;

/// Renders one query's report in the chosen format against `db`: an index
/// view or a sequence store, both addressed by original database id.
template <typename Db>
void render(std::ostream& os, const std::string& outfmt,
            const SequenceStore& queries, SeqId q, const Db& db,
            const QueryResult& result) {
  if (outfmt == "tabular") {
    write_tabular(os, queries.name(q), queries.sequence(q), db, result,
                  blosum62());
  } else if (outfmt == "pairwise") {
    write_pairwise(os, queries.name(q), queries.sequence(q), db, result,
                   blosum62());
  }
}

/// Renders the reports of queries [begin, begin + results.size()) against
/// the set's one view, whatever the layout. A set with no live member has
/// no alignments to resolve.
void render_batch(std::ostream& os, const std::string& outfmt,
                  const SequenceStore& queries, SeqId begin,
                  const MemberSet& set,
                  const std::vector<QueryResult>& results) {
  if (outfmt == "none") return;  // e.g. for --stats=json
  static const SequenceStore kNoSubjects;
  for (SeqId i = 0; i < results.size(); ++i) {
    if (set.view() != nullptr) {
      render(os, outfmt, queries, begin + i, *set.view(), results[i]);
    } else {
      render(os, outfmt, queries, begin + i, kNoSubjects, results[i]);
    }
  }
}

/// The engine name stats-v1 and trace-v1 report for a layout.
const char* engine_name(MemberSet::Layout layout) {
  switch (layout) {
    case MemberSet::Layout::kSingle: return "mublastp";
    case MemberSet::Layout::kChain: return "mublastp-chain";
    case MemberSet::Layout::kShards: return "mublastp-sharded";
  }
  return "mublastp";
}

/// Builds the run's tracer from --trace= / --trace-counters, or a null
/// pointer when tracing is off. (--trace-counters without --trace is
/// rejected in main before the run starts.)
std::unique_ptr<trace::Tracer> make_tracer(int argc, char** argv) {
  const std::string path = arg_str(argc, argv, "trace", "");
  if (path.empty()) return nullptr;
  trace::TracerOptions opts;
  opts.counters = arg_flag(argc, argv, "trace-counters");
  return std::make_unique<trace::Tracer>(opts);
}

/// Serializes the tracer to --trace=FILE as mublastp-trace-v1. Returns the
/// exit code contribution: 0, or 4 on an unwritable file.
int write_trace_file(trace::Tracer& tracer, const std::string& path,
                     const trace::TraceMeta& meta) {
  const std::string json = trace::to_chrome_json(tracer, meta);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.good()) {
    std::fprintf(stderr, "error: cannot open trace file '%s'\n",
                 path.c_str());
    return 4;
  }
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  f.put('\n');
  f.flush();
  if (f.bad()) {
    std::fprintf(stderr, "error: write failure on trace file '%s'\n",
                 path.c_str());
    return 4;
  }
  std::fprintf(stderr, "wrote trace: %s (%zu spans, %llu dropped%s)\n",
               path.c_str(), tracer.spans().size(),
               static_cast<unsigned long long>(tracer.dropped()),
               tracer.counters_available() ? ", hardware counters" : "");
  return 0;
}

/// --progress gating: heartbeats are suppressed when stdout or stderr is
/// redirected (they would pollute piped output), unless --progress=force.
bool progress_enabled(int argc, char** argv) {
  const bool bare = arg_flag(argc, argv, "progress");
  const std::string mode =
      arg_str(argc, argv, "progress", bare ? "tty" : "");
  if (mode.empty()) return false;
  if (mode == "force") return true;
  return ::isatty(STDOUT_FILENO) == 1 && ::isatty(STDERR_FILENO) == 1;
}

/// The --progress heartbeat: one stderr line, rewritten in place with \r,
/// fired from the block loop's serial point. The last block ends the line.
struct ProgressPrinter {
  Timer timer;
  void operator()(const MuBlastpOptions::BatchProgress& p) {
    const double elapsed = timer.seconds();
    const double eta =
        p.blocks_done > 0
            ? elapsed / static_cast<double>(p.blocks_done) *
                  static_cast<double>(p.blocks_total - p.blocks_done)
            : 0.0;
    std::fprintf(stderr,
                 "\rprogress: %u/%u blocks, %llu queries, %llu quarantined,"
                 " %.1fs elapsed, ETA %.1fs ",
                 p.blocks_done, p.blocks_total,
                 static_cast<unsigned long long>(p.queries),
                 static_cast<unsigned long long>(p.quarantined_blocks),
                 elapsed, eta);
    if (p.blocks_done == p.blocks_total) std::fputc('\n', stderr);
    std::fflush(stderr);
  }
};

/// RAII for the POSIX output fd used by the checkpointed path (the report
/// stream must be durable before its batch is journaled, which needs
/// fsync — hence a raw fd instead of an ofstream).
struct OutFile {
  int fd = -1;
  ~OutFile() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (!known_flags(argc, argv,
                   {"index=", "shards-manifest=", "shard-mode=", "query=",
                    "threads=", "outfmt=", "max-alignments=", "stats",
                    "stats=", "no-mmap", "kernel=", "strict", "inject=",
                    "time-budget=", "mem-budget-mb=", "out=", "checkpoint=",
                    "batch-size=", "trace=", "trace-counters", "progress",
                    "progress="})) {
    return 2;
  }
  const std::string index_path = arg_str(argc, argv, "index", "");
  const std::string manifest_path =
      arg_str(argc, argv, "shards-manifest", "");
  const std::string query_path = arg_str(argc, argv, "query", "");
  const std::string outfmt = arg_str(argc, argv, "outfmt", "pairwise");
  const std::string stats_mode =
      arg_flag(argc, argv, "stats") ? "table"
                                    : arg_str(argc, argv, "stats", "");
  const std::string inject = arg_str(argc, argv, "inject", "");
  const std::string out_path = arg_str(argc, argv, "out", "");
  const std::string checkpoint_path = arg_str(argc, argv, "checkpoint", "");
  const bool strict = arg_flag(argc, argv, "strict");
  const bool copy_load = arg_flag(argc, argv, "no-mmap");
  if ((index_path.empty() == manifest_path.empty()) ||
      query_path.empty()) {
    std::fprintf(stderr,
                 "usage: mublastp_search (--index=db.mbi |"
                 " --shards-manifest=db.mbi [--shard-mode=thread|process])"
                 " --query=q.fasta"
                 " [--threads=N] [--outfmt=pairwise|tabular|none]"
                 " [--max-alignments=25] [--stats[=json]]"
                 " [--no-mmap]"
                 " [--kernel=auto|scalar|avx2]"
                 " [--strict] [--inject=site:Nth]"
                 " [--time-budget=SEC] [--mem-budget-mb=N]"
                 " [--out=FILE] [--checkpoint=FILE] [--batch-size=16]"
                 " [--trace=FILE] [--trace-counters]"
                 " [--progress[=force]]\n");
    return 2;
  }
  std::size_t batch_size = 0;
  int threads = 0;
  cluster::MemberSetOptions opts;
  cluster::WorkerMode mode = cluster::WorkerMode::kThread;
  try {
    if (!stats_mode.empty() && stats_mode != "table" && stats_mode != "json") {
      throw UsageError("unknown --stats mode '" + stats_mode +
                       "' (expected --stats or --stats=json)");
    }
    if (outfmt != "pairwise" && outfmt != "tabular" && outfmt != "none") {
      throw UsageError("unknown --outfmt '" + outfmt +
                       "' (expected pairwise, tabular or none)");
    }
    if (!checkpoint_path.empty() && out_path.empty()) {
      throw UsageError("--checkpoint requires --out=FILE (resume truncates"
                       " the output back to the last durable batch)");
    }
    if (arg_flag(argc, argv, "trace-counters") &&
        arg_str(argc, argv, "trace", "").empty()) {
      throw UsageError("--trace-counters requires --trace=FILE");
    }
    const std::string progress_mode = arg_str(argc, argv, "progress", "");
    if (!progress_mode.empty() && progress_mode != "force") {
      throw UsageError("unknown --progress mode '" + progress_mode +
                       "' (expected --progress or --progress=force)");
    }
    opts.engine.kernel =
        arg_parsed(argc, argv, "kernel", "auto", simd::parse_kernel);
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    batch_size = arg_number<std::uint64_t>(argc, argv, "batch-size", 16, 1,
                                           kMax);
    threads = arg_number(argc, argv, "threads", omp_get_max_threads(), 1,
                         kMaxThreads);
    opts.params.max_alignments = arg_number<std::uint64_t>(
        argc, argv, "max-alignments", 25, 1, kMax);
    opts.engine.time_budget_seconds = arg_number(
        argc, argv, "time-budget", 0.0, 0.0, kMaxTimeBudgetSeconds);
    // Checked before the shift, which would wrap.
    opts.engine.mem_budget_bytes =
        arg_number<std::uint64_t>(argc, argv, "mem-budget-mb", 0, 0,
                                  kMax >> 20)
        << 20;
    const std::optional<std::string> shard_mode =
        arg_value(argc, argv, "shard-mode");
    if (shard_mode) {
      if (manifest_path.empty()) {
        throw UsageError("--shard-mode needs --shards-manifest (generation"
                         " chains always run in this process)");
      }
      mode = cluster::parse_worker_mode(*shard_mode);
    }
    if (!inject.empty()) {
      try {
        fi::arm_from_spec(inject);
      } catch (const Error& e) {
        throw UsageError("bad --inject spec '" + inject + "': " + e.what() +
                         " (see docs/ROBUSTNESS.md for the site registry)");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // The whole run's snapshot: every search call's stats and degradation
  // fold into it, after what the open itself reported.
  stats::PipelineSnapshot run;
  try {
    if (progress_enabled(argc, argv)) opts.engine.progress = ProgressPrinter{};
    opts.strict = strict;
    const cluster::LoadMode load_mode =
        copy_load ? cluster::LoadMode::kCopy : cluster::LoadMode::kAuto;
    const std::unique_ptr<trace::Tracer> tracer = make_tracer(argc, argv);

    Timer t;
    const std::uint64_t load_begin =
        tracer != nullptr ? tracer->now_ns() : 0;
    stats::DegradedStats* open_sink = strict ? nullptr : &run.degraded;
    const MemberSet set =
        manifest_path.empty()
            ? MemberSet::open_index(index_path, opts, open_sink, load_mode)
            : MemberSet::open_shards(manifest_path, opts, open_sink,
                                     load_mode);
    if (tracer != nullptr) {
      tracer->record(trace::SpanKind::kIndexLoad, load_begin,
                     tracer->now_ns());
    }
    const bool single = set.layout() == MemberSet::Layout::kSingle;
    std::fprintf(stderr,
                 "loaded %s: generation %u, %u member(s), %llu sequences,"
                 " %llu residues (%.2fs)\n",
                 manifest_path.empty() ? index_path.c_str()
                                       : manifest_path.c_str(),
                 set.generation(), set.member_count(),
                 static_cast<unsigned long long>(set.total_sequences()),
                 static_cast<unsigned long long>(set.total_residues()),
                 t.seconds());
    for (const stats::QuarantinedShard& q : run.degraded.quarantined_shards) {
      std::fprintf(stderr, "warning: quarantined member %u: %s\n", q.shard,
                   q.reason.c_str());
    }
    for (const stats::QuarantinedBlock& q : run.degraded.quarantined) {
      std::fprintf(stderr, "warning: quarantined block %u: %s\n", q.block,
                   q.reason.c_str());
    }
    std::fprintf(stderr, "kernel: %s\n",
                 simd::kernel_name(opts.engine.kernel));

    SequenceStore queries;
    read_fasta_file(query_path, queries);
    std::fprintf(stderr, "read %zu queries\n", queries.size());

    const bool want_stats = !stats_mode.empty();
    // One search call: its results, with its stats and degradation folded
    // into `run`.
    const auto search = [&](const SequenceStore& batch) {
      stats::PipelineStats ps(engine_name(set.layout()));
      cluster::MemberSearchResult res = set.search(
          batch, threads, mode, tracer.get(), want_stats ? &ps : nullptr);
      stats::PipelineSnapshot snap = ps.snapshot();
      if (set.layout() == MemberSet::Layout::kShards) snap.shards = res.shards;
      snap.degraded = std::move(res.degraded);
      run.merge(snap);
      return std::move(res.results);
    };

    t.reset();
    if (checkpoint_path.empty()) {
      // Plain path: one batch over all queries, reports to --out or stdout.
      const std::vector<QueryResult> results = search(queries);
      std::fprintf(stderr, "searched in %.2fs (%d thread(s))\n", t.seconds(),
                   threads);
      std::ofstream out_file;
      if (!out_path.empty()) {
        out_file.open(out_path, std::ios::binary | std::ios::trunc);
        MUBLASTP_CHECK_KIND(out_file.good(), ErrorKind::kIo,
                            "cannot open output file: " + out_path);
      }
      std::ostream& os = out_path.empty() ? std::cout : out_file;
      render_batch(os, outfmt, queries, 0, set, results);
      os.flush();
      MUBLASTP_CHECK_KIND(!os.bad(), ErrorKind::kIo,
                          "write failure on search output");
    } else {
      // Checkpointed batch runner: queries are processed in fixed batches;
      // each batch's report bytes are made durable (write + fsync) BEFORE
      // the batch id is journaled, so every journaled batch's output
      // survived any crash and resuming is bit-identical to a clean run.
      const std::uint64_t nq = queries.size();
      const std::uint64_t nbatches =
          nq / batch_size + (nq % batch_size != 0);
      // Fingerprint ties the journal to this (database, query-set,
      // batching) configuration; resuming under any other combination is
      // an error.
      const std::uint64_t residues = set.total_residues();
      std::uint32_t fp = crc32(&batch_size, sizeof(batch_size));
      fp = crc32(&nq, sizeof(nq), fp);
      fp = crc32(&residues, sizeof(residues), fp);
      CheckpointJournal journal(checkpoint_path, fp);

      OutFile out;
      out.fd = ::open(out_path.c_str(), O_RDWR | O_CREAT, 0644);
      MUBLASTP_CHECK_KIND(out.fd >= 0, ErrorKind::kIo,
                          "cannot open output file: " + out_path);
      // Drop any bytes from a batch that was mid-write when a previous run
      // died; everything before resume_offset is journaled-durable output.
      std::uint64_t offset = journal.resume_offset();
      MUBLASTP_CHECK_KIND(
          ::ftruncate(out.fd, static_cast<off_t>(offset)) == 0,
          ErrorKind::kIo, "cannot truncate output file: " + out_path);
      MUBLASTP_CHECK_KIND(
          ::lseek(out.fd, static_cast<off_t>(offset), SEEK_SET) >= 0,
          ErrorKind::kIo, "cannot seek output file: " + out_path);
      if (journal.num_completed() != 0) {
        std::fprintf(stderr,
                     "resuming: %zu of %llu batches already complete"
                     " (output offset %llu)\n",
                     journal.num_completed(),
                     static_cast<unsigned long long>(nbatches),
                     static_cast<unsigned long long>(offset));
      }

      for (std::uint64_t b = 0; b < nbatches; ++b) {
        if (journal.completed(b)) continue;
        const SeqId begin = static_cast<SeqId>(b * batch_size);
        const SeqId end =
            static_cast<SeqId>(std::min<std::uint64_t>(nq,
                                                       (b + 1) * batch_size));
        SequenceStore batch;
        for (SeqId q = begin; q < end; ++q) {
          batch.add(queries.sequence(q), queries.name(q));
        }
        std::uint64_t batch_begin = 0;
        if (tracer != nullptr) {
          tracer->set_batch(static_cast<std::uint32_t>(b));
          batch_begin = tracer->now_ns();
        }
        const std::vector<QueryResult> results = search(batch);

        std::ostringstream os;
        render_batch(os, outfmt, queries, begin, set, results);
        const std::string bytes = os.str();
        std::size_t written = 0;
        while (written < bytes.size()) {
          const ssize_t n = ::write(out.fd, bytes.data() + written,
                                    bytes.size() - written);
          MUBLASTP_CHECK_KIND(n >= 0, ErrorKind::kIo,
                              "write failure on output file: " + out_path);
          written += static_cast<std::size_t>(n);
        }
        MUBLASTP_CHECK_KIND(::fsync(out.fd) == 0, ErrorKind::kIo,
                            "fsync failure on output file: " + out_path);
        offset += bytes.size();
        journal.append(b, offset);
        if (tracer != nullptr) {
          // One span per batch, from its search to its journal commit.
          tracer->record(trace::SpanKind::kBatch, batch_begin,
                         tracer->now_ns());
        }
      }
      std::fprintf(stderr, "searched in %.2fs (%d thread(s))\n", t.seconds(),
                   threads);
    }

    if (tracer != nullptr && want_stats) {
      tracer->flush();
      run.perf_counters = tracer->perf_totals();
    }
    if (tracer != nullptr) {
      trace::TraceMeta meta;
      meta.engine = engine_name(set.layout());
      meta.kernel = simd::kernel_name(opts.engine.kernel);
      meta.threads = threads;
      meta.shards = single ? 0 : set.member_count();
      const int rc = write_trace_file(
          *tracer, arg_str(argc, argv, "trace", ""), meta);
      if (rc != 0) return rc;
    }

    if (want_stats) {
      if (single) run.index_load = set.load_stats(0);
      if (stats_mode == "json") {
        const std::string json = stats::to_json(run);
        std::fwrite(json.data(), 1, json.size(), stdout);
        std::fputc('\n', stdout);
      } else {
        stats::print_table(stderr, run);
      }
    }
    if (run.degraded.partial) {
      std::fprintf(stderr,
                   "warning: results are PARTIAL (%zu block(s), %zu"
                   " member(s) quarantined, %llu time-budget trip(s))\n",
                   run.degraded.quarantined.size(),
                   run.degraded.quarantined_shards.size(),
                   static_cast<unsigned long long>(
                       run.degraded.time_budget_trips));
      return 3;
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e.kind());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
