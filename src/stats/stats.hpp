// Pipeline telemetry: the paper's stage-level accounting (per-stage time
// breakdowns of Figure 2, the <5% pre-filter survival ratio of Figure 6,
// hit/pair/extension/HSP counts) as a runtime-observable subsystem.
//
// PipelineStats is the runtime collector: per-stage wall time, pipeline
// counters and per-block aggregates, collected into per-thread accumulators
// that are merged at block end (the serial point of the Algorithm 3 block
// loop). Because counter addition is associative and commutative and every
// (block, query) round produces the same delta on any thread, the merged
// counters are bit-identical regardless of thread count or schedule — which
// is what makes pipeline behaviour assertable in tests.
//
// The engines book into it through one runtime recorder,
// trace::StageRecorder (src/trace/trace.hpp), whose stage-boundary stamps
// feed both these stage seconds and the trace-v1 spans. A search without a
// collector or a tracer pays one branch per stage boundary and reads no
// clock.
//
// Granularity note: the recorder hooks fire once per (block, query) round
// and once per stage-3/4 query, never per hit. Per-hit counting stays in
// the per-query StageStats (core/params.hpp) the engines already maintain;
// the recorder receives the round's delta of those counters.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace mublastp::stats {

/// Pipeline stages, in execution order. For the interleaved engines
/// (query-indexed "NCBI" and database-indexed "NCBI-db") detection and
/// ungapped extension are fused, so their whole stage-1/2 scan is booked
/// under kHitDetect and kSort/kUngapped stay zero — the asymmetry the
/// paper's decoupling removes.
enum class Stage : int {
  kHitDetect = 0,  ///< hit detection (+ pre-filter)
  kSort,           ///< hit reordering (radix sort)
  kUngapped,       ///< ungapped extension sweep
  kGapped,         ///< gapped extension (score-only)
  kFinalize,       ///< merge, cull, traceback, E-values
};
inline constexpr int kNumStages = 5;

/// Stable JSON field name of a stage ("hit_detect", "sort", ...).
const char* stage_name(Stage s);

/// Whole-pipeline counters. Deterministic for a fixed input: independent of
/// thread count, schedule and wall time.
struct StageCounters {
  std::uint64_t hits = 0;                ///< stage-1 word hits
  std::uint64_t hit_pairs = 0;           ///< two-hit pairs (pre-filter out)
  std::uint64_t sorted_records = 0;      ///< records through the reorder
  std::uint64_t extensions = 0;          ///< ungapped extensions executed
  std::uint64_t ungapped_alignments = 0; ///< HSPs (score >= ungapped cutoff)
  std::uint64_t gapped_extensions = 0;   ///< gapped extensions executed

  StageCounters& operator+=(const StageCounters& o) {
    hits += o.hits;
    hit_pairs += o.hit_pairs;
    sorted_records += o.sorted_records;
    extensions += o.extensions;
    ungapped_alignments += o.ungapped_alignments;
    gapped_extensions += o.gapped_extensions;
    return *this;
  }
  friend bool operator==(const StageCounters&, const StageCounters&) = default;

  /// Pre-filter survival ratio (Figure 6): fraction of stage-1 hits that
  /// become two-hit pairs. 0 when there were no hits at all (empty or
  /// all-ambiguity inputs must not divide by zero).
  double survival_ratio() const {
    return hits == 0 ? 0.0
                     : static_cast<double>(hit_pairs) /
                           static_cast<double>(hits);
  }
};

/// Copies the counter fields out of any struct exposing them under the same
/// names (core's per-query StageStats; core depends on this library, so the
/// coupling is by field name only).
template <typename S>
StageCounters counters_of(const S& s) {
  return {s.hits,       s.hit_pairs,           s.sorted_records,
          s.extensions, s.ungapped_alignments, s.gapped_extensions};
}

/// Delta between two snapshots of the same accumulating struct.
template <typename S>
StageCounters counters_between(const S& after, const S& before) {
  return {after.hits - before.hits,
          after.hit_pairs - before.hit_pairs,
          after.sorted_records - before.sorted_records,
          after.extensions - before.extensions,
          after.ungapped_alignments - before.ungapped_alignments,
          after.gapped_extensions - before.gapped_extensions};
}

/// Seconds per Stage, indexed by static_cast<int>(Stage).
using StageSeconds = std::array<double, kNumStages>;

/// Aggregate over every (query, block) round of one index block.
struct BlockStats {
  std::uint32_t block = 0;
  std::uint64_t rounds = 0;  ///< (block, query) rounds aggregated
  StageCounters counters;
  StageSeconds seconds{};
};

/// How the database index behind a run was obtained. Populated only by
/// tools that load an index from disk; an empty `mode` means "not
/// recorded" and the whole object is omitted from the JSON, so snapshots
/// from in-memory runs are byte-identical to pre-v3 output.
struct IndexLoadStats {
  std::string mode;                 ///< "" (unset), "copy" or "mmap"
  double load_seconds = 0.0;        ///< open + parse (+ checksum) wall time
  std::uint64_t file_bytes = 0;     ///< index file size
  std::uint64_t resident_bytes = 0; ///< mincore() residency (mmap only)

  bool recorded() const { return !mode.empty(); }
  friend bool operator==(const IndexLoadStats&,
                         const IndexLoadStats&) = default;
};

/// One index block excluded from a degraded-mode run (mirror of the index
/// layer's BlockQuarantine; duplicated here so the stats library keeps its
/// no-dependency footprint — tools convert between the two).
struct QuarantinedBlock {
  std::uint32_t block = 0;
  std::string reason;

  friend bool operator==(const QuarantinedBlock&,
                         const QuarantinedBlock&) = default;
};

/// One shard excluded from a sharded run: its worker crashed, was
/// fault-injected, or its index failed to load. The surviving shards'
/// merged results are complete for every subject they hold; this records
/// which slice of the database is missing and why.
struct QuarantinedShard {
  std::uint32_t shard = 0;
  std::string reason;

  friend bool operator==(const QuarantinedShard&,
                         const QuarantinedShard&) = default;
};

/// Tier tallies of the banded gapped-extension kernel: which numeric width
/// each extension half ran at. Execution-strategy telemetry, not part of
/// the deterministic StageCounters set — all-zero on scalar runs (and
/// omitted from the JSON then), identical between SSE4.2 and AVX2 because
/// the int8 -> int16 -> scalar escalation is value-driven.
struct GappedKernelStats {
  std::uint64_t int8_runs = 0;         ///< halves settled by the int8 pass
  std::uint64_t int16_reruns = 0;      ///< halves re-run at int16 (overflow)
  std::uint64_t scalar_fallbacks = 0;  ///< halves that fell back to scalar

  bool any() const {
    return int8_runs != 0 || int16_reruns != 0 || scalar_fallbacks != 0;
  }
  GappedKernelStats& operator+=(const GappedKernelStats& o) {
    int8_runs += o.int8_runs;
    int16_reruns += o.int16_reruns;
    scalar_fallbacks += o.scalar_fallbacks;
    return *this;
  }
  friend bool operator==(const GappedKernelStats&,
                         const GappedKernelStats&) = default;
};

/// Copies the tier tallies out of a per-query StageStats, coupled by field
/// name like counters_of.
template <typename S>
GappedKernelStats gapped_kernel_of(const S& s) {
  return {s.gapped_int8_runs, s.gapped_int16_reruns,
          s.gapped_scalar_fallbacks};
}

/// Telemetry of the query-specialized hit-detection path: flattened-lookup
/// build work plus the vector-tile vs scalar-tail split of the hit-scan
/// kernels. Execution-strategy telemetry like GappedKernelStats, NOT a
/// deterministic counter set — tile counts differ between the 4-lane
/// SSE4.2 and 8-lane AVX2 kernels (the hits they produce do not). All-zero
/// on scalar/traced runs and omitted from the JSON then.
struct HitKernelStats {
  std::uint64_t flatten_builds = 0;   ///< FlatNeighborhood (re)builds
  double flatten_seconds = 0.0;       ///< wall time spent building them
  std::uint64_t tiles = 0;            ///< full vector prefilter/collect tiles
  std::uint64_t tail_entries = 0;     ///< posting entries done by scalar tails

  bool any() const {
    return flatten_builds != 0 || flatten_seconds != 0.0 || tiles != 0 ||
           tail_entries != 0;
  }
  HitKernelStats& operator+=(const HitKernelStats& o) {
    flatten_builds += o.flatten_builds;
    flatten_seconds += o.flatten_seconds;
    tiles += o.tiles;
    tail_entries += o.tail_entries;
    return *this;
  }
  friend bool operator==(const HitKernelStats&,
                         const HitKernelStats&) = default;
};

/// Per-stage hardware-counter totals sampled by the tracer's perf_event
/// groups (src/trace/perfctr). Optional like GappedKernelStats: populated
/// only when a run was traced with counters enabled AND perf_event_open
/// succeeded; omitted from the JSON otherwise, so untraced (and
/// counter-unavailable) runs stay byte-identical to prior output. These are
/// measurements, not deterministic counters — values vary run to run.
struct PerfCounterStats {
  std::uint64_t sampled_spans = 0;  ///< spans that carried counter deltas
  std::array<std::uint64_t, kNumStages> cycles{};
  std::array<std::uint64_t, kNumStages> instructions{};
  std::array<std::uint64_t, kNumStages> llc_misses{};
  std::array<std::uint64_t, kNumStages> branch_misses{};

  bool recorded() const { return sampled_spans != 0; }
  PerfCounterStats& operator+=(const PerfCounterStats& o) {
    sampled_spans += o.sampled_spans;
    for (int i = 0; i < kNumStages; ++i) {
      cycles[i] += o.cycles[i];
      instructions[i] += o.instructions[i];
      llc_misses[i] += o.llc_misses[i];
      branch_misses[i] += o.branch_misses[i];
    }
    return *this;
  }
  friend bool operator==(const PerfCounterStats&,
                         const PerfCounterStats&) = default;
};

/// Everything a degraded-mode run wants the caller (and the JSON consumer)
/// to know about how it deviated from a clean run. Default-constructed ==
/// "nothing degraded", and the whole object is omitted from the JSON then,
/// so clean runs are byte-identical to pre-degraded output.
struct DegradedStats {
  std::vector<QuarantinedBlock> quarantined;  ///< blocks excluded + why
  std::vector<QuarantinedShard> quarantined_shards;  ///< shards excluded + why
  std::uint64_t load_retries = 0;       ///< index load retry attempts
  std::uint64_t time_budget_trips = 0;  ///< queries cut off by --time-budget
  std::uint64_t mem_budget_trips = 0;   ///< workspace shrinks by --mem-budget
  bool partial = false;                 ///< results incomplete (exit code 3)

  bool any() const {
    return partial || load_retries != 0 || time_budget_trips != 0 ||
           mem_budget_trips != 0 || !quarantined.empty() ||
           !quarantined_shards.empty();
  }
  friend bool operator==(const DegradedStats&,
                         const DegradedStats&) = default;
};

/// Telemetry of one index build (mublastp_makedb; the stats-v1 "build"
/// object). Covers full builds, --append delta builds and --compact
/// rebuilds alike: the counts describe what THIS build indexed (for an
/// append, the delta only), generation/chain_length describe the published
/// result. Default-constructed == "not a build run"; omitted from the JSON
/// then, so search snapshots are byte-identical to before.
struct BuildStats {
  std::uint32_t generation = 0;    ///< generation published (0 = plain build)
  std::uint32_t chain_length = 1;  ///< members in the published generation
  std::uint64_t sequences = 0;     ///< sequences this build indexed
  std::uint64_t residues = 0;      ///< residues this build indexed
  int threads = 0;                 ///< per-block build parallelism used
  double plan_seconds = 0.0;       ///< serial sort + block-range planning
  double total_seconds = 0.0;      ///< whole DbIndex::build wall time
  std::vector<double> block_seconds;  ///< per-block construction wall time

  bool recorded() const { return threads != 0; }
  friend bool operator==(const BuildStats&, const BuildStats&) = default;
};

/// One shard's contribution to a sharded run: its time and what it found.
/// A quarantined shard keeps its entry with zeros.
struct ShardStats {
  std::uint32_t shard = 0;
  /// In-process: stage 1-2 CPU seconds over the shard's blocks. Process
  /// mode: the shard worker's wall time.
  double seconds = 0.0;
  std::uint64_t hits = 0;        ///< stage-1 word hits in this shard
  /// Final alignments of this shard's subjects (process mode: the worker's
  /// own list, before the merge).
  std::uint64_t alignments = 0;

  friend bool operator==(const ShardStats&, const ShardStats&) = default;
};

/// Per-shard breakdown of a sharded run (the stats-v1 "shards" object).
/// Default-constructed (count == 0) == "not a sharded run"; omitted from
/// the JSON then, so single-index snapshots are byte-identical to before.
struct ShardsStats {
  std::uint32_t count = 0;       ///< shard_count of the manifest
  std::string mode;              ///< "thread" or "process"
  std::string strategy;          ///< partition strategy_name()
  /// (max - min) / max of per-shard residue counts — the static balance the
  /// partitioner promised.
  double imbalance_predicted = 0.0;
  /// Same ratio over the measured per-shard seconds — what the run
  /// actually saw. Cross-checked against the discrete-event simulator in
  /// bench/shard_balance.
  double imbalance_measured = 0.0;
  std::vector<ShardStats> per_shard;

  /// Sets imbalance_measured from per_shard: (max - min) / max of the
  /// seconds of the shards that booked any. Failed and empty shards booked
  /// none and are skipped; 0 when no shard booked time.
  void measure_imbalance();

  bool recorded() const { return count != 0; }
  friend bool operator==(const ShardsStats&, const ShardsStats&) = default;
};

/// Immutable result of one collection run — exactly what to_json
/// serializes (docs/mublastp-stats-v1.schema.json).
struct PipelineSnapshot {
  std::string engine;          ///< "mublastp", "ncbi-db", "ncbi"
  std::string kernel;          ///< "" (unset), "scalar", "sse42", "avx2"
  int threads = 0;
  std::uint64_t queries = 0;
  StageCounters totals;
  StageSeconds stage_seconds{};
  double total_seconds = 0.0;  ///< wall time of the whole run
  /// Peak per-thread workspace footprint (bytes). Informational, not a
  /// deterministic counter: with dynamic scheduling the peak depends on
  /// which queries land on which thread. 0 means "not recorded"; omitted
  /// from the JSON then, like index_load.
  std::uint64_t workspace_peak_bytes = 0;
  std::vector<BlockStats> per_block;
  IndexLoadStats index_load;   ///< optional; see IndexLoadStats
  DegradedStats degraded;      ///< optional; omitted from JSON when !any()
  GappedKernelStats gapped_kernel;  ///< optional; omitted when !any()
  HitKernelStats hit_kernel;   ///< optional; omitted when !any()
  PerfCounterStats perf_counters;  ///< optional; omitted when !recorded()
  ShardsStats shards;          ///< optional; omitted when !recorded()
  BuildStats build;            ///< optional; omitted when !recorded()

  double survival_ratio() const { return totals.survival_ratio(); }

  /// Folds another run into this one (benches aggregating per-query runs).
  void merge(const PipelineSnapshot& o);
};

/// Serializes a snapshot to the stable "mublastp-stats-v1" JSON, whose
/// contract is docs/mublastp-stats-v1.schema.json. Doubles are printed with
/// round-trip precision and strings are JSON-escaped, never altered.
std::string to_json(const PipelineSnapshot& s);

/// Human-readable table (the --stats output of the tools).
void print_table(std::FILE* out, const PipelineSnapshot& s);

namespace detail {

/// One thread's private accumulator: per-block rounds plus the stage-3/4
/// spill that has no block attribution. Written by exactly one thread
/// between merges, so no synchronization is needed.
struct ThreadAccum {
  std::vector<BlockStats> blocks;  ///< indexed by block id
  StageCounters extra;
  StageSeconds extra_seconds{};
  std::uint64_t ws_peak = 0;       ///< workspace-bytes high-water mark
  HitKernelStats hit_kernel;       ///< hit-scan kernel telemetry
};

}  // namespace detail

/// Runtime collector. Lifecycle: begin_run sizes one accumulator per
/// thread; during parallel regions each thread writes only its own
/// accumulator, through a trace::StageRecorder (no locks, no atomics);
/// merge_block / finish_run fold accumulators in serial code.
class PipelineStats {
 public:
  explicit PipelineStats(std::string engine = "mublastp")
      : engine_(std::move(engine)) {}

  /// Prepares a run: clears all prior state and sizes `threads`
  /// accumulators over `blocks` index blocks for `queries` queries.
  void begin_run(int threads, std::size_t blocks, std::uint64_t queries);

  /// Thread `thread`'s private accumulator. Between merges only that
  /// thread writes it (trace::StageRecorder books the engines' rounds and
  /// stages into it), so no synchronization is needed.
  detail::ThreadAccum& accum(int thread) { return accums_[thread]; }

  /// The Algorithm 3 barrier merge: folds every thread's accumulator for
  /// `block` into the run aggregate and clears it. Called from the serial
  /// section after each block's parallel region.
  void merge_block(std::uint32_t block);

  /// Folds everything still unmerged (engines without a serial block loop
  /// never call merge_block) and stamps the run wall time.
  void finish_run(double total_seconds);

  /// Aggregated view of the run; call after finish_run.
  PipelineSnapshot snapshot() const;

  /// Stamps how the index behind this run was obtained; carried into every
  /// subsequent snapshot(). Independent of begin_run/finish_run (set it
  /// once after loading, before or after the searches).
  void set_index_load(IndexLoadStats s) { index_load_ = std::move(s); }

  /// Stamps the kernel path the run executed with ("scalar", "sse42",
  /// "avx2"). Engines set it right after begin_run; carried into every
  /// subsequent snapshot(). Empty means "not recorded" (omitted from JSON).
  void set_kernel(std::string kernel) { kernel_ = std::move(kernel); }

  /// Stamps how a degraded-mode run deviated (quarantined blocks, budget
  /// trips, partial flag); carried into every subsequent snapshot().
  void set_degraded(DegradedStats d) { degraded_ = std::move(d); }

  /// Stamps the banded gapped-kernel tier tallies of the run (engines set
  /// it from the summed per-query StageStats right before finish_run);
  /// carried into every subsequent snapshot(). All-zero means "scalar
  /// gapped DP" and is omitted from the JSON.
  void set_gapped_kernel(GappedKernelStats g) { gapped_kernel_ = g; }

  /// Stamps the per-stage hardware-counter totals sampled by the tracer
  /// (tools fold trace::Tracer::perf_totals() in after the run); carried
  /// into every subsequent snapshot(). Zero sampled_spans means "no
  /// counters" and is omitted from the JSON.
  void set_perf_counters(PerfCounterStats p) { perf_counters_ = p; }

  const std::string& engine() const { return engine_; }

 private:
  std::string engine_;
  std::string kernel_;
  IndexLoadStats index_load_;
  DegradedStats degraded_;
  GappedKernelStats gapped_kernel_;
  PerfCounterStats perf_counters_;
  int threads_ = 0;
  std::uint64_t queries_ = 0;
  double total_seconds_ = 0.0;
  std::uint64_t ws_peak_ = 0;
  HitKernelStats hit_kernel_;  ///< folded from accumulators at finish_run
  std::vector<detail::ThreadAccum> accums_;
  std::vector<BlockStats> blocks_;  ///< merged per-block aggregates
  StageCounters extra_counters_;    ///< merged stage-3/4 counters
  StageSeconds extra_seconds_{};    ///< merged stage-3/4 seconds
};

}  // namespace mublastp::stats
