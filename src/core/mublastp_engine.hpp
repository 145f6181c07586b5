// muBLASTP: database-indexed BLASTP with the irregularity-eliminating
// pipeline (paper Section IV).
//
// Per (index block, query) the engine runs:
//   1. hit detection      — scan the query against the block's two-level
//                           index; with pre-filtering enabled (Algorithm 2)
//                           the per-(fragment,diagonal) last-hit array is
//                           consulted *here*, so only two-hit pairs reach
//                           the sort (<5% of hits, Figure 6);
//   2. hit reordering     — stable LSD radix sort on the packed key
//                           (fragment id << diag bits | diagonal), restoring
//                           per-subject, per-diagonal order (Section IV-B);
//   3. ungapped extension — walk the sorted pairs; consecutive pairs touch
//                           the same subject, so its residues stay cached
//                           (the whole point);
//   4. gapped extension + traceback via the shared stage-3/4 code.
//
// Stage outputs are identical to the interleaved engines by construction;
// tests assert it. Batch mode implements Algorithm 3: the block loop is
// outermost and an OpenMP dynamic-for parallelizes over queries inside it,
// so all threads share the block in the LLC. A batch with fewer queries
// than threads also splits each query: its ungapped sweeps into chunks of
// the sorted records, its gapped stage into runs of whole subjects.
//
// Every stage is timed through one trace::StageRecorder per (thread,
// query), whichever sinks a search has (stats, trace, both or neither):
// each boundary is stamped once for stats-v1 and trace-v1, and with no
// sink it costs one branch and no clock read. The stage code is templated
// on the memsim memory model only, which touches memory on every hit and
// so stays compiled out of untraced searches.
#pragma once

#include <functional>
#include <vector>

#include "core/hit_record.hpp"
#include "core/params.hpp"
#include "core/results.hpp"
#include "core/two_hit.hpp"
#include "index/flat_lookup.hpp"
#include "index/db_index_view.hpp"
#include "index/neighbor.hpp"
#include "memsim/memsim.hpp"
#include "score/karlin.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "stats/stats.hpp"

namespace mublastp {

namespace trace {
class StageRecorder;
class Tracer;
}

/// Pipeline variants, exposed for the paper's ablations.
struct MuBlastpOptions {
  /// Algorithm 2 (pre-filter before the sort) when true; Algorithm 1 (sort
  /// all hits, filter after) when false.
  bool prefilter = true;

  /// Which stable key-value sort reorders the hits (Section IV-B weighs
  /// these; LSD radix is the paper's choice).
  enum class SortAlgo { kRadixLsd, kRadixMsd, kMergeSort, kStdStable };
  SortAlgo sort_algo = SortAlgo::kRadixLsd;

  /// Which kernel the hot stages run on: the query-specialized hit
  /// detection path (flattened neighbor lookup + prefetched posting scan +
  /// vector two-hit prefilter) and the banded gapped extension in stage 3.
  /// Ungapped extension is scalar on every path. Results are bit-identical
  /// for every path; kScalar executes the pre-SIMD code unchanged. Traced
  /// (memsim) runs always use the scalar kernels so access streams stay
  /// exact.
  simd::KernelPath kernel = simd::default_kernel();

  /// Per-query wall-clock budget for batch searches (seconds; 0 = none).
  /// A query whose accumulated stage-1/2 time exceeds it is cut off: it
  /// skips the remaining blocks and the gapped stage, keeping whatever
  /// ungapped alignments it already has. With a DegradedStats sink the trip
  /// is recorded and the run is marked partial; without one (strict mode)
  /// the batch fails with Error(kCanceled).
  double time_budget_seconds = 0.0;

  /// Search-space size (residues) used for E-value statistics instead of
  /// the view's own total when nonzero. A member set sets this to the
  /// whole database's size from its manifest, so E-values (and the E-value
  /// cutoff) are computed over the same n as one index over the database,
  /// whichever members a pass or a process-mode child searches. 0 (the
  /// default) keeps n = view.total_residues().
  std::uint64_t effective_db_residues = 0;

  /// Whole-batch workspace budget (bytes; 0 = none), split evenly across
  /// the batch's workspaces: one per worker thread, or one per query when
  /// a batch has fewer queries than threads. A workspace whose retained
  /// footprint exceeds its share after a round releases its buffers
  /// (capacities regrow on demand), so results are unchanged — only the
  /// high-water retention is bounded. Each release counts one
  /// mem_budget_trip in DegradedStats.
  std::uint64_t mem_budget_bytes = 0;

  /// Fired at each block's serial point during search_batch (the same
  /// barrier that merges telemetry and flushes the tracer).
  struct BatchProgress {
    std::uint32_t blocks_done = 0;
    std::uint32_t blocks_total = 0;
    std::uint64_t queries = 0;
    std::uint64_t quarantined_blocks = 0;  ///< so far, degraded mode only
  };
  /// Batch-progress callback (the --progress heartbeat). Called from serial
  /// code only; empty (the default) costs nothing on the hot path.
  std::function<void(const BatchProgress&)> progress;
};

/// The muBLASTP engine.
class MuBlastpEngine {
 public:
  /// The index behind `index` (a DbIndex converts implicitly, or a joined
  /// view) must outlive the engine. The engine builds its neighbor table
  /// from the index's matrix and threshold.
  explicit MuBlastpEngine(DbIndexView index, SearchParams params = {},
                          MuBlastpOptions options = {});

  /// Searches one query through all four stages (single-threaded).
  QueryResult search(std::span<const Residue> query) const;

  /// Same search with pipeline telemetry (per-stage time, per-block
  /// counters) collected into `ps` as one single-threaded run.
  QueryResult search(std::span<const Residue> query,
                     stats::PipelineStats& ps) const;

  /// Same search with stage-1/2 accesses traced through `mem`.
  QueryResult search_traced(std::span<const Residue> query,
                            memsim::MemoryHierarchy& mem) const;

  /// Single-query search recording stage spans (attributed to `query_id`)
  /// into `tracer`. The single-threaded leg fork-process shard workers run;
  /// the caller flushes the tracer when the batch is done.
  QueryResult search(std::span<const Residue> query, std::uint32_t query_id,
                     trace::Tracer& tracer) const;

  /// Algorithm 3: block loop outermost, OpenMP dynamic-for over queries for
  /// stages 1-2, then a second dynamic-for over queries for stages 3-4.
  /// With fewer queries than threads, each query gets ceil(threads /
  /// queries) parts: a round's hit detection and sort stay one task, its
  /// ungapped sweep runs as one task per chunk of the sorted records (cut
  /// where the diagonal key changes), and its gapped stage as one task per
  /// run of whole subjects; finalize runs once per query. Results are the
  /// same at every thread count. A query shorter than one word finds no
  /// hits and gets an empty result (search() rejects it).
  /// When `ps` is non-null, telemetry is collected into it: per-thread
  /// accumulators are merged at each block's end, so all counters are
  /// identical for any thread count; a block's `rounds` counts (block,
  /// query) pairs, not chunks.
  ///
  /// Error containment: a worker exception inside a block's parallel region
  /// never escapes the region. With `degraded` null (strict mode) it is
  /// rethrown after the region, failing the batch. With `degraded` set the
  /// failing block is quarantined — every query's partial contribution from
  /// that block is purged, the block id + reason land in
  /// degraded->quarantined, the run is marked partial, and the search
  /// continues over the remaining blocks. Budget trips
  /// (options().time_budget_seconds / mem_budget_bytes) are reported the
  /// same way.
  /// When `tracer` is non-null, every stage is also recorded as a span
  /// (per-thread ring buffers, drained at the same serial point that
  /// merges `ps`), from the same boundary stamps that time `ps`.
  std::vector<QueryResult> search_batch(const SequenceStore& queries,
                                        int threads,
                                        stats::PipelineStats* ps = nullptr,
                                        stats::DegradedStats* degraded
                                        = nullptr,
                                        trace::Tracer* tracer
                                        = nullptr) const;

  const DbIndexView& view() const { return view_; }
  const SearchParams& params() const { return params_; }
  const MuBlastpOptions& options() const { return options_; }

 private:
  /// Per-thread (or, in a split batch, per-query) scratch reused across
  /// (block, query) rounds. Vector capacities (and the DiagState backing
  /// array) are deliberately carried across blocks; records_hwm keeps the
  /// hit buffer reservation at its high-water mark so later blocks never
  /// regrow it incrementally.
  struct Workspace {
    DiagState state;
    std::vector<HitRecord> records;
    std::vector<HitRecord> rec_scratch;  ///< hit-scan compaction buffer
    std::vector<std::uint32_t> scan_entries;  ///< fused per-qoff posting scan
    std::vector<std::uint32_t> bases;  ///< per-fragment diagonal key bases
    std::size_t records_hwm = 0;       ///< max records.size() seen so far
    std::uint64_t mem_budget = 0;  ///< retained-bytes cap (0 = none)
    std::uint64_t mem_trips = 0;   ///< times enforce_budget() released

    /// Bytes currently retained by this workspace (capacities, not sizes).
    std::uint64_t footprint_bytes() const;

    /// Releases every retained buffer if footprint_bytes() exceeds
    /// mem_budget. Returns true when it released (one budget trip).
    /// Capacities regrow on demand, so results are unaffected.
    bool enforce_budget();
  };

  /// One (block, query) round of stages 1-2: detect_and_sort, then one
  /// ungapped_sweep over all the sorted records into `out`, booked as one
  /// round.
  template <typename Mem>
  void search_block(std::span<const Residue> query, const DbBlockView& block,
                    std::uint32_t block_id, StageStats& stats,
                    std::vector<UngappedAlignment>& out, Workspace& ws,
                    const FlatNeighborhood* flat, Mem mem,
                    trace::StageRecorder& prec) const;

  /// Stages 1 and 2a of a round: fills ws.bases and leaves ws.records
  /// sorted by diagonal key. `flat` is the query's pre-built flattened
  /// neighbor table, or nullptr for the classic two-level scan (scalar
  /// kernel / traced runs). With a non-null flat and a vector kernel, stage
  /// 1 runs the query-specialized hit-scan kernels; hits, pairs, and record
  /// order are bit-identical. Marks the start of both stages on `prec`.
  template <typename Mem>
  void detect_and_sort(std::span<const Residue> query,
                       const DbBlockView& block, StageStats& stats,
                       Workspace& ws, const FlatNeighborhood* flat, Mem mem,
                       trace::StageRecorder& prec) const;

  /// Stage 2b over `records`, a key-sorted run of a round's records that
  /// starts at a key change (all of them, or one chunk of a split round),
  /// with the round's key `bases`. Appends to `out` what the same records
  /// give in one sweep over the round.
  template <typename Mem>
  void ungapped_sweep(std::span<const Residue> query, const DbBlockView& block,
                      std::span<const HitRecord> records,
                      std::span<const std::uint32_t> bases, StageStats& stats,
                      std::vector<UngappedAlignment>& out, Mem mem) const;

  template <typename Mem>
  QueryResult search_impl(std::span<const Residue> query, Mem mem,
                          trace::StageRecorder prec) const;

  void sort_records(std::vector<HitRecord>& records, int key_bits) const;

  /// The n of the K*m*n E-value search space: the whole-database override
  /// when set (member sets), the view's total otherwise.
  std::size_t statistical_db_residues() const {
    return options_.effective_db_residues != 0
               ? static_cast<std::size_t>(options_.effective_db_residues)
               : view_.total_residues();
  }

  DbIndexView view_;
  NeighborTable neighbors_;  ///< of view_.config()'s matrix and threshold
  SearchParams params_;
  MuBlastpOptions options_;
  KarlinParams karlin_;
};

}  // namespace mublastp
