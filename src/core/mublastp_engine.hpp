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
// so all threads share the block in the LLC.
#pragma once

#include <functional>
#include <vector>

#include "core/hit_record.hpp"
#include "core/params.hpp"
#include "core/results.hpp"
#include "core/two_hit.hpp"
#include "index/flat_lookup.hpp"
#include "index/db_index_view.hpp"
#include "memsim/memsim.hpp"
#include "score/karlin.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "stats/stats.hpp"

namespace mublastp {

namespace trace {
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
  /// the index's own total when nonzero. Sharded execution sets this to the
  /// COMBINED database size so every shard's E-values (and the E-value
  /// cutoff) are computed over the same n as an unsharded run — the
  /// prerequisite for merged output being bit-identical. 0 (the default)
  /// keeps the single-index behaviour: n = view.total_residues().
  std::uint64_t effective_db_residues = 0;

  /// Whole-batch workspace budget (bytes; 0 = none), split evenly across
  /// worker threads. A workspace whose retained footprint exceeds its share
  /// after a round releases its buffers (capacities regrow on demand), so
  /// results are unchanged — only the high-water retention is bounded. Each
  /// release counts one mem_budget_trip in DegradedStats.
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
  /// The index behind `index` (owned DbIndex or MappedDbIndex — both
  /// convert implicitly) must outlive the engine.
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
  /// When `ps` is non-null, telemetry is collected into it: per-thread
  /// accumulators are merged at each block's end, so all counters are
  /// identical for any thread count.
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
  /// When `tracer` is non-null, every stage boundary is additionally
  /// recorded as a span (per-thread ring buffers, drained at the same
  /// serial point that merges `ps`).
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
  /// Per-thread scratch reused across (block, query) rounds. Vector
  /// capacities (and the DiagState backing array) are deliberately carried
  /// across blocks; records_hwm keeps the hit buffer reservation at its
  /// high-water mark so later blocks never regrow it incrementally.
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

  /// `flat` is the query's pre-built flattened neighbor table, or nullptr
  /// for the classic two-level scan (scalar kernel / traced runs). With a
  /// non-null flat and a vector kernel, stage 1 runs the query-specialized
  /// hit-scan kernels; hits, pairs, and record order are bit-identical.
  template <typename Mem, typename Rec>
  void search_block(std::span<const Residue> query, const DbBlockView& block,
                    std::uint32_t block_id, StageStats& stats,
                    std::vector<UngappedAlignment>& out, Workspace& ws,
                    const FlatNeighborhood* flat, Mem mem, Rec rec) const;

  template <typename Mem, typename Rec>
  QueryResult search_impl(std::span<const Residue> query, Mem mem,
                          Rec rec) const;

  template <typename PS, bool Traced>
  std::vector<QueryResult> batch_impl(const SequenceStore& queries,
                                      int threads, PS* ps,
                                      stats::DegradedStats* degraded,
                                      trace::Tracer* tracer) const;

  void sort_records(std::vector<HitRecord>& records, int key_bits) const;

  /// The n of the K*m*n E-value search space: the combined-database
  /// override when set (sharded execution), the index total otherwise.
  std::size_t statistical_db_residues() const {
    return options_.effective_db_residues != 0
               ? static_cast<std::size_t>(options_.effective_db_residues)
               : view_.total_residues();
  }

  DbIndexView view_;
  SearchParams params_;
  MuBlastpOptions options_;
  KarlinParams karlin_;
};

}  // namespace mublastp
