// Database-indexed BLASTP with the *original* interleaved heuristics — the
// "NCBI-db" baseline of the paper (Section III + Section II-B).
//
// Hit detection scans the query top-to-bottom against the block's position
// lists and triggers ungapped extension immediately on every two-hit pair.
// Because a word's position list spans many subject fragments, consecutive
// extensions jump between unrelated subjects and last-hit regions: this is
// the irregular engine whose LLC/TLB behaviour Figure 2 profiles and whose
// block-size sensitivity Figure 8 shows. It exists to be measured against —
// and to validate that muBLASTP's reordering does not change results.
#pragma once

#include "core/params.hpp"
#include "core/results.hpp"
#include "core/two_hit.hpp"
#include "index/db_index_view.hpp"
#include "index/flat_lookup.hpp"
#include "index/neighbor.hpp"
#include "memsim/memsim.hpp"
#include "score/karlin.hpp"
#include "simd/dispatch.hpp"
#include "stats/stats.hpp"

namespace mublastp {

namespace trace {
class StageRecorder;
}

/// Interleaved database-indexed engine ("NCBI-db").
class InterleavedDbEngine {
 public:
  /// The index behind `index` (owned DbIndex or MappedDbIndex — both
  /// convert implicitly) must outlive the engine. `kernel` selects the
  /// hit-lookup and banded gapped-extension kernels. Results are
  /// bit-identical for every path, and traced runs always use the scalar
  /// kernel. The engine builds its neighbor table from the index's matrix
  /// and threshold.
  explicit InterleavedDbEngine(DbIndexView index, SearchParams params = {},
                               simd::KernelPath kernel
                               = simd::default_kernel());

  /// Searches one query (all blocks, all four stages).
  QueryResult search(std::span<const Residue> query) const;

  /// Same search with pipeline telemetry collected into `ps`. Detection and
  /// ungapped extension are fused here, so the whole stage-1/2 scan is
  /// booked under the hit_detect stage.
  QueryResult search(std::span<const Residue> query,
                     stats::PipelineStats& ps) const;

  /// Same search with stage-1/2 accesses traced through `mem`.
  QueryResult search_traced(std::span<const Residue> query,
                            memsim::MemoryHierarchy& mem) const;

  /// OpenMP batch over queries; results do not depend on the thread count.
  /// A query shorter than one word gets an empty result; the first error
  /// of any other query is rethrown after the loop.
  std::vector<QueryResult> search_batch(const SequenceStore& queries,
                                        int threads) const;

  const DbIndexView& view() const { return view_; }
  const SearchParams& params() const { return params_; }
  simd::KernelPath kernel() const { return kernel_; }

 private:
  /// `flat` is the query's pre-built flattened neighbor table (vector
  /// kernels, never traced), or nullptr for the classic two-level scan.
  /// The per-entry fused hit/extend automaton is identical either way —
  /// the flat path only removes the lookup indirections and prefetches the
  /// next posting list — so results match bit for bit.
  template <typename Mem>
  void search_block(std::span<const Residue> query, const DbBlockView& block,
                    std::uint32_t block_id, StageStats& stats,
                    std::vector<UngappedAlignment>& out, DiagState& state,
                    const FlatNeighborhood* flat, Mem mem,
                    trace::StageRecorder& rec) const;

  template <typename Mem>
  QueryResult search_impl(std::span<const Residue> query, Mem mem,
                          trace::StageRecorder rec) const;

  DbIndexView view_;
  NeighborTable neighbors_;  ///< of view_.config()'s matrix and threshold
  SearchParams params_;
  simd::KernelPath kernel_;
  KarlinParams karlin_;
};

}  // namespace mublastp
