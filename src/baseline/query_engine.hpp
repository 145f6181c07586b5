// Query-indexed BLASTP engine — the "NCBI" baseline of the paper.
//
// Classic BLASTP flow: per query, build the NCBI-style lookup table
// (QueryIndex, with neighbor positions materialized, pv array and thick
// backbone), then stream every subject sequence left-to-right; each subject
// word probes the table and every hit is processed *interleaved* — pairing,
// ungapped extension and (later) gapped extension run immediately, exactly
// the execution the paper describes in Section II-B. Because subjects are
// processed one at a time, the working set is one subject plus one last-hit
// array, which is why this baseline is cache-friendly despite random
// accesses (the paper's Figure 2 premise).
#pragma once

#include <memory>

#include "core/params.hpp"
#include "core/results.hpp"
#include "index/neighbor.hpp"
#include "memsim/memsim.hpp"
#include "score/karlin.hpp"
#include "simd/dispatch.hpp"
#include "stats/stats.hpp"

namespace mublastp {

namespace trace {
class Tracer;
}

/// Query-indexed (NCBI-BLAST style) search engine.
class QueryIndexedEngine {
 public:
  /// How hit detection probes the query index.
  enum class Detector {
    kLookupTable,  ///< NCBI-style lookup table with pv array (default)
    kDfa,          ///< FSA-BLAST style DFA (one transition per residue)
  };

  /// `db` must outlive the engine. `neighbor_threshold` is the word pair
  /// threshold T. `kernel` selects the banded gapped-extension kernel.
  /// Results are bit-identical for every path, and traced runs always use
  /// scalar.
  QueryIndexedEngine(const SequenceStore& db, SearchParams params = {},
                     Score neighbor_threshold = kDefaultNeighborThreshold,
                     Detector detector = Detector::kLookupTable,
                     simd::KernelPath kernel = simd::default_kernel());

  /// Searches one query through all four stages.
  QueryResult search(std::span<const Residue> query) const;

  /// Same search with pipeline telemetry collected into `ps`. The engine
  /// has no index blocks; the whole database is booked as block 0, and the
  /// fused detect+extend scan as the hit_detect stage.
  QueryResult search(std::span<const Residue> query,
                     stats::PipelineStats& ps) const;

  /// Same search with every stage-1/2 data access traced through `mem`.
  QueryResult search_traced(std::span<const Residue> query,
                            memsim::MemoryHierarchy& mem) const;

  /// Searches a batch with OpenMP over queries ("-num_threads" behaviour).
  /// When `ps` is non-null, telemetry is collected and merged at run end.
  /// When `tracer` is non-null, stage spans are additionally recorded into
  /// it (flushed once at the end of the batch).
  std::vector<QueryResult> search_batch(const SequenceStore& queries,
                                        int threads,
                                        stats::PipelineStats* ps = nullptr,
                                        trace::Tracer* tracer
                                        = nullptr) const;

  const SequenceStore& db() const { return *db_; }
  const SearchParams& params() const { return params_; }
  const NeighborTable& neighbors() const { return neighbors_; }
  simd::KernelPath kernel() const { return kernel_; }

 private:
  template <typename Mem, typename Rec>
  QueryResult search_impl(std::span<const Residue> query, Mem mem,
                          Rec rec) const;

  template <typename PS, bool Traced>
  std::vector<QueryResult> batch_impl(const SequenceStore& queries,
                                      int threads, PS* ps,
                                      trace::Tracer* tracer) const;

  const SequenceStore* db_;
  SearchParams params_;
  NeighborTable neighbors_;
  KarlinParams karlin_;
  Detector detector_;
  simd::KernelPath kernel_;
  std::size_t max_subject_len_ = 0;
};

}  // namespace mublastp
