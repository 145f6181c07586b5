#include "baseline/query_engine.hpp"

#include <algorithm>
#include <exception>
#include <memory>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/hit_logic.hpp"
#include "index/dfa_index.hpp"
#include "index/query_index.hpp"
#include "trace/trace.hpp"

namespace mublastp {
namespace {

// Validates before any member initializer dereferences params.matrix.
const SearchParams& checked_params(const SearchParams& p) {
  p.validate();
  return p;
}

}  // namespace

QueryIndexedEngine::QueryIndexedEngine(const SequenceStore& db,
                                       SearchParams params,
                                       Score neighbor_threshold,
                                       Detector detector,
                                       simd::KernelPath kernel)
    : db_(&db),
      params_(checked_params(params)),
      neighbors_(*params.matrix, neighbor_threshold),
      karlin_(gapped_params(*params.matrix, params.gap_open,
                            params.gap_extend)),
      detector_(detector),
      kernel_(kernel) {
  MUBLASTP_CHECK(!db.empty(), "database is empty");
  for (SeqId id = 0; id < db.size(); ++id) {
    max_subject_len_ = std::max(max_subject_len_, db.length(id));
  }
}

template <typename Mem>
QueryResult QueryIndexedEngine::search_impl(std::span<const Residue> query,
                                            Mem mem,
                                            trace::StageRecorder rec) const {
  MUBLASTP_CHECK(query.size() >= static_cast<std::size_t>(kWordLength),
                 "query shorter than word length");
  // No degraded mode in the baselines: injected faults fail the search
  // with a typed error (the clean-failure recovery path).
  MUBLASTP_CHECK_KIND(!MUBLASTP_FI_FAIL("alloc.workspace"),
                      ErrorKind::kResource,
                      "injected workspace allocation failure"
                      " (alloc.workspace)");
  MUBLASTP_CHECK(!MUBLASTP_FI_FAIL("stage.ungapped"),
                 "injected ungapped-stage failure (stage.ungapped)");
  rec.mark();
  QueryResult result;
  // Build only the detector in use; both materialize the same positions.
  const bool use_dfa = detector_ == Detector::kDfa;
  std::unique_ptr<QueryIndex> qidx;
  std::unique_ptr<DfaQueryIndex> dfa;
  if (use_dfa) {
    dfa = std::make_unique<DfaQueryIndex>(query, neighbors_);
  } else {
    qidx = std::make_unique<QueryIndex>(query, neighbors_);
  }
  const ScoreMatrix& matrix = *params_.matrix;

  // One last-hit table per query; subjects reuse it via O(1) epoch reset
  // (NCBI keeps exactly one diag array per query for the same reason).
  DiagState state;
  const std::size_t diag_range = query.size() + max_subject_len_;
  state.resize(diag_range);

  std::vector<UngappedSeg> segs;
  std::vector<UngappedAlignment> ungapped;

  const auto stride = static_cast<std::int32_t>(query.size()) + 1;
  for (SeqId sid = 0; sid < db_->size(); ++sid) {
    const std::span<const Residue> subject = db_->sequence(sid);
    if (subject.size() < static_cast<std::size_t>(kWordLength)) continue;
    state.new_round(stride);
    segs.clear();

    // Stream the subject, processing each (soff, qoff) hit through the
    // canonical two-hit automaton. Both detectors yield the same stream:
    // the table probes one word per position, the DFA emits per transition.
    const auto on_hit = [&](std::uint32_t soff, std::uint32_t qoff) {
      // Diagonal key: soff - qoff shifted to be non-negative.
      const std::size_t key =
          static_cast<std::size_t>(static_cast<std::int64_t>(soff) - qoff +
                                   static_cast<std::int64_t>(query.size()));
      process_hit(state, key, query, subject, qoff, soff, matrix, params_,
                  result.stats, segs, mem);
    };
    if (use_dfa) {
      dfa->scan(subject, on_hit);
    } else {
      for (std::uint32_t soff = 0;
           soff + kWordLength <= subject.size(); ++soff) {
        if constexpr (Mem::kEnabled) {
          mem.touch(subject.data() + soff, kWordLength);
        }
        const std::uint32_t w = word_key(subject.data() + soff);
        if (!qidx->contains(w)) continue;  // pv-array fast reject
        const auto positions = qidx->positions(w);
        if constexpr (Mem::kEnabled) {
          mem.touch(positions.data(), positions.size_bytes());
        }
        for (const std::uint32_t qoff : positions) {
          on_hit(soff, qoff);
        }
      }
    }

    for (const UngappedSeg& seg : segs) {
      ungapped.push_back({sid, seg.q_start, seg.q_end, seg.s_start, seg.s_end,
                          seg.score});
    }
  }

  // The subject stream (detection + pairing + ungapped extension fused)
  // is one scan over the whole database: booked as block 0, hit_detect.
  rec.block_round(0, stats::counters_of(result.stats));

  canonicalize_ungapped(ungapped);
  result.ungapped = ungapped;

  const SubjectLookup lookup = [this](SeqId id) { return db_->sequence(id); };
  const StageStats before = result.stats;
  rec.mark();
  // Traced runs keep the scalar gapped DP (exact access streams).
  const simd::KernelPath gapped_kernel =
      Mem::kEnabled ? simd::KernelPath::kScalar : kernel_;
  auto gapped = gapped_stage(query, lookup, std::move(ungapped), matrix,
                             params_, &result.stats, gapped_kernel);
  rec.stage(stats::Stage::kGapped,
            stats::counters_between(result.stats, before));
  result.alignments =
      finalize_stage(query, lookup, std::move(gapped), matrix, params_,
                     karlin_, db_->total_residues());
  rec.stage(stats::Stage::kFinalize, {});
  return result;
}

QueryResult QueryIndexedEngine::search(std::span<const Residue> query) const {
  return search_impl(query, memsim::NullMemoryModel{}, {});
}

QueryResult QueryIndexedEngine::search(std::span<const Residue> query,
                                       stats::PipelineStats& ps) const {
  ps.begin_run(1, 1, 1);
  ps.set_kernel(simd::kernel_name(kernel_));
  Timer total;
  QueryResult result = search_impl(query, memsim::NullMemoryModel{},
                                   {&ps, 0, nullptr, trace::kNoId});
  ps.set_gapped_kernel(stats::gapped_kernel_of(result.stats));
  ps.finish_run(total.seconds());
  return result;
}

QueryResult QueryIndexedEngine::search_traced(
    std::span<const Residue> query, memsim::MemoryHierarchy& mem) const {
  return search_impl(query, memsim::TracingMemoryModel(mem), {});
}

std::vector<QueryResult> QueryIndexedEngine::search_batch(
    const SequenceStore& queries, int threads) const {
  MUBLASTP_CHECK(threads > 0, "thread count must be positive");
  std::vector<QueryResult> results(queries.size());
  const std::exception_ptr error =
      parallel_tasks(threads, queries.size(), [&](std::size_t i) {
        const auto query = queries.sequence(static_cast<SeqId>(i));
        // A query too short for one word has no hits: an empty result, as
        // in the muBLASTP batch (search(q) rejects it).
        if (query.size() < static_cast<std::size_t>(kWordLength)) return;
        results[i] = search(query);
      });
  if (error != nullptr) std::rethrow_exception(error);
  return results;
}

}  // namespace mublastp
