#include "baseline/interleaved_engine.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/diag_keys.hpp"
#include "core/fragment_assembly.hpp"
#include "core/hit_logic.hpp"
#include "trace/trace.hpp"

namespace mublastp {
namespace {

// Validates before any member initializer dereferences params.matrix.
const SearchParams& checked_params(const SearchParams& p) {
  p.validate();
  return p;
}

}  // namespace

InterleavedDbEngine::InterleavedDbEngine(DbIndexView index,
                                         SearchParams params,
                                         simd::KernelPath kernel)
    : view_(std::move(index)),
      neighbors_(*view_.config().matrix, view_.config().neighbor_threshold),
      params_(checked_params(params)),
      kernel_(kernel),
      karlin_(gapped_params(*params.matrix, params.gap_open,
                            params.gap_extend)) {
  MUBLASTP_CHECK(params_.matrix == view_.config().matrix,
                 "search matrix must match the index's neighbor matrix");
}

template <typename Mem>
void InterleavedDbEngine::search_block(std::span<const Residue> query,
                                       const DbBlockView& block,
                                       std::uint32_t block_id,
                                       StageStats& stats,
                                       std::vector<UngappedAlignment>& out,
                                       DiagState& state,
                                       const FlatNeighborhood* flat, Mem mem,
                                       trace::StageRecorder& rec) const {
  const ScoreMatrix& matrix = *params_.matrix;
  const DbIndexView::Member& db = view_.members()[block.member()];
  const NeighborTable& neighbors = neighbors_;
  const StageStats before = stats;
  rec.mark();

  // One diagonal-state slot per (fragment, diagonal) — the "multiple last
  // hit arrays, one for each subject sequence" of Section II-B. Fragment f
  // owns the dense key range [bases[f], bases[f+1]).
  const std::uint32_t qlen = static_cast<std::uint32_t>(query.size());
  std::vector<std::uint32_t> bases;
  state.resize(diagonal_key_bases(block.fragments(), qlen, bases));
  state.new_round(static_cast<std::int32_t>(qlen) + 1);

  std::vector<UngappedSeg> segs;

  // One posting list's worth of the fused scan. Interleaved: the extension
  // runs right inside process_hit, touching this fragment's residues while
  // the scan is somewhere else entirely.
  const auto scan_list = [&](std::uint32_t qoff,
                             std::span<const std::uint32_t> entries) {
    for (const std::uint32_t entry : entries) {
      const std::uint32_t local = block.entry_fragment(entry);
      const std::uint32_t soff = block.entry_offset(entry);
      const FragmentRef& frag = block.fragments()[local];
      const std::span<const Residue> subject =
          db.sequence(frag.seq).subspan(frag.start, frag.len);
      const std::size_t key =
          bases[local] +
          static_cast<std::size_t>(static_cast<std::int64_t>(soff) - qoff +
                                   qlen);
      segs.clear();
      process_hit(state, key, query, subject, qoff, soff, matrix, params_,
                  stats, segs, mem);
      for (const UngappedSeg& seg : segs) {
        out.push_back(resolve_fragment_segment(query, db, frag, seg, qoff,
                                               soff, matrix, params_));
        out.back().subject += db.first_seq;
      }
    }
  };

  if (flat != nullptr) {
    // Query-specialized scan: the flattened table replaces word_key + the
    // neighbor indirection, and the next posting list is prefetched while
    // the current one (and its interleaved extensions) runs.
    const std::uint32_t npos = flat->positions();
    for (std::uint32_t qoff = 0; qoff < npos; ++qoff) {
      const auto words = flat->words(qoff);
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        if (wi + 1 < words.size()) {
          __builtin_prefetch(block.entries(words[wi + 1]).data());
        }
        scan_list(qoff, block.entries(words[wi]));
      }
    }
  } else {
    for (std::uint32_t qoff = 0; qoff + kWordLength <= query.size(); ++qoff) {
      if constexpr (Mem::kEnabled) {
        mem.touch(query.data() + qoff, kWordLength);
      }
      const std::uint32_t w = word_key(query.data() + qoff);
      const auto nbs = neighbors.neighbors(w);
      if constexpr (Mem::kEnabled) {
        mem.touch(nbs.data(), nbs.size_bytes());
      }
      for (const std::uint32_t nb : nbs) {
        const auto entries = block.entries(nb);
        if constexpr (Mem::kEnabled) {
          mem.touch(entries.data(), entries.size_bytes());
        }
        scan_list(qoff, entries);
      }
    }
  }
  // Interleaved scan: detection, pairing and ungapped extension are one
  // fused loop, so its one mark books all of it under hit_detect.
  rec.block_round(block_id, stats::counters_between(stats, before));
}

template <typename Mem>
QueryResult InterleavedDbEngine::search_impl(std::span<const Residue> query,
                                             Mem mem,
                                             trace::StageRecorder rec) const {
  MUBLASTP_CHECK(query.size() >= static_cast<std::size_t>(kWordLength),
                 "query shorter than word length");
  // The baseline engines have no degraded mode: an injected fault here
  // fails the search with a typed error, exercising the clean-failure path.
  MUBLASTP_CHECK_KIND(!MUBLASTP_FI_FAIL("alloc.workspace"),
                      ErrorKind::kResource,
                      "injected workspace allocation failure"
                      " (alloc.workspace)");
  MUBLASTP_CHECK(!MUBLASTP_FI_FAIL("stage.ungapped"),
                 "injected ungapped-stage failure (stage.ungapped)");
  QueryResult result;
  std::vector<UngappedAlignment> ungapped;
  DiagState state;
  // Query-setup: flatten the neighbor lookup once per query with a vector
  // kernel selected; traced runs keep the classic scan's access stream.
  FlatNeighborhood flat;
  const FlatNeighborhood* flatp = nullptr;
  if constexpr (!Mem::kEnabled) {
    if (kernel_ != simd::KernelPath::kScalar) {
      rec.mark();
      flat.build(query, neighbors_);
      flatp = &flat;
      rec.flatten(1);
    }
  }
  std::uint32_t block_id = 0;
  for (const DbBlockView& block : view_.blocks()) {
    search_block(query, block, block_id++, result.stats, ungapped, state,
                 flatp, mem, rec);
  }

  // Remap sorted-store ids to the caller's original database ids.
  for (UngappedAlignment& u : ungapped) {
    u.subject = view_.original_id(u.subject);
  }
  canonicalize_ungapped(ungapped);
  result.ungapped = ungapped;

  const ScoreMatrix& matrix = *params_.matrix;
  const SubjectLookup lookup = [this](SeqId original) {
    return view_.sequence(view_.sorted_id(original));
  };
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
                     karlin_, view_.total_residues());
  rec.stage(stats::Stage::kFinalize, {});
  return result;
}

QueryResult InterleavedDbEngine::search(std::span<const Residue> query) const {
  return search_impl(query, memsim::NullMemoryModel{}, {});
}

QueryResult InterleavedDbEngine::search(std::span<const Residue> query,
                                        stats::PipelineStats& ps) const {
  ps.begin_run(1, view_.blocks().size(), 1);
  ps.set_kernel(simd::kernel_name(kernel_));
  Timer total;
  QueryResult result = search_impl(query, memsim::NullMemoryModel{},
                                   {&ps, 0, nullptr, trace::kNoId});
  ps.set_gapped_kernel(stats::gapped_kernel_of(result.stats));
  ps.finish_run(total.seconds());
  return result;
}

QueryResult InterleavedDbEngine::search_traced(
    std::span<const Residue> query, memsim::MemoryHierarchy& mem) const {
  return search_impl(query, memsim::TracingMemoryModel(mem), {});
}

std::vector<QueryResult> InterleavedDbEngine::search_batch(
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
