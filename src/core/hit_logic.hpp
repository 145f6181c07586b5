// Canonical per-hit logic shared by the interleaved engines.
//
// This is the automaton described in core/two_hit.hpp, fused with the
// extension kernel. The interleaved engines (query-indexed "NCBI" and
// database-indexed "NCBI-db") call process_hit directly for every word hit;
// muBLASTP executes the *same* state transitions but split across its
// pre-filter (pairing) and extension (coverage + extend) stages. The
// equivalence tests assert all paths produce identical stage-2 output.
//
// State transitions per hit at query offset q on diagonal key k
// (min = word length, A = two-hit window):
//   first hit on k            -> last_hit[k] <- q
//   q - last_hit[k] <  min    -> overlapping hit: ignored entirely
//   q - last_hit[k] >= min    -> last_hit[k] <- q; pair iff distance < A
//   if pair:
//     covered <- ext_reached[k] > q        -> no extension
//     else extend; on success (score >= cutoff) ext_reached[k] <- seg.q_end,
//          on failure ext_reached[k] <- q
#pragma once

#include <span>
#include <vector>

#include "core/params.hpp"
#include "core/two_hit.hpp"
#include "core/ungapped.hpp"
#include "memsim/memsim.hpp"

namespace mublastp {

/// Processes one word hit interleaved-style. `out` receives surviving
/// ungapped segments in subject-local coordinates.
template <typename Mem = memsim::NullMemoryModel>
inline void process_hit(DiagState& state, std::size_t key,
                        std::span<const Residue> query,
                        std::span<const Residue> subject, std::uint32_t qoff,
                        std::uint32_t soff, const ScoreMatrix& matrix,
                        const SearchParams& params, StageStats& stats,
                        std::vector<UngappedSeg>& out, Mem mem = {}) {
  ++stats.hits;
  const std::int32_t q = static_cast<std::int32_t>(qoff);
  const std::int32_t last = state.last_hit(key, mem);
  if (last != DiagState::kNone && q - last < params.two_hit_min) {
    return;  // overlaps the previous hit: ignored (NCBI semantics)
  }
  const bool paired =
      last != DiagState::kNone && (q - last) < params.two_hit_window;
  state.set_last_hit(key, q, mem);
  if (!paired) return;
  ++stats.hit_pairs;

  const std::int32_t reached = state.ext_reached(key, mem);
  if (reached != DiagState::kNone && reached > q) return;  // covered

  ++stats.extensions;
  const UngappedSeg seg = ungapped_extend(query, subject, qoff, soff, matrix,
                                          params.ungapped_xdrop, mem);
  if (seg.score >= params.ungapped_cutoff) {
    ++stats.ungapped_alignments;
    out.push_back(seg);
    state.set_ext_reached(key, static_cast<std::int32_t>(seg.q_end), mem);
  } else {
    state.set_ext_reached(key, q, mem);
  }
}

}  // namespace mublastp
