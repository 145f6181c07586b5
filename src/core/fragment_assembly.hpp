// Assembly step for split long sequences (paper Section IV-A).
//
// Database-indexed engines operate on fragments of long sequences. An
// ungapped extension computed inside a fragment is exact unless it ran into
// a fragment boundary; in that case it is re-extended on the original
// sequence from the same hit anchor — the "assembly stage to extend the
// ungapped extension ... after finishing the extension inside each short
// sequence". Duplicates produced by overlapped fragment boundaries are
// removed later by canonicalize_ungapped().
#pragma once

#include <span>

#include "core/params.hpp"
#include "core/ungapped.hpp"
#include "index/db_index.hpp"
#include "score/matrix.hpp"

namespace mublastp {

/// Converts a fragment-local ungapped segment to whole-sequence coordinates,
/// re-extending across the boundary when the local extension was clipped.
/// `qoff`/`soff_local` anchor the hit that produced `seg`. `Db` is anything
/// with sequence(SeqId) -> span<const Residue> (SequenceStore, DbIndexView,
/// DbIndexView::Member).
template <typename Db>
UngappedAlignment resolve_fragment_segment(
    std::span<const Residue> query, const Db& db,
    const FragmentRef& frag, const UngappedSeg& seg, std::uint32_t qoff,
    std::uint32_t soff_local, const ScoreMatrix& matrix,
    const SearchParams& params) {
  const std::span<const Residue> full = db.sequence(frag.seq);
  const bool clipped_left = seg.s_start == 0 && frag.start > 0;
  const bool clipped_right =
      seg.s_end == frag.len && frag.start + frag.len < full.size();

  UngappedAlignment out;
  out.subject = frag.seq;  // sorted-store id; engines remap before emitting
  if (clipped_left || clipped_right) {
    const UngappedSeg re = ungapped_extend(
        query, full, qoff, frag.start + soff_local, matrix,
        params.ungapped_xdrop);
    out.q_start = re.q_start;
    out.q_end = re.q_end;
    out.s_start = re.s_start;
    out.s_end = re.s_end;
    out.score = re.score;
  } else {
    out.q_start = seg.q_start;
    out.q_end = seg.q_end;
    out.s_start = frag.start + seg.s_start;
    out.s_end = frag.start + seg.s_end;
    out.score = seg.score;
  }
  return out;
}

}  // namespace mublastp
