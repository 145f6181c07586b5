// Gapped extension (stage 3) and traceback (stage 4).
//
// A high-scoring ungapped segment seeds a gapped alignment: from an anchor
// pair inside the segment, two affine-gap X-drop dynamic programs extend
// left and right (NCBI's semi-gapped extension scheme). The DP visits an
// adaptive band per row — cells whose score falls more than `xdrop` below
// the running best are pruned, so cost scales with alignment quality, not
// sequence length. Traceback is optional: stage 3 runs score-only, stage 4
// re-runs the winners with the direction matrix recorded (mirroring NCBI,
// where traceback "realigns the top-scoring alignments").
//
// Gap model: a gap of length L costs gap_open + L * gap_extend (NCBI
// convention; opening a gap costs gap_open + gap_extend).
#pragma once

#include <span>
#include <string>

#include "common/alphabet.hpp"
#include "core/params.hpp"
#include "score/matrix.hpp"
#include "simd/kernels.hpp"

namespace mublastp {

/// One direction of a gapped extension: how far it got and its score.
struct GappedHalf {
  Score score = 0;          ///< best alignment score of this half (>= 0)
  std::uint32_t q_len = 0;  ///< query residues consumed by the best path
  std::uint32_t s_len = 0;  ///< subject residues consumed
  std::string ops;          ///< 'M'/'I'/'D' transcript (empty if !traceback)
};

/// Extends forward from (0,0): the alignment is anchored at the corner and
/// may end anywhere; score is the best cell found (>= 0 — the empty
/// extension is always available).
GappedHalf xdrop_extend(std::span<const Residue> a, std::span<const Residue> b,
                        const ScoreMatrix& matrix, Score gap_open,
                        Score gap_extend, Score xdrop, bool traceback);

/// Kernel-dispatched variant: score-only extensions route through the
/// tiered banded SIMD kernel (simd::xdrop_extend_banded) when `kernel` is
/// a vector path, falling back to the scalar DP when the kernel declines.
/// Traceback runs always use the scalar DP — transcripts are untouched by
/// kernel choice. Results are bit-identical to the scalar overload; tier
/// decisions are tallied into `counters` when non-null.
GappedHalf xdrop_extend(std::span<const Residue> a, std::span<const Residue> b,
                        const ScoreMatrix& matrix, Score gap_open,
                        Score gap_extend, Score xdrop, bool traceback,
                        simd::KernelPath kernel,
                        simd::GappedKernelCounters* counters = nullptr);

/// Seeds a full gapped alignment from an ungapped segment: anchors at the
/// segment midpoint and extends both ways. Returns coordinates in the same
/// frame as `ungapped`. `ops` is filled only when `traceback` is true.
GappedAlignment gapped_align(std::span<const Residue> query,
                             std::span<const Residue> subject,
                             const UngappedAlignment& ungapped,
                             const ScoreMatrix& matrix,
                             const SearchParams& params, bool traceback);

/// Kernel-dispatched variant of gapped_align; see the xdrop_extend
/// overload for the dispatch rules. `query_reversed`, when not empty, is
/// the whole query reversed: see gapped_align_at_anchor.
GappedAlignment gapped_align(std::span<const Residue> query,
                             std::span<const Residue> subject,
                             const UngappedAlignment& ungapped,
                             const ScoreMatrix& matrix,
                             const SearchParams& params, bool traceback,
                             simd::KernelPath kernel,
                             simd::GappedKernelCounters* counters = nullptr,
                             std::span<const Residue> query_reversed = {});

/// Runs the two-way X-drop extension from an explicit anchor pair (qm, sm).
/// Stage 4 uses this with the anchor recorded by gapped_align so traceback
/// reproduces the stage-3 alignment exactly.
GappedAlignment gapped_align_at_anchor(std::span<const Residue> query,
                                       std::span<const Residue> subject,
                                       std::uint32_t qm, std::uint32_t sm,
                                       const ScoreMatrix& matrix,
                                       const SearchParams& params,
                                       bool traceback);

/// Kernel-dispatched variant of gapped_align_at_anchor; see the
/// xdrop_extend overload for the dispatch rules. The left half extends
/// over the reversed query prefix [0, qm): with `query_reversed` (the
/// whole query reversed, built once by a caller that extends many anchors
/// on one query) that prefix is its last qm residues; without it the
/// prefix is copied and reversed per call. Results are identical.
GappedAlignment gapped_align_at_anchor(std::span<const Residue> query,
                                       std::span<const Residue> subject,
                                       std::uint32_t qm, std::uint32_t sm,
                                       const ScoreMatrix& matrix,
                                       const SearchParams& params,
                                       bool traceback, simd::KernelPath kernel,
                                       simd::GappedKernelCounters* counters
                                       = nullptr,
                                       std::span<const Residue> query_reversed
                                       = {});

/// Recomputes the raw score of a traceback transcript against the sequences
/// (verification helper used by tests and the output formatter).
Score score_of_transcript(std::span<const Residue> query,
                          std::span<const Residue> subject,
                          const GappedAlignment& aln,
                          const ScoreMatrix& matrix, Score gap_open,
                          Score gap_extend);

}  // namespace mublastp
