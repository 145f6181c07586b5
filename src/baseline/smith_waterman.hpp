// Smith-Waterman reference implementation.
//
// The optimal local-alignment algorithm BLAST approximates (paper Section
// II-A). Used as the ground truth in sensitivity tests: every heuristic
// alignment's score must be <= the Smith-Waterman optimum, and planted
// strong homologies must be found by the heuristics with scores close to
// it. Quadratic time/space — test-scale inputs only.
#pragma once

#include <span>
#include <string>

#include "common/alphabet.hpp"
#include "score/matrix.hpp"
#include "simd/dispatch.hpp"

namespace mublastp {

/// Optimal local alignment result.
struct SwAlignment {
  Score score = 0;  ///< 0 means no positive-scoring local alignment exists
  std::uint32_t q_start = 0;
  std::uint32_t q_end = 0;  ///< exclusive
  std::uint32_t s_start = 0;
  std::uint32_t s_end = 0;  ///< exclusive
  std::string ops;          ///< 'M'/'I'/'D' transcript ('I' = gap in subject)
};

/// Affine-gap Smith-Waterman (gap of length L costs open + L * extend, the
/// same convention as the gapped extension kernel). Full DP with traceback.
SwAlignment smith_waterman(std::span<const Residue> query,
                           std::span<const Residue> subject,
                           const ScoreMatrix& matrix, Score gap_open,
                           Score gap_extend);

/// Score-only affine-gap Smith-Waterman with rolling rows: O(min memory),
/// no traceback. Used where only the optimum matters (statistics
/// simulation, large property sweeps).
Score smith_waterman_score(std::span<const Residue> query,
                           std::span<const Residue> subject,
                           const ScoreMatrix& matrix, Score gap_open,
                           Score gap_extend);

/// Same score through the selected kernel: AVX2 runs the Farrar
/// striped int16 kernel, falling back to the scalar rolling-row code when
/// the kernel declines (kScalar, empty input, or the int16 saturation
/// guard). The returned score is identical for every path.
Score smith_waterman_score(std::span<const Residue> query,
                           std::span<const Residue> subject,
                           const ScoreMatrix& matrix, Score gap_open,
                           Score gap_extend, simd::KernelPath kernel);

/// Score-only ungapped Smith-Waterman (best diagonal run), used to validate
/// the ungapped extension kernel's scores.
Score best_ungapped_score(std::span<const Residue> query,
                          std::span<const Residue> subject,
                          const ScoreMatrix& matrix);

}  // namespace mublastp
