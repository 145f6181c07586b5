// Neighboring-word lookup table (paper Section III, Figure 3(b)).
//
// BLASTP hit detection matches a word w against both w itself and all
// "neighboring" words w' whose aligned word-pair score sum_i M(w[i], w'[i])
// reaches the threshold T (default 11 with BLOSUM62). Database indexes that
// materialize neighbor *positions* blow up by the average neighborhood size;
// the paper instead stores positions only for exact words and keeps a
// second, tiny table mapping each word to its neighbor words. Hit detection
// does one extra indirection per query word in exchange for a dramatically
// smaller index.
//
// Note the NCBI subtlety preserved here: a word is its own neighbor only if
// its self-score reaches T, so low-complexity words (e.g. containing X) may
// match nothing, exactly as in NCBI-BLAST.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "score/matrix.hpp"

namespace mublastp {

/// Default neighbor threshold T for BLASTP with BLOSUM62.
inline constexpr Score kDefaultNeighborThreshold = 11;

/// Word -> neighbor-words table in CSR form.
class NeighborTable {
 public:
  /// Builds the table for all kNumWords words in one pass, walking each
  /// position through per-residue column bitmasks: ~5 ms for BLOSUM62 at
  /// T = 11 on one x86-64 core. Every index build and open runs it.
  NeighborTable(const ScoreMatrix& matrix, Score threshold);

  /// Neighbor word keys of `word` (sorted ascending; includes `word` itself
  /// iff its self-score >= threshold).
  std::span<const std::uint32_t> neighbors(std::uint32_t word) const {
    return {flat_.data() + offsets_[word],
            offsets_[word + 1] - offsets_[word]};
  }

  /// The threshold T this table was built with.
  Score threshold() const { return threshold_; }

  /// Total number of (word, neighbor) pairs — table footprint metric.
  std::size_t total_neighbors() const { return flat_.size(); }

  /// Score of aligning two words under the build matrix (exposed for tests).
  static Score word_pair_score(const ScoreMatrix& matrix, std::uint32_t a,
                               std::uint32_t b);

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> flat_;
  Score threshold_;
};

}  // namespace mublastp
