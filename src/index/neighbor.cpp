#include "index/neighbor.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace mublastp {

// The build walks a word's three positions directly and keeps one column
// set per (residue, score) in a 32-bit mask.
static_assert(kWordLength == 3, "the neighbor walk is written for W = 3");
static_assert(kAlphabetSize <= 32, "column sets are 32-bit masks");

Score NeighborTable::word_pair_score(const ScoreMatrix& matrix,
                                     std::uint32_t a, std::uint32_t b) {
  std::array<Residue, kWordLength> wa{};
  std::array<Residue, kWordLength> wb{};
  unpack_word(a, wa.data());
  unpack_word(b, wb.data());
  Score s = 0;
  for (int i = 0; i < kWordLength; ++i) s += matrix(wa[i], wb[i]);
  return s;
}

NeighborTable::NeighborTable(const ScoreMatrix& matrix, Score threshold)
    : threshold_(threshold) {
  const Score lo = matrix.min_score();
  const Score hi = matrix.max_score();
  // Every threshold at or below 3*lo admits all words and every threshold
  // above 3*hi admits none, so clamping changes nothing and keeps the
  // arithmetic below far from overflow.
  const Score t = std::clamp(threshold, 3 * lo, 3 * hi + 1);

  // at_least[z * span + (s - lo)] is the set of columns c with
  // M[z][c] >= s, for s in [lo, hi + 1]; the last entry is the empty set.
  // cells[s - lo] counts the matrix cells scoring exactly s.
  const int span = hi - lo + 2;
  std::vector<std::uint32_t> at_least(
      static_cast<std::size_t>(kAlphabetSize) * span, 0);
  std::vector<std::size_t> cells(static_cast<std::size_t>(span), 0);
  std::array<Score, kAlphabetSize> row_max{};
  for (int z = 0; z < kAlphabetSize; ++z) {
    const auto row = matrix.row(static_cast<Residue>(z));
    std::uint32_t* const sets =
        at_least.data() + static_cast<std::size_t>(z) * span;
    for (int c = 0; c < kAlphabetSize; ++c) {
      const Score m = row[static_cast<std::size_t>(c)];
      for (Score s = lo; s <= m; ++s) sets[s - lo] |= std::uint32_t{1} << c;
      ++cells[static_cast<std::size_t>(m - lo)];
    }
    row_max[static_cast<std::size_t>(z)] =
        *std::max_element(row.begin(), row.end());
  }
  const auto index_of = [&](Score s) {
    return static_cast<std::size_t>(std::clamp(s - lo, 0, span - 1));
  };
  const auto columns_reaching = [&](Residue z, Score s) {
    return at_least[static_cast<std::size_t>(z) * span + index_of(s)];
  };

  // The table holds one entry per triple of matrix cells (x,a), (y,b),
  // (z,c) whose scores sum to at least t, so its size follows from the
  // score histogram alone: reach[s - lo] counts the cells scoring at least
  // s. Allocating once keeps the build from re-copying and page-faulting a
  // growing array.
  std::vector<std::size_t> reach(static_cast<std::size_t>(span), 0);
  for (int i = span - 2; i >= 0; --i) reach[i] = reach[i + 1] + cells[i];
  std::size_t total = 0;
  for (Score u = lo; u <= hi; ++u) {
    for (Score v = lo; v <= hi; ++v) {
      total += cells[index_of(u)] * cells[index_of(v)] *
               reach[index_of(t - u - v)];
    }
  }
  flat_.reserve(total);

  // One pass in key order. For word (x, y, z), a runs over the columns of
  // row x that can still reach T with the best of rows y and z, b over
  // those of row y that can with the best of row z, and c over the columns
  // of row z that close the gap; each set is walked lowest bit first. The
  // keys a*24^2 + b*24 + c therefore come out ascending, and each word's
  // list ends where the next one starts.
  offsets_.resize(static_cast<std::size_t>(kNumWords) + 1);
  offsets_[0] = 0;
  constexpr auto kA = static_cast<std::uint32_t>(kAlphabetSize);
  std::array<Residue, kWordLength> w{};
  for (std::uint32_t word = 0; word < static_cast<std::uint32_t>(kNumWords);
       ++word) {
    unpack_word(word, w.data());
    const auto rx = matrix.row(w[0]);
    const auto ry = matrix.row(w[1]);
    const Score best_z = row_max[w[2]];
    for (std::uint32_t as = columns_reaching(w[0], t - row_max[w[1]] - best_z);
         as != 0; as &= as - 1) {
      const auto a = static_cast<std::uint32_t>(std::countr_zero(as));
      const Score need = t - rx[a];
      for (std::uint32_t bs = columns_reaching(w[1], need - best_z); bs != 0;
           bs &= bs - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(bs));
        const std::uint32_t base = (a * kA + b) * kA;
        for (std::uint32_t cs = columns_reaching(w[2], need - ry[b]); cs != 0;
             cs &= cs - 1) {
          flat_.push_back(base +
                          static_cast<std::uint32_t>(std::countr_zero(cs)));
        }
      }
    }
    offsets_[word + 1] = static_cast<std::uint32_t>(flat_.size());
  }
}

}  // namespace mublastp
