#include "index/neighbor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace mublastp {
namespace {

const NeighborTable& table11() {
  static const NeighborTable t(blosum62(), 11);
  return t;
}

TEST(NeighborTable, WordPairScoreMatchesManualSum) {
  const std::uint32_t abc = word_from_string("ARN");
  const std::uint32_t xyz = word_from_string("RNA");
  const ScoreMatrix& m = blosum62();
  const Score want = m(encode_residue('A'), encode_residue('R')) +
                     m(encode_residue('R'), encode_residue('N')) +
                     m(encode_residue('N'), encode_residue('A'));
  EXPECT_EQ(NeighborTable::word_pair_score(m, abc, xyz), want);
}

TEST(NeighborTable, SelfScoreGovernsSelfMembership) {
  // AAA self-score = 3*4 = 12 >= 11: AAA is its own neighbor.
  const auto nb = table11().neighbors(word_from_string("AAA"));
  EXPECT_TRUE(std::binary_search(nb.begin(), nb.end(),
                                 word_from_string("AAA")));
  // XXX self-score = 3*(-1) = -3 < 11: no neighbors at all is expected for
  // a word of ambiguity codes.
  EXPECT_TRUE(table11().neighbors(word_from_string("XXX")).empty());
}

TEST(NeighborTable, EveryListedNeighborMeetsThreshold) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto w =
        static_cast<std::uint32_t>(rng.next_below(kNumWords));
    for (const std::uint32_t nb : table11().neighbors(w)) {
      EXPECT_GE(NeighborTable::word_pair_score(blosum62(), w, nb), 11);
    }
  }
}

TEST(NeighborTable, NoQualifyingWordIsMissing) {
  // Brute-force cross-check on a random sample of word pairs.
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const auto w = static_cast<std::uint32_t>(rng.next_below(kNumWords));
    const auto nbs = table11().neighbors(w);
    std::set<std::uint32_t> have(nbs.begin(), nbs.end());
    for (int j = 0; j < 500; ++j) {
      const auto cand =
          static_cast<std::uint32_t>(rng.next_below(kNumWords));
      const bool qualifies =
          NeighborTable::word_pair_score(blosum62(), w, cand) >= 11;
      EXPECT_EQ(have.contains(cand), qualifies)
          << word_to_string(w) << " vs " << word_to_string(cand);
    }
  }
}

TEST(NeighborTable, RelationIsSymmetric) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    const auto w = static_cast<std::uint32_t>(rng.next_below(kNumWords));
    for (const std::uint32_t nb : table11().neighbors(w)) {
      const auto back = table11().neighbors(nb);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), w))
          << word_to_string(w) << " <-> " << word_to_string(nb);
    }
  }
}

TEST(NeighborTable, NeighborListsAreSortedAndUnique) {
  for (std::uint32_t w = 0; w < static_cast<std::uint32_t>(kNumWords);
       w += 61) {
    const auto nbs = table11().neighbors(w);
    EXPECT_TRUE(std::is_sorted(nbs.begin(), nbs.end()));
    EXPECT_EQ(std::adjacent_find(nbs.begin(), nbs.end()), nbs.end());
  }
}

TEST(NeighborTable, HigherThresholdShrinksNeighborhoods) {
  const NeighborTable t13(blosum62(), 13);
  EXPECT_LT(t13.total_neighbors(), table11().total_neighbors());
  // And every T=13 neighbor is also a T=11 neighbor.
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    const auto w = static_cast<std::uint32_t>(rng.next_below(kNumWords));
    const auto strict = t13.neighbors(w);
    const auto loose = table11().neighbors(w);
    EXPECT_TRUE(std::includes(loose.begin(), loose.end(), strict.begin(),
                              strict.end()));
  }
}

TEST(NeighborTable, ThresholdAccessor) {
  EXPECT_EQ(table11().threshold(), 11);
  EXPECT_EQ(kDefaultNeighborThreshold, 11);
}

TEST(NeighborTable, TotalSizeIsPlausible) {
  // With T=11 and BLOSUM62 the average neighborhood is tens of words;
  // guard against both under-enumeration and exploding tables.
  const double avg =
      static_cast<double>(table11().total_neighbors()) / kNumWords;
  EXPECT_GT(avg, 5.0);
  EXPECT_LT(avg, 200.0);
}

TEST(NeighborTable, HighScoringWordHasItselfAndVariants) {
  // WWW self-score 33: plenty of neighbors including itself.
  const auto nbs = table11().neighbors(word_from_string("WWW"));
  EXPECT_FALSE(nbs.empty());
  EXPECT_TRUE(std::binary_search(nbs.begin(), nbs.end(),
                                 word_from_string("WWW")));
  // WWF: W/W + W/W + W/F = 11+11+1 = 23 >= 11.
  EXPECT_TRUE(std::binary_search(nbs.begin(), nbs.end(),
                                 word_from_string("WWF")));
}

// Brute force: every one of the kNumWords candidates, in key order.
std::vector<std::uint32_t> scan_neighbors(const ScoreMatrix& m,
                                          std::uint32_t word, Score t) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t cand = 0; cand < static_cast<std::uint32_t>(kNumWords);
       ++cand) {
    if (NeighborTable::word_pair_score(m, word, cand) >= t) {
      out.push_back(cand);
    }
  }
  return out;
}

TEST(NeighborTable, MatchesPinnedCountsAndBruteForceLists) {
  // Totals pinned from the two-pass depth-first build this table replaced;
  // each list must also equal an ascending scan of all candidates. T stays
  // at 9 or above: a table at low T runs to hundreds of MB.
  struct Case {
    const ScoreMatrix* matrix;
    Score threshold;
    std::size_t total;
  };
  std::vector<Case> cases = {
      {&blosum62(), 9, 1241653}, {&blosum62(), 11, 500402},
      {&blosum62(), 13, 198852}, {&blosum50(), 9, 3213182},
      {&blosum50(), 11, 1803346}, {&blosum50(), 13, 924941},
      {&blosum80(), 9, 1296736}, {&blosum80(), 11, 563271},
      {&blosum80(), 13, 235961}, {&pam250(), 9, 2630555},
      {&pam250(), 11, 1574824}, {&pam250(), 13, 967349},
  };
  // Only (word, neighbor) pairs made of three top-scoring cells reach
  // 3*max, so there are k^3 of them for k such cells; nothing beats it.
  for (const ScoreMatrix* m : {&blosum62(), &blosum50(), &blosum80(),
                               &pam250()}) {
    std::size_t k = 0;
    for (int a = 0; a < kAlphabetSize; ++a) {
      for (int b = 0; b < kAlphabetSize; ++b) {
        k += (*m)(static_cast<Residue>(a), static_cast<Residue>(b)) ==
             m->max_score();
      }
    }
    cases.push_back({m, 3 * m->max_score(), k * k * k});
    cases.push_back({m, 3 * m->max_score() + 1, 0});
  }
  Rng rng(41);
  for (const Case& c : cases) {
    const std::string label = std::string(c.matrix->name()) + " T=" +
                              std::to_string(c.threshold);
    const NeighborTable table(*c.matrix, c.threshold);
    EXPECT_EQ(table.total_neighbors(), c.total) << label;
    for (int i = 0; i < 64; ++i) {
      const auto w = static_cast<std::uint32_t>(rng.next_below(kNumWords));
      const auto got = table.neighbors(w);
      const std::vector<std::uint32_t> want =
          scan_neighbors(*c.matrix, w, c.threshold);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << label << ", word " << word_to_string(w);
    }
  }
}

}  // namespace
}  // namespace mublastp
