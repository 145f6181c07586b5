#include "sort/radix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "common/rng.hpp"

namespace mublastp {
namespace {

// Key-value record: sorts must be stable in `seq` for equal `key`.
struct Rec {
  std::uint32_t key;
  std::uint32_t seq;
  bool operator==(const Rec&) const = default;
};

using SortFn = void (*)(std::vector<Rec>&, int);

void lsd(std::vector<Rec>& v, int bits) {
  sorting::radix_sort_lsd(v, [](const Rec& r) { return r.key; }, bits);
}
void msd(std::vector<Rec>& v, int bits) {
  sorting::radix_sort_msd(v, [](const Rec& r) { return r.key; }, bits);
}
void mrg(std::vector<Rec>& v, int /*bits*/) {
  sorting::merge_sort(v, [](const Rec& r) { return r.key; });
}

std::vector<Rec> make_random(std::size_t n, std::uint32_t key_range,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Rec> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {static_cast<std::uint32_t>(rng.next_below(key_range)),
            static_cast<std::uint32_t>(i)};
  }
  return v;
}

std::vector<Rec> reference_sorted(std::vector<Rec> v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  return v;
}

struct Case {
  const char* name;
  SortFn fn;
};

// gtest lists GetParam() next to each test name; its default byte dump would
// show the pointers, which differ from run to run under ASLR.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class StableSorts : public ::testing::TestWithParam<Case> {};

TEST_P(StableSorts, EmptyAndSingle) {
  std::vector<Rec> v;
  GetParam().fn(v, 32);
  EXPECT_TRUE(v.empty());
  v = {{5, 0}};
  GetParam().fn(v, 32);
  EXPECT_EQ(v, (std::vector<Rec>{{5, 0}}));
}

TEST_P(StableSorts, MatchesStdStableSortOnRandomData) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::size_t n : {2u, 10u, 255u, 256u, 1000u, 50000u}) {
      auto v = make_random(n, 1000, seed);
      const auto want = reference_sorted(v);
      GetParam().fn(v, 32);
      EXPECT_EQ(v, want) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST_P(StableSorts, StabilityWithFewDistinctKeys) {
  // Many duplicates: stability is the load-bearing property for hit
  // reordering (query offsets must stay ordered within a diagonal).
  auto v = make_random(20000, 7, 99);
  const auto want = reference_sorted(v);
  GetParam().fn(v, 8);
  EXPECT_EQ(v, want);
}

TEST_P(StableSorts, AlreadySorted) {
  std::vector<Rec> v;
  for (std::uint32_t i = 0; i < 5000; ++i) v.push_back({i, i});
  const auto want = v;
  GetParam().fn(v, 32);
  EXPECT_EQ(v, want);
}

TEST_P(StableSorts, ReverseSorted) {
  std::vector<Rec> v;
  for (std::uint32_t i = 0; i < 5000; ++i) v.push_back({5000 - i, i});
  const auto want = reference_sorted(v);
  GetParam().fn(v, 32);
  EXPECT_EQ(v, want);
}

TEST_P(StableSorts, AllEqualKeysKeepInputOrder) {
  std::vector<Rec> v;
  for (std::uint32_t i = 0; i < 1000; ++i) v.push_back({42, i});
  const auto want = v;
  GetParam().fn(v, 32);
  EXPECT_EQ(v, want);
}

TEST_P(StableSorts, FullKeyRangeIncludingExtremes) {
  std::vector<Rec> v = {{~0u, 0}, {0, 1}, {1u << 31, 2}, {~0u, 3}, {0, 4}};
  const auto want = reference_sorted(v);
  GetParam().fn(v, 32);
  EXPECT_EQ(v, want);
}

INSTANTIATE_TEST_SUITE_P(
    Algos, StableSorts,
    ::testing::Values(Case{"lsd", &lsd}, Case{"msd", &msd},
                      Case{"merge", &mrg}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

TEST(RadixLsd, NarrowKeyBitsSkipHighPasses) {
  // With key_bits = 16 and keys < 2^16 the result must still be correct.
  auto v = make_random(10000, 1u << 16, 7);
  const auto want = reference_sorted(v);
  sorting::radix_sort_lsd(v, [](const Rec& r) { return r.key; }, 16);
  EXPECT_EQ(v, want);
}

TEST(RadixLsd, SupportsSixtyFourBitKeys) {
  Rng rng(11);
  struct R64 {
    std::uint64_t key;
    std::uint32_t seq;
    bool operator==(const R64&) const = default;
  };
  std::vector<R64> v(20000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = {rng.next_u64(), static_cast<std::uint32_t>(i)};
  }
  auto want = v;
  std::stable_sort(want.begin(), want.end(),
                   [](const R64& a, const R64& b) { return a.key < b.key; });
  sorting::radix_sort_lsd(v, [](const R64& r) { return r.key; });
  EXPECT_EQ(v, want);
}

TEST(RadixMsd, InsertionFallbackBoundary) {
  // Sizes straddling the insertion-sort threshold (32).
  for (const std::size_t n : {31u, 32u, 33u, 64u}) {
    auto v = make_random(n, 50, 13);
    const auto want = reference_sorted(v);
    sorting::radix_sort_msd(v, [](const Rec& r) { return r.key; }, 32);
    EXPECT_EQ(v, want) << "n=" << n;
  }
}


struct BinRec {
  std::uint32_t seq;
  std::uint32_t diag;
  std::uint32_t order;
  bool operator==(const BinRec&) const = default;
};

std::vector<BinRec> make_bin_records(std::size_t n, std::uint32_t seqs,
                                     std::uint32_t diags, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BinRec> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {static_cast<std::uint32_t>(rng.next_below(seqs)),
            static_cast<std::uint32_t>(rng.next_below(diags)),
            static_cast<std::uint32_t>(i)};
  }
  return v;
}

TEST(TwoLevelBin, MatchesStableSortBySeqThenDiag) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    auto v = make_bin_records(20000, 128, 512, seed);
    auto want = v;
    std::stable_sort(want.begin(), want.end(),
                     [](const BinRec& a, const BinRec& b) {
                       if (a.seq != b.seq) return a.seq < b.seq;
                       return a.diag < b.diag;
                     });
    sorting::two_level_bin(
        v, [](const BinRec& r) { return r.diag; }, 512,
        [](const BinRec& r) { return r.seq; }, 128);
    EXPECT_EQ(v, want) << "seed " << seed;
  }
}

TEST(TwoLevelBin, PreservesArrivalOrderWithinDiagonal) {
  // All records in one (seq, diag) cell: order field must stay ascending.
  std::vector<BinRec> v;
  for (std::uint32_t i = 0; i < 1000; ++i) v.push_back({3, 7, i});
  sorting::two_level_bin(
      v, [](const BinRec& r) { return r.diag; }, 16,
      [](const BinRec& r) { return r.seq; }, 8);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i].order, i);
}

TEST(TwoLevelBin, EmptyAndSingle) {
  std::vector<BinRec> v;
  sorting::two_level_bin(
      v, [](const BinRec& r) { return r.diag; }, 4,
      [](const BinRec& r) { return r.seq; }, 4);
  EXPECT_TRUE(v.empty());
  v = {{1, 2, 0}};
  sorting::two_level_bin(
      v, [](const BinRec& r) { return r.diag; }, 4,
      [](const BinRec& r) { return r.seq; }, 4);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].order, 0u);
}

}  // namespace
}  // namespace mublastp
