// SIMD subsystem tests: dispatch plumbing and bit-exactness of the striped
// Smith-Waterman kernel against the scalar reference on randomized and
// adversarial inputs. The vector-kernel tests skip on a CPU without AVX2
// (kernel_paths.hpp).
#include "simd/kernels.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "baseline/smith_waterman.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernel_paths.hpp"
#include "simd/dispatch.hpp"

namespace mublastp {
namespace {

std::vector<Residue> rand_seq(std::size_t len, Rng& rng) {
  std::vector<Residue> s(len);
  for (auto& r : s) r = static_cast<Residue>(rng.next_below(20));
  return s;
}

// ---- Dispatch -------------------------------------------------------------

TEST(SimdDispatch, NameParseRoundTrip) {
  for (const simd::KernelPath p : all_kernels()) {
    EXPECT_EQ(simd::parse_kernel(simd::kernel_name(p)), p);
  }
  // A path this CPU cannot run is refused when it is parsed.
  if (!simd::kernel_supported(simd::KernelPath::kAvx2)) {
    EXPECT_THROW(simd::parse_kernel("avx2"), Error);
  }
}

TEST(SimdDispatch, AutoResolvesToDetectedKernel) {
  EXPECT_EQ(simd::parse_kernel("auto"), simd::default_kernel());
}

TEST(SimdDispatch, RejectsUnknownName) {
  EXPECT_THROW(simd::parse_kernel("avx512"), Error);
  EXPECT_THROW(simd::parse_kernel("avx2+ungapped"), Error);
  EXPECT_THROW(simd::parse_kernel(""), Error);
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndDetectSupported) {
  EXPECT_TRUE(simd::kernel_supported(simd::KernelPath::kScalar));
  EXPECT_TRUE(simd::kernel_supported(simd::default_kernel()));
}

TEST(SimdDispatch, DefaultKernelIsAvx2WhereSupported) {
  EXPECT_EQ(simd::default_kernel(),
            simd::kernel_supported(simd::KernelPath::kAvx2)
                ? simd::KernelPath::kAvx2
                : simd::KernelPath::kScalar);
}

// ---- Striped Smith-Waterman -----------------------------------------------

TEST(SimdSmithWaterman, StripedMatchesScalarScore) {
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel on this CPU";
  Rng rng(47);
  for (const simd::KernelPath path : vector_kernels()) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto q = rand_seq(1 + rng.next_below(180), rng);
      const auto s = rand_seq(1 + rng.next_below(180), rng);
      const Score want = smith_waterman_score(q, s, blosum62(), 11, 1);
      const auto got =
          simd::smith_waterman_score_striped(path, q, s, blosum62(), 11, 1);
      ASSERT_TRUE(got.has_value()) << simd::kernel_name(path);
      EXPECT_EQ(*got, want) << simd::kernel_name(path);
    }
  }
}

TEST(SimdSmithWaterman, DispatchedOverloadEqualsScalarOverload) {
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel on this CPU";
  Rng rng(53);
  for (const simd::KernelPath path : vector_kernels()) {
    for (int trial = 0; trial < 25; ++trial) {
      const auto q = rand_seq(20 + rng.next_below(150), rng);
      const auto s = rand_seq(20 + rng.next_below(150), rng);
      EXPECT_EQ(smith_waterman_score(q, s, blosum62(), 11, 1, path),
                smith_waterman_score(q, s, blosum62(), 11, 1))
          << simd::kernel_name(path);
    }
  }
}

TEST(SimdSmithWaterman, ScalarPathAndEmptyInputDecline) {
  Rng rng(59);
  const auto q = rand_seq(30, rng);
  EXPECT_FALSE(simd::smith_waterman_score_striped(simd::KernelPath::kScalar,
                                                  q, q, blosum62(), 11, 1)
                   .has_value());
  const std::vector<Residue> empty;
  for (const simd::KernelPath path : all_kernels()) {
    EXPECT_FALSE(
        simd::smith_waterman_score_striped(path, empty, q, blosum62(), 11, 1)
            .has_value());
  }
}

TEST(SimdSmithWaterman, IdenticalLongSequencesScoreFullMatch) {
  // Long self-alignment: the best score grows linearly, close to the int16
  // guard for very long inputs — exercises the saturation-or-exact promise.
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel on this CPU";
  Rng rng(61);
  const auto q = rand_seq(2000, rng);
  const Score want = smith_waterman_score(q, q, blosum62(), 11, 1);
  for (const simd::KernelPath path : vector_kernels()) {
    const auto got =
        simd::smith_waterman_score_striped(path, q, q, blosum62(), 11, 1);
    if (got.has_value()) {
      EXPECT_EQ(*got, want) << simd::kernel_name(path);
    }
    // With the dispatched overload the fallback makes the answer exact
    // either way.
    EXPECT_EQ(smith_waterman_score(q, q, blosum62(), 11, 1, path), want);
  }
}

}  // namespace
}  // namespace mublastp
