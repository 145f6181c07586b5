// Differential-fuzz campaign for the banded tiered int8/int16 gapped
// x-drop kernel: every vector path must match the scalar DP exactly — on
// score, on extension lengths, on anchor coordinates — across randomized
// (query, subject, matrix, gap-params, xdrop) cases spanning the length
// classes where band bookkeeping is most fragile (empty, single-residue,
// band-width +/- 1, long homologous). Plus targeted saturation-boundary
// cases straddling the int8 ceiling, proving the int16 re-run fires and is
// tallied, and engine-level tests of the tier counters.
//
// Vector paths only run where the CPU supports them: on a host without
// AVX2 every test here skips, and the saturation suite has no instances.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/gapped.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index.hpp"
#include "kernel_paths.hpp"
#include "score/matrix.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

std::vector<Residue> rand_seq(std::size_t len, Rng& rng) {
  std::vector<Residue> s(len);
  for (auto& r : s) r = static_cast<Residue>(rng.next_below(20));
  return s;
}

// A homolog of `a`: point mutations at ~10% of positions plus a few
// single-residue indels — long extensions that keep the band alive.
std::vector<Residue> mutate(const std::vector<Residue>& a, Rng& rng) {
  std::vector<Residue> b;
  b.reserve(a.size() + 4);
  for (const Residue r : a) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 10) {
      b.push_back(static_cast<Residue>(rng.next_below(20)));  // substitute
    } else if (roll < 12) {
      // deletion: skip
    } else if (roll < 14) {
      b.push_back(r);
      b.push_back(static_cast<Residue>(rng.next_below(20)));  // insertion
    } else {
      b.push_back(r);
    }
  }
  return b;
}

// Length classes: empty, single residue, the adaptive band's natural width
// +/- 1 (where the row [lo, hi] bookkeeping clips against the sequence
// end), and long.
std::size_t pick_len(Score gap_extend, Score xdrop, Rng& rng) {
  const std::size_t bw =
      static_cast<std::size_t>(xdrop / std::max<Score>(gap_extend, 1)) + 1;
  switch (rng.next_below(8)) {
    case 0:
      return 0;
    case 1:
      return 1;
    case 2:
      return bw > 0 ? bw - 1 : 0;
    case 3:
      return bw;
    case 4:
      return bw + 1;
    default:
      return 50 + rng.next_below(351);  // 50..400
  }
}

struct FuzzCase {
  const ScoreMatrix* matrix;
  Score gap_open;
  Score gap_extend;
  Score xdrop;
  std::vector<Residue> a;
  std::vector<Residue> b;
};

FuzzCase make_case(Rng& rng) {
  static const ScoreMatrix* const kMatrices[] = {&blosum62(), &blosum50(),
                                                 &blosum80(), &pam250()};
  static constexpr std::pair<Score, Score> kGaps[] = {
      {11, 1}, {7, 2}, {0, 3}, {32, 1}};
  static constexpr Score kXdrops[] = {0, 1, 5, 16, 38, 100};
  FuzzCase c;
  c.matrix = kMatrices[rng.next_below(4)];
  const auto [go, ge] = kGaps[rng.next_below(4)];
  c.gap_open = go;
  c.gap_extend = ge;
  c.xdrop = kXdrops[rng.next_below(6)];
  c.a = rand_seq(pick_len(ge, c.xdrop, rng), rng);
  // A third of the cases are homologous pairs: only those keep the band
  // alive long enough to stress row-to-row band movement and revival.
  if (rng.next_below(3) == 0 && !c.a.empty()) {
    c.b = mutate(c.a, rng);
  } else {
    c.b = rand_seq(pick_len(ge, c.xdrop, rng), rng);
  }
  return c;
}

// ---- The campaign: >= 10k (path, case) differential comparisons ----------

TEST(GappedSimdFuzz, ExtensionMatchesScalarEverywhere) {
  const auto paths = vector_kernels();
  if (paths.empty()) GTEST_SKIP() << "no vector kernel on this CPU";
  const std::size_t per_path = 10000 / paths.size() + 1;
  std::uint64_t compared = 0;
  for (const simd::KernelPath path : paths) {
    // Same seed per path: every path sees the identical case stream, so a
    // path-specific divergence is attributable by case index alone.
    Rng rng(0x9e3779b9);
    simd::GappedKernelCounters kc;
    for (std::size_t i = 0; i < per_path; ++i) {
      const FuzzCase c = make_case(rng);
      const GappedHalf want = xdrop_extend(c.a, c.b, *c.matrix, c.gap_open,
                                           c.gap_extend, c.xdrop, false);
      const GappedHalf got =
          xdrop_extend(c.a, c.b, *c.matrix, c.gap_open, c.gap_extend,
                       c.xdrop, false, path, &kc);
      ASSERT_EQ(got.score, want.score)
          << simd::kernel_name(path) << " case " << i << ": " << c.a.size()
          << "x" << c.b.size() << " " << c.matrix->name() << " gap "
          << c.gap_open << "/" << c.gap_extend << " xdrop " << c.xdrop;
      ASSERT_EQ(got.q_len, want.q_len)
          << simd::kernel_name(path) << " case " << i;
      ASSERT_EQ(got.s_len, want.s_len)
          << simd::kernel_name(path) << " case " << i;
      ++compared;
    }
    // Every dispatched call is settled by exactly one tier.
    EXPECT_EQ(kc.int8_runs + kc.int16_reruns + kc.scalar_fallbacks, per_path)
        << simd::kernel_name(path);
    // The campaign is pointless if the vector kernel never engages.
    EXPECT_GT(kc.int8_runs, per_path / 2) << simd::kernel_name(path);
  }
  EXPECT_GE(compared, 10000u);
}

TEST(GappedSimdFuzz, AnchoredAlignmentMatchesScalar) {
  const auto paths = vector_kernels();
  if (paths.empty()) GTEST_SKIP() << "no vector kernel on this CPU";
  const SearchParams params;
  for (const simd::KernelPath path : paths) {
    Rng rng(0x51ed270b);
    for (std::size_t i = 0; i < 500; ++i) {
      const std::vector<Residue> q = rand_seq(60 + rng.next_below(200), rng);
      const std::vector<Residue> s = mutate(q, rng);
      const std::uint32_t qm =
          static_cast<std::uint32_t>(rng.next_below(q.size()));
      const std::uint32_t sm = static_cast<std::uint32_t>(
          std::min<std::size_t>(qm, s.size() - 1));
      const GappedAlignment want = gapped_align_at_anchor(
          q, s, qm, sm, *params.matrix, params, /*traceback=*/false);
      const GappedAlignment got = gapped_align_at_anchor(
          q, s, qm, sm, *params.matrix, params, /*traceback=*/false, path);
      ASSERT_EQ(got.score, want.score)
          << simd::kernel_name(path) << " case " << i;
      ASSERT_EQ(got.q_start, want.q_start)
          << simd::kernel_name(path) << " case " << i;
      ASSERT_EQ(got.q_end, want.q_end)
          << simd::kernel_name(path) << " case " << i;
      ASSERT_EQ(got.s_start, want.s_start)
          << simd::kernel_name(path) << " case " << i;
      ASSERT_EQ(got.s_end, want.s_end)
          << simd::kernel_name(path) << " case " << i;
      ASSERT_EQ(got.anchor_q, want.anchor_q)
          << simd::kernel_name(path) << " case " << i;
      ASSERT_EQ(got.anchor_s, want.anchor_s)
          << simd::kernel_name(path) << " case " << i;
    }
  }
}

// ---- Saturation boundary: hand-built alignments around the int8 ceiling --

// blosum62: A-A scores 4, W-W scores 11. With the default xdrop (38) the
// int8 tier is always eligible (38 + 11 <= 127); whether it *survives* a
// case depends on whether the running best touches 127.
class GappedSimdSaturation
    : public ::testing::TestWithParam<simd::KernelPath> {};

GappedHalf run_banded(std::span<const Residue> a, std::span<const Residue> b,
                      simd::KernelPath path,
                      simd::GappedKernelCounters& kc) {
  return xdrop_extend(a, b, blosum62(), 11, 1, 38, false, path, &kc);
}

TEST_P(GappedSimdSaturation, JustBelowCeilingStaysInt8) {
  // 31 identical A: best score 31*4 = 124 < 127 — int8 exact, no re-run.
  const std::vector<Residue> a(31, encode_residue('A'));
  simd::GappedKernelCounters kc;
  const GappedHalf got = run_banded(a, a, GetParam(), kc);
  EXPECT_EQ(got.score, 124);
  EXPECT_EQ(kc.int8_runs, 1u);
  EXPECT_EQ(kc.int16_reruns, 0u);
  EXPECT_EQ(kc.scalar_fallbacks, 0u);
}

TEST_P(GappedSimdSaturation, ExactCeilingTriggersConservativeRerun) {
  // 29 A + 1 W: best score 29*4 + 11 = 127 — lands exactly on the int8
  // saturation value, indistinguishable from an overflow, so the kernel
  // must re-run at int16 and still report 127.
  std::vector<Residue> a(29, encode_residue('A'));
  a.push_back(encode_residue('W'));
  simd::GappedKernelCounters kc;
  const GappedHalf want = xdrop_extend(a, a, blosum62(), 11, 1, 38, false);
  ASSERT_EQ(want.score, 127);
  const GappedHalf got = run_banded(a, a, GetParam(), kc);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.q_len, want.q_len);
  EXPECT_EQ(got.s_len, want.s_len);
  EXPECT_EQ(kc.int8_runs, 0u);
  EXPECT_EQ(kc.int16_reruns, 1u);
  EXPECT_EQ(kc.scalar_fallbacks, 0u);
}

TEST_P(GappedSimdSaturation, AboveCeilingRerunsInt16) {
  // 32 identical A: true score 128 > 127 — the int8 pass saturates mid-run
  // and the int16 re-run must recover the exact value.
  const std::vector<Residue> a(32, encode_residue('A'));
  simd::GappedKernelCounters kc;
  const GappedHalf want = xdrop_extend(a, a, blosum62(), 11, 1, 38, false);
  ASSERT_EQ(want.score, 128);
  const GappedHalf got = run_banded(a, a, GetParam(), kc);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.q_len, want.q_len);
  EXPECT_EQ(got.s_len, want.s_len);
  EXPECT_EQ(kc.int8_runs, 0u);
  EXPECT_EQ(kc.int16_reruns, 1u);
  EXPECT_EQ(kc.scalar_fallbacks, 0u);
}

TEST_P(GappedSimdSaturation, BeyondInt16FallsBackToScalar) {
  // 8200 identical A: true score 32800 > 32767 — both tiers overflow and
  // the dispatched call must fall through to the scalar int32 DP.
  const std::vector<Residue> a(8200, encode_residue('A'));
  simd::GappedKernelCounters kc;
  const GappedHalf want = xdrop_extend(a, a, blosum62(), 11, 1, 38, false);
  ASSERT_EQ(want.score, 32800);
  const GappedHalf got = run_banded(a, a, GetParam(), kc);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.q_len, want.q_len);
  EXPECT_EQ(got.s_len, want.s_len);
  EXPECT_EQ(kc.int8_runs, 0u);
  EXPECT_EQ(kc.int16_reruns, 0u);
  EXPECT_EQ(kc.scalar_fallbacks, 1u);
}

TEST_P(GappedSimdSaturation, IneligibleParamsDeclineBothTiers) {
  // xdrop so large that xdrop + max_score overflows even int16 eligibility:
  // the kernel must decline up front and the scalar DP must run.
  const std::vector<Residue> a(20, encode_residue('A'));
  simd::GappedKernelCounters kc;
  const GappedHalf want = xdrop_extend(a, a, blosum62(), 11, 1, 32760, false);
  const GappedHalf got =
      xdrop_extend(a, a, blosum62(), 11, 1, 32760, false, GetParam(), &kc);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(kc.int8_runs, 0u);
  EXPECT_EQ(kc.int16_reruns, 0u);
  EXPECT_EQ(kc.scalar_fallbacks, 1u);
}

INSTANTIATE_TEST_SUITE_P(VectorPaths, GappedSimdSaturation,
                         ::testing::ValuesIn(vector_kernels()),
                         [](const auto& info) {
                           return std::string(simd::kernel_name(info.param));
                         });
// Empty on a CPU without AVX2.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(GappedSimdSaturation);

// ---- Engine-level tier counters -------------------------------------------

TEST(GappedSimdCounters, EngineTalliesTwoHalvesPerExtension) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(100000), 515);
  Rng rng(516);
  const SequenceStore queries = synth::sample_queries(db, 2, 128, rng);
  const DbIndex index = DbIndex::build(db, {});

  MuBlastpOptions scalar_opts;
  scalar_opts.kernel = simd::KernelPath::kScalar;
  const MuBlastpEngine scalar_engine(index, {}, scalar_opts);
  const QueryResult sr = scalar_engine.search(queries.sequence(0));
  // Scalar runs must never book banded-kernel tiers.
  EXPECT_EQ(sr.stats.gapped_int8_runs, 0u);
  EXPECT_EQ(sr.stats.gapped_int16_reruns, 0u);
  EXPECT_EQ(sr.stats.gapped_scalar_fallbacks, 0u);
  ASSERT_GT(sr.stats.gapped_extensions, 0u) << "workload seeds no gapped"
                                               " extensions; test is vacuous";
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel on this CPU";

  for (const simd::KernelPath path : vector_kernels()) {
    MuBlastpOptions opts;
    opts.kernel = path;
    const MuBlastpEngine engine(index, {}, opts);
    const QueryResult r = engine.search(queries.sequence(0));
    // One banded call per extension half, each settled by exactly one tier.
    EXPECT_EQ(r.stats.gapped_int8_runs + r.stats.gapped_int16_reruns +
                  r.stats.gapped_scalar_fallbacks,
              2 * r.stats.gapped_extensions)
        << simd::kernel_name(path);
    EXPECT_EQ(r.stats.gapped_extensions, sr.stats.gapped_extensions)
        << simd::kernel_name(path);
  }
}

}  // namespace
}  // namespace mublastp
