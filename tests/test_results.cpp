#include "core/results.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/alphabet.hpp"
#include "common/rng.hpp"
#include "core/gapped.hpp"
#include "score/karlin.hpp"

namespace mublastp {
namespace {

UngappedAlignment seg(SeqId subj, std::uint32_t qs, std::uint32_t qe,
                      std::uint32_t ss, Score score) {
  return {subj, qs, qe, ss, ss + (qe - qs), score};
}

TEST(CanonicalizeUngapped, SortsBySubjectDiagQstart) {
  std::vector<UngappedAlignment> v{
      seg(1, 10, 20, 15, 50),
      seg(0, 5, 9, 5, 40),
      seg(1, 2, 8, 7, 30),   // diag 5, before diag 5's qstart 10
      seg(0, 0, 4, 9, 20),   // subject 0 diag 9 after diag 0
  };
  canonicalize_ungapped(v);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0].subject, 0u);
  EXPECT_EQ(v[0].q_start, 5u);  // diag 0 first
  EXPECT_EQ(v[1].subject, 0u);
  EXPECT_EQ(v[1].q_start, 0u);  // diag 9
  EXPECT_EQ(v[2].subject, 1u);
  EXPECT_EQ(v[2].q_start, 2u);  // diag 5, earlier qstart first
  EXPECT_EQ(v[3].q_start, 10u);
}

TEST(CanonicalizeUngapped, RemovesExactDuplicates) {
  std::vector<UngappedAlignment> v{
      seg(0, 5, 9, 5, 40), seg(0, 5, 9, 5, 40), seg(0, 5, 9, 5, 40)};
  canonicalize_ungapped(v);
  EXPECT_EQ(v.size(), 1u);
}

TEST(CanonicalizeUngapped, KeepsNearDuplicates) {
  std::vector<UngappedAlignment> v{seg(0, 5, 9, 5, 40), seg(0, 5, 9, 5, 41)};
  canonicalize_ungapped(v);
  EXPECT_EQ(v.size(), 2u);
}

class StageFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(3);
    query_.resize(100);
    for (auto& r : query_) r = static_cast<Residue>(rng.next_below(20));
    // Two subjects: one a mutated copy (strong alignment), one random.
    subjects_.push_back(query_);
    for (int k = 0; k < 8; ++k) {
      subjects_[0][rng.next_below(100)] =
          static_cast<Residue>(rng.next_below(20));
    }
    subjects_.push_back(std::vector<Residue>(120));
    for (auto& r : subjects_[1]) r = static_cast<Residue>(rng.next_below(20));
    lookup_ = [this](SeqId id) {
      return std::span<const Residue>(subjects_[id]);
    };
    karlin_ = gapped_params(blosum62(), 11, 1);
  }

  std::vector<Residue> query_;
  std::vector<std::vector<Residue>> subjects_;
  SubjectLookup lookup_;
  SearchParams params_;
  KarlinParams karlin_;
};

TEST_F(StageFixture, GappedStageExtendsStrongSeed) {
  std::vector<UngappedAlignment> u{seg(0, 40, 60, 40, 80)};
  StageStats stats;
  const auto gapped =
      gapped_stage(query_, lookup_, u, blosum62(), params_, &stats);
  ASSERT_EQ(gapped.size(), 1u);
  EXPECT_GE(gapped[0].score, params_.gapped_cutoff);
  EXPECT_EQ(stats.gapped_extensions, 1u);
  // The gapped alignment covers most of the (near-identical) query.
  EXPECT_LT(gapped[0].q_start, 10u);
  EXPECT_GT(gapped[0].q_end, 90u);
}

TEST_F(StageFixture, GappedStageSkipsContainedSeeds) {
  // Two seeds on the same subject, the second inside the region the first
  // alignment will cover: only one gapped extension runs.
  std::vector<UngappedAlignment> u{seg(0, 40, 60, 40, 80),
                                   seg(0, 45, 55, 45, 30)};
  StageStats stats;
  const auto gapped =
      gapped_stage(query_, lookup_, u, blosum62(), params_, &stats);
  EXPECT_EQ(gapped.size(), 1u);
  EXPECT_EQ(stats.gapped_extensions, 1u);
}

TEST_F(StageFixture, GappedStageDropsBelowCutoff) {
  // A weak seed on the random subject: its gapped score stays small.
  std::vector<UngappedAlignment> u{seg(1, 10, 16, 20, 18)};
  SearchParams strict = params_;
  strict.gapped_cutoff = 500;
  StageStats stats;
  const auto gapped =
      gapped_stage(query_, lookup_, u, blosum62(), strict, &stats);
  EXPECT_TRUE(gapped.empty());
}

TEST_F(StageFixture, FinalizeAttachesTracebackAndStats) {
  std::vector<UngappedAlignment> u{seg(0, 40, 60, 40, 80)};
  auto gapped = gapped_stage(query_, lookup_, u, blosum62(), params_, nullptr);
  const auto final_alns = finalize_stage(query_, lookup_, std::move(gapped),
                                         blosum62(), params_, karlin_,
                                         1000000);
  ASSERT_EQ(final_alns.size(), 1u);
  const GappedAlignment& a = final_alns[0];
  EXPECT_FALSE(a.ops.empty());
  EXPECT_GT(a.bit_score, 0.0);
  EXPECT_GE(a.evalue, 0.0);
  EXPECT_EQ(score_of_transcript(query_, subjects_[0], a, blosum62(), 11, 1),
            a.score);
}

TEST_F(StageFixture, FinalizeCullsContainedAlignments) {
  // Two genuine alignments on the homologous subject from different
  // anchors: both converge to (essentially) the same region, so culling
  // must keep exactly one.
  GappedAlignment a = gapped_align_at_anchor(
      query_, subjects_[0], 45, 45, blosum62(), params_, false);
  a.subject = 0;
  GappedAlignment b = gapped_align_at_anchor(
      query_, subjects_[0], 30, 30, blosum62(), params_, false);
  b.subject = 0;
  const auto out = finalize_stage(query_, lookup_, {a, b}, blosum62(),
                                  params_, karlin_, 1000000);
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(StageFixture, FinalizeRespectsMaxAlignments) {
  // Three homologous subjects, three genuine alignments, cap at 2.
  std::vector<GappedAlignment> g;
  std::vector<std::vector<Residue>> subs;
  Rng rng(9);
  for (int k = 0; k < 3; ++k) {
    auto s = query_;
    for (int j = 0; j < 4 + k; ++j) {
      s[rng.next_below(s.size())] = static_cast<Residue>(rng.next_below(20));
    }
    subs.push_back(std::move(s));
  }
  const SubjectLookup lookup = [&subs](SeqId id) {
    return std::span<const Residue>(subs[id]);
  };
  for (SeqId k = 0; k < 3; ++k) {
    GappedAlignment a = gapped_align_at_anchor(query_, subs[k], 50, 50,
                                               blosum62(), params_, false);
    a.subject = k;
    g.push_back(a);
  }
  SearchParams limited = params_;
  limited.max_alignments = 2;
  const auto out = finalize_stage(query_, lookup, std::move(g), blosum62(),
                                  limited, karlin_, 1000000);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_GE(out[0].score, out[1].score);
}

// finalize_stage ranks with a total order, so its output never depends on
// the order the gapped alignments arrive in: block order, thread
// interleaving, or how a partitioned search split the database.
TEST(FinalizeProperty, OutputIsInvariantUnderInputPermutation) {
  // A hand-built tie. Subject 0 equals the query up to a tail that scores
  // -3, -4, -4 and then +11. Extended from an anchor in the shared prefix,
  // the alignment stops before the tail; extended from the tail's last
  // residue, it covers the tail too. Both score the same and start at
  // (0, 0), so only their ends tell them apart, and the longer one must
  // always cull the one it contains.
  const std::string prefix = "MKVLAAGIWRHEDCTPFYSNQ";
  const std::vector<Residue> query = encode_sequence(prefix + "CGGW");
  std::vector<std::vector<Residue>> subjects = {
      encode_sequence(prefix + "DIIW")};
  Rng rng(17);
  for (int k = 0; k < 4; ++k) {
    std::vector<Residue> s = query;
    for (int j = 0; j < 2; ++j) {
      s[rng.next_below(s.size())] = static_cast<Residue>(rng.next_below(20));
    }
    subjects.push_back(std::move(s));
  }
  const SubjectLookup lookup = [&subjects](SeqId id) {
    return std::span<const Residue>(subjects[id]);
  };
  const SearchParams params;
  const auto at = [&](SeqId subject, std::uint32_t anchor) {
    GappedAlignment a = gapped_align_at_anchor(query, subjects[subject],
                                               anchor, anchor, blosum62(),
                                               params, false);
    a.subject = subject;
    return a;
  };

  const GappedAlignment inner = at(0, 10);
  const GappedAlignment outer = at(0, 24);
  ASSERT_EQ(inner.score, outer.score);
  ASSERT_EQ(inner.q_start, outer.q_start);
  ASSERT_EQ(inner.s_start, outer.s_start);
  ASSERT_LT(inner.q_end, outer.q_end);
  ASSERT_LT(inner.s_end, outer.s_end);

  std::vector<GappedAlignment> gapped = {inner, outer};
  for (SeqId k = 1; k < subjects.size(); ++k) {
    for (const std::uint32_t anchor : {5u, 12u, 20u}) {
      gapped.push_back(at(k, anchor));
    }
  }
  const KarlinParams karlin = gapped_params(blosum62(), 11, 1);
  const std::vector<GappedAlignment> want = finalize_stage(
      query, lookup, gapped, blosum62(), params, karlin, 1000000);
  std::size_t tie_rows = 0;
  for (const GappedAlignment& a : want) {
    if (a.subject != 0) continue;
    ++tie_rows;
    EXPECT_EQ(a.q_end, outer.q_end);
  }
  EXPECT_EQ(tie_rows, 1u);

  for (int round = 0; round < 50; ++round) {
    std::shuffle(gapped.begin(), gapped.end(), rng);
    const std::vector<GappedAlignment> got = finalize_stage(
        query, lookup, gapped, blosum62(), params, karlin, 1000000);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].subject, want[i].subject) << round << ":" << i;
      EXPECT_EQ(got[i].q_start, want[i].q_start) << round << ":" << i;
      EXPECT_EQ(got[i].q_end, want[i].q_end) << round << ":" << i;
      EXPECT_EQ(got[i].s_start, want[i].s_start) << round << ":" << i;
      EXPECT_EQ(got[i].s_end, want[i].s_end) << round << ":" << i;
      EXPECT_EQ(got[i].score, want[i].score) << round << ":" << i;
      EXPECT_EQ(got[i].ops, want[i].ops) << round << ":" << i;
    }
  }
}

}  // namespace
}  // namespace mublastp
