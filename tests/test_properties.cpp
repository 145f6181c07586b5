// Cross-module property tests: invariants of the whole search system that
// must hold for any input, checked over parameterized random workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "baseline/query_engine.hpp"
#include "common/rng.hpp"
#include "core/gapped.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index.hpp"
#include "kernel_paths.hpp"
#include "simd/dispatch.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

struct PropCase {
  std::uint64_t seed;
  std::size_t db_residues;
  std::size_t query_len;
};

class SearchProperties : public ::testing::TestWithParam<PropCase> {
 protected:
  void SetUp() override {
    const PropCase& c = GetParam();
    db_ = synth::generate_database(synth::sprot_like(c.db_residues), c.seed);
    Rng rng(c.seed * 31 + 7);
    queries_ = synth::sample_queries(db_, 2, c.query_len, rng);
    index_ = std::make_unique<DbIndex>(DbIndex::build(db_, config()));
  }

  static DbIndexConfig config() {
    DbIndexConfig cfg;
    cfg.block_bytes = 32 * 1024;
    return cfg;
  }

  SequenceStore db_;
  SequenceStore queries_;
  std::unique_ptr<DbIndex> index_;
};

TEST_P(SearchProperties, SearchIsDeterministic) {
  const MuBlastpEngine engine(*index_);
  const QueryResult a = engine.search(queries_.sequence(0));
  const QueryResult b = engine.search(queries_.sequence(0));
  EXPECT_EQ(a.ungapped, b.ungapped);
  EXPECT_EQ(a.stats.hits, b.stats.hits);
  ASSERT_EQ(a.alignments.size(), b.alignments.size());
  for (std::size_t i = 0; i < a.alignments.size(); ++i) {
    EXPECT_EQ(a.alignments[i].ops, b.alignments[i].ops);
  }
}

TEST_P(SearchProperties, DatabaseOrderDoesNotChangeResults) {
  // Shuffle the database; alignments must be identical up to the subject id
  // relabeling induced by the shuffle.
  std::vector<SeqId> perm(db_.size());
  std::iota(perm.begin(), perm.end(), SeqId{0});
  Rng rng(GetParam().seed + 99);
  std::shuffle(perm.begin(), perm.end(), rng);
  const SequenceStore shuffled = db_.permuted(perm);
  // new_id_of[old] : perm[new] = old.
  std::vector<SeqId> new_id_of(db_.size());
  for (SeqId n = 0; n < perm.size(); ++n) new_id_of[perm[n]] = n;

  const DbIndex shuffled_index = DbIndex::build(shuffled, config());
  const MuBlastpEngine base(*index_);
  const MuBlastpEngine other(shuffled_index);

  for (SeqId q = 0; q < queries_.size(); ++q) {
    QueryResult a = base.search(queries_.sequence(q));
    const QueryResult b = other.search(queries_.sequence(q));
    // Relabel and canonicalize A's stage-2 output into B's id space.
    for (UngappedAlignment& u : a.ungapped) u.subject = new_id_of[u.subject];
    auto au = a.ungapped;
    canonicalize_ungapped(au);
    EXPECT_EQ(au, b.ungapped);
    EXPECT_EQ(a.stats.hits, b.stats.hits);
    EXPECT_EQ(a.stats.hit_pairs, b.stats.hit_pairs);
    // Final alignments: same multiset of (score, coordinates, ops).
    ASSERT_EQ(a.alignments.size(), b.alignments.size());
    const auto key = [](const GappedAlignment& g) {
      return std::tuple(g.score, g.q_start, g.q_end, g.s_start, g.s_end,
                        g.ops);
    };
    std::vector<decltype(key(a.alignments[0]))> ka, kb;
    for (const auto& g : a.alignments) ka.push_back(key(g));
    for (const auto& g : b.alignments) kb.push_back(key(g));
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
    EXPECT_EQ(ka, kb);
  }
}

TEST_P(SearchProperties, LargerWindowFindsAtLeastAsManyPairs) {
  SearchParams narrow;
  narrow.two_hit_window = 20;
  SearchParams wide;
  wide.two_hit_window = 60;
  const MuBlastpEngine en(*index_, narrow);
  const MuBlastpEngine ew(*index_, wide);
  const QueryResult rn = en.search(queries_.sequence(0));
  const QueryResult rw = ew.search(queries_.sequence(0));
  EXPECT_EQ(rn.stats.hits, rw.stats.hits);
  EXPECT_LE(rn.stats.hit_pairs, rw.stats.hit_pairs);
}

TEST_P(SearchProperties, LowerUngappedCutoffNeverLosesSegments) {
  SearchParams strict;
  strict.ungapped_cutoff = 60;
  SearchParams loose;
  loose.ungapped_cutoff = 30;
  const MuBlastpEngine es(*index_, strict);
  const MuBlastpEngine el(*index_, loose);
  const QueryResult rs = es.search(queries_.sequence(0));
  const QueryResult rl = el.search(queries_.sequence(0));
  // Segments are found greedily per diagonal, so the strict set is not
  // always a subset — but the count can never exceed the loose count, and
  // every strict segment meets the loose cutoff trivially.
  EXPECT_LE(rs.ungapped.size(), rl.ungapped.size());
  for (const UngappedAlignment& u : rs.ungapped) {
    EXPECT_GE(u.score, strict.ungapped_cutoff);
  }
}

TEST_P(SearchProperties, HigherNeighborThresholdShrinksHits) {
  DbIndexConfig strict_cfg = config();
  strict_cfg.neighbor_threshold = 13;
  const DbIndex strict_index = DbIndex::build(db_, strict_cfg);
  const MuBlastpEngine loose(*index_);
  const MuBlastpEngine strict(strict_index);
  const QueryResult rl = loose.search(queries_.sequence(0));
  const QueryResult rs = strict.search(queries_.sequence(0));
  EXPECT_LT(rs.stats.hits, rl.stats.hits);
}

TEST_P(SearchProperties, AlignmentsAreWithinBounds) {
  const MuBlastpEngine engine(*index_);
  for (SeqId q = 0; q < queries_.size(); ++q) {
    const auto query = queries_.sequence(q);
    const QueryResult r = engine.search(query);
    for (const GappedAlignment& a : r.alignments) {
      EXPECT_LT(a.subject, db_.size());
      EXPECT_LT(a.q_start, a.q_end);
      EXPECT_LE(a.q_end, query.size());
      EXPECT_LT(a.s_start, a.s_end);
      EXPECT_LE(a.s_end, db_.length(a.subject));
      EXPECT_GE(a.score, 0);
      EXPECT_GE(a.evalue, 0.0);
    }
  }
}

TEST_P(SearchProperties, QueryEngineAgreesUnderDfaAndTable) {
  const QueryIndexedEngine table(db_);
  const QueryIndexedEngine dfa(db_, {}, kDefaultNeighborThreshold,
                               QueryIndexedEngine::Detector::kDfa);
  const QueryResult a = table.search(queries_.sequence(0));
  const QueryResult b = dfa.search(queries_.sequence(0));
  EXPECT_EQ(a.ungapped, b.ungapped);
}

TEST_P(SearchProperties, GappedScoreAtLeastUngappedSeed) {
  // A gapped extension seeded by an ungapped segment can only add to the
  // segment's score (the segment's own path is reachable from the anchor),
  // and the bound must hold identically on every kernel path.
  const std::vector<simd::KernelPath> paths = all_kernels();
  const MuBlastpEngine engine(*index_);
  const SearchParams& params = engine.params();
  for (SeqId q = 0; q < queries_.size(); ++q) {
    const auto query = queries_.sequence(q);
    const QueryResult r = engine.search(query);
    for (const UngappedAlignment& u : r.ungapped) {
      const auto subject = db_.sequence(u.subject);
      for (const simd::KernelPath path : paths) {
        const GappedAlignment g =
            gapped_align(query, subject, u, *params.matrix, params,
                         /*traceback=*/false, path);
        EXPECT_GE(g.score, u.score) << simd::kernel_name(path);
      }
    }
  }
}

TEST_P(SearchProperties, TracebackRescoresToStageThreeScore) {
  // Stage 4 re-runs the winning extension with traceback; re-scoring the
  // recorded transcript must reproduce the stage-3 score exactly — for
  // every kernel path (transcripts are untouched by kernel choice).
  const std::vector<simd::KernelPath> paths = all_kernels();
  for (const simd::KernelPath path : paths) {
    MuBlastpOptions opts;
    opts.kernel = path;
    const MuBlastpEngine engine(*index_, {}, opts);
    const SearchParams& params = engine.params();
    for (SeqId q = 0; q < queries_.size(); ++q) {
      const auto query = queries_.sequence(q);
      const QueryResult r = engine.search(query);
      for (const GappedAlignment& a : r.alignments) {
        ASSERT_FALSE(a.ops.empty());
        EXPECT_EQ(score_of_transcript(query, db_.sequence(a.subject), a,
                                      *params.matrix, params.gap_open,
                                      params.gap_extend),
                  a.score)
            << simd::kernel_name(path);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SearchProperties,
    ::testing::Values(PropCase{11, 50000, 64}, PropCase{22, 100000, 128},
                      PropCase{33, 80000, 200}),
    [](const ::testing::TestParamInfo<PropCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace mublastp
