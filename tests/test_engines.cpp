// Engine-level behavioural tests: API contracts, stage statistics,
// sensitivity against Smith-Waterman ground truth, and threading.
#include <gtest/gtest.h>

#include "baseline/interleaved_engine.hpp"
#include "baseline/query_engine.hpp"
#include "baseline/smith_waterman.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/gapped.hpp"
#include "core/mublastp_engine.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = synth::generate_database(synth::sprot_like(150000), 77);
    Rng rng(78);
    queries_ = synth::sample_queries(db_, 4, 128, rng);
    DbIndexConfig cfg;
    cfg.block_bytes = 64 * 1024;
    index_ = std::make_unique<DbIndex>(DbIndex::build(db_, cfg));
  }

  SequenceStore db_;
  SequenceStore queries_;
  std::unique_ptr<DbIndex> index_;
};

TEST_F(EngineFixture, RejectsTooShortQuery) {
  const MuBlastpEngine mu(*index_);
  const std::vector<Residue> tiny{0, 1};
  EXPECT_THROW(mu.search(tiny), Error);
  const QueryIndexedEngine ncbi(db_);
  EXPECT_THROW(ncbi.search(tiny), Error);
  const InterleavedDbEngine idb(*index_);
  EXPECT_THROW(idb.search(tiny), Error);
}

void expect_same_result(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.alignments.size(), want.alignments.size());
  for (std::size_t i = 0; i < got.alignments.size(); ++i) {
    const GappedAlignment& a = got.alignments[i];
    const GappedAlignment& b = want.alignments[i];
    EXPECT_EQ(a.subject, b.subject) << i;
    EXPECT_EQ(a.q_start, b.q_start) << i;
    EXPECT_EQ(a.q_end, b.q_end) << i;
    EXPECT_EQ(a.s_start, b.s_start) << i;
    EXPECT_EQ(a.s_end, b.s_end) << i;
    EXPECT_EQ(a.score, b.score) << i;
    EXPECT_EQ(a.evalue, b.evalue) << i;
    EXPECT_EQ(a.ops, b.ops) << i;
  }
  EXPECT_EQ(got.ungapped, want.ungapped);
  EXPECT_EQ(got.stats, want.stats);
}

// In a batch, a query too short for one word is not an error: every engine
// gives it an empty result, at every thread count, and the rest of the
// batch is unaffected. Each baseline batch used to terminate the process
// here, because the single-query check threw inside the OpenMP loop.
TEST_F(EngineFixture, BatchGivesTooShortQueryAnEmptyResult) {
  constexpr SeqId kTiny = 2;
  const std::vector<Residue> tiny{0, 1};
  SequenceStore batch;
  for (SeqId q = 0; q < queries_.size(); ++q) {
    if (q == kTiny) batch.add(tiny, "tiny");
    batch.add(queries_.sequence(q), queries_.name(q));
  }
  const MuBlastpEngine mu(*index_);
  const QueryIndexedEngine ncbi(db_);
  const InterleavedDbEngine idb(*index_);
  const auto check = [&](const auto& engine, const char* name) {
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(name) + " at " + std::to_string(threads) +
                   " threads");
      const std::vector<QueryResult> got = engine.search_batch(batch, threads);
      ASSERT_EQ(got.size(), batch.size());
      for (SeqId q = 0; q < batch.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        if (q == kTiny) {
          expect_same_result(got[q], QueryResult{});
        } else {
          expect_same_result(got[q], engine.search(batch.sequence(q)));
        }
      }
    }
  };
  check(mu, "mublastp");
  check(ncbi, "ncbi");
  check(idb, "ncbi-db");
}

TEST_F(EngineFixture, QueryEngineRejectsEmptyDb) {
  SequenceStore empty;
  EXPECT_THROW(QueryIndexedEngine{empty}, Error);
}

TEST_F(EngineFixture, StatsAreInternallyConsistent) {
  const MuBlastpEngine mu(*index_);
  for (SeqId q = 0; q < queries_.size(); ++q) {
    const QueryResult r = mu.search(queries_.sequence(q));
    EXPECT_GT(r.stats.hits, 0u);
    EXPECT_LE(r.stats.hit_pairs, r.stats.hits);
    EXPECT_LE(r.stats.extensions, r.stats.hit_pairs);
    EXPECT_LE(r.stats.ungapped_alignments, r.stats.extensions);
    // With pre-filtering, only pairs are sorted.
    EXPECT_EQ(r.stats.sorted_records, r.stats.hit_pairs);
  }
}

TEST_F(EngineFixture, WithoutPrefilterAllHitsAreSorted) {
  MuBlastpOptions o;
  o.prefilter = false;
  const MuBlastpEngine mu(*index_, {}, o);
  const QueryResult r = mu.search(queries_.sequence(0));
  EXPECT_EQ(r.stats.sorted_records, r.stats.hits);
}

TEST_F(EngineFixture, PrefilterKeepsSmallFraction) {
  const MuBlastpEngine mu(*index_);
  const QueryResult r = mu.search(queries_.sequence(0));
  // Figure 6's point: the pre-filter removes the overwhelming majority.
  EXPECT_LT(static_cast<double>(r.stats.hit_pairs),
            0.5 * static_cast<double>(r.stats.hits));
}

TEST_F(EngineFixture, ResultsAreRankedByScore) {
  const MuBlastpEngine mu(*index_);
  const QueryResult r = mu.search(queries_.sequence(1));
  for (std::size_t i = 0; i + 1 < r.alignments.size(); ++i) {
    EXPECT_GE(r.alignments[i].score, r.alignments[i + 1].score);
  }
}

TEST_F(EngineFixture, EvaluesGrowAsScoresShrink) {
  const MuBlastpEngine mu(*index_);
  const QueryResult r = mu.search(queries_.sequence(2));
  for (std::size_t i = 0; i + 1 < r.alignments.size(); ++i) {
    if (r.alignments[i].score > r.alignments[i + 1].score) {
      EXPECT_LT(r.alignments[i].evalue, r.alignments[i + 1].evalue);
    }
  }
}

TEST_F(EngineFixture, TracebackRescoresToReportedScore) {
  const MuBlastpEngine mu(*index_);
  const QueryResult r = mu.search(queries_.sequence(3));
  ASSERT_FALSE(r.alignments.empty());
  for (const GappedAlignment& a : r.alignments) {
    ASSERT_FALSE(a.ops.empty());
    const auto subject = db_.sequence(a.subject);
    EXPECT_EQ(score_of_transcript(queries_.sequence(3), subject, a,
                                  blosum62(), mu.params().gap_open,
                                  mu.params().gap_extend),
              a.score);
  }
}

TEST_F(EngineFixture, HeuristicScoreNeverExceedsSmithWaterman) {
  const MuBlastpEngine mu(*index_);
  const auto query = queries_.sequence(0);
  const QueryResult r = mu.search(query);
  ASSERT_FALSE(r.alignments.empty());
  const std::size_t check = std::min<std::size_t>(r.alignments.size(), 5);
  for (std::size_t i = 0; i < check; ++i) {
    const GappedAlignment& a = r.alignments[i];
    const auto sw =
        smith_waterman(query, db_.sequence(a.subject), blosum62(), 11, 1);
    EXPECT_LE(a.score, sw.score);
  }
}

TEST_F(EngineFixture, FindsPlantedFamilyMemberAsTopHit) {
  // Queries are windows of database sequences: the source sequence itself
  // must be the (or near the) top alignment.
  const MuBlastpEngine mu(*index_);
  for (SeqId q = 0; q < queries_.size(); ++q) {
    const QueryResult r = mu.search(queries_.sequence(q));
    ASSERT_FALSE(r.alignments.empty()) << "query " << q;
    // Top hit covers (almost) the full query with a near-self score.
    const GappedAlignment& top = r.alignments.front();
    const std::size_t qlen = queries_.length(q);
    EXPECT_GT(top.q_end - top.q_start, qlen * 9 / 10);
    Score self = 0;
    const auto query = queries_.sequence(q);
    for (const Residue res : query) self += blosum62()(res, res);
    EXPECT_GT(top.score, self * 9 / 10);
  }
}

TEST_F(EngineFixture, BatchThreadCountsAgree) {
  const MuBlastpEngine mu(*index_);
  const auto one = mu.search_batch(queries_, 1);
  const auto four = mu.search_batch(queries_, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i].alignments.size(), four[i].alignments.size());
    for (std::size_t j = 0; j < one[i].alignments.size(); ++j) {
      EXPECT_EQ(one[i].alignments[j].score, four[i].alignments[j].score);
      EXPECT_EQ(one[i].alignments[j].ops, four[i].alignments[j].ops);
    }
  }
}

TEST_F(EngineFixture, BaselineBatchesAlsoThreadSafely) {
  const QueryIndexedEngine ncbi(db_);
  const auto one = ncbi.search_batch(queries_, 1);
  const auto two = ncbi.search_batch(queries_, 2);
  ASSERT_EQ(one.size(), two.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].ungapped, two[i].ungapped);
  }
  const InterleavedDbEngine idb(*index_);
  const auto a = idb.search_batch(queries_, 1);
  const auto b = idb.search_batch(queries_, 2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ungapped, b[i].ungapped);
  }
}

TEST_F(EngineFixture, EvalueCutoffTrimsReportedAlignments) {
  const MuBlastpEngine loose(*index_);
  SearchParams strict_params;
  strict_params.evalue_cutoff = 1e-30;
  const MuBlastpEngine strict(*index_, strict_params);
  const auto query = queries_.sequence(0);
  const QueryResult rl = loose.search(query);
  const QueryResult rs = strict.search(query);
  EXPECT_LE(rs.alignments.size(), rl.alignments.size());
  for (const GappedAlignment& a : rs.alignments) {
    EXPECT_LE(a.evalue, 1e-30);
  }
  for (const GappedAlignment& a : rl.alignments) {
    EXPECT_LE(a.evalue, loose.params().evalue_cutoff);
  }
  // The strict list is a prefix of the loose one (same ranking).
  for (std::size_t i = 0; i < rs.alignments.size(); ++i) {
    EXPECT_EQ(rs.alignments[i].score, rl.alignments[i].score);
    EXPECT_EQ(rs.alignments[i].subject, rl.alignments[i].subject);
  }
}

TEST_F(EngineFixture, BatchRejectsNonPositiveThreads) {
  const MuBlastpEngine mu(*index_);
  EXPECT_THROW(mu.search_batch(queries_, 0), Error);
}

TEST_F(EngineFixture, InvalidSearchParamsAreRejectedAtConstruction) {
  SearchParams bad;
  bad.gap_extend = 0;
  EXPECT_THROW(MuBlastpEngine(*index_, bad), Error);
  bad = {};
  bad.two_hit_window = 2;  // <= two_hit_min
  EXPECT_THROW(InterleavedDbEngine(*index_, bad), Error);
  bad = {};
  bad.matrix = nullptr;
  EXPECT_THROW(QueryIndexedEngine(db_, bad), Error);
  bad = {};
  bad.evalue_cutoff = -1.0;
  EXPECT_THROW(MuBlastpEngine(*index_, bad), Error);
  bad = {};
  bad.max_alignments = 0;
  EXPECT_THROW(MuBlastpEngine(*index_, bad), Error);
}

TEST_F(EngineFixture, TracedRunReportsHierarchyTraffic) {
  const InterleavedDbEngine idb(*index_);
  memsim::MemoryHierarchy h;
  idb.search_traced(queries_.sequence(0), h);
  const auto s = h.stats();
  EXPECT_GT(s.references, 10000u);
  EXPECT_GT(s.llc_accesses, 0u);
}

TEST_F(EngineFixture, UngappedSegmentsMeetCutoff) {
  const MuBlastpEngine mu(*index_);
  const QueryResult r = mu.search(queries_.sequence(0));
  for (const UngappedAlignment& u : r.ungapped) {
    EXPECT_GE(u.score, mu.params().ungapped_cutoff);
    EXPECT_EQ(u.q_end - u.q_start, u.s_end - u.s_start);
    EXPECT_LT(u.subject, db_.size());
  }
}

}  // namespace
}  // namespace mublastp
