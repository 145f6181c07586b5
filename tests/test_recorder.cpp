// The engines' one stage recorder (trace::StageRecorder) under every
// combination of its two sinks: none, stats only, trace only, both. No
// combination may change a result, and each sink's output must not depend
// on whether the other one is attached.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/interleaved_engine.hpp"
#include "baseline/query_engine.hpp"
#include "cluster/member_set.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"
#include "trace/trace.hpp"

namespace mublastp {
namespace {

using SpanKey = std::tuple<trace::SpanKind, std::uint32_t, std::uint32_t>;

/// One run under one sink combination.
struct SinkRun {
  std::vector<QueryResult> results;
  stats::PipelineSnapshot snap;      ///< when stats were attached
  std::map<SpanKey, int> spans;      ///< (kind, block, query) multiset
};

enum Combo { kNone, kStats, kTrace, kBoth };
constexpr std::array<const char*, 4> kComboNames = {"none", "stats", "trace",
                                                    "both"};

using Search = std::function<std::vector<QueryResult>(stats::PipelineStats*,
                                                      trace::Tracer*)>;

void expect_same_results(const std::vector<QueryResult>& got,
                         const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const auto& a = got[q].alignments;
    const auto& b = want[q].alignments;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].subject, b[i].subject) << i;
      EXPECT_EQ(a[i].q_start, b[i].q_start) << i;
      EXPECT_EQ(a[i].q_end, b[i].q_end) << i;
      EXPECT_EQ(a[i].s_start, b[i].s_start) << i;
      EXPECT_EQ(a[i].s_end, b[i].s_end) << i;
      EXPECT_EQ(a[i].score, b[i].score) << i;
      EXPECT_EQ(a[i].bit_score, b[i].bit_score) << i;
      EXPECT_EQ(a[i].evalue, b[i].evalue) << i;
      EXPECT_EQ(a[i].anchor_q, b[i].anchor_q) << i;
      EXPECT_EQ(a[i].anchor_s, b[i].anchor_s) << i;
      EXPECT_EQ(a[i].ops, b[i].ops) << i;
    }
    EXPECT_EQ(got[q].ungapped, want[q].ungapped);
    EXPECT_EQ(got[q].stats, want[q].stats);
  }
}

class RecorderSinks : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new SequenceStore(
        synth::generate_database(synth::sprot_like(120000), 921));
    Rng rng(922);
    queries_ = new SequenceStore(synth::sample_queries(*db_, 6, 128, rng));
    DbIndexConfig cfg;
    cfg.block_bytes = 32 * 1024;  // several blocks, so per_block is exercised
    index_ = new DbIndex(DbIndex::build(*db_, cfg));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete queries_;
    delete db_;
    index_ = nullptr;
    queries_ = nullptr;
    db_ = nullptr;
  }

  /// Runs `search` under all four sink combinations and checks them
  /// against each other.
  static void check_every_combination(const Search& search) {
    std::array<SinkRun, 4> runs;
    for (int c = kNone; c <= kBoth; ++c) {
      SCOPED_TRACE(kComboNames[c]);
      const bool with_stats = c == kStats || c == kBoth;
      const bool with_trace = c == kTrace || c == kBoth;
      stats::PipelineStats ps;
      trace::Tracer tracer;
      runs[c].results = search(with_stats ? &ps : nullptr,
                               with_trace ? &tracer : nullptr);
      if (with_stats) runs[c].snap = ps.snapshot();
      if (with_trace) {
        tracer.flush();
        EXPECT_EQ(tracer.dropped(), 0u);
        for (const trace::Span& s : tracer.spans()) {
          ++runs[c].spans[{s.kind, s.block, s.query}];
        }
      }
    }
    for (int c = kStats; c <= kBoth; ++c) {
      SCOPED_TRACE(kComboNames[c]);
      expect_same_results(runs[c].results, runs[kNone].results);
    }

    const stats::PipelineSnapshot& alone = runs[kStats].snap;
    const stats::PipelineSnapshot& both = runs[kBoth].snap;
    EXPECT_GT(alone.totals.hits, 0u);
    EXPECT_EQ(alone.totals, both.totals);
    EXPECT_EQ(alone.queries, both.queries);
    ASSERT_FALSE(alone.per_block.empty());
    ASSERT_EQ(alone.per_block.size(), both.per_block.size());
    for (std::size_t b = 0; b < alone.per_block.size(); ++b) {
      EXPECT_EQ(alone.per_block[b].block, both.per_block[b].block) << b;
      EXPECT_EQ(alone.per_block[b].rounds, both.per_block[b].rounds) << b;
      EXPECT_EQ(alone.per_block[b].counters, both.per_block[b].counters)
          << b;
    }

    EXPECT_FALSE(runs[kTrace].spans.empty());
    EXPECT_EQ(runs[kTrace].spans, runs[kBoth].spans);
  }

  static SequenceStore* db_;
  static SequenceStore* queries_;
  static DbIndex* index_;
};

SequenceStore* RecorderSinks::db_ = nullptr;
SequenceStore* RecorderSinks::queries_ = nullptr;
DbIndex* RecorderSinks::index_ = nullptr;

TEST_F(RecorderSinks, EngineBatchOneThread) {
  const MuBlastpEngine engine(*index_);
  check_every_combination([&](stats::PipelineStats* ps, trace::Tracer* t) {
    return engine.search_batch(*queries_, 1, ps, nullptr, t);
  });
}

TEST_F(RecorderSinks, EngineBatchFourThreads) {
  const MuBlastpEngine engine(*index_);
  check_every_combination([&](stats::PipelineStats* ps, trace::Tracer* t) {
    return engine.search_batch(*queries_, 4, ps, nullptr, t);
  });
}

TEST_F(RecorderSinks, ThreeMemberSetInThreadMode) {
  DbIndexConfig cfg;
  cfg.block_bytes = 32 * 1024;
  const cluster::MemberSet set = cluster::MemberSet::partition(
      *db_, 3, cluster::PartitionStrategy::kRoundRobinSorted, cfg, {});
  check_every_combination([&](stats::PipelineStats* ps, trace::Tracer* t) {
    return set.search(*queries_, 4, cluster::WorkerMode::kThread, t, ps)
        .results;
  });
}

// The per-query entry points: a stats sink changes no result, and books the
// query's own counters.
TEST_F(RecorderSinks, PerQuerySearchWithAndWithoutStats) {
  const MuBlastpEngine mu(*index_);
  const InterleavedDbEngine ncbi_db(*index_);
  const QueryIndexedEngine ncbi(*db_);
  const auto check = [&](const auto& engine, const char* name) {
    SCOPED_TRACE(name);
    for (SeqId q = 0; q < queries_->size(); ++q) {
      const QueryResult plain = engine.search(queries_->sequence(q));
      stats::PipelineStats ps;
      const QueryResult booked = engine.search(queries_->sequence(q), ps);
      expect_same_results({booked}, {plain});
      EXPECT_EQ(ps.snapshot().totals, stats::counters_of(plain.stats));
    }
  };
  check(mu, "mublastp");
  check(ncbi_db, "ncbi-db");
  check(ncbi, "ncbi");

  // The single-query traced leg that process-mode shard workers run.
  for (SeqId q = 0; q < queries_->size(); ++q) {
    trace::Tracer tracer;
    expect_same_results({mu.search(queries_->sequence(q), q, tracer)},
                        {mu.search(queries_->sequence(q))});
  }
}

}  // namespace
}  // namespace mublastp
