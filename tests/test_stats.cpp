// Telemetry subsystem (src/stats): deterministic counters under OpenMP,
// a hand-counted toy workload, survival ratio, and JSON round-tripping.
#include <gtest/gtest.h>

#include <cstdint>

#include "baseline/query_engine.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

static_assert(stats::PipelineStats::kEnabled);

class StatsPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = synth::generate_database(synth::sprot_like(120000), 811);
    Rng rng(812);
    queries_ = synth::sample_queries(db_, 8, 128, rng);
    DbIndexConfig cfg;
    cfg.block_bytes = 32 * 1024;  // several blocks, so per_block is exercised
    index_ = std::make_unique<DbIndex>(DbIndex::build(db_, cfg));
  }

  stats::PipelineSnapshot run_batch(int threads) {
    const MuBlastpEngine mu(*index_);
    stats::PipelineStats ps;
    results_ = mu.search_batch(queries_, threads, &ps);
    return ps.snapshot();
  }

  SequenceStore db_;
  SequenceStore queries_;
  std::unique_ptr<DbIndex> index_;
  std::vector<QueryResult> results_;
};

// The acceptance property of the subsystem: per-thread accumulators merged
// at the serial block barrier make every counter bit-identical regardless
// of the OpenMP thread count or schedule.
TEST_F(StatsPipeline, CountersIdenticalAcrossThreadCounts) {
  const stats::PipelineSnapshot s1 = run_batch(1);
  const stats::PipelineSnapshot s2 = run_batch(2);
  const stats::PipelineSnapshot s8 = run_batch(8);

  EXPECT_GT(s1.totals.hits, 0u);
  for (const stats::PipelineSnapshot* s : {&s2, &s8}) {
    EXPECT_EQ(s1.totals, s->totals);
    EXPECT_EQ(s1.queries, s->queries);
    EXPECT_DOUBLE_EQ(s1.survival_ratio(), s->survival_ratio());
    ASSERT_EQ(s1.per_block.size(), s->per_block.size());
    for (std::size_t b = 0; b < s1.per_block.size(); ++b) {
      EXPECT_EQ(s1.per_block[b].block, s->per_block[b].block);
      EXPECT_EQ(s1.per_block[b].rounds, s->per_block[b].rounds);
      EXPECT_EQ(s1.per_block[b].counters, s->per_block[b].counters);
    }
  }
  EXPECT_EQ(s8.threads, 8);
}

// The run totals are exactly the sum of the per-query StageStats the
// engines have always maintained — the recorder adds no counting of its
// own, it only aggregates the existing per-query deltas.
TEST_F(StatsPipeline, TotalsEqualSumOfPerQueryStats) {
  const stats::PipelineSnapshot snap = run_batch(4);
  stats::StageCounters sum;
  for (const QueryResult& r : results_) sum += stats::counters_of(r.stats);
  EXPECT_EQ(snap.totals, sum);
  EXPECT_EQ(snap.queries, results_.size());
}

TEST_F(StatsPipeline, SingleQuerySearchRecordsEverything) {
  const MuBlastpEngine mu(*index_);
  stats::PipelineStats ps;
  const QueryResult r = mu.search(queries_.sequence(0), ps);
  const stats::PipelineSnapshot snap = ps.snapshot();
  EXPECT_EQ(snap.totals, stats::counters_of(r.stats));
  EXPECT_EQ(snap.queries, 1u);
  EXPECT_EQ(snap.per_block.size(), index_->blocks().size());
  EXPECT_GT(snap.total_seconds, 0.0);
}

// Figure 6's claim on a realistic workload: the pre-filter keeps well under
// 10% of stage-1 hits (the paper reports <5% on real databases).
TEST_F(StatsPipeline, SurvivalRatioBelowTenPercent) {
  const stats::PipelineSnapshot snap = run_batch(2);
  ASSERT_GT(snap.totals.hits, 0u);
  EXPECT_GT(snap.survival_ratio(), 0.0);
  EXPECT_LT(snap.survival_ratio(), 0.10);
}

// Hand-counted toy case. Query and the single subject are both homopolymer
// 'A' runs: the only BLOSUM62 neighbor of word AAA at T=11 is AAA itself
// (self score 3*4=12; the closest other word scores 9), so every query word
// hits every subject word:    hits = (Lq-2) * (Ls-2).
// On a diagonal with n consecutive hits the two-hit automaton ignores
// overlapping hits (distance < 3) and fires a pair on every third hit:
//                            pairs = floor((n-1)/3).
// A pair's extension spans the diagonal's whole overlap (every column
// scores +4, x-drop never triggers), scoring 4*(n+2): diagonals with
// n >= 8 reach the ungapped cutoff of 38, so their first extension succeeds
// and covers all later pairs (1 extension, 1 HSP); shorter diagonals fail
// every time (extensions = pairs, 0 HSPs).
TEST(StatsHandCount, HomopolymerMatchesClosedForm) {
  constexpr std::int64_t kQueryLen = 24;
  constexpr std::int64_t kSubjectLen = 30;
  const std::vector<Residue> query(kQueryLen, encode_residue('A'));
  SequenceStore db;
  db.add(std::vector<Residue>(kSubjectLen, encode_residue('A')), "polyA");

  std::uint64_t hits = 0, pairs = 0, extensions = 0, hsps = 0;
  for (std::int64_t d = -(kQueryLen - 3); d <= kSubjectLen - 3; ++d) {
    // Hits on diagonal d: query offsets with both words in range.
    const std::int64_t lo = std::max<std::int64_t>(0, -d);
    const std::int64_t hi = std::min(kQueryLen - 3, kSubjectLen - 3 - d);
    if (hi < lo) continue;
    const std::uint64_t n = static_cast<std::uint64_t>(hi - lo + 1);
    hits += n;
    if (n < 4) continue;  // a pair needs two hits >= 3 apart
    const std::uint64_t p = (n - 1) / 3;
    pairs += p;
    if (4 * (n + 2) >= 38) {
      extensions += 1;
      hsps += 1;
    } else {
      extensions += p;
    }
  }

  const DbIndex index = DbIndex::build(db, {});
  const MuBlastpEngine mu(index);
  stats::PipelineStats ps_mu;
  (void)mu.search(query, ps_mu);
  const stats::PipelineSnapshot mu_snap = ps_mu.snapshot();

  EXPECT_EQ(mu_snap.totals.hits, hits);
  EXPECT_EQ(mu_snap.totals.hit_pairs, pairs);
  EXPECT_EQ(mu_snap.totals.extensions, extensions);
  EXPECT_EQ(mu_snap.totals.ungapped_alignments, hsps);
  EXPECT_DOUBLE_EQ(mu_snap.survival_ratio(),
                   static_cast<double>(pairs) / static_cast<double>(hits));

  // The query-indexed baseline runs the same automaton in the other scan
  // order and must land on the same hand count.
  const QueryIndexedEngine ncbi(db);
  stats::PipelineStats ps_q;
  (void)ncbi.search(query, ps_q);
  EXPECT_EQ(ps_q.snapshot().totals.hits, hits);
  EXPECT_EQ(ps_q.snapshot().totals.hit_pairs, pairs);
  EXPECT_EQ(ps_q.snapshot().totals.extensions, extensions);
  EXPECT_EQ(ps_q.snapshot().totals.ungapped_alignments, hsps);
}

TEST_F(StatsPipeline, JsonRoundTripsExactly) {
  const stats::PipelineSnapshot snap = run_batch(2);
  const std::string json = stats::to_json(snap);
  const stats::PipelineSnapshot back = stats::from_json(json);

  EXPECT_EQ(back.engine, snap.engine);
  EXPECT_EQ(back.threads, snap.threads);
  EXPECT_EQ(back.queries, snap.queries);
  EXPECT_EQ(back.totals, snap.totals);
  // Doubles are serialized with round-trip precision: exact equality.
  EXPECT_EQ(back.total_seconds, snap.total_seconds);
  for (int s = 0; s < stats::kNumStages; ++s) {
    EXPECT_EQ(back.stage_seconds[s], snap.stage_seconds[s]);
  }
  ASSERT_EQ(back.per_block.size(), snap.per_block.size());
  for (std::size_t b = 0; b < snap.per_block.size(); ++b) {
    EXPECT_EQ(back.per_block[b].block, snap.per_block[b].block);
    EXPECT_EQ(back.per_block[b].rounds, snap.per_block[b].rounds);
    EXPECT_EQ(back.per_block[b].counters, snap.per_block[b].counters);
    for (int s = 0; s < stats::kNumStages; ++s) {
      EXPECT_EQ(back.per_block[b].seconds[s], snap.per_block[b].seconds[s]);
    }
  }
  // Idempotence: re-serializing the parsed snapshot is byte-identical.
  EXPECT_EQ(stats::to_json(back), json);
}

TEST(StatsJson, RejectsMalformedInput) {
  EXPECT_THROW(stats::from_json(""), Error);
  EXPECT_THROW(stats::from_json("{"), Error);
  EXPECT_THROW(stats::from_json("[]"), Error);
  EXPECT_THROW(stats::from_json("{\"schema\": \"other-v9\"}"), Error);
  stats::PipelineStats ps;
  ps.begin_run(1, 1, 0);
  ps.finish_run(0.0);
  const std::string good = stats::to_json(ps.snapshot());
  EXPECT_NO_THROW(stats::from_json(good));
  EXPECT_THROW(stats::from_json(good + "trailing"), Error);
}

TEST(StatsCounters, SurvivalRatioGuardsDivideByZero) {
  stats::StageCounters c;
  EXPECT_EQ(c.survival_ratio(), 0.0);
  c.hits = 200;
  c.hit_pairs = 10;
  EXPECT_DOUBLE_EQ(c.survival_ratio(), 0.05);
}

}  // namespace
}  // namespace mublastp
