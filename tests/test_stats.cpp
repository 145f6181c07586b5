// Telemetry subsystem (src/stats): deterministic counters under OpenMP,
// a hand-counted toy workload, survival ratio, and the stats-v1 bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "baseline/query_engine.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

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

/// The double printed right after `"key": ` at or after `from` in `json`.
double double_after(const std::string& json, const std::string& key,
                    std::size_t from = 0) {
  const std::size_t at = json.find("\"" + key + "\": ", from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

// A real run's stats-v1 carries its counters and one row per block, and
// every double is printed with round-trip precision.
TEST_F(StatsPipeline, JsonCarriesRunValuesExactly) {
  const stats::PipelineSnapshot snap = run_batch(2);
  const std::string json = stats::to_json(snap);
  const auto counters = [](const stats::StageCounters& c,
                           const std::string& indent) {
    return "{\n" + indent + "  \"hits\": " + std::to_string(c.hits) + ",\n" +
           indent + "  \"hit_pairs\": " + std::to_string(c.hit_pairs) +
           ",\n" + indent + "  \"sorted_records\": " +
           std::to_string(c.sorted_records) + ",\n" + indent +
           "  \"extensions\": " + std::to_string(c.extensions) + ",\n" +
           indent + "  \"ungapped_alignments\": " +
           std::to_string(c.ungapped_alignments) + ",\n" + indent +
           "  \"gapped_extensions\": " + std::to_string(c.gapped_extensions) +
           "\n" + indent + "}";
  };
  EXPECT_NE(json.find("  \"counters\": " + counters(snap.totals, "  ")),
            std::string::npos);
  EXPECT_NE(json.find("\"threads\": 2,\n  \"queries\": " +
                      std::to_string(snap.queries) + ",\n  \"blocks\": " +
                      std::to_string(snap.per_block.size()) + ",\n"),
            std::string::npos);
  EXPECT_EQ(double_after(json, "total_seconds"), snap.total_seconds);
  const std::size_t stages = json.find("\"stage_seconds\": ");
  for (int s = 0; s < stats::kNumStages; ++s) {
    const char* name = stats::stage_name(static_cast<stats::Stage>(s));
    EXPECT_EQ(double_after(json, name, stages), snap.stage_seconds[s]);
  }
  ASSERT_GT(snap.per_block.size(), 1u);
  for (const stats::BlockStats& b : snap.per_block) {
    const std::string row = "{\"block\": " + std::to_string(b.block) +
                            ", \"rounds\": " + std::to_string(b.rounds) +
                            ", \"counters\": " + counters(b.counters, "    ");
    const std::size_t at = json.find(row);
    ASSERT_NE(at, std::string::npos) << row;
    for (int s = 0; s < stats::kNumStages; ++s) {
      const char* name = stats::stage_name(static_cast<stats::Stage>(s));
      EXPECT_EQ(double_after(json, name, at), b.seconds[s]);
    }
  }
}

/// A snapshot that fills every optional object of stats-v1.
stats::PipelineSnapshot full_snapshot() {
  stats::PipelineSnapshot s;
  s.engine = "mublastp-sharded";
  s.kernel = "avx2";
  s.threads = 4;
  s.queries = 3;
  s.totals = {1000, 40, 40, 12, 5, 3};
  s.stage_seconds = {0.1, 1e-300, 5e-324, 1.7976931348623157e308, 0.25};
  s.total_seconds = 1.5;
  s.workspace_peak_bytes = 65536;
  s.index_load = {"copy", 0.002, 568992, 0};
  s.gapped_kernel = {7, 2, 1};
  s.hit_kernel = {3, 0.125, 90, 11};
  s.perf_counters.sampled_spans = 12;
  for (int i = 0; i < stats::kNumStages; ++i) {
    s.perf_counters.cycles[i] = 1000 + i;
    s.perf_counters.instructions[i] = 2000 + i;
    s.perf_counters.llc_misses[i] = 30 + i;
    s.perf_counters.branch_misses[i] = 40 + i;
  }
  s.shards.count = 2;
  s.shards.mode = "thread";
  s.shards.strategy = "round-robin-sorted";
  s.shards.imbalance_predicted = 0.5;
  s.shards.imbalance_measured = 0.75;
  s.shards.per_shard = {{0, 0.5, 600, 2}, {1, 0.125, 400, 1}};
  s.build.generation = 2;
  s.build.chain_length = 2;
  s.build.sequences = 250000000;
  s.build.residues = 85000000000;
  s.build.threads = 4;
  s.build.plan_seconds = 0.0625;
  s.build.total_seconds = 0.5;
  s.build.block_seconds = {0.25, 0.125};
  s.degraded.partial = true;
  s.degraded.load_retries = 1;
  s.degraded.time_budget_trips = 2;
  s.degraded.mem_budget_trips = 3;
  s.degraded.quarantined = {{1, "block 1: checksum mismatch"}};
  s.degraded.quarantined_shards = {{0, "shard 0: worker exited"}};
  stats::BlockStats b0;
  b0.block = 0;
  b0.rounds = 3;
  b0.counters = {600, 25, 25, 8, 3, 0};
  b0.seconds = {0.5, 0.25, 0.125, 0, 0};
  stats::BlockStats b1 = b0;
  b1.block = 1;
  b1.counters = {400, 15, 15, 4, 2, 0};
  b1.seconds = {0.25, 0.125, 0.0625, 0, 0};
  s.per_block = {b0, b1};
  return s;
}

// The stats-v1 bytes, pinned: key names, key order, layout, the round-trip
// spelling of the smallest, subnormal and largest doubles, and a build
// object at UniProt scale, whose first printf piece is longer than 128
// bytes.
TEST(StatsJson, GoldenSnapshotBytes) {
  const char* want = R"({
  "schema": "mublastp-stats-v1",
  "engine": "mublastp-sharded",
  "kernel": "avx2",
  "threads": 4,
  "queries": 3,
  "blocks": 2,
  "counters": {
    "hits": 1000,
    "hit_pairs": 40,
    "sorted_records": 40,
    "extensions": 12,
    "ungapped_alignments": 5,
    "gapped_extensions": 3
  },
  "survival_ratio": 0.040000000000000001,
  "stage_seconds": {"hit_detect": 0.10000000000000001, "sort": 1e-300, "ungapped": 4.9406564584124654e-324, "gapped": 1.7976931348623157e+308, "finalize": 0.25},
  "total_seconds": 1.5,
  "workspace_peak_bytes": 65536,
  "index": {"mode": "copy", "load_seconds": 0.002, "file_bytes": 568992, "resident_bytes": 0},
  "gapped_kernel": {"int8_runs": 7, "int16_reruns": 2, "scalar_fallbacks": 1},
  "hit_kernel": {"flatten_builds": 3, "flatten_seconds": 0.125, "tiles": 90, "tail_entries": 11},
  "perf_counters": {"sampled_spans": 12, "cycles": {"hit_detect": 1000, "sort": 1001, "ungapped": 1002, "gapped": 1003, "finalize": 1004}, "instructions": {"hit_detect": 2000, "sort": 2001, "ungapped": 2002, "gapped": 2003, "finalize": 2004}, "llc_misses": {"hit_detect": 30, "sort": 31, "ungapped": 32, "gapped": 33, "finalize": 34}, "branch_misses": {"hit_detect": 40, "sort": 41, "ungapped": 42, "gapped": 43, "finalize": 44}},
  "shards": {"count": 2, "mode": "thread", "strategy": "round-robin-sorted", "imbalance_predicted": 0.5, "imbalance_measured": 0.75, "per_shard": [{"shard": 0, "seconds": 0.5, "hits": 600, "alignments": 2}, {"shard": 1, "seconds": 0.125, "hits": 400, "alignments": 1}]},
  "build": {"generation": 2, "chain_length": 2, "sequences": 250000000, "residues": 85000000000, "threads": 4, "plan_seconds": 0.0625, "total_seconds": 0.5, "block_seconds": [0.25, 0.125]},
  "degraded": {"partial": true, "load_retries": 1, "time_budget_trips": 2, "mem_budget_trips": 3, "quarantined": [{"block": 1, "reason": "block 1: checksum mismatch"}], "quarantined_shards": [{"shard": 0, "reason": "shard 0: worker exited"}]},
  "per_block": [
    {"block": 0, "rounds": 3, "counters": {
      "hits": 600,
      "hit_pairs": 25,
      "sorted_records": 25,
      "extensions": 8,
      "ungapped_alignments": 3,
      "gapped_extensions": 0
    }, "seconds": {"hit_detect": 0.5, "sort": 0.25, "ungapped": 0.125, "gapped": 0, "finalize": 0}},
    {"block": 1, "rounds": 3, "counters": {
      "hits": 400,
      "hit_pairs": 15,
      "sorted_records": 15,
      "extensions": 4,
      "ungapped_alignments": 2,
      "gapped_extensions": 0
    }, "seconds": {"hit_detect": 0.25, "sort": 0.125, "ungapped": 0.0625, "gapped": 0, "finalize": 0}}
  ]
}
)";
  EXPECT_EQ(stats::to_json(full_snapshot()), want);
}

// Strings are escaped, not altered: a quarantine reason quoting a path
// with a quote, a backslash or control bytes comes out as valid JSON that
// decodes to the same bytes, and UTF-8 passes through.
TEST(StatsJson, EscapesStrings) {
  stats::PipelineSnapshot s = full_snapshot();
  const std::string raw = "we\"ird\\dir\nline\ttab\x01 caf\xc3\xa9";
  const std::string escaped =
      "\"we\\\"ird\\\\dir\\nline\\ttab\\u0001 caf\xc3\xa9\"";
  s.degraded.quarantined = {{1, raw}};
  s.degraded.quarantined_shards = {{0, raw}};
  const std::string json = stats::to_json(s);
  EXPECT_NE(json.find("{\"block\": 1, \"reason\": " + escaped + "}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"shard\": 0, \"reason\": " + escaped + "}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
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
