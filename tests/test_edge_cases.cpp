// Degenerate-input robustness: the engines must handle pathological queries
// and databases gracefully (no crashes, sensible empty results).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "baseline/interleaved_engine.hpp"
#include "baseline/query_engine.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

class EdgeCases : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = synth::generate_database(synth::sprot_like(40000), 71);
    DbIndexConfig cfg;
    cfg.block_bytes = 16 * 1024;
    index_ = std::make_unique<DbIndex>(DbIndex::build(db_, cfg));
  }

  SequenceStore db_;
  std::unique_ptr<DbIndex> index_;
};

TEST_F(EdgeCases, AllAmbiguityQueryFindsNothing) {
  // A query of X residues: every word scores -3 < T=11, so no word has
  // neighbors and no hits can form.
  const std::vector<Residue> query(100, encode_residue('X'));
  const MuBlastpEngine mu(*index_);
  const QueryResult r = mu.search(query);
  EXPECT_EQ(r.stats.hits, 0u);
  EXPECT_TRUE(r.ungapped.empty());
  EXPECT_TRUE(r.alignments.empty());
  const QueryIndexedEngine ncbi(db_);
  const QueryResult r2 = ncbi.search(query);
  EXPECT_EQ(r2.stats.hits, 0u);
}

TEST_F(EdgeCases, MinimumLengthQueryWorks) {
  // Exactly one word: can never form a two-hit pair, so zero extensions —
  // but it must not crash and stats must be consistent.
  std::vector<Residue> query(kWordLength);
  Rng rng(72);
  for (auto& r : query) r = static_cast<Residue>(rng.next_below(20));
  const MuBlastpEngine mu(*index_);
  const QueryResult r = mu.search(query);
  EXPECT_EQ(r.stats.hit_pairs, 0u);
  EXPECT_TRUE(r.alignments.empty());
}

TEST_F(EdgeCases, QueryLongerThanEverySubject) {
  std::vector<Residue> query(6000);
  Rng rng(73);
  for (auto& r : query) r = static_cast<Residue>(rng.next_below(20));
  const MuBlastpEngine mu(*index_);
  const QueryResult r = mu.search(query);  // must not crash or overflow keys
  for (const GappedAlignment& a : r.alignments) {
    EXPECT_LE(a.s_end, db_.length(a.subject));
  }
}

TEST_F(EdgeCases, SingleSequenceDatabase) {
  SequenceStore tiny;
  Rng rng(74);
  std::vector<Residue> seq(150);
  for (auto& r : seq) r = static_cast<Residue>(rng.next_below(20));
  tiny.add(seq, "only");
  DbIndexConfig cfg;
  const DbIndex index = DbIndex::build(tiny, cfg);
  EXPECT_EQ(index.blocks().size(), 1u);
  const MuBlastpEngine mu(index);
  // Search the sequence against itself: must find the self-match.
  const QueryResult r = mu.search(seq);
  ASSERT_FALSE(r.alignments.empty());
  EXPECT_EQ(r.alignments.front().subject, 0u);
  EXPECT_EQ(r.alignments.front().q_start, 0u);
  EXPECT_EQ(r.alignments.front().q_end, seq.size());
}

TEST_F(EdgeCases, DatabaseOfWordLengthSequences) {
  // Sequences of exactly W residues: one word each, never a two-hit pair.
  SequenceStore tiny;
  Rng rng(75);
  for (int i = 0; i < 50; ++i) {
    std::vector<Residue> seq(kWordLength);
    for (auto& r : seq) r = static_cast<Residue>(rng.next_below(20));
    tiny.add(seq, "w" + std::to_string(i));
  }
  const DbIndex index = DbIndex::build(tiny, {});
  const MuBlastpEngine mu(index);
  std::vector<Residue> query(200);
  for (auto& r : query) r = static_cast<Residue>(rng.next_below(20));
  const QueryResult r = mu.search(query);
  EXPECT_EQ(r.stats.hit_pairs, 0u);  // no diagonal can hold two hits
  EXPECT_TRUE(r.alignments.empty());
}

TEST_F(EdgeCases, RepetitiveLowComplexityQuery) {
  // A homopolymer query hammers a single word's position list; the engines
  // must survive the hit explosion and still agree.
  const std::vector<Residue> query(300, encode_residue('A'));
  const MuBlastpEngine mu(*index_);
  const InterleavedDbEngine idb(*index_);
  const QueryResult a = mu.search(query);
  const QueryResult b = idb.search(query);
  EXPECT_EQ(a.ungapped, b.ungapped);
  EXPECT_EQ(a.stats.hits, b.stats.hits);
}

TEST_F(EdgeCases, EmptyDatabaseIsRejectedCleanly) {
  // Degenerate input must surface as a typed error, not a crash — both for
  // the index builder and for the engine that takes a raw store.
  const SequenceStore empty;
  EXPECT_THROW((void)DbIndex::build(empty, {}), Error);
  EXPECT_THROW(QueryIndexedEngine{empty}, Error);
}

TEST_F(EdgeCases, SingleResidueQueryThrowsCleanlyWithStats) {
  // One residue can't form a word; the guard must fire before any stats
  // hook runs, and the collector must stay usable afterwards.
  const std::vector<Residue> query(1, encode_residue('A'));
  const MuBlastpEngine mu(*index_);
  stats::PipelineStats ps;
  EXPECT_THROW((void)mu.search(query, ps), Error);
  const QueryIndexedEngine ncbi(db_);
  EXPECT_THROW((void)ncbi.search(query, ps), Error);
  // The collector is reset by the next begin_run: a real search still works.
  Rng rng(77);
  const SequenceStore good = synth::sample_queries(db_, 1, 64, rng);
  const QueryResult r = mu.search(good.sequence(0), ps);
  EXPECT_EQ(ps.snapshot().totals, stats::counters_of(r.stats));
}

TEST_F(EdgeCases, AllAmbiguityQueryWithStatsYieldsZeroRatioAndValidJson) {
  // All-X query: zero hits everywhere. The survival ratio must come back as
  // 0 (no divide by zero) and the snapshot must still serialize cleanly.
  const std::vector<Residue> query(100, encode_residue('X'));
  const MuBlastpEngine mu(*index_);
  stats::PipelineStats ps;
  const QueryResult r = mu.search(query, ps);
  EXPECT_TRUE(r.alignments.empty());
  const stats::PipelineSnapshot snap = ps.snapshot();
  EXPECT_EQ(snap.totals.hits, 0u);
  EXPECT_EQ(snap.survival_ratio(), 0.0);
  const std::string json = stats::to_json(snap);
  const stats::PipelineSnapshot back = stats::from_json(json);
  EXPECT_EQ(back.totals, snap.totals);
  EXPECT_EQ(back.survival_ratio(), 0.0);
}

TEST_F(EdgeCases, StopCodonResiduesAreSearchable) {
  // '*' residues score -4 against everything: a query containing a few of
  // them still aligns through its normal regions.
  Rng rng(76);
  const SequenceStore queries = synth::sample_queries(db_, 1, 120, rng);
  std::vector<Residue> query(queries.sequence(0).begin(),
                             queries.sequence(0).end());
  query[40] = encode_residue('*');
  query[80] = encode_residue('*');
  const MuBlastpEngine mu(*index_);
  const QueryResult r = mu.search(query);
  EXPECT_FALSE(r.alignments.empty());
}

// ---- Diagonal-key limit ---------------------------------------------------
// One (query, block) round needs len_f + qlen + 1 diagonal keys per
// fragment, below 2^31 in total (core/diag_keys.hpp). Against a
// 2^20-residue query, 2,050 eight-residue fragments need just past 2^31
// keys, and 4,100 need a total that a 32-bit sum wraps to 4,231,204.
// The engines run the scalar kernel: the vector paths first flatten the
// whole query's neighbor lookup, which these tests do not need.

constexpr std::size_t kLongQuery = std::size_t{1} << 20;

DbIndex eight_residue_block(std::size_t fragments) {
  SequenceStore db;
  Rng rng(91);
  std::vector<Residue> seq(8);
  for (std::size_t i = 0; i < fragments; ++i) {
    for (auto& r : seq) r = static_cast<Residue>(rng.next_below(20));
    db.add(seq);
  }
  DbIndex index = DbIndex::build(db, {});
  EXPECT_EQ(index.blocks().size(), 1u);
  return index;
}

std::vector<Residue> long_query() {
  std::vector<Residue> query(kLongQuery);
  Rng rng(92);
  for (auto& r : query) r = static_cast<Residue>(rng.next_below(20));
  return query;
}

void expect_key_limit_error(const std::function<void()>& search,
                            std::size_t fragments, const char* engine) {
  try {
    search();
    ADD_FAILURE() << engine << ": the oversized round was searched";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResource) << engine << ": " << e.what();
    const std::string what = e.what();
    EXPECT_NE(what.find("query length " + std::to_string(kLongQuery)),
              std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(fragments) + " fragments"),
              std::string::npos) << what;
  }
}

TEST(DiagKeyLimit, WrappingKeySumIsAResourceErrorInBothEngines) {
  const DbIndex index = eight_residue_block(4100);
  const std::vector<Residue> query = long_query();
  MuBlastpOptions opts;
  opts.kernel = simd::KernelPath::kScalar;
  const MuBlastpEngine mu(index, {}, opts);
  expect_key_limit_error([&] { (void)mu.search(query); }, 4100, "mublastp");
  const InterleavedDbEngine idb(index, {}, simd::KernelPath::kScalar);
  expect_key_limit_error([&] { (void)idb.search(query); }, 4100, "ncbi-db");
}

TEST(DiagKeyLimit, JustPastTwoToThe31IsAResourceError) {
  const DbIndex index = eight_residue_block(2050);
  MuBlastpOptions opts;
  opts.kernel = simd::KernelPath::kScalar;
  const MuBlastpEngine mu(index, {}, opts);
  expect_key_limit_error([&] { (void)mu.search(long_query()); }, 2050,
                         "mublastp");
}

}  // namespace
}  // namespace mublastp
