// Parallelism inside one query. A batch with fewer queries than threads
// gives each query ceil(threads / queries) parts: every (block, query)
// round sweeps its sorted records in chunks cut at diagonal-key changes,
// and each query's gapped stage runs in runs of whole subjects. None of it
// may show in the output: results, per-query counters and stats-v1 rows
// must equal the one-thread batch and the single-query search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/member_set.hpp"
#include "common/alphabet.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

constexpr int kThreadCounts[] = {1, 2, 3, 4, 8};

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

/// stats-v1 totals and per-block rows, rounds included (seconds differ).
void expect_same_rows(const stats::PipelineSnapshot& got,
                      const stats::PipelineSnapshot& want) {
  EXPECT_EQ(got.totals, want.totals);
  EXPECT_EQ(got.queries, want.queries);
  ASSERT_EQ(got.per_block.size(), want.per_block.size());
  for (std::size_t b = 0; b < got.per_block.size(); ++b) {
    EXPECT_EQ(got.per_block[b].block, want.per_block[b].block) << b;
    EXPECT_EQ(got.per_block[b].rounds, want.per_block[b].rounds) << b;
    EXPECT_EQ(got.per_block[b].counters, want.per_block[b].counters) << b;
  }
}

/// The first `n` queries of `all`.
SequenceStore first(const SequenceStore& all, std::size_t n) {
  SequenceStore out;
  for (SeqId q = 0; q < n; ++q) out.add(all.sequence(q), all.name(q));
  return out;
}

/// Runs `engine` over the first `n` of `queries` at every thread count and
/// checks each run against the one-thread run, whose results must in turn
/// equal `single`, the single-query searches of those queries.
void check_thread_counts(const MuBlastpEngine& engine,
                         const SequenceStore& queries, std::size_t n,
                         const std::vector<QueryResult>& single) {
  const SequenceStore batch = first(queries, n);
  stats::PipelineStats ps1;
  const std::vector<QueryResult> one = engine.search_batch(batch, 1, &ps1);
  const stats::PipelineSnapshot snap1 = ps1.snapshot();
  EXPECT_GT(snap1.totals.ungapped_alignments, 0u);
  expect_same_results(one, {single.begin(), single.begin() + n});
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    SCOPED_TRACE(std::to_string(threads) + " threads");
    stats::PipelineStats ps;
    expect_same_results(engine.search_batch(batch, threads, &ps), one);
    expect_same_rows(ps.snapshot(), snap1);
  }
}

/// Every query of `queries` searched alone.
std::vector<QueryResult> search_each(const MuBlastpEngine& engine,
                                     const SequenceStore& queries) {
  std::vector<QueryResult> out;
  for (SeqId q = 0; q < queries.size(); ++q) {
    out.push_back(engine.search(queries.sequence(q)));
  }
  return out;
}

/// (pre-filter on, default kernel rather than scalar)
class IntraQuery : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  static void SetUpTestSuite() {
    db_ = new SequenceStore(
        synth::generate_database(synth::sprot_like(80000), 951));
    // A 10,000-residue query joined from database sequences, as the
    // benchmark's titin query is, so that its gapped stage spans many
    // subjects; then two ordinary queries.
    Rng rng(952);
    std::vector<Residue> joined;
    while (joined.size() < 10000) {
      const auto seq = db_->sequence(
          static_cast<SeqId>(rng.next_below(db_->size())));
      joined.insert(joined.end(), seq.begin(), seq.end());
    }
    joined.resize(10000);
    queries_ = new SequenceStore;
    queries_->add(joined, "joined_10000");
    const SequenceStore extra = synth::sample_queries(*db_, 2, 160, rng);
    for (SeqId q = 0; q < extra.size(); ++q) {
      queries_->add(extra.sequence(q), extra.name(q));
    }
    DbIndexConfig cfg;
    cfg.block_bytes = 32 * 1024;  // several blocks
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
  void TearDown() override { fi::reset(); }

  /// The joined query matches hundreds of subjects; a shorter report keeps
  /// the traceback pass from dominating the suite's time.
  static SearchParams params() {
    SearchParams p;
    p.max_alignments = 100;
    return p;
  }

  static MuBlastpOptions options() {
    MuBlastpOptions opts;
    opts.prefilter = std::get<0>(GetParam());
    opts.kernel = std::get<1>(GetParam()) ? simd::default_kernel()
                                          : simd::KernelPath::kScalar;
    return opts;
  }

  static SequenceStore* db_;
  static SequenceStore* queries_;
  static DbIndex* index_;
};

SequenceStore* IntraQuery::db_ = nullptr;
SequenceStore* IntraQuery::queries_ = nullptr;
DbIndex* IntraQuery::index_ = nullptr;

TEST_P(IntraQuery, SplitBatchesMatchOneThreadAndSingleQuery) {
  ASSERT_GT(DbIndexView(*index_).blocks().size(), 2u);
  const MuBlastpEngine engine(*index_, params(), options());
  const std::vector<QueryResult> single = search_each(engine, *queries_);
  for (const std::size_t n : {1, 2, 3}) {
    SCOPED_TRACE(std::to_string(n) + " queries");
    check_thread_counts(engine, *queries_, n, single);
  }
}

TEST_P(IntraQuery, ThreeMemberSetInThreadMode) {
  DbIndexConfig cfg;
  cfg.block_bytes = 32 * 1024;
  cluster::MemberSetOptions opts;
  opts.params = params();
  opts.engine = options();
  const cluster::MemberSet set = cluster::MemberSet::partition(
      *db_, 3, cluster::PartitionStrategy::kRoundRobinSorted, cfg, opts);
  for (const std::size_t n : {1, 3}) {
    SCOPED_TRACE(std::to_string(n) + " queries");
    const SequenceStore queries = first(*queries_, n);
    stats::PipelineStats ps1;
    const cluster::MemberSearchResult one =
        set.search(queries, 1, cluster::WorkerMode::kThread, nullptr, &ps1);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      stats::PipelineStats ps;
      const cluster::MemberSearchResult got = set.search(
          queries, threads, cluster::WorkerMode::kThread, nullptr, &ps);
      expect_same_results(got.results, one.results);
      expect_same_rows(ps.snapshot(), ps1.snapshot());
    }
  }
}

// stage.ungapped is evaluated once per (block, query) round, and every
// round of a block runs before any round of the next, so its Nth call
// fails the same block at any thread count and split.
TEST_P(IntraQuery, InjectedUngappedFaultQuarantinesTheSameBlock) {
  const MuBlastpEngine engine(*index_, params(), options());
  for (const std::size_t n : {1, 3}) {
    SCOPED_TRACE(std::to_string(n) + " queries");
    const SequenceStore queries = first(*queries_, n);
    std::vector<std::vector<QueryResult>> runs;
    std::vector<stats::DegradedStats> degraded(2);
    for (const int threads : {1, 4}) {
      fi::reset();
      fi::arm("stage.ungapped", n + 1);  // the first round of block 1
      runs.push_back(engine.search_batch(queries, threads, nullptr,
                                         &degraded[runs.size()]));
    }
    for (const stats::DegradedStats& d : degraded) {
      ASSERT_EQ(d.quarantined.size(), 1u);
      EXPECT_EQ(d.quarantined[0].block, 1u);
      EXPECT_TRUE(d.partial);
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (std::size_t q = 0; q < runs[0].size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      EXPECT_EQ(runs[0][q].ungapped, runs[1][q].ungapped);
      ASSERT_EQ(runs[0][q].alignments.size(), runs[1][q].alignments.size());
      for (std::size_t i = 0; i < runs[0][q].alignments.size(); ++i) {
        const GappedAlignment& a = runs[0][q].alignments[i];
        const GappedAlignment& b = runs[1][q].alignments[i];
        EXPECT_EQ(std::tie(a.subject, a.q_start, a.q_end, a.s_start, a.s_end,
                           a.score, a.evalue, a.ops),
                  std::tie(b.subject, b.q_start, b.q_end, b.s_start, b.s_end,
                           b.score, b.evalue, b.ops))
            << i;
      }
    }
    // A strict batch fails on the same fault at every split.
    fi::reset();
    fi::arm("stage.ungapped", n + 1);
    EXPECT_THROW((void)engine.search_batch(queries, 4), Error);
  }
}

// Homopolymers put long runs of one diagonal key into the sorted record
// stream: a 200-residue poly-A query against a 300-residue poly-A subject
// hits every subject word from every query word, so diagonal d holds one
// record per query offset on it. Splitting the stream at equal shares
// would cut inside such a run, where the Algorithm 1 pairing and the
// coverage check carry state from record to record; the cuts must move to
// the next key change and leave every count and result unchanged.
TEST_P(IntraQuery, CutInsideOneDiagonalChangesNothing) {
  constexpr std::int64_t kQueryLen = 200;
  constexpr std::int64_t kSubjectLen = 300;
  SequenceStore db;
  db.add(std::vector<Residue>(kSubjectLen, encode_residue('A')), "polyA");
  SequenceStore queries;
  queries.add(std::vector<Residue>(kQueryLen, encode_residue('A')), "polyA");

  // Without the pre-filter every hit is a record: run lengths in key
  // (diagonal) order, and the equal-share cut positions of every split.
  std::vector<std::uint64_t> run_ends;
  std::uint64_t records = 0;
  for (std::int64_t d = -(kQueryLen - 3); d <= kSubjectLen - 3; ++d) {
    const std::int64_t lo = std::max<std::int64_t>(0, -d);
    const std::int64_t hi = std::min(kQueryLen - 3, kSubjectLen - 3 - d);
    records += static_cast<std::uint64_t>(hi - lo + 1);
    run_ends.push_back(records);
  }
  for (const int parts : kThreadCounts) {
    for (int c = 1; c < parts; ++c) {
      const std::uint64_t cut = records * static_cast<std::uint64_t>(c) /
                                static_cast<std::uint64_t>(parts);
      EXPECT_FALSE(std::binary_search(run_ends.begin(), run_ends.end(), cut))
          << "equal-share cut " << c << " of " << parts
          << " falls on a key change";
    }
  }

  const DbIndex index = DbIndex::build(db, {});
  const MuBlastpEngine engine(index, {}, options());
  stats::PipelineStats ps;
  (void)engine.search_batch(queries, 1, &ps);
  const stats::StageCounters totals = ps.snapshot().totals;
  EXPECT_EQ(totals.hits, records);
  EXPECT_EQ(totals.sorted_records,
            options().prefilter ? totals.hit_pairs : records);
  check_thread_counts(engine, queries, 1, search_each(engine, queries));
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, IntraQuery,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<IntraQuery::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "prefilter_"
                                                 : "no_prefilter_") +
             (std::get<1>(info.param) ? "default_kernel" : "scalar");
    });

}  // namespace
}  // namespace mublastp
