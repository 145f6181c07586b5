// Tracing subsystem (src/trace): span well-formedness, thread-count
// invariance of the recorded span multiset, fork-style timestamp
// re-basing, the trace <-> stats cross-check, and perfctr graceful
// degradation under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/member_set.hpp"
#include "common/faultinject.hpp"
#include "core/mublastp_engine.hpp"
#include "common/rng.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"
#include "trace/trace.hpp"

namespace mublastp {
namespace {

class TraceBattery : public ::testing::Test {
 protected:
  void SetUp() override {
    fi::reset();
    db_ = synth::generate_database(synth::sprot_like(120000), 901);
    Rng rng(902);
    queries_ = synth::sample_queries(db_, 6, 128, rng);
    DbIndexConfig cfg;
    cfg.block_bytes = 32 * 1024;  // several blocks
    index_ = std::make_unique<DbIndex>(DbIndex::build(db_, cfg));
  }
  void TearDown() override { fi::reset(); }

  std::vector<trace::Span> traced_batch(int threads,
                                        stats::PipelineStats* ps = nullptr) {
    const MuBlastpEngine mu(*index_);
    trace::Tracer tracer;
    results_ = mu.search_batch(queries_, threads, ps, nullptr, &tracer);
    tracer.flush();
    return tracer.spans();
  }

  SequenceStore db_;
  SequenceStore queries_;
  std::unique_ptr<DbIndex> index_;
  std::vector<QueryResult> results_;
};

// ---------------------------------------------------------------------------
// Ring mechanics
// ---------------------------------------------------------------------------

TEST(SpanRing, PushDrainAndOverflowDropCounter) {
  trace::detail::SpanRing ring(4);  // rounds up to a power of two
  trace::Span s;
  int pushed = 0;
  for (int i = 0; i < 10; ++i) {
    s.begin_ns = static_cast<std::uint64_t>(i);
    pushed += ring.push(s) ? 1 : 0;
  }
  EXPECT_EQ(pushed, 4);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<trace::Span> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].begin_ns, static_cast<std::uint64_t>(i));
  }
  // Drained slots are reusable; the drop counter is cumulative.
  EXPECT_TRUE(ring.push(s));
  EXPECT_EQ(ring.dropped(), 6u);
}

TEST(SpanRing, TracerCountsDropsAcrossLanesAndChildren) {
  trace::TracerOptions opts;
  opts.ring_capacity = 2;
  trace::Tracer tracer(opts);
  for (int i = 0; i < 8; ++i) {
    tracer.record(trace::SpanKind::kMerge, 0, 1);
  }
  tracer.flush();
  EXPECT_EQ(tracer.spans().size() + tracer.dropped(), 8u);
  EXPECT_GT(tracer.dropped(), 0u);
  const std::uint64_t before = tracer.dropped();
  tracer.add_dropped(5);
  EXPECT_EQ(tracer.dropped(), before + 5);
}

// ---------------------------------------------------------------------------
// Span well-formedness on a real batch
// ---------------------------------------------------------------------------

TEST_F(TraceBattery, SpansAreWellFormed) {
  const std::vector<trace::Span> spans = traced_batch(4);
  ASSERT_FALSE(spans.empty());
  const std::uint32_t nblocks =
      static_cast<std::uint32_t>(DbIndexView(*index_).blocks().size());
  for (const trace::Span& s : spans) {
    EXPECT_LE(s.begin_ns, s.end_ns);
    EXPECT_NE(s.lane, trace::kNoId);
    if (s.block != trace::kNoId) {
      EXPECT_LT(s.block, nblocks);
    }
    if (s.query != trace::kNoId &&
        s.kind != trace::SpanKind::kShardWorker) {
      EXPECT_LT(s.query, queries_.size());
    }
  }
  // The decoupled pipeline's boundary sharing: within one (block, query)
  // round, hit_detect.end == sort.begin and sort.end == ungapped.begin —
  // the three spans come from the same three stamps.
  std::map<std::tuple<std::uint32_t, std::uint32_t>,
           std::map<trace::SpanKind, const trace::Span*>> rounds;
  for (const trace::Span& s : spans) {
    if (s.block == trace::kNoId || s.query == trace::kNoId) continue;
    rounds[{s.block, s.query}][s.kind] = &s;
  }
  int adjacent = 0;
  for (const auto& [key, kinds] : rounds) {
    const auto detect = kinds.find(trace::SpanKind::kHitDetect);
    const auto sort = kinds.find(trace::SpanKind::kSort);
    const auto ungapped = kinds.find(trace::SpanKind::kUngapped);
    if (detect == kinds.end() || sort == kinds.end() ||
        ungapped == kinds.end()) {
      continue;
    }
    EXPECT_EQ(detect->second->end_ns, sort->second->begin_ns);
    EXPECT_EQ(sort->second->end_ns, ungapped->second->begin_ns);
    ++adjacent;
  }
  EXPECT_GT(adjacent, 0);
  // gapped.end == finalize.begin per query (the stage() chaining).
  std::map<std::uint32_t, const trace::Span*> gapped, finalize;
  for (const trace::Span& s : spans) {
    if (s.kind == trace::SpanKind::kGapped) gapped[s.query] = &s;
    if (s.kind == trace::SpanKind::kFinalize) finalize[s.query] = &s;
  }
  ASSERT_EQ(gapped.size(), queries_.size());
  ASSERT_EQ(finalize.size(), queries_.size());
  for (const auto& [q, g] : gapped) {
    ASSERT_TRUE(finalize.count(q));
    EXPECT_EQ(g->end_ns, finalize[q]->begin_ns);
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance
// ---------------------------------------------------------------------------

using SpanKey = std::tuple<trace::SpanKind, std::uint32_t, std::uint32_t>;

std::map<SpanKey, int> span_multiset(const std::vector<trace::Span>& spans) {
  std::map<SpanKey, int> m;
  for (const trace::Span& s : spans) {
    ++m[{s.kind, s.block, s.query}];
  }
  return m;
}

// Spans follow the work, not the threads. Up to as many threads as
// queries every round and query is one task; past that each query is split
// into ceil(threads / queries) parts, and each part's ungapped chunk and
// gapped run is one span.
TEST_F(TraceBattery, SpanMultisetInvariantAcrossThreadCounts) {
  const auto m1 = span_multiset(traced_batch(1));
  const std::vector<QueryResult> r1 = results_;
  const auto m2 = span_multiset(traced_batch(2));
  const auto m8 = span_multiset(traced_batch(8));
  EXPECT_EQ(m1, m2);
  ASSERT_EQ(queries_.size(), 6u);  // 8 threads: two parts per query
  std::map<SpanKey, int> split = m1;
  for (auto& [key, count] : split) {
    const trace::SpanKind kind = std::get<0>(key);
    if (kind == trace::SpanKind::kUngapped ||
        kind == trace::SpanKind::kGapped) {
      count *= 2;
    }
  }
  EXPECT_EQ(m8, split);
  // And tracing never perturbs results.
  const MuBlastpEngine mu(*index_);
  const std::vector<QueryResult> untraced = mu.search_batch(queries_, 4);
  ASSERT_EQ(untraced.size(), results_.size());
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_EQ(untraced[i].alignments.size(), results_[i].alignments.size());
    EXPECT_EQ(untraced[i].stats.hits, results_[i].stats.hits);
  }
}

// ---------------------------------------------------------------------------
// Fork-style re-basing
// ---------------------------------------------------------------------------

TEST(TracerAbsorb, RebasesChildTimestampsOntoParentEpoch) {
  trace::Tracer parent;
  // A "child" whose epoch is 1ms later than the parent's, as if fork()ed
  // after the parent started.
  const std::uint64_t child_epoch = parent.epoch_raw_ns() + 1'000'000;
  std::vector<trace::Span> child_spans(3);
  for (std::uint64_t i = 0; i < child_spans.size(); ++i) {
    child_spans[i].begin_ns = i * 100;
    child_spans[i].end_ns = i * 100 + 50;
    child_spans[i].kind = trace::SpanKind::kGapped;
    child_spans[i].lane = 0;
  }
  const std::int64_t offset =
      static_cast<std::int64_t>(child_epoch) -
      static_cast<std::int64_t>(parent.epoch_raw_ns());
  parent.absorb(child_spans.data(), child_spans.size(), offset, 7);
  parent.flush();
  const std::vector<trace::Span>& spans = parent.spans();
  ASSERT_EQ(spans.size(), 3u);
  for (std::uint64_t i = 0; i < spans.size(); ++i) {
    // Re-based child time = child time + (child epoch - parent epoch):
    // strictly after the parent's epoch, still 50ns long, order preserved.
    EXPECT_EQ(spans[i].begin_ns, 1'000'000 + i * 100);
    EXPECT_EQ(spans[i].end_ns - spans[i].begin_ns, 50u);
    EXPECT_EQ(spans[i].shard, 7u);
  }
}

TEST(TracerAbsorb, ShardedTimelinesAreMonotoneInBothWorkerModes) {
  SequenceStore db = synth::generate_database(synth::sprot_like(60000), 903);
  Rng rng(904);
  SequenceStore queries = synth::sample_queries(db, 3, 96, rng);
  cluster::MemberSetOptions opts;
  const cluster::MemberSet set = cluster::MemberSet::partition(
      db, 3, cluster::PartitionStrategy::kRoundRobinSorted, DbIndexConfig{},
      opts);
  const std::uint32_t nblocks =
      static_cast<std::uint32_t>(set.view()->blocks().size());
  ASSERT_EQ(set.view()->members().size(), 3u);

  for (const auto mode : {cluster::WorkerMode::kThread,
                          cluster::WorkerMode::kProcess}) {
    trace::Tracer tracer;
    const cluster::MemberSearchResult res =
        set.search(queries, 4, mode, &tracer);
    EXPECT_TRUE(res.degraded.quarantined_shards.empty());
    tracer.flush();
    const std::uint64_t wall_end = tracer.now_ns();
    bool saw_worker = false;
    bool saw_merge = false;
    std::set<std::uint32_t> blocks;
    for (const trace::Span& s : tracer.spans()) {
      EXPECT_LE(s.begin_ns, s.end_ns);
      // Every re-based child timestamp lands inside the parent's run
      // window — the whole point of shipping the child epoch back.
      EXPECT_LE(s.end_ns, wall_end);
      if (s.kind == trace::SpanKind::kShardWorker) {
        saw_worker = true;
        EXPECT_NE(s.shard, trace::kNoId);
      }
      if (s.kind == trace::SpanKind::kMerge) saw_merge = true;
      if (s.kind == trace::SpanKind::kHitDetect) blocks.insert(s.block);
      if (s.kind == trace::SpanKind::kGapped &&
          mode == cluster::WorkerMode::kProcess) {
        EXPECT_NE(s.shard, trace::kNoId);
      }
    }
    if (mode == cluster::WorkerMode::kThread) {
      // One engine pass over every member's blocks: stage spans carry the
      // blocks' positions in the joined view, and nothing is merged.
      EXPECT_FALSE(saw_worker);
      EXPECT_FALSE(saw_merge);
      ASSERT_FALSE(blocks.empty());
      EXPECT_LT(*blocks.rbegin(), nblocks);
      EXPECT_EQ(blocks.size(), nblocks);
    } else {
      EXPECT_TRUE(saw_worker);
      EXPECT_TRUE(saw_merge);
    }
  }
}

// ---------------------------------------------------------------------------
// Trace <-> stats cross-check
// ---------------------------------------------------------------------------

TEST_F(TraceBattery, StageSpanSumsAgreeWithStatsSeconds) {
  stats::PipelineStats ps;
  const std::vector<trace::Span> spans = traced_batch(4, &ps);
  const stats::PipelineSnapshot snap = ps.snapshot();
  double span_sec[stats::kNumStages] = {};
  int span_count[stats::kNumStages] = {};
  double flatten_sec = 0;
  int flatten_count = 0;
  for (const trace::Span& s : spans) {
    const double sec = static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
    const int k = static_cast<int>(s.kind);
    if (k < stats::kNumStages) {
      span_sec[k] += sec;
      ++span_count[k];
    } else if (s.kind == trace::SpanKind::kFlatten) {
      flatten_sec += sec;
      ++flatten_count;
    }
  }
  // One recorder stamps every stage boundary once for both outputs, so
  // each sum agrees to within rounding: 1 ns per span.
  for (int st = 0; st < stats::kNumStages; ++st) {
    EXPECT_GT(span_count[st], 0);
    EXPECT_NEAR(span_sec[st], snap.stage_seconds[st], span_count[st] * 1e-9)
        << "stage " << stats::stage_name(static_cast<stats::Stage>(st));
  }
  // The whole pipeline is covered: every per-stage second the snapshot
  // booked has a span accounting for it.
  double total_spans = 0;
  double total_stats = 0;
  int total_count = 0;
  for (int st = 0; st < stats::kNumStages; ++st) {
    total_spans += span_sec[st];
    total_stats += snap.stage_seconds[st];
    total_count += span_count[st];
  }
  EXPECT_NEAR(total_spans, total_stats, total_count * 1e-9);
  // Scalar-kernel batches build no flattened lookups.
  EXPECT_EQ(flatten_count != 0, snap.hit_kernel.flatten_builds != 0);
  EXPECT_NEAR(flatten_sec, snap.hit_kernel.flatten_seconds,
              flatten_count * 1e-9);
}

// ---------------------------------------------------------------------------
// perfctr graceful degradation
// ---------------------------------------------------------------------------

TEST_F(TraceBattery, PerfctrOpenFailureDegradesToPlainTimestamps) {
  // Kill every perf_event_open attempt this run could make (one per lane).
  std::string spec;
  for (int i = 1; i <= 32; ++i) {
    spec += (i == 1 ? "" : ",") + std::string("trace.perfctr_open:") +
            std::to_string(i);
  }
  fi::arm_from_spec(spec);

  const MuBlastpEngine mu(*index_);
  trace::TracerOptions opts;
  opts.counters = true;
  trace::Tracer tracer(opts);
  const std::vector<QueryResult> traced =
      mu.search_batch(queries_, 4, nullptr, nullptr, &tracer);
  tracer.flush();
  EXPECT_GT(fi::call_count("trace.perfctr_open"), 0u);
  EXPECT_FALSE(tracer.counters_available());
  EXPECT_FALSE(tracer.perf_totals().recorded());
  EXPECT_FALSE(tracer.spans().empty());
  for (const trace::Span& s : tracer.spans()) {
    EXPECT_EQ(s.has_counters, 0);
  }
  // Results are untouched by the degradation.
  fi::reset();
  const std::vector<QueryResult> clean = mu.search_batch(queries_, 4);
  ASSERT_EQ(clean.size(), traced.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].alignments.size(), traced[i].alignments.size());
  }
}

// ---------------------------------------------------------------------------
// Emission + stats-v1 perf_counters
// ---------------------------------------------------------------------------

TEST_F(TraceBattery, ChromeJsonEmissionIsSaneAndDeterministic) {
  const std::vector<trace::Span> spans = traced_batch(2);
  trace::Tracer tracer;
  tracer.absorb(spans.data(), spans.size(), 0, trace::kNoId);
  trace::TraceMeta meta;
  meta.engine = "mublastp";
  meta.kernel = "scalar";
  meta.threads = 2;
  const std::string json = trace::to_chrome_json(tracer, meta);
  EXPECT_NE(json.find("\"schema\": \"mublastp-trace-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_detect\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // Same spans, same bytes: emission is deterministically ordered.
  trace::Tracer again;
  again.absorb(spans.data(), spans.size(), 0, trace::kNoId);
  EXPECT_EQ(json, trace::to_chrome_json(again, meta));
}

TEST(PerfCounterStatsJson, PrintedOnlyWhenSampled) {
  stats::PipelineStats ps;
  ps.begin_run(1, 1, 1);
  ps.finish_run(0.5);
  const std::string without = stats::to_json(ps.snapshot());
  EXPECT_EQ(without.find("perf_counters"), std::string::npos);

  stats::PerfCounterStats pc;
  pc.sampled_spans = 12;
  for (int i = 0; i < stats::kNumStages; ++i) {
    pc.cycles[i] = 1000 + i;
    pc.instructions[i] = 2000 + i;
    pc.llc_misses[i] = 30 + i;
    pc.branch_misses[i] = 40 + i;
  }
  ps.set_perf_counters(pc);
  const std::string with = stats::to_json(ps.snapshot());
  // The object's bytes are pinned by StatsJson.GoldenSnapshotBytes; here
  // it is the only difference from the unsampled run.
  const std::size_t at =
      with.find(",\n  \"perf_counters\": {\"sampled_spans\": 12, ");
  ASSERT_NE(at, std::string::npos) << with;
  const std::size_t end =
      with.find("\"branch_misses\": {\"hit_detect\": 40, \"sort\": 41,"
                " \"ungapped\": 42, \"gapped\": 43, \"finalize\": 44}}",
                at);
  ASSERT_NE(end, std::string::npos) << with;
  EXPECT_EQ(with.substr(0, at) + with.substr(with.find("}}", end) + 2),
            without);
}

}  // namespace
}  // namespace mublastp
