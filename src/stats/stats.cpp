#include "stats/stats.hpp"

#include <algorithm>
#include <cinttypes>

#include "common/error.hpp"
#include "common/json_writer.hpp"

namespace mublastp::stats {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kHitDetect:
      return "hit_detect";
    case Stage::kSort:
      return "sort";
    case Stage::kUngapped:
      return "ungapped";
    case Stage::kGapped:
      return "gapped";
    case Stage::kFinalize:
      return "finalize";
  }
  return "unknown";
}

void ShardsStats::measure_imbalance() {
  double lo = 0.0;
  double hi = 0.0;
  for (const ShardStats& s : per_shard) {
    if (s.seconds == 0.0) continue;
    lo = hi == 0.0 ? s.seconds : std::min(lo, s.seconds);
    hi = std::max(hi, s.seconds);
  }
  imbalance_measured = hi > 0.0 ? (hi - lo) / hi : 0.0;
}

void PipelineSnapshot::merge(const PipelineSnapshot& o) {
  if (engine.empty()) engine = o.engine;
  if (kernel.empty()) kernel = o.kernel;
  if (!index_load.recorded()) index_load = o.index_load;
  // Degraded state accumulates: the run is partial if any piece was, and a
  // block quarantined in one piece is quarantined for the whole run
  // (deduplicated by id and reason).
  degraded.partial = degraded.partial || o.degraded.partial;
  degraded.load_retries += o.degraded.load_retries;
  degraded.time_budget_trips += o.degraded.time_budget_trips;
  degraded.mem_budget_trips += o.degraded.mem_budget_trips;
  for (const QuarantinedBlock& q : o.degraded.quarantined) {
    bool seen = false;
    for (const QuarantinedBlock& mine : degraded.quarantined) {
      if (mine.block == q.block && mine.reason == q.reason) {
        seen = true;
        break;
      }
    }
    if (!seen) degraded.quarantined.push_back(q);
  }
  for (const QuarantinedShard& q : o.degraded.quarantined_shards) {
    bool seen = false;
    for (const QuarantinedShard& mine : degraded.quarantined_shards) {
      if (mine.shard == q.shard) {
        seen = true;
        break;
      }
    }
    if (!seen) degraded.quarantined_shards.push_back(q);
  }
  gapped_kernel += o.gapped_kernel;
  hit_kernel += o.hit_kernel;
  perf_counters += o.perf_counters;
  // Shard breakdowns accumulate per shard id (batched sharded runs fold one
  // snapshot per batch); the measured imbalance is recomputed over the
  // summed worker seconds.
  if (!build.recorded()) build = o.build;
  if (!shards.recorded()) {
    shards = o.shards;
  } else if (o.shards.recorded()) {
    shards.count = std::max(shards.count, o.shards.count);
    for (const ShardStats& theirs : o.shards.per_shard) {
      ShardStats* mine = nullptr;
      for (ShardStats& m : shards.per_shard) {
        if (m.shard == theirs.shard) {
          mine = &m;
          break;
        }
      }
      if (mine == nullptr) {
        shards.per_shard.push_back(theirs);
      } else {
        mine->seconds += theirs.seconds;
        mine->hits += theirs.hits;
        mine->alignments += theirs.alignments;
      }
    }
    shards.measure_imbalance();
  }
  workspace_peak_bytes = std::max(workspace_peak_bytes,
                                  o.workspace_peak_bytes);
  threads = std::max(threads, o.threads);
  queries += o.queries;
  totals += o.totals;
  for (int s = 0; s < kNumStages; ++s) stage_seconds[s] += o.stage_seconds[s];
  total_seconds += o.total_seconds;
  for (const BlockStats& b : o.per_block) {
    if (per_block.size() <= b.block) per_block.resize(b.block + 1);
    BlockStats& mine = per_block[b.block];
    mine.block = b.block;
    mine.rounds += b.rounds;
    mine.counters += b.counters;
    for (int s = 0; s < kNumStages; ++s) mine.seconds[s] += b.seconds[s];
  }
}

void PipelineStats::begin_run(int threads, std::size_t blocks,
                              std::uint64_t queries) {
  MUBLASTP_CHECK(threads > 0, "stats run needs at least one thread");
  threads_ = threads;
  queries_ = queries;
  total_seconds_ = 0.0;
  accums_.assign(static_cast<std::size_t>(threads), {});
  for (detail::ThreadAccum& a : accums_) {
    a.blocks.resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      a.blocks[b].block = static_cast<std::uint32_t>(b);
    }
  }
  blocks_.assign(blocks, {});
  for (std::size_t b = 0; b < blocks; ++b) {
    blocks_[b].block = static_cast<std::uint32_t>(b);
  }
  extra_counters_ = {};
  hit_kernel_ = {};
  extra_seconds_ = {};
  ws_peak_ = 0;
}

void PipelineStats::merge_block(std::uint32_t block) {
  BlockStats& agg = blocks_[block];
  for (detail::ThreadAccum& a : accums_) {
    BlockStats& mine = a.blocks[block];
    agg.rounds += mine.rounds;
    agg.counters += mine.counters;
    for (int s = 0; s < kNumStages; ++s) agg.seconds[s] += mine.seconds[s];
    mine = BlockStats{};
    mine.block = block;
  }
}

void PipelineStats::finish_run(double total_seconds) {
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) merge_block(b);
  for (detail::ThreadAccum& a : accums_) {
    extra_counters_ += a.extra;
    for (int s = 0; s < kNumStages; ++s) extra_seconds_[s] += a.extra_seconds[s];
    ws_peak_ = std::max(ws_peak_, a.ws_peak);
    hit_kernel_ += a.hit_kernel;
    a.extra = {};
    a.extra_seconds = {};
    a.ws_peak = 0;
    a.hit_kernel = {};
  }
  total_seconds_ = total_seconds;
}

PipelineSnapshot PipelineStats::snapshot() const {
  PipelineSnapshot s;
  s.engine = engine_;
  s.kernel = kernel_;
  s.threads = threads_;
  s.queries = queries_;
  s.total_seconds = total_seconds_;
  s.workspace_peak_bytes = ws_peak_;
  s.index_load = index_load_;
  s.degraded = degraded_;
  s.gapped_kernel = gapped_kernel_;
  s.hit_kernel = hit_kernel_;
  s.perf_counters = perf_counters_;
  s.per_block = blocks_;
  s.totals = extra_counters_;
  s.stage_seconds = extra_seconds_;
  for (const BlockStats& b : blocks_) {
    s.totals += b.counters;
    for (int st = 0; st < kNumStages; ++st) {
      s.stage_seconds[st] += b.seconds[st];
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// JSON "mublastp-stats-v1": docs/mublastp-stats-v1.schema.json is the
// contract, docs/ALGORITHMS.md describes the fields.
// ---------------------------------------------------------------------------
namespace {

using jsonw::append_double;
using jsonw::append_f;
using jsonw::append_string;

void append_counters(std::string& out, const StageCounters& c,
                     const char* indent) {
  append_f(out, "{\n%s  \"hits\": %" PRIu64 ",\n", indent, c.hits);
  append_f(out, "%s  \"hit_pairs\": %" PRIu64 ",\n", indent, c.hit_pairs);
  append_f(out, "%s  \"sorted_records\": %" PRIu64 ",\n", indent,
           c.sorted_records);
  append_f(out, "%s  \"extensions\": %" PRIu64 ",\n", indent, c.extensions);
  append_f(out, "%s  \"ungapped_alignments\": %" PRIu64 ",\n", indent,
           c.ungapped_alignments);
  append_f(out, "%s  \"gapped_extensions\": %" PRIu64 "\n%s}", indent,
           c.gapped_extensions, indent);
}

void append_seconds(std::string& out, const StageSeconds& sec) {
  out += "{";
  for (int s = 0; s < kNumStages; ++s) {
    append_f(out, "%s\"%s\": ", s == 0 ? "" : ", ",
             stage_name(static_cast<Stage>(s)));
    append_double(out, sec[s]);
  }
  out += "}";
}

void append_u64_stages(std::string& out,
                       const std::array<std::uint64_t, kNumStages>& v) {
  out += "{";
  for (int s = 0; s < kNumStages; ++s) {
    append_f(out, "%s\"%s\": %" PRIu64, s == 0 ? "" : ", ",
             stage_name(static_cast<Stage>(s)), v[s]);
  }
  out += "}";
}

}  // namespace

std::string to_json(const PipelineSnapshot& s) {
  std::string out;
  out.reserve(1024 + 256 * s.per_block.size());
  out += "{\n  \"schema\": \"mublastp-stats-v1\",\n  \"engine\": ";
  append_string(out, s.engine);
  if (!s.kernel.empty()) {
    out += ",\n  \"kernel\": ";
    append_string(out, s.kernel);
  }
  append_f(out, ",\n  \"threads\": %d,\n", s.threads);
  append_f(out, "  \"queries\": %" PRIu64 ",\n", s.queries);
  append_f(out, "  \"blocks\": %zu,\n", s.per_block.size());
  out += "  \"counters\": ";
  append_counters(out, s.totals, "  ");
  out += ",\n  \"survival_ratio\": ";
  append_double(out, s.survival_ratio());
  out += ",\n  \"stage_seconds\": ";
  append_seconds(out, s.stage_seconds);
  out += ",\n  \"total_seconds\": ";
  append_double(out, s.total_seconds);
  if (s.workspace_peak_bytes != 0) {
    append_f(out, ",\n  \"workspace_peak_bytes\": %" PRIu64,
             s.workspace_peak_bytes);
  }
  if (s.index_load.recorded()) {
    out += ",\n  \"index\": {\"mode\": ";
    append_string(out, s.index_load.mode);
    out += ", \"load_seconds\": ";
    append_double(out, s.index_load.load_seconds);
    append_f(out, ", \"file_bytes\": %" PRIu64
                  ", \"resident_bytes\": %" PRIu64 "}",
             s.index_load.file_bytes, s.index_load.resident_bytes);
  }
  if (s.gapped_kernel.any()) {
    append_f(out,
             ",\n  \"gapped_kernel\": {\"int8_runs\": %" PRIu64
             ", \"int16_reruns\": %" PRIu64
             ", \"scalar_fallbacks\": %" PRIu64 "}",
             s.gapped_kernel.int8_runs, s.gapped_kernel.int16_reruns,
             s.gapped_kernel.scalar_fallbacks);
  }
  if (s.hit_kernel.any()) {
    append_f(out, ",\n  \"hit_kernel\": {\"flatten_builds\": %" PRIu64
                  ", \"flatten_seconds\": ",
             s.hit_kernel.flatten_builds);
    append_double(out, s.hit_kernel.flatten_seconds);
    append_f(out, ", \"tiles\": %" PRIu64 ", \"tail_entries\": %" PRIu64 "}",
             s.hit_kernel.tiles, s.hit_kernel.tail_entries);
  }
  if (s.perf_counters.recorded()) {
    append_f(out, ",\n  \"perf_counters\": {\"sampled_spans\": %" PRIu64
                  ", \"cycles\": ",
             s.perf_counters.sampled_spans);
    append_u64_stages(out, s.perf_counters.cycles);
    out += ", \"instructions\": ";
    append_u64_stages(out, s.perf_counters.instructions);
    out += ", \"llc_misses\": ";
    append_u64_stages(out, s.perf_counters.llc_misses);
    out += ", \"branch_misses\": ";
    append_u64_stages(out, s.perf_counters.branch_misses);
    out += "}";
  }
  if (s.shards.recorded()) {
    append_f(out, ",\n  \"shards\": {\"count\": %u, \"mode\": ",
             s.shards.count);
    append_string(out, s.shards.mode);
    out += ", \"strategy\": ";
    append_string(out, s.shards.strategy);
    out += ", \"imbalance_predicted\": ";
    append_double(out, s.shards.imbalance_predicted);
    out += ", \"imbalance_measured\": ";
    append_double(out, s.shards.imbalance_measured);
    out += ", \"per_shard\": [";
    for (std::size_t i = 0; i < s.shards.per_shard.size(); ++i) {
      const ShardStats& sh = s.shards.per_shard[i];
      if (i != 0) out += ", ";
      append_f(out, "{\"shard\": %u, \"seconds\": ", sh.shard);
      append_double(out, sh.seconds);
      append_f(out, ", \"hits\": %" PRIu64 ", \"alignments\": %" PRIu64 "}",
               sh.hits, sh.alignments);
    }
    out += "]}";
  }
  if (s.build.recorded()) {
    append_f(out,
             ",\n  \"build\": {\"generation\": %u, \"chain_length\": %u,"
             " \"sequences\": %" PRIu64 ", \"residues\": %" PRIu64
             ", \"threads\": %d, \"plan_seconds\": ",
             s.build.generation, s.build.chain_length, s.build.sequences,
             s.build.residues, s.build.threads);
    append_double(out, s.build.plan_seconds);
    out += ", \"total_seconds\": ";
    append_double(out, s.build.total_seconds);
    out += ", \"block_seconds\": [";
    for (std::size_t i = 0; i < s.build.block_seconds.size(); ++i) {
      if (i != 0) out += ", ";
      append_double(out, s.build.block_seconds[i]);
    }
    out += "]}";
  }
  if (s.degraded.any()) {
    append_f(out,
             ",\n  \"degraded\": {\"partial\": %s, \"load_retries\": %" PRIu64
             ", \"time_budget_trips\": %" PRIu64
             ", \"mem_budget_trips\": %" PRIu64 ", \"quarantined\": [",
             s.degraded.partial ? "true" : "false", s.degraded.load_retries,
             s.degraded.time_budget_trips, s.degraded.mem_budget_trips);
    for (std::size_t i = 0; i < s.degraded.quarantined.size(); ++i) {
      const QuarantinedBlock& q = s.degraded.quarantined[i];
      if (i != 0) out += ", ";
      append_f(out, "{\"block\": %u, \"reason\": ", q.block);
      append_string(out, q.reason);
      out += "}";
    }
    out += "]";
    // Emitted only when present so pre-sharding degraded snapshots stay
    // byte-identical.
    if (!s.degraded.quarantined_shards.empty()) {
      out += ", \"quarantined_shards\": [";
      for (std::size_t i = 0; i < s.degraded.quarantined_shards.size(); ++i) {
        const QuarantinedShard& q = s.degraded.quarantined_shards[i];
        if (i != 0) out += ", ";
        append_f(out, "{\"shard\": %u, \"reason\": ", q.shard);
        append_string(out, q.reason);
        out += "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += ",\n  \"per_block\": [";
  for (std::size_t i = 0; i < s.per_block.size(); ++i) {
    const BlockStats& b = s.per_block[i];
    out += i == 0 ? "\n" : ",\n";
    append_f(out, "    {\"block\": %u, \"rounds\": %" PRIu64
                  ", \"counters\": ",
             b.block, b.rounds);
    append_counters(out, b.counters, "    ");
    out += ", \"seconds\": ";
    append_seconds(out, b.seconds);
    out += "}";
  }
  out += s.per_block.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void print_table(std::FILE* out, const PipelineSnapshot& s) {
  std::fprintf(out, "pipeline stats: engine=%s threads=%d queries=%" PRIu64
                    " blocks=%zu\n",
               s.engine.c_str(), s.threads, s.queries, s.per_block.size());
  if (!s.kernel.empty()) {
    std::fprintf(out, "  %-22s %15s\n", "kernel", s.kernel.c_str());
  }
  if (s.workspace_peak_bytes != 0) {
    std::fprintf(out, "  %-22s %14" PRIu64 "B\n", "workspace_peak",
                 s.workspace_peak_bytes);
  }
  const StageCounters& c = s.totals;
  std::fprintf(out, "  %-22s %15" PRIu64 "\n", "hits", c.hits);
  std::fprintf(out, "  %-22s %15" PRIu64 "\n", "hit_pairs", c.hit_pairs);
  std::fprintf(out, "  %-22s %15" PRIu64 "\n", "sorted_records",
               c.sorted_records);
  std::fprintf(out, "  %-22s %15" PRIu64 "\n", "extensions", c.extensions);
  std::fprintf(out, "  %-22s %15" PRIu64 "\n", "ungapped_alignments",
               c.ungapped_alignments);
  std::fprintf(out, "  %-22s %15" PRIu64 "\n", "gapped_extensions",
               c.gapped_extensions);
  std::fprintf(out, "  %-22s %15.4f%%\n", "survival_ratio",
               100.0 * s.survival_ratio());
  if (s.gapped_kernel.any()) {
    std::fprintf(out, "  %-22s %15" PRIu64 "\n", "gapped_int8_runs",
                 s.gapped_kernel.int8_runs);
    std::fprintf(out, "  %-22s %15" PRIu64 "\n", "gapped_int16_reruns",
                 s.gapped_kernel.int16_reruns);
    std::fprintf(out, "  %-22s %15" PRIu64 "\n", "gapped_scalar_fallbacks",
                 s.gapped_kernel.scalar_fallbacks);
  }
  if (s.hit_kernel.any()) {
    std::fprintf(out, "  %-22s %15" PRIu64 "\n", "hit_flatten_builds",
                 s.hit_kernel.flatten_builds);
    std::fprintf(out, "  %-22s %14.4fs\n", "hit_flatten_time",
                 s.hit_kernel.flatten_seconds);
    std::fprintf(out, "  %-22s %15" PRIu64 "\n", "hit_tiles",
                 s.hit_kernel.tiles);
    std::fprintf(out, "  %-22s %15" PRIu64 "\n", "hit_tail_entries",
                 s.hit_kernel.tail_entries);
  }
  for (int st = 0; st < kNumStages; ++st) {
    std::fprintf(out, "  %-22s %14.4fs\n",
                 stage_name(static_cast<Stage>(st)), s.stage_seconds[st]);
  }
  std::fprintf(out, "  %-22s %14.4fs\n", "total", s.total_seconds);
  if (s.perf_counters.recorded()) {
    std::fprintf(out, "  perf counters (%" PRIu64 " sampled spans):\n",
                 s.perf_counters.sampled_spans);
    for (int st = 0; st < kNumStages; ++st) {
      std::fprintf(out,
                   "    %-12s cycles=%-14" PRIu64 " instr=%-14" PRIu64
                   " llc_miss=%-12" PRIu64 " br_miss=%" PRIu64 "\n",
                   stage_name(static_cast<Stage>(st)),
                   s.perf_counters.cycles[st], s.perf_counters.instructions[st],
                   s.perf_counters.llc_misses[st],
                   s.perf_counters.branch_misses[st]);
    }
  }
  if (s.index_load.recorded()) {
    std::fprintf(out, "  index load: mode=%s load=%.4fs file=%" PRIu64
                      "B resident=%" PRIu64 "B\n",
                 s.index_load.mode.c_str(), s.index_load.load_seconds,
                 s.index_load.file_bytes, s.index_load.resident_bytes);
  }
  if (s.shards.recorded()) {
    std::fprintf(out,
                 "  shards: count=%u mode=%s strategy=%s"
                 " imbalance predicted=%.4f measured=%.4f\n",
                 s.shards.count, s.shards.mode.c_str(),
                 s.shards.strategy.c_str(), s.shards.imbalance_predicted,
                 s.shards.imbalance_measured);
    for (const ShardStats& sh : s.shards.per_shard) {
      std::fprintf(out,
                   "    shard %-3u %10.4fs %12" PRIu64 " hits %8" PRIu64
                   " alignments\n",
                   sh.shard, sh.seconds, sh.hits, sh.alignments);
    }
  }
  if (s.build.recorded()) {
    std::fprintf(out,
                 "  build: generation=%u chain_length=%u sequences=%" PRIu64
                 " residues=%" PRIu64 " threads=%d\n",
                 s.build.generation, s.build.chain_length, s.build.sequences,
                 s.build.residues, s.build.threads);
    std::fprintf(out, "    plan=%.4fs total=%.4fs blocks=%zu\n",
                 s.build.plan_seconds, s.build.total_seconds,
                 s.build.block_seconds.size());
  }
  if (s.degraded.any()) {
    std::fprintf(out,
                 "  DEGRADED: partial=%s load_retries=%" PRIu64
                 " time_budget_trips=%" PRIu64 " mem_budget_trips=%" PRIu64
                 "\n",
                 s.degraded.partial ? "yes" : "no", s.degraded.load_retries,
                 s.degraded.time_budget_trips, s.degraded.mem_budget_trips);
    for (const QuarantinedBlock& q : s.degraded.quarantined) {
      std::fprintf(out, "    quarantined block %u: %s\n", q.block,
                   q.reason.c_str());
    }
    for (const QuarantinedShard& q : s.degraded.quarantined_shards) {
      std::fprintf(out, "    quarantined shard %u: %s\n", q.shard,
                   q.reason.c_str());
    }
  }
}

}  // namespace mublastp::stats
