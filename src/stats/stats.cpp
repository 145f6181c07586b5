#include "stats/stats.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

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

void PipelineSnapshot::merge(const PipelineSnapshot& o) {
  if (engine.empty()) engine = o.engine;
  if (kernel.empty()) kernel = o.kernel;
  if (!index_load.recorded()) index_load = o.index_load;
  // Degraded state accumulates: the run is partial if any piece was, and a
  // block quarantined in one piece is quarantined for the whole run
  // (deduplicated by id and reason: the members of a partitioned database
  // number their blocks independently, and the reason names the member).
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
    double lo = 0.0, hi = 0.0;
    bool first = true;
    for (const ShardStats& sh : shards.per_shard) {
      lo = first ? sh.seconds : std::min(lo, sh.seconds);
      hi = first ? sh.seconds : std::max(hi, sh.seconds);
      first = false;
    }
    shards.imbalance_measured = hi == 0.0 ? 0.0 : (hi - lo) / hi;
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
// JSON schema "mublastp-stats-v1" (documented in docs/ALGORITHMS.md).
// ---------------------------------------------------------------------------
namespace {

void append_f(std::string& out, const char* fmt, ...) {
  char buf[128];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

// Round-trip precision, locale-independent (byte-identical to the C-locale
// "%.17g" this schema was originally emitted with).
void append_double(std::string& out, double v) {
  jsonw::append_double(out, v);
}

// Quarantine reasons are produced from our own error messages, but they
// flow into a JSON string and our minimal reader supports no escapes, so
// scrub anything that would break the framing.
std::string json_safe(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\'';
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

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

void append_seconds(std::string& out, const StageSeconds& sec,
                    const char* indent) {
  out += "{";
  for (int s = 0; s < kNumStages; ++s) {
    append_f(out, "%s\"%s\": ", s == 0 ? "" : ", ",
             stage_name(static_cast<Stage>(s)));
    append_double(out, sec[s]);
  }
  (void)indent;
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
  out += "{\n  \"schema\": \"mublastp-stats-v1\",\n";
  append_f(out, "  \"engine\": \"%s\",\n", s.engine.c_str());
  if (!s.kernel.empty()) {
    append_f(out, "  \"kernel\": \"%s\",\n", s.kernel.c_str());
  }
  append_f(out, "  \"threads\": %d,\n", s.threads);
  append_f(out, "  \"queries\": %" PRIu64 ",\n", s.queries);
  append_f(out, "  \"blocks\": %zu,\n", s.per_block.size());
  out += "  \"counters\": ";
  append_counters(out, s.totals, "  ");
  out += ",\n  \"survival_ratio\": ";
  append_double(out, s.survival_ratio());
  out += ",\n  \"stage_seconds\": ";
  append_seconds(out, s.stage_seconds, "  ");
  out += ",\n  \"total_seconds\": ";
  append_double(out, s.total_seconds);
  if (s.workspace_peak_bytes != 0) {
    append_f(out, ",\n  \"workspace_peak_bytes\": %" PRIu64,
             s.workspace_peak_bytes);
  }
  if (s.index_load.recorded()) {
    append_f(out, ",\n  \"index\": {\"mode\": \"%s\", \"load_seconds\": ",
             s.index_load.mode.c_str());
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
    append_f(out, ",\n  \"shards\": {\"count\": %u, \"mode\": \"%s\","
                  " \"strategy\": \"%s\", \"imbalance_predicted\": ",
             s.shards.count, s.shards.mode.c_str(),
             s.shards.strategy.c_str());
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
      append_f(out, "{\"block\": %u, \"reason\": \"", q.block);
      out += json_safe(q.reason);
      out += "\"}";
    }
    out += "]";
    // Emitted only when present so pre-sharding degraded snapshots stay
    // byte-identical.
    if (!s.degraded.quarantined_shards.empty()) {
      out += ", \"quarantined_shards\": [";
      for (std::size_t i = 0; i < s.degraded.quarantined_shards.size(); ++i) {
        const QuarantinedShard& q = s.degraded.quarantined_shards[i];
        if (i != 0) out += ", ";
        append_f(out, "{\"shard\": %u, \"reason\": \"", q.shard);
        out += json_safe(q.reason);
        out += "\"}";
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
    append_seconds(out, b.seconds, "    ");
    out += "}";
  }
  out += s.per_block.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the schema above (objects, arrays,
// strings without escapes, integer and floating-point numbers). Exists so
// tests can assert the emitted JSON round-trips without an external dep.
// ---------------------------------------------------------------------------
namespace {

struct Parser {
  const char* p;
  const char* end;

  [[noreturn]] void fail(const char* what) const {
    throw Error(std::string("stats JSON: ") + what);
  }
  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  char peek() {
    skip_ws();
    if (p >= end) fail("unexpected end of input");
    return *p;
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected token");
    ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  std::string string() {
    expect('"');
    std::string s;
    while (p < end && *p != '"') {
      if (*p == '\\') fail("escapes not supported");
      s += *p++;
    }
    if (p >= end) fail("unterminated string");
    ++p;
    return s;
  }
  // Numbers are returned as their source token; callers convert.
  std::string number() {
    skip_ws();
    const char* start = p;
    while (p < end && *p != '\0' &&
           (std::strchr("+-.eE", *p) != nullptr || (*p >= '0' && *p <= '9'))) {
      ++p;
    }
    if (p == start) fail("expected a number");
    return std::string(start, p);
  }
  double number_double() { return jsonw::parse_double(number()); }
  std::uint64_t number_u64() {
    return std::strtoull(number().c_str(), nullptr, 10);
  }
  bool boolean() {
    skip_ws();
    if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
      p += 4;
      return true;
    }
    if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
      p += 5;
      return false;
    }
    fail("expected a boolean");
  }
  void skip_value();
  /// Walks an object, invoking fn(key) positioned at each value. fn must
  /// consume the value (or call skip_value()).
  template <typename Fn>
  void object(Fn&& fn) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string key = string();
      expect(':');
      fn(key);
    } while (consume(','));
    expect('}');
  }
  template <typename Fn>
  void array(Fn&& fn) {
    expect('[');
    if (consume(']')) return;
    do {
      fn();
    } while (consume(','));
    expect(']');
  }
};

void Parser::skip_value() {
  switch (peek()) {
    case '{':
      object([&](const std::string&) { skip_value(); });
      break;
    case '[':
      array([&] { skip_value(); });
      break;
    case '"':
      string();
      break;
    case 't':
    case 'f':
      boolean();
      break;
    default:
      number();
      break;
  }
}

StageCounters parse_counters(Parser& ps) {
  StageCounters c;
  ps.object([&](const std::string& key) {
    if (key == "hits") c.hits = ps.number_u64();
    else if (key == "hit_pairs") c.hit_pairs = ps.number_u64();
    else if (key == "sorted_records") c.sorted_records = ps.number_u64();
    else if (key == "extensions") c.extensions = ps.number_u64();
    else if (key == "ungapped_alignments") c.ungapped_alignments = ps.number_u64();
    else if (key == "gapped_extensions") c.gapped_extensions = ps.number_u64();
    else ps.skip_value();
  });
  return c;
}

StageSeconds parse_seconds(Parser& ps) {
  StageSeconds sec{};
  ps.object([&](const std::string& key) {
    for (int s = 0; s < kNumStages; ++s) {
      if (key == stage_name(static_cast<Stage>(s))) {
        sec[s] = ps.number_double();
        return;
      }
    }
    ps.skip_value();
  });
  return sec;
}

std::array<std::uint64_t, kNumStages> parse_u64_stages(Parser& ps) {
  std::array<std::uint64_t, kNumStages> v{};
  ps.object([&](const std::string& key) {
    for (int s = 0; s < kNumStages; ++s) {
      if (key == stage_name(static_cast<Stage>(s))) {
        v[s] = ps.number_u64();
        return;
      }
    }
    ps.skip_value();
  });
  return v;
}

}  // namespace

PipelineSnapshot from_json(const std::string& json) {
  Parser ps{json.data(), json.data() + json.size()};
  PipelineSnapshot s;
  bool schema_ok = false;
  ps.object([&](const std::string& key) {
    if (key == "schema") {
      schema_ok = ps.string() == "mublastp-stats-v1";
    } else if (key == "engine") {
      s.engine = ps.string();
    } else if (key == "kernel") {
      s.kernel = ps.string();
    } else if (key == "workspace_peak_bytes") {
      s.workspace_peak_bytes = ps.number_u64();
    } else if (key == "threads") {
      s.threads = static_cast<int>(ps.number_u64());
    } else if (key == "queries") {
      s.queries = ps.number_u64();
    } else if (key == "counters") {
      s.totals = parse_counters(ps);
    } else if (key == "stage_seconds") {
      s.stage_seconds = parse_seconds(ps);
    } else if (key == "total_seconds") {
      s.total_seconds = ps.number_double();
    } else if (key == "index") {
      ps.object([&](const std::string& ikey) {
        if (ikey == "mode") s.index_load.mode = ps.string();
        else if (ikey == "load_seconds") s.index_load.load_seconds = ps.number_double();
        else if (ikey == "file_bytes") s.index_load.file_bytes = ps.number_u64();
        else if (ikey == "resident_bytes") s.index_load.resident_bytes = ps.number_u64();
        else ps.skip_value();
      });
    } else if (key == "gapped_kernel") {
      ps.object([&](const std::string& gkey) {
        if (gkey == "int8_runs") {
          s.gapped_kernel.int8_runs = ps.number_u64();
        } else if (gkey == "int16_reruns") {
          s.gapped_kernel.int16_reruns = ps.number_u64();
        } else if (gkey == "scalar_fallbacks") {
          s.gapped_kernel.scalar_fallbacks = ps.number_u64();
        } else {
          ps.skip_value();
        }
      });
    } else if (key == "hit_kernel") {
      ps.object([&](const std::string& hkey) {
        if (hkey == "flatten_builds") {
          s.hit_kernel.flatten_builds = ps.number_u64();
        } else if (hkey == "flatten_seconds") {
          s.hit_kernel.flatten_seconds = ps.number_double();
        } else if (hkey == "tiles") {
          s.hit_kernel.tiles = ps.number_u64();
        } else if (hkey == "tail_entries") {
          s.hit_kernel.tail_entries = ps.number_u64();
        } else {
          ps.skip_value();
        }
      });
    } else if (key == "perf_counters") {
      ps.object([&](const std::string& pkey) {
        if (pkey == "sampled_spans") {
          s.perf_counters.sampled_spans = ps.number_u64();
        } else if (pkey == "cycles") {
          s.perf_counters.cycles = parse_u64_stages(ps);
        } else if (pkey == "instructions") {
          s.perf_counters.instructions = parse_u64_stages(ps);
        } else if (pkey == "llc_misses") {
          s.perf_counters.llc_misses = parse_u64_stages(ps);
        } else if (pkey == "branch_misses") {
          s.perf_counters.branch_misses = parse_u64_stages(ps);
        } else {
          ps.skip_value();
        }
      });
    } else if (key == "build") {
      ps.object([&](const std::string& bkey) {
        if (bkey == "generation") {
          s.build.generation = static_cast<std::uint32_t>(ps.number_u64());
        } else if (bkey == "chain_length") {
          s.build.chain_length = static_cast<std::uint32_t>(ps.number_u64());
        } else if (bkey == "sequences") {
          s.build.sequences = ps.number_u64();
        } else if (bkey == "residues") {
          s.build.residues = ps.number_u64();
        } else if (bkey == "threads") {
          s.build.threads = static_cast<int>(ps.number_u64());
        } else if (bkey == "plan_seconds") {
          s.build.plan_seconds = ps.number_double();
        } else if (bkey == "total_seconds") {
          s.build.total_seconds = ps.number_double();
        } else if (bkey == "block_seconds") {
          ps.array([&] { s.build.block_seconds.push_back(ps.number_double()); });
        } else {
          ps.skip_value();
        }
      });
    } else if (key == "degraded") {
      ps.object([&](const std::string& dkey) {
        if (dkey == "partial") {
          s.degraded.partial = ps.boolean();
        } else if (dkey == "load_retries") {
          s.degraded.load_retries = ps.number_u64();
        } else if (dkey == "time_budget_trips") {
          s.degraded.time_budget_trips = ps.number_u64();
        } else if (dkey == "mem_budget_trips") {
          s.degraded.mem_budget_trips = ps.number_u64();
        } else if (dkey == "quarantined") {
          ps.array([&] {
            QuarantinedBlock q;
            ps.object([&](const std::string& qkey) {
              if (qkey == "block") {
                q.block = static_cast<std::uint32_t>(ps.number_u64());
              } else if (qkey == "reason") {
                q.reason = ps.string();
              } else {
                ps.skip_value();
              }
            });
            s.degraded.quarantined.push_back(std::move(q));
          });
        } else if (dkey == "quarantined_shards") {
          ps.array([&] {
            QuarantinedShard q;
            ps.object([&](const std::string& qkey) {
              if (qkey == "shard") {
                q.shard = static_cast<std::uint32_t>(ps.number_u64());
              } else if (qkey == "reason") {
                q.reason = ps.string();
              } else {
                ps.skip_value();
              }
            });
            s.degraded.quarantined_shards.push_back(std::move(q));
          });
        } else {
          ps.skip_value();
        }
      });
    } else if (key == "shards") {
      ps.object([&](const std::string& skey) {
        if (skey == "count") {
          s.shards.count = static_cast<std::uint32_t>(ps.number_u64());
        } else if (skey == "mode") {
          s.shards.mode = ps.string();
        } else if (skey == "strategy") {
          s.shards.strategy = ps.string();
        } else if (skey == "imbalance_predicted") {
          s.shards.imbalance_predicted = ps.number_double();
        } else if (skey == "imbalance_measured") {
          s.shards.imbalance_measured = ps.number_double();
        } else if (skey == "per_shard") {
          ps.array([&] {
            ShardStats sh;
            ps.object([&](const std::string& shkey) {
              if (shkey == "shard") {
                sh.shard = static_cast<std::uint32_t>(ps.number_u64());
              } else if (shkey == "seconds") {
                sh.seconds = ps.number_double();
              } else if (shkey == "hits") {
                sh.hits = ps.number_u64();
              } else if (shkey == "alignments") {
                sh.alignments = ps.number_u64();
              } else {
                ps.skip_value();
              }
            });
            s.shards.per_shard.push_back(sh);
          });
        } else {
          ps.skip_value();
        }
      });
    } else if (key == "per_block") {
      ps.array([&] {
        BlockStats b;
        ps.object([&](const std::string& bkey) {
          if (bkey == "block") b.block = static_cast<std::uint32_t>(ps.number_u64());
          else if (bkey == "rounds") b.rounds = ps.number_u64();
          else if (bkey == "counters") b.counters = parse_counters(ps);
          else if (bkey == "seconds") b.seconds = parse_seconds(ps);
          else ps.skip_value();
        });
        s.per_block.push_back(std::move(b));
      });
    } else {
      // "blocks" and "survival_ratio" are derived; tolerate unknown keys so
      // minor-version additions stay readable.
      ps.skip_value();
    }
  });
  ps.skip_ws();
  MUBLASTP_CHECK(ps.p == ps.end, "trailing garbage after stats JSON");
  MUBLASTP_CHECK(schema_ok, "missing or unsupported stats JSON schema");
  return s;
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
