#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>

#include "common/json_writer.hpp"

namespace mublastp::trace {

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kHitDetect:
      return "hit_detect";
    case SpanKind::kSort:
      return "sort";
    case SpanKind::kUngapped:
      return "ungapped";
    case SpanKind::kGapped:
      return "gapped";
    case SpanKind::kFinalize:
      return "finalize";
    case SpanKind::kFlatten:
      return "flatten";
    case SpanKind::kIndexLoad:
      return "index_load";
    case SpanKind::kShardWorker:
      return "shard_worker";
    case SpanKind::kBatch:
      return "batch";
    case SpanKind::kMerge:
      return "merge";
  }
  return "unknown";
}

const char* span_category(SpanKind k) {
  switch (k) {
    case SpanKind::kHitDetect:
    case SpanKind::kSort:
    case SpanKind::kUngapped:
    case SpanKind::kGapped:
    case SpanKind::kFinalize:
      return "stage";
    case SpanKind::kFlatten:
    case SpanKind::kIndexLoad:
      return "setup";
    case SpanKind::kShardWorker:
    case SpanKind::kMerge:
      return "shard";
    case SpanKind::kBatch:
      return "run";
  }
  return "other";
}

namespace detail {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

SpanRing::SpanRing(std::size_t capacity)
    : buf_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(buf_.size() - 1) {}

bool SpanRing::push(const Span& s) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  buf_[head & mask_] = s;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

void SpanRing::drain(std::vector<Span>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  while (tail != head) {
    out.push_back(buf_[tail & mask_]);
    ++tail;
  }
  tail_.store(tail, std::memory_order_release);
}

}  // namespace detail

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

// Thread-local lane cache: one lookup per (thread, tracer) pair, then
// lock-free. The id check makes stale entries (destroyed tracers, or the
// thread moving to another tracer) miss safely — ids are never reused.
struct LaneCache {
  std::uint64_t tracer_id = 0;
  detail::Lane* lane = nullptr;
};
thread_local LaneCache tl_lane;

}  // namespace

std::uint64_t Tracer::raw_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(TracerOptions opts)
    : opts_(opts),
      epoch_raw_ns_(raw_now_ns()),
      id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

detail::Lane* Tracer::lane() {
  if (tl_lane.tracer_id != id_) {
    std::lock_guard<std::mutex> lk(mu_);
    auto lane = std::make_unique<detail::Lane>(opts_.ring_capacity);
    lane->index = static_cast<std::uint32_t>(lanes_.size());
    if (opts_.counters) {
      // Opened here, on the owning thread, so the group counts this thread.
      lane->counters_ok = lane->group.open();
      if (lane->counters_ok) {
        counters_opened_.store(true, std::memory_order_relaxed);
      }
    }
    tl_lane = {id_, lanes_.emplace_back(std::move(lane)).get()};
  }
  return tl_lane.lane;
}

void Tracer::record(SpanKind kind, std::uint64_t begin_ns,
                    std::uint64_t end_ns, std::uint32_t block,
                    std::uint32_t query, std::uint32_t shard) {
  Span s;
  s.begin_ns = begin_ns;
  s.end_ns = end_ns;
  s.block = block;
  s.query = query;
  s.shard = shard;
  s.batch = batch();
  s.kind = kind;
  lane()->ring.push(s);
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& lane : lanes_) {
    const std::size_t first = spans_.size();
    lane->ring.drain(spans_);
    for (std::size_t i = first; i < spans_.size(); ++i) {
      spans_[i].lane = lane->index;
    }
  }
}

void Tracer::absorb(const Span* spans, std::size_t n, std::int64_t offset_ns,
                    std::uint32_t shard) {
  const std::uint32_t batch = batch_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  spans_.reserve(spans_.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    Span s = spans[i];
    s.begin_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(s.begin_ns) + offset_ns);
    s.end_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(s.end_ns) + offset_ns);
    if (s.shard == kNoId) s.shard = shard;
    if (s.batch == kNoId) s.batch = batch;
    spans_.push_back(s);
  }
}

void Tracer::add_dropped(std::uint64_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  absorbed_dropped_ += n;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = absorbed_dropped_;
  for (const auto& lane : lanes_) total += lane->ring.dropped();
  return total;
}

stats::PerfCounterStats Tracer::perf_totals() const {
  stats::PerfCounterStats out;
  for (const Span& s : spans_) {
    if (!s.has_counters) continue;
    const int k = static_cast<int>(s.kind);
    if (k >= stats::kNumStages) continue;
    ++out.sampled_spans;
    out.cycles[k] += s.counters.cycles;
    out.instructions[k] += s.counters.instructions;
    out.llc_misses[k] += s.counters.llc_misses;
    out.branch_misses[k] += s.counters.branch_misses;
  }
  return out;
}

// ---------------------------------------------------------------------------
// StageRecorder
// ---------------------------------------------------------------------------

StageRecorder::StageRecorder(stats::PipelineStats* ps, int thread,
                             Tracer* tracer, std::uint32_t query)
    : accum_(ps != nullptr ? &ps->accum(thread) : nullptr),
      tracer_(tracer),
      lane_(tracer != nullptr ? tracer->lane() : nullptr),
      query_(query) {}

StageRecorder::Stamp StageRecorder::stamp() const {
  Stamp st;
  st.ns = Tracer::raw_now_ns();
  if (lane_ != nullptr && lane_->counters_ok) {
    st.counters = lane_->group.read(&st.c);
  }
  return st;
}

double StageRecorder::span(SpanKind kind, std::uint32_t block,
                           const Stamp& begin, const Stamp& end) {
  if (lane_ != nullptr) {
    Span s;
    s.begin_ns = begin.ns - tracer_->epoch_raw_ns();
    s.end_ns = end.ns - tracer_->epoch_raw_ns();
    s.block = block;
    s.query = query_;
    s.batch = tracer_->batch();
    s.kind = kind;
    if (begin.counters && end.counters) {
      s.has_counters = 1;
      s.counters = end.c - begin.c;
    }
    lane_->ring.push(s);
  }
  return static_cast<double>(end.ns - begin.ns) * 1e-9;
}

void StageRecorder::close_round(std::uint32_t block, stats::Stage first,
                                std::uint64_t rounds,
                                const stats::StageCounters& c) {
  const Stamp end = stamp();
  stats::BlockStats* b =
      accum_ != nullptr ? &accum_->blocks[block] : nullptr;
  for (int k = 0; k < n_; ++k) {
    const int st = static_cast<int>(first) + k;
    const double sec = span(static_cast<SpanKind>(st), block, stamps_[k],
                            k + 1 < n_ ? stamps_[k + 1] : end);
    if (b != nullptr) b->seconds[st] += sec;
  }
  if (b != nullptr) {
    b->rounds += rounds;
    b->counters += c;
  }
  n_ = 0;
}

void StageRecorder::close_stage(stats::Stage s,
                                const stats::StageCounters& c) {
  const Stamp end = stamp();
  const double sec =
      n_ >= 1 ? span(static_cast<SpanKind>(s), kNoId, stamps_[n_ - 1], end)
              : 0.0;
  if (accum_ != nullptr) {
    accum_->extra_seconds[static_cast<int>(s)] += sec;
    accum_->extra += c;
  }
  stamps_[0] = end;
  n_ = 1;
}

void StageRecorder::close_flatten(std::uint64_t builds) {
  const Stamp end = stamp();
  const double sec =
      n_ >= 1 ? span(SpanKind::kFlatten, kNoId, stamps_[n_ - 1], end) : 0.0;
  if (accum_ != nullptr) {
    accum_->hit_kernel.flatten_builds += builds;
    accum_->hit_kernel.flatten_seconds += sec;
  }
  n_ = 0;
}

// ---------------------------------------------------------------------------
// Emission: Chrome trace-event JSON ("mublastp-trace-v1").
// ---------------------------------------------------------------------------

namespace {

using jsonw::append_f;

// ts/dur are microseconds; three decimals keep full ns precision.
void append_us(std::string& out, std::uint64_t ns) {
  jsonw::append_fixed(out, static_cast<double>(ns) / 1000.0, 3);
}

// pid 0 is the main process / unsharded run; shard k maps to pid k + 1.
std::uint32_t pid_of(const Span& s) {
  return s.shard == kNoId ? 0 : s.shard + 1;
}

}  // namespace

std::string to_chrome_json(Tracer& tracer, const TraceMeta& meta) {
  tracer.flush();
  std::vector<Span> spans = tracer.spans();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.begin_ns != b.begin_ns) {
                       return a.begin_ns < b.begin_ns;
                     }
                     if (a.end_ns != b.end_ns) return a.end_ns < b.end_ns;
                     if (a.shard != b.shard) return a.shard < b.shard;
                     return a.lane < b.lane;
                   });

  std::string out;
  out.reserve(256 + 192 * spans.size());
  out += "{\n  \"schema\": \"mublastp-trace-v1\",\n";
  out += "  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"otherData\": {";
  append_f(out, "\"engine\": \"%s\", \"kernel\": \"%s\", \"threads\": %d, ",
           meta.engine.c_str(), meta.kernel.c_str(), meta.threads);
  append_f(out, "\"shards\": %u, \"span_count\": %zu, ", meta.shards,
           spans.size());
  append_f(out, "\"dropped_spans\": %" PRIu64 ", ", tracer.dropped());
  append_f(out, "\"counters\": %s},\n",
           tracer.counters_available() ? "true" : "false");
  out += "  \"traceEvents\": [";

  // Process-name metadata rows so Perfetto labels the shard fan-out.
  std::vector<std::uint32_t> pids;
  for (const Span& s : spans) pids.push_back(pid_of(s));
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  bool first = true;
  for (const std::uint32_t pid : pids) {
    out += first ? "\n" : ",\n";
    first = false;
    append_f(out,
             "    {\"ph\": \"M\", \"pid\": %u, \"name\": \"process_name\","
             " \"args\": {\"name\": \"",
             pid);
    if (pid == 0) {
      out += "mublastp";
    } else {
      append_f(out, "shard %u", pid - 1);
    }
    out += "\"}}";
  }

  for (const Span& s : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    append_f(out, "    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\","
                  " \"pid\": %u, \"tid\": %u, \"ts\": ",
             span_name(s.kind), span_category(s.kind), pid_of(s),
             s.lane == kNoId ? 0 : s.lane);
    append_us(out, s.begin_ns);
    out += ", \"dur\": ";
    append_us(out, s.end_ns >= s.begin_ns ? s.end_ns - s.begin_ns : 0);
    out += ", \"args\": {";
    bool afirst = true;
    const auto arg_u32 = [&](const char* key, std::uint32_t v) {
      if (v == kNoId) return;
      append_f(out, "%s\"%s\": %u", afirst ? "" : ", ", key, v);
      afirst = false;
    };
    arg_u32("block", s.block);
    arg_u32("query", s.query);
    arg_u32("shard", s.shard);
    arg_u32("batch", s.batch);
    if (s.has_counters) {
      append_f(out,
               "%s\"cycles\": %" PRIu64 ", \"instructions\": %" PRIu64
               ", \"llc_misses\": %" PRIu64 ", \"branch_misses\": %" PRIu64,
               afirst ? "" : ", ", s.counters.cycles, s.counters.instructions,
               s.counters.llc_misses, s.counters.branch_misses);
      afirst = false;
    }
    out += "}}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace mublastp::trace
