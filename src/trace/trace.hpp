// Structured tracing: per-thread timelines of the pipeline's stage spans,
// emitted as Chrome trace-event JSON ("mublastp-trace-v1", loadable in
// Perfetto / chrome://tracing).
//
// Follows the NullStats/PipelineStats policy split one level up: engines
// stay templated on a stats recorder, and tracing rides along as a wrapper
// recorder (TracingRecorder<Base>) that forwards every hook to the base
// policy and additionally timestamps stage boundaries via the new mark()
// hook — which is an empty inline in both stats policies, so untraced
// builds compile to exactly the code they compiled to before.
//
// Recording is wait-free on the hot path: each thread owns a lock-free
// SPSC ring (a "lane") and pushes fixed-size Span records into it; the
// serial point of the block loop drains every lane into the run's span
// list (flush()). Overflowing a lane drops the span and bumps a counter —
// tracing never blocks or reallocates inside a parallel region.
//
// Distributed timelines: in-process shard and chain members record into
// child tracers sharing the parent's clock epoch (no re-basing); fork-process
// workers ship their raw spans back over the member set's CRC-framed
// pipes together with their own epoch, and absorb() re-bases them onto the
// parent's epoch — CLOCK_MONOTONIC is system-wide on Linux, so one merged
// timeline covers the whole fan-out.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "stats/stats.hpp"
#include "trace/perfctr.hpp"

namespace mublastp::trace {

/// "Not attributed" marker for the Span id fields.
inline constexpr std::uint32_t kNoId = 0xffffffffu;

/// Span types. The first kNumStages values mirror stats::Stage one-to-one
/// (same underlying integers), so stage spans and stats-v1 stage seconds
/// are trivially cross-checkable.
enum class SpanKind : std::uint8_t {
  kHitDetect = 0,   ///< stage 1: hit detection (+ pre-filter)
  kSort = 1,        ///< stage 2a: hit reordering
  kUngapped = 2,    ///< stage 2b: ungapped extension sweep
  kGapped = 3,      ///< stage 3: gapped extension
  kFinalize = 4,    ///< stage 4: merge, cull, traceback, E-values
  kFlatten = 5,     ///< FlatNeighborhood build (hit-kernel setup)
  kIndexLoad = 6,   ///< index open/parse/map
  kShardWorker = 7, ///< one shard worker's whole batch
  kBatch = 8,       ///< one checkpoint batch
  kMerge = 9,       ///< cross-shard result merge
};
inline constexpr int kNumSpanKinds = 10;

/// Stable JSON event name ("hit_detect", "flatten", ...).
const char* span_name(SpanKind k);
/// Trace-event category ("stage", "setup", "shard", "run").
const char* span_category(SpanKind k);

/// One closed interval on one thread's timeline. Trivially copyable by
/// design: fork-mode workers ship these raw over the result pipe.
struct Span {
  std::uint64_t begin_ns = 0;  ///< ns since the owning tracer's epoch
  std::uint64_t end_ns = 0;
  std::uint32_t block = kNoId;
  std::uint32_t query = kNoId;
  std::uint32_t shard = kNoId;
  std::uint32_t batch = kNoId;
  std::uint32_t lane = kNoId;  ///< recording thread's lane index
  SpanKind kind = SpanKind::kHitDetect;
  std::uint8_t has_counters = 0;
  perfctr::PerfCounts counters;  ///< deltas over the span, if has_counters
};
static_assert(std::is_trivially_copyable_v<Span>);

namespace detail {

/// Single-producer single-consumer span ring: the owning thread pushes,
/// flush() (serial) drains. Capacity is rounded up to a power of two; a
/// full ring drops the span and counts it rather than blocking.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity);

  bool push(const Span& s);
  void drain(std::vector<Span>& out);
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<Span> buf_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// One thread's recording state: its ring plus (optionally) its hardware
/// counter group, opened on the owning thread so the events follow it.
struct Lane {
  explicit Lane(std::size_t capacity) : ring(capacity) {}
  SpanRing ring;
  std::uint32_t index = 0;
  bool counters_ok = false;
  perfctr::PerfCounterGroup group;
};

}  // namespace detail

struct TracerOptions {
  std::size_t ring_capacity = 4096;  ///< spans per lane between flushes
  bool counters = false;  ///< open a perf counter group per lane
};

class Tracer;

/// A thread's write handle into a tracer — one thread-local lane lookup at
/// construction, then wait-free stamping/pushing. Cheap to copy.
class Handle {
 public:
  Handle() = default;

  bool enabled() const { return lane_ != nullptr; }

  /// A stage-boundary timestamp, optionally with a counter sample.
  struct Stamp {
    std::uint64_t t = 0;  ///< ns since the tracer's epoch
    perfctr::PerfCounts c;
    bool counters = false;
  };
  Stamp stamp() const;

  /// Records [begin, end] with counter deltas when both stamps carry them.
  void span(SpanKind kind, std::uint32_t block, std::uint32_t query,
            const Stamp& begin, const Stamp& end);

  /// Records a bare interval (no counters), optionally shard-attributed.
  void span_raw(SpanKind kind, std::uint32_t block, std::uint32_t query,
                std::uint32_t shard, std::uint64_t begin_ns,
                std::uint64_t end_ns);

 private:
  friend class Tracer;
  Handle(Tracer* owner, detail::Lane* lane) : owner_(owner), lane_(lane) {}
  Tracer* owner_ = nullptr;
  detail::Lane* lane_ = nullptr;
};

/// The per-run span collector ("RingTrace" of the design: the compile-to-
/// nothing "NullTrace" counterpart is simply the engines' untraced template
/// instantiation, where mark() is the stats policies' empty inline).
class Tracer {
 public:
  explicit Tracer(TracerOptions opts = {});
  /// Child tracer sharing a parent's clock epoch (thread-mode shard
  /// workers): its spans need no re-basing and are stamped with `shard`.
  Tracer(TracerOptions opts, std::uint64_t epoch_raw_ns, std::uint32_t shard);

  /// Raw CLOCK_MONOTONIC (steady_clock) ns — the clock all epochs live on.
  static std::uint64_t raw_now_ns();

  std::uint64_t epoch_raw_ns() const { return epoch_raw_ns_; }
  /// ns since this tracer's epoch.
  std::uint64_t now_ns() const { return raw_now_ns() - epoch_raw_ns_; }

  bool counters_enabled() const { return opts_.counters; }
  /// The options this tracer was built with (child tracers inherit them).
  const TracerOptions& options() const { return opts_; }

  /// Default shard attribution of locally recorded spans (kNoId = main).
  void set_shard(std::uint32_t shard) { shard_ = shard; }
  /// Batch id stamped onto spans as they are pushed. Serial-point use only.
  void set_batch(std::uint32_t batch) {
    batch_.store(batch, std::memory_order_relaxed);
  }
  std::uint32_t batch() const {
    return batch_.load(std::memory_order_relaxed);
  }

  /// The calling thread's write handle; allocates its lane (and counter
  /// group, if enabled) on first use per thread.
  Handle handle();

  /// Records one span from the calling thread (serial bookkeeping spans:
  /// index load, shard workers, merges). Timestamps are now_ns() values.
  void record(SpanKind kind, std::uint64_t begin_ns, std::uint64_t end_ns,
              std::uint32_t block = kNoId, std::uint32_t query = kNoId,
              std::uint32_t shard = kNoId);

  /// Drains every lane into the run's span list, stamping this tracer's
  /// shard id onto spans without one. Called at serial points (block-loop
  /// merge, end of batch); safe against concurrent pushes.
  void flush();

  /// Appends externally collected spans (a child tracer's, or a fork-mode
  /// worker's shipped over the pipe), shifting timestamps by `offset_ns`
  /// (child_epoch_raw - parent_epoch_raw) and filling in `shard` / the
  /// current batch where unattributed.
  void absorb(const Span* spans, std::size_t n, std::int64_t offset_ns,
              std::uint32_t shard);

  /// Folds a child's overflow-drop count into this tracer's total.
  void add_dropped(std::uint64_t n);

  /// Flushed spans (call flush() first for completeness).
  const std::vector<Span>& spans() const { return spans_; }

  /// Spans lost to ring overflow, including absorbed children's.
  std::uint64_t dropped() const;

  /// True when at least one lane's counter group actually opened.
  bool counters_available() const {
    return counters_opened_.load(std::memory_order_relaxed);
  }

  /// Per-stage totals of the counter-annotated stage spans (for the
  /// stats-v1 "perf_counters" object). Call flush() first.
  stats::PerfCounterStats perf_totals() const;

 private:
  friend class Handle;

  TracerOptions opts_;
  std::uint64_t epoch_raw_ns_;
  std::uint64_t id_;  ///< process-global tracer id (thread-local lane cache key)
  std::uint32_t shard_ = kNoId;
  std::atomic<std::uint32_t> batch_{kNoId};
  std::atomic<bool> counters_opened_{false};

  mutable std::mutex mu_;  ///< guards lanes_, spans_, absorbed_dropped_
  std::vector<std::unique_ptr<detail::Lane>> lanes_;
  std::vector<Span> spans_;
  std::uint64_t absorbed_dropped_ = 0;
};

/// Run metadata carried into the trace file header.
struct TraceMeta {
  std::string engine;
  std::string kernel;
  int threads = 0;
  std::uint32_t shards = 0;  ///< 0 = unsharded
};

/// Flushes the tracer and serializes its spans to the "mublastp-trace-v1"
/// contract: a Chrome trace-event JSON object (Perfetto-loadable) whose
/// "X" complete events carry stage/block/query/batch ids and counter
/// deltas in args. Deterministically ordered (sorted by begin time).
std::string to_chrome_json(Tracer& tracer, const TraceMeta& meta);

/// Recorder wrapper that adds span recording to any stats recorder policy.
/// Satisfies the same interface the engines are templated on; mark() (a
/// no-op on the base policies) stamps stage boundaries here, and the
/// existing book-keeping hooks close the spans those stamps opened:
///   - block_round() with three prior stamps emits the decoupled
///     hit_detect / sort / ungapped spans (mublastp engine); with one
///     prior stamp it emits a single fused hit_detect span (the
///     interleaved engines, mirroring their stats booking).
///   - stage() closes [last stamp, now] as the corresponding stage span
///     and re-stamps, so gapped.end == finalize.begin exactly.
///   - hit_kernel() with flatten_builds != 0 closes a flatten span.
template <typename Base>
class TracingRecorder {
 public:
  /// Forces the engines' recorder-guarded bookkeeping on even when the
  /// base policy is NullStats (spans need the stage boundaries evaluated).
  static constexpr bool kEnabled = true;

  TracingRecorder(Base base, Tracer* tracer, std::uint32_t query)
      : base_(base), h_(tracer->handle()), query_(query) {}

  void mark() {
    if (n_ < kMaxStamps) stamps_[n_++] = h_.stamp();
  }

  void block_round(std::uint32_t block, const stats::StageCounters& c,
                   double detect_sec, double sort_sec, double extend_sec) {
    base_.block_round(block, c, detect_sec, sort_sec, extend_sec);
    const Handle::Stamp end = h_.stamp();
    if (n_ >= 3) {
      h_.span(SpanKind::kHitDetect, block, query_, stamps_[n_ - 3],
              stamps_[n_ - 2]);
      h_.span(SpanKind::kSort, block, query_, stamps_[n_ - 2],
              stamps_[n_ - 1]);
      h_.span(SpanKind::kUngapped, block, query_, stamps_[n_ - 1], end);
    } else if (n_ >= 1) {
      h_.span(SpanKind::kHitDetect, block, query_, stamps_[n_ - 1], end);
    }
    n_ = 0;
  }

  void stage(stats::Stage s, double sec) {
    base_.stage(s, sec);
    const Handle::Stamp end = h_.stamp();
    if (n_ >= 1) {
      h_.span(static_cast<SpanKind>(s), kNoId, query_, stamps_[n_ - 1], end);
    }
    stamps_[0] = end;  // chain: this stage's end opens the next stage
    n_ = 1;
  }

  void add(const stats::StageCounters& c) { base_.add(c); }
  void workspace(std::uint64_t bytes) { base_.workspace(bytes); }

  void hit_kernel(const stats::HitKernelStats& d) {
    base_.hit_kernel(d);
    if (d.flatten_builds != 0) {
      const Handle::Stamp end = h_.stamp();
      if (n_ >= 1) {
        h_.span(SpanKind::kFlatten, kNoId, query_, stamps_[n_ - 1], end);
      }
      n_ = 0;
    }
  }

 private:
  static constexpr int kMaxStamps = 4;
  Base base_;
  Handle h_;
  std::uint32_t query_;
  Handle::Stamp stamps_[kMaxStamps];
  int n_ = 0;
};

}  // namespace mublastp::trace
