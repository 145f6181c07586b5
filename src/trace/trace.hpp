// Structured tracing: per-thread timelines of the pipeline's stage spans,
// emitted as Chrome trace-event JSON ("mublastp-trace-v1", loadable in
// Perfetto / chrome://tracing).
//
// The engines time their stages through one runtime recorder,
// StageRecorder, built per (thread, query) from an optional
// stats::PipelineStats and an optional Tracer. Each stage boundary is
// stamped once; the same stamps book the stats-v1 stage seconds and the
// trace-v1 spans, so adjacent stages share one boundary and the two
// outputs agree to the nanosecond. With neither sink attached a boundary
// costs one branch and no clock read.
//
// Recording is wait-free on the hot path: each thread owns a lock-free
// SPSC ring (a "lane") and pushes fixed-size Span records into it; the
// serial point of the block loop drains every lane into the run's span
// list (flush()). A full lane drops the span being pushed and bumps a
// counter — tracing never blocks or reallocates inside a parallel region.
//
// Distributed timelines: an in-process search of any database layout is
// one engine pass recording straight into the run's tracer; fork-process
// shard workers ship their raw spans back over the member set's CRC-framed
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
  kShardWorker = 7, ///< one process-mode shard worker's whole batch
  kBatch = 8,       ///< one checkpoint batch
  kMerge = 9,       ///< process-mode cross-shard result merge
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

/// The per-run span collector.
class Tracer {
 public:
  explicit Tracer(TracerOptions opts = {});

  /// Raw CLOCK_MONOTONIC (steady_clock) ns — the clock all epochs live on.
  static std::uint64_t raw_now_ns();

  std::uint64_t epoch_raw_ns() const { return epoch_raw_ns_; }
  /// ns since this tracer's epoch.
  std::uint64_t now_ns() const { return raw_now_ns() - epoch_raw_ns_; }

  bool counters_enabled() const { return opts_.counters; }
  /// The options this tracer was built with (child tracers inherit them).
  const TracerOptions& options() const { return opts_; }

  /// Batch id stamped onto spans as they are pushed. Serial-point use only.
  void set_batch(std::uint32_t batch) {
    batch_.store(batch, std::memory_order_relaxed);
  }
  std::uint32_t batch() const {
    return batch_.load(std::memory_order_relaxed);
  }

  /// Records one span from the calling thread (serial bookkeeping spans:
  /// index load, shard workers, merges). Timestamps are now_ns() values.
  void record(SpanKind kind, std::uint64_t begin_ns, std::uint64_t end_ns,
              std::uint32_t block = kNoId, std::uint32_t query = kNoId,
              std::uint32_t shard = kNoId);

  /// Drains every lane into the run's span list. Called at serial points
  /// (block-loop merge, end of batch); safe against concurrent pushes.
  void flush();

  /// Appends externally collected spans (a fork-mode worker's shipped
  /// over the pipe), shifting timestamps by `offset_ns`
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
  friend class StageRecorder;

  /// The calling thread's lane; allocated (with its counter group, if
  /// enabled) on first use per thread.
  detail::Lane* lane();

  TracerOptions opts_;
  std::uint64_t epoch_raw_ns_;
  std::uint64_t id_;  ///< process-global tracer id (thread-local lane cache key)
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

/// The engines' one stage recorder, built per (thread, query). mark()
/// stamps a stage boundary: one steady-clock read, plus the lane's counter
/// group when the tracer samples counters. block_round(), block_chunk(),
/// stage() and flatten() close the stages those stamps opened, booking
/// stats-v1 seconds into the thread's accumulator and pushing trace-v1
/// spans from the same stamps. With both sinks null every hook is one
/// branch and reads no clock.
class StageRecorder {
 public:
  /// Records nothing.
  StageRecorder() = default;
  /// Books into `ps`'s accumulator of `thread` and pushes spans attributed
  /// to `query` into the calling thread's lane of `tracer`; either sink may
  /// be null.
  StageRecorder(stats::PipelineStats* ps, int thread, Tracer* tracer,
                std::uint32_t query);

  /// Opens the next stage at the current time.
  void mark() {
    if (on() && n_ < kMaxStamps) stamps_[n_++] = stamp();
  }

  /// Closes one (block, query) round of stages 1-2 and books its counter
  /// delta. The marks since the last close opened consecutive stages from
  /// hit_detect on: three give the decoupled hit_detect, sort and ungapped
  /// stages (muBLASTP), two give a split round's hit_detect and sort, one
  /// gives the interleaved engines' fused scan, booked whole under
  /// hit_detect.
  void block_round(std::uint32_t block, const stats::StageCounters& c) {
    if (on()) close_round(block, stats::Stage::kHitDetect, 1, c);
  }

  /// Closes the ungapped sweep of one chunk of a split round, opened by
  /// mark(), and books its seconds and counter delta into the same
  /// per-block row; the block_round that closed the round's hit_detect and
  /// sort counted the round.
  void block_chunk(std::uint32_t block, const stats::StageCounters& c) {
    if (on()) close_round(block, stats::Stage::kUngapped, 0, c);
  }

  /// Closes stage 3 or 4 (from the last mark, or the previous stage's end)
  /// and books its counter delta; its end opens the next stage.
  void stage(stats::Stage s, const stats::StageCounters& c) {
    if (on()) close_stage(s, c);
  }

  /// Closes a FlatNeighborhood build of `builds` queries opened by mark().
  void flatten(std::uint64_t builds) {
    if (on()) close_flatten(builds);
  }

  /// Books the hit-scan kernels' vector-tile / scalar-tail split.
  void hit_scan(std::uint64_t tiles, std::uint64_t tail_entries) {
    if (accum_ == nullptr) return;
    accum_->hit_kernel.tiles += tiles;
    accum_->hit_kernel.tail_entries += tail_entries;
  }

  /// Books this thread's current workspace footprint (high-water mark).
  void workspace(std::uint64_t bytes) {
    if (accum_ != nullptr && bytes > accum_->ws_peak) accum_->ws_peak = bytes;
  }

 private:
  struct Stamp {
    std::uint64_t ns = 0;  ///< raw steady-clock ns (Tracer::raw_now_ns)
    perfctr::PerfCounts c;
    bool counters = false;
  };
  static constexpr int kMaxStamps = 3;

  bool on() const { return accum_ != nullptr || lane_ != nullptr; }
  Stamp stamp() const;
  /// Pushes [begin, end] as a span when tracing; returns its seconds.
  double span(SpanKind kind, std::uint32_t block, const Stamp& begin,
              const Stamp& end);
  void close_round(std::uint32_t block, stats::Stage first,
                   std::uint64_t rounds, const stats::StageCounters& c);
  void close_stage(stats::Stage s, const stats::StageCounters& c);
  void close_flatten(std::uint64_t builds);

  stats::detail::ThreadAccum* accum_ = nullptr;
  Tracer* tracer_ = nullptr;
  detail::Lane* lane_ = nullptr;
  std::uint32_t query_ = kNoId;
  int n_ = 0;  ///< stamps opened since the last close
  Stamp stamps_[kMaxStamps];
};

}  // namespace mublastp::trace
