#include "cluster/member_set.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>

#include "cluster/shard_manifest.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/timer.hpp"
#include "core/results.hpp"
#include "index/db_index_io.hpp"
#include "index/generation.hpp"

namespace mublastp::cluster {
namespace {

/// Exit status a fault-doomed process-mode child dies with (distinctive, so
/// the quarantine reason can say "injected" vs a real crash).
constexpr int kInjectedExitStatus = 113;

// ---------------------------------------------------------------------------
// Result-frame serialization (process mode)
// ---------------------------------------------------------------------------
//
// The child buffers one payload for the whole batch, then writes a single
// frame: u64 payload length, u32 CRC32, payload. The parent drains the pipe
// fully before waitpid, so a child blocked on a full pipe always finishes.
// Payload layout:
//   f64 worker seconds
//   per query: u64 n_alignments; per alignment the GappedAlignment fields
//              (ops as u64 length + bytes); u64 n_ungapped + raw
//              UngappedAlignment records; raw StageStats.
// Traced runs (parent tracer non-null on both sides of the fork) append:
//   u64 n_spans + raw trace::Span records + u64 child epoch (raw
//   CLOCK_MONOTONIC ns, for parent-side re-basing) + u64 dropped spans.

template <typename T>
void put(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

struct FrameReader {
  std::span<const std::byte> bytes;
  std::size_t pos = 0;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos + sizeof(T) > bytes.size()) {
      throw Error("shard result frame truncated", ErrorKind::kIo);
    }
    T v{};
    std::memcpy(&v, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::string get_string(std::uint64_t n) {
    if (n > bytes.size() - pos) {
      throw Error("shard result frame truncated", ErrorKind::kIo);
    }
    std::string s(reinterpret_cast<const char*>(bytes.data() + pos),
                  static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
    return s;
  }
};

std::string encode_results(double seconds,
                           const std::vector<QueryResult>& results,
                           const trace::Tracer* tracer) {
  std::string out;
  put(out, seconds);
  for (const QueryResult& r : results) {
    put(out, static_cast<std::uint64_t>(r.alignments.size()));
    for (const GappedAlignment& a : r.alignments) {
      put(out, a.subject);
      put(out, a.q_start);
      put(out, a.q_end);
      put(out, a.s_start);
      put(out, a.s_end);
      put(out, a.score);
      put(out, a.bit_score);
      put(out, a.evalue);
      put(out, a.anchor_q);
      put(out, a.anchor_s);
      put(out, static_cast<std::uint64_t>(a.ops.size()));
      out.append(a.ops);
    }
    put(out, static_cast<std::uint64_t>(r.ungapped.size()));
    for (const UngappedAlignment& u : r.ungapped) put(out, u);
    put(out, r.stats);
  }
  if (tracer != nullptr) {
    const std::vector<trace::Span>& spans = tracer->spans();
    put(out, static_cast<std::uint64_t>(spans.size()));
    for (const trace::Span& s : spans) put(out, s);
    put(out, tracer->epoch_raw_ns());
    put(out, tracer->dropped());
  }
  return out;
}

/// A fork-mode worker's trace section, decoded alongside its results.
struct ChildTrace {
  std::vector<trace::Span> spans;
  std::uint64_t epoch_raw_ns = 0;
  std::uint64_t dropped = 0;
};

std::vector<QueryResult> decode_results(std::span<const std::byte> payload,
                                        std::size_t num_queries,
                                        double* seconds,
                                        ChildTrace* child_trace) {
  FrameReader in{payload};
  *seconds = in.get<double>();
  std::vector<QueryResult> results(num_queries);
  for (QueryResult& r : results) {
    const std::uint64_t n_align = in.get<std::uint64_t>();
    r.alignments.resize(static_cast<std::size_t>(n_align));
    for (GappedAlignment& a : r.alignments) {
      a.subject = in.get<SeqId>();
      a.q_start = in.get<std::uint32_t>();
      a.q_end = in.get<std::uint32_t>();
      a.s_start = in.get<std::uint32_t>();
      a.s_end = in.get<std::uint32_t>();
      a.score = in.get<Score>();
      a.bit_score = in.get<double>();
      a.evalue = in.get<double>();
      a.anchor_q = in.get<std::uint32_t>();
      a.anchor_s = in.get<std::uint32_t>();
      a.ops = in.get_string(in.get<std::uint64_t>());
    }
    const std::uint64_t n_ungapped = in.get<std::uint64_t>();
    r.ungapped.resize(static_cast<std::size_t>(n_ungapped));
    for (UngappedAlignment& u : r.ungapped) u = in.get<UngappedAlignment>();
    r.stats = in.get<StageStats>();
  }
  if (child_trace != nullptr) {
    const std::uint64_t n_spans = in.get<std::uint64_t>();
    if (n_spans > (payload.size() - in.pos) / sizeof(trace::Span)) {
      throw Error("shard result frame truncated", ErrorKind::kIo);
    }
    child_trace->spans.resize(static_cast<std::size_t>(n_spans));
    for (trace::Span& s : child_trace->spans) s = in.get<trace::Span>();
    child_trace->epoch_raw_ns = in.get<std::uint64_t>();
    child_trace->dropped = in.get<std::uint64_t>();
  }
  if (in.pos != payload.size()) {
    throw Error("shard result frame has trailing bytes", ErrorKind::kIo);
  }
  return results;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF before the frame completed
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void sleep_ms(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1000000L};
  nanosleep(&ts, nullptr);
}

/// Global ids [offset, offset + n): a chain member's slice of the database.
std::vector<SeqId> id_range(std::uint64_t offset, std::uint64_t n) {
  std::vector<SeqId> ids(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<SeqId>(offset + i);
  }
  return ids;
}

}  // namespace

std::vector<QueryResult> merge_partition_results(
    const std::vector<std::vector<QueryResult>>& per_member,
    const std::vector<std::span<const SeqId>>& to_global,
    std::size_t num_queries, std::size_t max_alignments) {
  std::vector<QueryResult> merged(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    QueryResult& out = merged[q];
    for (std::size_t k = 0; k < per_member.size(); ++k) {
      if (per_member[k].empty()) continue;  // quarantined or empty member
      const QueryResult& r = per_member[k][q];
      const std::span<const SeqId> remap = to_global[k];
      for (GappedAlignment a : r.alignments) {
        a.subject = remap[a.subject];
        out.alignments.push_back(std::move(a));
      }
      for (UngappedAlignment u : r.ungapped) {
        u.subject = remap[u.subject];
        out.ungapped.push_back(u);
      }
      out.stats += r.stats;
    }
    std::sort(out.alignments.begin(), out.alignments.end(),
              final_ranking_less);
    if (out.alignments.size() > max_alignments) {
      out.alignments.resize(max_alignments);
    }
    canonicalize_ungapped(out.ungapped);
  }
  return merged;
}

const char* worker_mode_name(WorkerMode mode) {
  switch (mode) {
    case WorkerMode::kThread: return "thread";
    case WorkerMode::kProcess: return "process";
  }
  return "unknown";
}

WorkerMode parse_worker_mode(std::string_view spec) {
  if (spec == "thread") return WorkerMode::kThread;
  if (spec == "process") return WorkerMode::kProcess;
  throw Error("unknown shard worker mode '" + std::string(spec) +
              "' (expected thread or process)");
}

// ---------------------------------------------------------------------------
// Opening
// ---------------------------------------------------------------------------

struct MemberSet::Plan {
  std::string path;              ///< "" for an empty shard (no index file)
  std::vector<SeqId> to_global;  ///< the promised local -> global map
  std::uint64_t num_sequences = 0;
  std::uint64_t num_residues = 0;
  std::uint32_t crc = 0;
  bool promised = false;   ///< counts and crc come from a manifest
  bool check_crc = false;  ///< verify the whole-file CRC before opening
};

struct MemberSet::GlobalStore {
  std::once_flag once;
  SequenceStore db;
};

MemberSet::MemberSet() : global_(std::make_unique<GlobalStore>()) {}
MemberSet::MemberSet(MemberSet&&) noexcept = default;
MemberSet& MemberSet::operator=(MemberSet&&) noexcept = default;
MemberSet::~MemberSet() = default;

MemberSet MemberSet::open_index(const std::string& path,
                                const MemberSetOptions& opts,
                                stats::DegradedStats* degraded,
                                LoadMode mode) {
  const ResolvedGeneration resolved = resolve_generations(path);
  MemberSet set;
  set.options_ = opts;
  set.generation_ = resolved.generation;
  std::vector<Plan> plans;
  if (resolved.manifest.has_value()) {
    if (!resolved.orphan_temps.empty()) {
      std::fprintf(stderr,
                   "warning: %zu orphaned temp file(s) from a crashed build"
                   " next to '%s' (the next mublastp_makedb --append or"
                   " --compact removes them)\n",
                   resolved.orphan_temps.size(), path.c_str());
    }
    const GenerationManifest& m = *resolved.manifest;
    set.total_sequences_ = m.total_sequences;
    set.total_residues_ = m.total_residues;
    for (std::size_t k = 0; k < m.members.size(); ++k) {
      const GenerationMember& gm = m.members[k];
      plans.push_back({resolved.member_paths[k],
                       id_range(gm.id_offset, gm.num_sequences),
                       gm.num_sequences, gm.num_residues, gm.index_crc32,
                       true, opts.strict});
    }
  } else {
    MUBLASTP_CHECK_KIND(!resolved.member_paths.empty(), ErrorKind::kIo,
                        "no index found at " + path +
                            " (no base file, no generation manifest)");
    plans.push_back({resolved.member_paths[0], {}, 0, 0, 0, false, false});
  }
  set.layout_ = plans.size() > 1 ? Layout::kChain : Layout::kSingle;
  set.open_members(plans, mode, degraded);
  set.start_engines();
  return set;
}

MemberSet MemberSet::open_shards(const std::string& path,
                                 const MemberSetOptions& opts,
                                 stats::DegradedStats* degraded,
                                 LoadMode mode) {
  const ShardManifest manifest = load_shard_manifest(path);
  const std::string dir = dirname_of(path);
  MemberSet set;
  set.layout_ = Layout::kShards;
  set.options_ = opts;
  set.strategy_ = manifest.strategy;
  set.total_sequences_ = manifest.total_sequences;
  set.total_residues_ = manifest.total_residues;
  std::vector<Plan> plans;
  for (const ShardManifest::Shard& s : manifest.shards) {
    plans.push_back({s.num_sequences == 0 ? "" : dir + "/" + s.path,
                     s.to_global, s.num_sequences, s.num_residues,
                     s.index_crc32, true, true});
  }
  set.open_members(plans, mode, degraded);
  set.start_engines();
  return set;
}

MemberSet MemberSet::partition(const SequenceStore& db, int shards,
                               PartitionStrategy strategy,
                               const DbIndexConfig& config,
                               const MemberSetOptions& opts) {
  MUBLASTP_CHECK(shards >= 1, "shard count must be >= 1");
  std::vector<std::size_t> seq_lens(db.size());
  for (SeqId i = 0; i < db.size(); ++i) seq_lens[i] = db.length(i);
  const Partitioning parts = make_partitioning(seq_lens, shards, strategy);

  MemberSet set;
  set.layout_ = Layout::kShards;
  set.options_ = opts;
  set.strategy_ = strategy;
  set.total_sequences_ = db.size();
  set.total_residues_ = db.total_residues();
  set.members_.resize(static_cast<std::size_t>(shards));
  for (SeqId i = 0; i < db.size(); ++i) {
    // Ascending global-id walk: each member's to_global comes out strictly
    // increasing, and its local order is the global order restricted to it.
    set.members_[parts.assignment[i]].to_global.push_back(i);
  }
  for (Member& m : set.members_) {
    if (m.to_global.empty()) continue;
    SequenceStore slice;
    for (const SeqId g : m.to_global) {
      slice.add(db.sequence(g), db.name(g));
      m.num_residues += db.length(g);
    }
    m.owned = std::make_unique<DbIndex>(DbIndex::build(slice, config));
  }
  set.start_engines();
  return set;
}

void MemberSet::open_members(const std::vector<Plan>& plans, LoadMode mode,
                             stats::DegradedStats* degraded) {
  const bool strict = options_.strict;
  MUBLASTP_CHECK(strict || degraded != nullptr,
                 "a degraded-mode open needs a DegradedStats sink");
  members_.resize(plans.size());
  for (std::uint32_t k = 0; k < plans.size(); ++k) {
    const Plan& plan = plans[k];
    Member& m = members_[k];
    m.path = plan.path;
    m.to_global = plan.to_global;
    m.num_residues = plan.num_residues;
    if (plan.path.empty()) continue;
    try {
      if (plan.check_crc) {
        // Names a rotted member before the section-level checks run.
        const std::uint32_t crc = file_crc32(plan.path);
        MUBLASTP_CHECK_KIND(crc == plan.crc, ErrorKind::kCorrupt,
                            label(k) + " index checksum mismatch (manifest"
                                       " says " + std::to_string(plan.crc) +
                                ", file has " + std::to_string(crc) + ")");
      }
      const DbIndexFileInfo info = describe_db_index_file(plan.path);
      const bool v3 = info.version >= kDbIndexFormatVersion;
      MUBLASTP_CHECK(mode != LoadMode::kMmap || v3,
                     "--mmap requires a format v" +
                         std::to_string(kDbIndexFormatVersion) +
                         " index; '" + plan.path + "' is v" +
                         std::to_string(info.version) +
                         " (rebuild it with mublastp_makedb)");
      const Timer t;
      std::vector<BlockQuarantine> quarantined;
      const auto open_mapped = [&] {
        MappedDbIndexOptions o;
        o.tolerate_block_corruption = !strict;
        // Prefault under the SIGBUS guard so a file truncated after the
        // mmap becomes a catchable Error(kIo) feeding the retry below.
        o.prefault = !strict;
        m.mapped = std::make_unique<MappedDbIndex>(plan.path, o);
        quarantined = m.mapped->quarantined();
        m.load.mode = "mmap";
      };
      const auto open_copy = [&] {
        IndexLoadOptions o;
        o.tolerate_block_corruption = !strict;
        o.quarantined = &quarantined;
        m.owned = std::make_unique<DbIndex>(load_db_index_file(plan.path, o));
        m.load.mode = "copy";
      };
      if (mode == LoadMode::kCopy || !v3) {
        open_copy();
      } else if (strict) {
        open_mapped();
      } else {
        // Transient map failures (ENOMEM under pressure, a racing writer)
        // get one more try; persistent ones get the copy loader, which has
        // no address-space or SIGBUS exposure.
        try {
          open_mapped();
        } catch (const Error& first) {
          std::fprintf(stderr, "warning: mmap load failed (%s); retrying\n",
                       first.what());
          ++degraded->load_retries;
          sleep_ms(50);
          try {
            open_mapped();
          } catch (const Error& second) {
            std::fprintf(stderr,
                         "warning: mmap load failed again (%s);"
                         " falling back to copy load\n",
                         second.what());
            ++degraded->load_retries;
            open_copy();
          }
        }
      }
      m.load.load_seconds = t.seconds();
      m.load.file_bytes = info.file_bytes;
      m.load.resident_bytes = m.mapped ? m.mapped->resident_bytes() : 0;

      // The member must describe the slice its manifest promised (block
      // quarantine never touches the sequence sections, so this holds in
      // degraded mode too).
      const DbIndexView view = m.view();
      if (plan.promised) {
        MUBLASTP_CHECK_KIND(view.num_sequences() == plan.num_sequences &&
                                view.total_residues() == plan.num_residues,
                            ErrorKind::kCorrupt,
                            label(k) + " index does not match its manifest"
                                       " entry");
      } else {
        m.to_global = id_range(0, view.num_sequences());
        m.num_residues = view.total_residues();
        total_sequences_ += view.num_sequences();
        total_residues_ += view.total_residues();
      }
      for (const BlockQuarantine& q : quarantined) {
        degraded->quarantined.push_back(
            {q.block, layout_ == Layout::kSingle
                          ? q.reason
                          : label(k) + " (" + plan.path + "): " + q.reason});
        degraded->partial = true;
      }
    } catch (const Error& e) {
      if (strict || layout_ == Layout::kSingle) throw;
      degraded->quarantined_shards.push_back({k, e.what()});
      degraded->partial = true;
      m.mapped.reset();
      m.owned.reset();
      m.load = {};
    }
  }
}

void MemberSet::start_engines() {
  MuBlastpOptions engine = options_.engine;
  // The invariant every layout lives on: each member prices E-values over
  // the combined search space, exactly like one index over the database.
  engine.effective_db_residues = total_residues_;
  for (Member& m : members_) {
    if (m.mapped == nullptr && m.owned == nullptr) continue;
    m.engine = std::make_unique<MuBlastpEngine>(m.view(), options_.params,
                                                engine);
  }
}

std::string MemberSet::label(std::uint32_t k) const {
  return (layout_ == Layout::kShards ? "shard " : "chain member ") +
         std::to_string(k);
}

double MemberSet::predicted_imbalance() const {
  if (members_.empty()) return 0.0;
  std::uint64_t lo = members_.front().num_residues;
  std::uint64_t hi = lo;
  for (const Member& m : members_) {
    lo = std::min(lo, m.num_residues);
    hi = std::max(hi, m.num_residues);
  }
  if (hi == 0) return 0.0;
  return static_cast<double>(hi - lo) / static_cast<double>(hi);
}

const SequenceStore& MemberSet::global_db() const {
  std::call_once(global_->once, [this] {
    std::vector<std::pair<std::uint32_t, SeqId>> locate(
        total_sequences_, {0, 0});
    for (std::uint32_t k = 0; k < member_count(); ++k) {
      const std::vector<SeqId>& tg = members_[k].to_global;
      for (SeqId local = 0; local < tg.size(); ++local) {
        locate[tg[local]] = {k, local};
      }
    }
    for (const auto& [k, local] : locate) {
      const MuBlastpEngine* e = members_[k].engine.get();
      if (e == nullptr) {
        // The store rejects empty sequences; see the header.
        const Residue placeholder{};
        global_->db.add({&placeholder, 1}, {});
        continue;
      }
      const SeqId sorted = e->view().sorted_id(local);
      global_->db.add(e->view().sequence(sorted),
                      std::string(e->view().name(sorted)));
    }
  });
  return global_->db;
}

// ---------------------------------------------------------------------------
// Searching
// ---------------------------------------------------------------------------

struct MemberSet::Outcome {
  std::vector<QueryResult> results;  ///< empty when the member failed
  stats::DegradedStats degraded;     ///< the member engine's own report
  double seconds = 0.0;
  bool failed = false;
  std::string reason;
  ErrorKind kind = ErrorKind::kIo;  ///< what a strict run fails with
  std::exception_ptr error;         ///< an in-process failure, rethrowable
};

MemberSearchResult MemberSet::search(const SequenceStore& queries,
                                     int threads, WorkerMode mode,
                                     trace::Tracer* tracer,
                                     stats::PipelineStats* ps) const {
  MUBLASTP_CHECK(!members_.empty(), "member set is empty");
  MUBLASTP_CHECK(ps == nullptr || members_.size() == 1,
                 "pipeline telemetry needs a 1-member set");
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }

  // The injection site is evaluated in the parent, once per live shard in
  // ascending order: deterministic regardless of worker scheduling, and
  // immune to fork duplicating the counter into every child.
  std::vector<bool> doomed(member_count(), false);
  if (layout_ == Layout::kShards) {
    for (std::uint32_t k = 0; k < member_count(); ++k) {
      if (engine(k) != nullptr) doomed[k] = MUBLASTP_FI_FAIL("shard.worker");
    }
  }

  std::vector<Outcome> outcomes(member_count());
  if (mode == WorkerMode::kThread) {
    run_in_process(queries, threads, doomed, outcomes, tracer, ps);
  } else {
    run_in_children(queries, doomed, outcomes, tracer);
  }

  MemberSearchResult out;
  out.shards.count = member_count();
  out.shards.mode = worker_mode_name(mode);
  out.shards.strategy = strategy_name(strategy_);
  out.shards.imbalance_predicted = predicted_imbalance();
  std::vector<std::vector<QueryResult>> per_member(member_count());
  std::vector<std::span<const SeqId>> remaps(member_count());
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (std::uint32_t k = 0; k < member_count(); ++k) {
    Outcome& o = outcomes[k];
    if (o.failed) {
      if (layout_ == Layout::kSingle && o.error) {
        std::rethrow_exception(o.error);
      }
      if (options_.strict) {
        throw Error(label(k) + " failed: " + o.reason, o.kind);
      }
      out.degraded.quarantined_shards.push_back({k, o.reason});
      out.degraded.partial = true;
      o.results.clear();
    }
    for (const stats::QuarantinedBlock& q : o.degraded.quarantined) {
      out.degraded.quarantined.push_back(
          {q.block, layout_ == Layout::kSingle
                        ? q.reason
                        : label(k) + ": " + q.reason});
    }
    out.degraded.time_budget_trips += o.degraded.time_budget_trips;
    out.degraded.mem_budget_trips += o.degraded.mem_budget_trips;
    out.degraded.partial = out.degraded.partial || o.degraded.partial;

    stats::ShardStats entry;
    entry.shard = k;
    entry.seconds = o.seconds;
    for (const QueryResult& r : o.results) {
      entry.hits += r.stats.hits;
      entry.alignments += r.alignments.size();
    }
    out.shards.per_shard.push_back(entry);
    if (engine(k) != nullptr && !o.failed) {
      lo = first ? o.seconds : std::min(lo, o.seconds);
      hi = first ? o.seconds : std::max(hi, o.seconds);
      first = false;
    }
    per_member[k] = std::move(o.results);
    remaps[k] = to_global(k);
  }
  out.shards.imbalance_measured = hi > 0.0 ? (hi - lo) / hi : 0.0;

  if (member_count() == 1 && per_member[0].size() == queries.size()) {
    // One member covers the whole database: its results need no merge.
    out.results = std::move(per_member[0]);
    return out;
  }
  const std::uint64_t merge_begin = tracer != nullptr ? tracer->now_ns() : 0;
  out.results = merge_partition_results(per_member, remaps, queries.size(),
                                        options_.params.max_alignments);
  if (tracer != nullptr) {
    tracer->record(trace::SpanKind::kMerge, merge_begin, tracer->now_ns());
    tracer->flush();
  }
  return out;
}

void MemberSet::run_in_process(const SequenceStore& queries, int threads,
                               const std::vector<bool>& doomed,
                               std::vector<Outcome>& outcomes,
                               trace::Tracer* tracer,
                               stats::PipelineStats* ps) const {
  std::vector<std::uint32_t> live;
  for (std::uint32_t k = 0; k < member_count(); ++k) {
    if (engine(k) == nullptr) continue;
    if (doomed[k]) {
      outcomes[k].failed = true;
      outcomes[k].reason = "shard worker failed (injected fault)";
      continue;
    }
    live.push_back(k);
  }

  // A kSingle set traces straight into `tracer`. Other layouts give each
  // member a child tracer sharing the parent's clock epoch, so its spans
  // absorb without re-basing and carry the member position in the shard
  // lane.
  const bool direct = tracer == nullptr || layout_ == Layout::kSingle;
  std::vector<std::unique_ptr<trace::Tracer>> children(member_count());
  if (!direct) {
    for (const std::uint32_t k : live) {
      children[k] = std::make_unique<trace::Tracer>(
          tracer->options(), tracer->epoch_raw_ns(), k);
    }
  }

  const auto run = [&](std::uint32_t k, int share) {
    Outcome& out = outcomes[k];
    trace::Tracer* t = direct ? tracer : children[k].get();
    const std::uint64_t span_begin = direct ? 0 : t->now_ns();
    const Timer timer;
    // Nothing may escape: this runs on a worker thread.
    try {
      out.results = engine(k)->search_batch(
          queries, share, ps, options_.strict ? nullptr : &out.degraded, t);
      if (!direct) {
        t->record(trace::SpanKind::kShardWorker, span_begin, t->now_ns(),
                  trace::kNoId, trace::kNoId, k);
        t->flush();
      }
    } catch (const std::exception& e) {
      out.failed = true;
      out.reason = e.what();
      if (const auto* err = dynamic_cast<const Error*>(&e)) {
        out.kind = err->kind();
      }
      out.error = std::current_exception();
      out.results.clear();
    }
    out.seconds = timer.seconds();
  };

  // A batch with at least as many queries as threads keeps every thread
  // busy inside one member, so members run in turn with the whole budget.
  // A smaller batch would leave threads idle there, so members run at once
  // and split the budget.
  const int workers =
      queries.size() >= static_cast<std::size_t>(threads)
          ? 1
          : std::clamp(static_cast<int>(live.size()), 1, threads);
  std::atomic<std::size_t> next{0};
  const auto worker = [&](int share) {
    for (std::size_t i = next++; i < live.size(); i = next++) {
      run(live[i], share);
    }
  };
  {
    // jthreads join on every exit from this scope, exceptions included.
    std::vector<std::jthread> pool;
    for (int w = 1; w < workers; ++w) {
      pool.emplace_back(worker, threads / workers + (w < threads % workers));
    }
    worker(threads / workers + (threads % workers != 0));
  }

  if (!direct) {
    for (const std::uint32_t k : live) {
      tracer->absorb(children[k]->spans().data(), children[k]->spans().size(),
                     0, k);
      tracer->add_dropped(children[k]->dropped());
    }
  }
}

void MemberSet::run_in_children(const SequenceStore& queries,
                                const std::vector<bool>& doomed,
                                std::vector<Outcome>& outcomes,
                                trace::Tracer* tracer) const {
  struct Child {
    std::uint32_t member = 0;
    pid_t pid = -1;
    int fd = -1;
  };
  std::vector<Child> children;

  for (std::uint32_t k = 0; k < member_count(); ++k) {
    if (engine(k) == nullptr) continue;
    int fds[2];
    if (::pipe(fds) != 0) {
      outcomes[k].failed = true;
      outcomes[k].reason = std::string("pipe failed: ") +
                           std::strerror(errno);
      continue;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      outcomes[k].failed = true;
      outcomes[k].reason = std::string("fork failed: ") +
                           std::strerror(errno);
      continue;
    }
    if (pid == 0) {
      // Child. A doomed child dies like a real crash so the parent's
      // recovery path (EOF on the pipe + nonzero waitpid status) is the
      // one exercised. Live children must stay out of OpenMP regions —
      // libgomp state does not survive fork — so the batch runs as a
      // plain single-threaded loop.
      ::close(fds[0]);
      if (doomed[k]) ::_exit(kInjectedExitStatus);
      int status = 0;
      try {
        // The child builds its own tracer post-fork (the parent's lanes
        // and thread-local caches don't survive fork): same options, its
        // own epoch. The epoch ships back in the frame so the parent can
        // re-base — CLOCK_MONOTONIC is system-wide, so the offset is just
        // the epoch difference.
        std::unique_ptr<trace::Tracer> child_tracer;
        if (tracer != nullptr) {
          child_tracer = std::make_unique<trace::Tracer>(tracer->options());
          child_tracer->set_shard(k);
        }
        const Timer timer;
        std::vector<QueryResult> results;
        results.reserve(queries.size());
        for (SeqId q = 0; q < queries.size(); ++q) {
          if (child_tracer != nullptr) {
            results.push_back(engine(k)->search(
                queries.sequence(q), static_cast<std::uint32_t>(q),
                *child_tracer));
          } else {
            results.push_back(engine(k)->search(queries.sequence(q)));
          }
        }
        if (child_tracer != nullptr) {
          child_tracer->record(trace::SpanKind::kShardWorker, 0,
                               child_tracer->now_ns(), trace::kNoId,
                               trace::kNoId, k);
          child_tracer->flush();
        }
        const std::string payload =
            encode_results(timer.seconds(), results, child_tracer.get());
        const std::uint64_t len = payload.size();
        const std::uint32_t crc = crc32(payload.data(), payload.size());
        if (!write_all(fds[1], &len, sizeof(len)) ||
            !write_all(fds[1], &crc, sizeof(crc)) ||
            !write_all(fds[1], payload.data(), payload.size())) {
          status = 1;
        }
      } catch (...) {
        status = 1;
      }
      ::close(fds[1]);
      ::_exit(status);
    }
    ::close(fds[1]);
    children.push_back({k, pid, fds[0]});
  }

  // Drain each pipe fully, in member order, then reap. Children blocked on
  // a full pipe unblock when their turn comes; no deadlock.
  for (const Child& c : children) {
    Outcome& out = outcomes[c.member];
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
    std::string payload;
    bool frame_ok = read_all(c.fd, &len, sizeof(len)) &&
                    read_all(c.fd, &crc, sizeof(crc));
    if (frame_ok) {
      payload.resize(static_cast<std::size_t>(len));
      frame_ok = payload.empty() ||
                 read_all(c.fd, payload.data(), payload.size());
    }
    ::close(c.fd);
    int status = 0;
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      out.failed = true;
      if (WIFEXITED(status) && WEXITSTATUS(status) == kInjectedExitStatus) {
        out.reason = "shard worker exited with status " +
                     std::to_string(kInjectedExitStatus) +
                     " (injected fault)";
      } else if (WIFSIGNALED(status)) {
        out.reason = "shard worker killed by signal " +
                     std::to_string(WTERMSIG(status));
      } else {
        out.reason = "shard worker exited with status " +
                     std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                      : -1);
      }
      continue;
    }
    if (!frame_ok) {
      out.failed = true;
      out.reason = "shard worker result frame truncated";
      continue;
    }
    if (crc32(payload.data(), payload.size()) != crc) {
      out.failed = true;
      out.reason = "shard worker result frame checksum mismatch";
      continue;
    }
    try {
      ChildTrace child_trace;
      out.results = decode_results(
          {reinterpret_cast<const std::byte*>(payload.data()),
           payload.size()},
          queries.size(), &out.seconds,
          tracer != nullptr ? &child_trace : nullptr);
      if (tracer != nullptr) {
        const std::int64_t offset =
            static_cast<std::int64_t>(child_trace.epoch_raw_ns) -
            static_cast<std::int64_t>(tracer->epoch_raw_ns());
        tracer->absorb(child_trace.spans.data(), child_trace.spans.size(),
                       offset, c.member);
        tracer->add_dropped(child_trace.dropped);
      }
    } catch (const std::exception& e) {
      out.failed = true;
      out.reason = e.what();
      out.results.clear();
    }
  }
}

}  // namespace mublastp::cluster
