#include "cluster/member_set.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
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
  throw Error("unknown --shard-mode '" + std::string(spec) +
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
  bool check_crc = false;  ///< verify the whole-file CRC after opening
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
  set.engine_ = set.make_engine({});
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
  set.engine_ = set.make_engine({});
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
    m.index = DbIndex::build(slice, config);
  }
  set.engine_ = set.make_engine({});
  return set;
}

void MemberSet::open_members(const std::vector<Plan>& plans, LoadMode mode,
                             stats::DegradedStats* degraded) {
  const bool strict = options_.strict;
  MUBLASTP_CHECK(strict || degraded != nullptr,
                 "a degraded-mode open needs a DegradedStats sink");
  members_.resize(plans.size());
  // Quarantined block ids are positions in the joined view, which lists
  // the live members' blocks in member order.
  std::uint32_t first_block = 0;
  for (std::uint32_t k = 0; k < plans.size(); ++k) {
    const Plan& plan = plans[k];
    Member& m = members_[k];
    m.path = plan.path;
    m.to_global = plan.to_global;
    m.num_residues = plan.num_residues;
    if (plan.path.empty()) continue;
    try {
      const Timer t;
      const auto open = [&](bool mmap) {
        DbIndexOpenOptions o;
        o.mmap = mmap;
        o.tolerate_block_corruption = !strict;
        // Prefault under the SIGBUS guard so a file truncated after the
        // mmap becomes a catchable Error(kIo) feeding the retry below.
        o.prefault = !strict;
        m.index.emplace(plan.path, o);
        m.load.mode = mmap ? "mmap" : "copy";
      };
      if (mode == LoadMode::kCopy) {
        open(/*mmap=*/false);
      } else if (strict) {
        open(/*mmap=*/true);
      } else {
        // Transient map failures (ENOMEM under pressure, a racing writer)
        // get one more try; persistent ones read the file instead, which
        // has no address-space or SIGBUS exposure. A corrupt file gets
        // neither: a read parses the same bytes.
        try {
          open(/*mmap=*/true);
        } catch (const Error& first) {
          if (first.kind() == ErrorKind::kCorrupt) throw;
          std::fprintf(stderr, "warning: mmap load failed (%s); retrying\n",
                       first.what());
          ++degraded->load_retries;
          sleep_ms(50);
          try {
            open(/*mmap=*/true);
          } catch (const Error& second) {
            std::fprintf(stderr,
                         "warning: mmap load failed again (%s);"
                         " falling back to reading the file\n",
                         second.what());
            ++degraded->load_retries;
            open(/*mmap=*/false);
          }
        }
      }
      const DbIndex& index = *m.index;
      if (plan.check_crc) {
        // Over the image the open just verified: each file is read once.
        const std::uint32_t crc = crc32(index.image());
        MUBLASTP_CHECK_KIND(crc == plan.crc, ErrorKind::kCorrupt,
                            "index checksum mismatch (manifest says " +
                                std::to_string(plan.crc) + ", file has " +
                                std::to_string(crc) + ")");
      }
      m.load.load_seconds = t.seconds();
      m.load.file_bytes = index.image().size();
      m.load.resident_bytes = index.resident_bytes();

      // The member must describe the slice its manifest promised (block
      // quarantine never touches the sequence sections, so this holds in
      // degraded mode too).
      if (plan.promised) {
        MUBLASTP_CHECK_KIND(index.num_sequences() == plan.num_sequences &&
                                index.total_residues() == plan.num_residues,
                            ErrorKind::kCorrupt,
                            label(k) + " index does not match its manifest"
                                       " entry");
      } else {
        m.to_global = id_range(0, index.num_sequences());
        m.num_residues = index.total_residues();
        total_sequences_ += index.num_sequences();
        total_residues_ += index.total_residues();
      }
      for (const BlockQuarantine& q : index.quarantined()) {
        degraded->quarantined.push_back(
            {first_block + q.block,
             layout_ == Layout::kSingle
                 ? q.reason
                 : label(k) + " (" + plan.path + "): " + q.reason});
        degraded->partial = true;
      }
      first_block += static_cast<std::uint32_t>(index.blocks().size());
    } catch (const Error& e) {
      if (layout_ == Layout::kSingle) throw;
      // Name the member, whichever check failed.
      const std::string reason = label(k) + " (" + plan.path + "): " + e.what();
      if (strict) throw Error(reason, e.kind());
      degraded->quarantined_shards.push_back({k, reason});
      degraded->partial = true;
      m.index.reset();
      m.load = {};
    }
  }
}

std::unique_ptr<MuBlastpEngine> MemberSet::make_engine(
    const std::vector<bool>& skip) const {
  std::vector<DbIndexPart> parts;
  for (std::uint32_t k = 0; k < member_count(); ++k) {
    if (live(k) && (skip.empty() || !skip[k])) {
      parts.push_back({*members_[k].index, members_[k].to_global});
    }
  }
  if (parts.empty()) return nullptr;
  MuBlastpOptions engine = options_.engine;
  // The invariant every layout lives on: E-values are priced over the
  // whole database, exactly like one index over it, whichever members are
  // searched.
  engine.effective_db_residues = total_residues_;
  return std::make_unique<MuBlastpEngine>(
      DbIndexView::join(parts, total_sequences_), options_.params, engine);
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
    const DbIndexView* v = view();
    for (SeqId g = 0; g < total_sequences_; ++g) {
      // A quarantined member's ids have no sorted id in the view.
      if (v == nullptr || v->sorted_id(g) >= v->num_sequences()) {
        // The store rejects empty sequences; see the header.
        const Residue placeholder{};
        global_->db.add({&placeholder, 1}, {});
        continue;
      }
      const SeqId sorted = v->sorted_id(g);
      global_->db.add(v->sequence(sorted), std::string(v->name(sorted)));
    }
  });
  return global_->db;
}

// ---------------------------------------------------------------------------
// Searching
// ---------------------------------------------------------------------------

MemberSearchResult MemberSet::search(const SequenceStore& queries,
                                     int threads, WorkerMode mode,
                                     trace::Tracer* tracer,
                                     stats::PipelineStats* ps) const {
  MUBLASTP_CHECK(!members_.empty(), "member set is empty");
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }

  // The injection site is evaluated in the parent, once per live shard in
  // ascending order: deterministic regardless of worker scheduling, and
  // immune to fork duplicating the counter into every child.
  std::vector<bool> doomed(member_count(), false);
  bool any_doomed = false;
  if (layout_ == Layout::kShards) {
    for (std::uint32_t k = 0; k < member_count(); ++k) {
      if (live(k)) doomed[k] = MUBLASTP_FI_FAIL("shard.worker");
      any_doomed = any_doomed || doomed[k];
    }
  }

  MemberSearchResult out;
  out.shards.count = member_count();
  out.shards.mode = worker_mode_name(mode);
  out.shards.strategy = strategy_name(strategy_);
  out.shards.imbalance_predicted = predicted_imbalance();
  for (std::uint32_t k = 0; k < member_count(); ++k) {
    out.shards.per_shard.push_back({k, 0.0, 0, 0});
  }
  // Members that fail this search are quarantined like a load failure, or
  // fail the run in strict mode.
  const auto fail = [&](std::uint32_t k, const std::string& reason) {
    if (options_.strict) {
      throw Error(label(k) + " failed: " + reason, ErrorKind::kIo);
    }
    out.degraded.quarantined_shards.push_back({k, reason});
    out.degraded.partial = true;
  };

  if (mode == WorkerMode::kProcess) {
    const std::vector<std::string> failures =
        search_in_children(queries, threads, doomed, tracer, ps, out);
    for (std::uint32_t k = 0; k < member_count(); ++k) {
      if (!failures[k].empty()) fail(k, failures[k]);
    }
  } else {
    // One pass over every live member's blocks; a doomed member's drop out.
    std::vector<std::uint32_t> member_at;  // set member of each view member
    for (std::uint32_t k = 0; k < member_count(); ++k) {
      if (doomed[k]) fail(k, "shard worker failed (injected fault)");
      if (live(k) && !doomed[k]) member_at.push_back(k);
    }
    const std::unique_ptr<MuBlastpEngine> rest =
        any_doomed ? make_engine(doomed) : nullptr;
    const MuBlastpEngine* engine = any_doomed ? rest.get() : engine_.get();
    if (engine == nullptr) {
      out.results.resize(queries.size());
      return out;
    }
    // The per-member rows are sums of per-block rows, so a search without
    // a caller's collector keeps its own.
    stats::PipelineStats own;
    stats::PipelineStats* rows = ps != nullptr ? ps : &own;
    stats::DegradedStats degraded;
    out.results = engine->search_batch(queries, threads, rows,
                                       options_.strict ? nullptr : &degraded,
                                       tracer);
    const DbIndexView& view = engine->view();
    const auto member_of_block = [&](std::uint32_t block) {
      return member_at[view.blocks()[block].member()];
    };
    for (stats::QuarantinedBlock& q : degraded.quarantined) {
      if (layout_ != Layout::kSingle) {
        q.reason = label(member_of_block(q.block)) + ": " + q.reason;
      }
      out.degraded.quarantined.push_back(std::move(q));
    }
    out.degraded.time_budget_trips += degraded.time_budget_trips;
    out.degraded.mem_budget_trips += degraded.mem_budget_trips;
    out.degraded.partial = out.degraded.partial || degraded.partial;

    using stats::Stage;
    for (const stats::BlockStats& b : rows->snapshot().per_block) {
      stats::ShardStats& s = out.shards.per_shard[member_of_block(b.block)];
      s.hits += b.counters.hits;
      s.seconds += b.seconds[static_cast<int>(Stage::kHitDetect)] +
                   b.seconds[static_cast<int>(Stage::kSort)] +
                   b.seconds[static_cast<int>(Stage::kUngapped)];
    }
    for (const QueryResult& r : out.results) {
      for (const GappedAlignment& a : r.alignments) {
        const SeqId sorted = view.sorted_id(a.subject);
        ++out.shards.per_shard[member_at[view.member_of(sorted)]].alignments;
      }
    }
  }

  out.shards.measure_imbalance();
  return out;
}

std::vector<std::string> MemberSet::search_in_children(
    const SequenceStore& queries, int threads,
    const std::vector<bool>& doomed, trace::Tracer* tracer,
    stats::PipelineStats* ps, MemberSearchResult& out) const {
  struct Child {
    std::uint32_t member = 0;
    pid_t pid = -1;
    int fd = -1;
  };
  std::vector<Child> children;
  std::vector<std::string> failures(member_count());
  const Timer run_timer;

  for (std::uint32_t k = 0; k < member_count(); ++k) {
    if (!live(k)) continue;
    int fds[2];
    if (::pipe(fds) != 0) {
      failures[k] = std::string("pipe failed: ") + std::strerror(errno);
      continue;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      failures[k] = std::string("fork failed: ") + std::strerror(errno);
      continue;
    }
    if (pid == 0) {
      // Child. A doomed child dies like a real crash so the parent's
      // recovery path (EOF on the pipe + nonzero waitpid status) is the
      // one exercised. Live children must stay out of OpenMP regions —
      // libgomp state does not survive fork — so the batch runs as a
      // plain single-threaded loop over an engine of this member alone.
      ::close(fds[0]);
      if (doomed[k]) ::_exit(kInjectedExitStatus);
      int status = 0;
      try {
        // The child builds its own tracer post-fork (the parent's lanes
        // and thread-local caches don't survive fork): same options, its
        // own epoch. The epoch ships back in the frame so the parent can
        // re-base — CLOCK_MONOTONIC is system-wide, so the offset is just
        // the epoch difference — and stamp the member on its spans.
        std::unique_ptr<trace::Tracer> child_tracer;
        if (tracer != nullptr) {
          child_tracer = std::make_unique<trace::Tracer>(tracer->options());
        }
        const Timer timer;
        const MuBlastpEngine engine(*members_[k].index, options_.params,
                                    engine_->options());
        std::vector<QueryResult> results;
        results.reserve(queries.size());
        for (SeqId q = 0; q < queries.size(); ++q) {
          if (child_tracer != nullptr) {
            results.push_back(engine.search(queries.sequence(q),
                                            static_cast<std::uint32_t>(q),
                                            *child_tracer));
          } else {
            results.push_back(engine.search(queries.sequence(q)));
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
  std::vector<std::vector<QueryResult>> per_member(member_count());
  for (const Child& c : children) {
    std::string& failure = failures[c.member];
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
      if (WIFEXITED(status) && WEXITSTATUS(status) == kInjectedExitStatus) {
        failure = "shard worker exited with status " +
                  std::to_string(kInjectedExitStatus) + " (injected fault)";
      } else if (WIFSIGNALED(status)) {
        failure = "shard worker killed by signal " +
                  std::to_string(WTERMSIG(status));
      } else {
        failure = "shard worker exited with status " +
                  std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                   : -1);
      }
      continue;
    }
    if (!frame_ok) {
      failure = "shard worker result frame truncated";
      continue;
    }
    if (crc32(payload.data(), payload.size()) != crc) {
      failure = "shard worker result frame checksum mismatch";
      continue;
    }
    stats::ShardStats& entry = out.shards.per_shard[c.member];
    try {
      ChildTrace child_trace;
      per_member[c.member] = decode_results(
          {reinterpret_cast<const std::byte*>(payload.data()),
           payload.size()},
          queries.size(), &entry.seconds,
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
      failure = e.what();
      per_member[c.member].clear();
      entry.seconds = 0.0;
      continue;
    }
    for (const QueryResult& r : per_member[c.member]) {
      entry.hits += r.stats.hits;
      entry.alignments += r.alignments.size();
    }
  }

  // The merge: remap to global ids, concatenate, sum the counters, rank
  // with finalize's total order and keep the top max_alignments.
  const std::uint64_t merge_begin = tracer != nullptr ? tracer->now_ns() : 0;
  out.results.resize(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    QueryResult& merged = out.results[q];
    for (std::uint32_t k = 0; k < member_count(); ++k) {
      if (per_member[k].empty()) continue;  // failed or empty member
      const QueryResult& r = per_member[k][q];
      for (GappedAlignment a : r.alignments) {
        a.subject = members_[k].to_global[a.subject];
        merged.alignments.push_back(std::move(a));
      }
      for (UngappedAlignment u : r.ungapped) {
        u.subject = members_[k].to_global[u.subject];
        merged.ungapped.push_back(u);
      }
      merged.stats += r.stats;
    }
    std::sort(merged.alignments.begin(), merged.alignments.end(),
              final_ranking_less);
    if (merged.alignments.size() > options_.params.max_alignments) {
      merged.alignments.resize(options_.params.max_alignments);
    }
    canonicalize_ungapped(merged.ungapped);
  }
  if (tracer != nullptr) {
    tracer->record(trace::SpanKind::kMerge, merge_begin, tracer->now_ns());
    tracer->flush();
  }
  if (ps != nullptr) {
    // The children keep no per-block rows: the run books the results'
    // counters only.
    ps->begin_run(threads, 0, queries.size());
    ps->set_kernel(simd::kernel_name(options_.engine.kernel));
    stats::GappedKernelStats gapped;
    for (const QueryResult& r : out.results) {
      ps->accum(0).extra += stats::counters_of(r.stats);
      gapped += stats::gapped_kernel_of(r.stats);
    }
    ps->set_gapped_kernel(gapped);
    ps->finish_run(run_timer.seconds());
  }
  return failures;
}

}  // namespace mublastp::cluster
