// MemberSet: one logical database searched as an ordered set of
// self-contained index members, with the per-member results merged back
// into single-database output. The paper's Section IV-D treats partition
// search and batch merge as one operation; so does this class, for all
// three database layouts:
//  * kSingle — a plain index file, or a generation with one member;
//  * kChain  — a MUGEN01 generation: base + appended delta members
//              (index/generation.hpp, docs/INCREMENTAL.md);
//  * kShards — the shards of a MUSHARD01 manifest (docs/SHARDING.md).
//
// Why merged output is bit-identical to one index over the whole database:
//  * every member engine prices E-values over the COMBINED residue total
//    (MuBlastpOptions::effective_db_residues);
//  * finalize culling is same-subject only, and members hold disjoint
//    subjects, so no member's alignment can suppress another's;
//  * each member's kept list is a prefix, under final_ranking_less, of its
//    non-redundant alignments that holds the global top-K living in that
//    member, so remapping to global ids, concatenating, re-sorting with the
//    same total order and truncating reproduces the single-index list;
//  * stage counters are additive over disjoint subject sets.
// A 1-member set skips the merge: its member's results are the answer.
// tests/test_shards.cpp and tests/test_incremental.cpp prove this
// differentially, and mublastp_verify re-proves it on every CI build.
//
// Every member opens the way a single index does: v3 files are mapped
// (MappedDbIndex) and v2 files copy-loaded; in degraded mode a failed map
// is retried once and then copy-loaded, and damaged blocks are quarantined.
// On top of the section checksums every open verifies, a shard is checked
// whole against its manifest CRC in both modes, so a rotted shard is
// quarantined whole; a chain member is checked whole under strict mode.
//
// A member that fails (load damage, a worker crash, an injected fault) is
// quarantined: the others still merge, the member lands in
// DegradedStats::quarantined_shards by position, and the run is partial
// (exit 3 in the tools). Strict mode fails closed instead. The one member
// of a kSingle set is never quarantined: its errors propagate unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/partition.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index.hpp"
#include "index/mapped_db_index.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

namespace mublastp::cluster {

/// Where member searches run.
enum class WorkerMode {
  /// In this process. A batch with at least as many queries as threads
  /// searches the members one after another, each with every thread; a
  /// smaller batch searches them at once, with no more than `threads`
  /// search threads in total.
  kThread,
  /// One fork(2)ed child per member running a single-threaded per-query
  /// loop, results back over a pipe in a length + CRC frame.
  kProcess,
};

/// "thread" or "process".
const char* worker_mode_name(WorkerMode mode);

/// Parses a --shard-mode spec ("thread" / "process"). Throws
/// mublastp::Error(kInvalid) on anything else.
WorkerMode parse_worker_mode(std::string_view spec);

/// How member index files are opened (--mmap / --no-mmap).
enum class LoadMode {
  kAuto,  ///< map v3 files, copy-load v2 files
  kMmap,  ///< map; a v2 member is an error
  kCopy,  ///< copy-load every member
};

/// Configuration shared by every member engine plus the failure policy.
struct MemberSetOptions {
  SearchParams params;
  /// Engine options for every member. effective_db_residues is overwritten
  /// with the set's combined total: that field is the set's, not the
  /// caller's.
  MuBlastpOptions engine;
  /// Fail closed: any member damage or failure throws instead of
  /// quarantining the member and continuing.
  bool strict = false;
};

/// What a search returns: merged per-query results (global subject ids,
/// final ranking, counters summed over members) plus per-member telemetry
/// (the stats-v1 "shards" object) and the degradation picked up while
/// searching.
struct MemberSearchResult {
  std::vector<QueryResult> results;
  stats::ShardsStats shards;
  stats::DegradedStats degraded;
};

/// Merges per-member results of any disjoint-subject partition of one
/// database: remaps each member's subject ids through its `to_global`
/// slice, concatenates, sums stage counters, re-sorts with
/// final_ranking_less, truncates to `max_alignments` and canonicalizes the
/// ungapped lists. An empty per-member vector means that member was
/// quarantined and contributes nothing.
std::vector<QueryResult> merge_partition_results(
    const std::vector<std::vector<QueryResult>>& per_member,
    const std::vector<std::span<const SeqId>>& to_global,
    std::size_t num_queries, std::size_t max_alignments);

/// The members of one logical database, opened and ready to search.
class MemberSet {
 public:
  enum class Layout { kSingle, kChain, kShards };

  /// Opens the database at an --index path: the newest published
  /// generation next to it (docs/INCREMENTAL.md), or the bare file as
  /// generation 0. A corrupt newest manifest fails closed (kCorrupt). With
  /// opts.strict any damage throws; otherwise damaged blocks or chain
  /// members are quarantined into `degraded` (which must be non-null then)
  /// and the rest opens normally.
  static MemberSet open_index(const std::string& path,
                              const MemberSetOptions& opts,
                              stats::DegradedStats* degraded,
                              LoadMode mode = LoadMode::kAuto);

  /// Opens every shard named by the MUSHARD01 manifest at `path`, with the
  /// same failure policy as open_index. Each shard must match its manifest
  /// entry: whole-file CRC, sequence and residue counts.
  static MemberSet open_shards(const std::string& path,
                               const MemberSetOptions& opts,
                               stats::DegradedStats* degraded,
                               LoadMode mode = LoadMode::kAuto);

  /// Partitions an in-memory database into `shards` members with
  /// make_partitioning and builds one index per non-empty member: the test
  /// and verification path, no files involved.
  static MemberSet partition(const SequenceStore& db, int shards,
                             PartitionStrategy strategy,
                             const DbIndexConfig& config,
                             const MemberSetOptions& opts);

  MemberSet(MemberSet&&) noexcept;
  MemberSet& operator=(MemberSet&&) noexcept;
  ~MemberSet();

  /// Searches `queries` against every live member and merges. `threads` is
  /// the whole search-thread budget (<= 0: the hardware concurrency); see
  /// WorkerMode for how members share it. Injection site "shard.worker" is
  /// evaluated in the parent once per live shard of a kShards set, in
  /// ascending order: a fired thread-mode member fails before searching, a
  /// fired process-mode child dies like a real crash.
  ///
  /// With `tracer` non-null, a kSingle set records into it directly; the
  /// members of the other layouts record into child tracers whose spans
  /// carry the member position in the shard lane, plus one shard_worker
  /// span per member and, when results are merged, one merge span. `ps`,
  /// for a 1-member set only, collects the engine's pipeline telemetry.
  MemberSearchResult search(const SequenceStore& queries, int threads,
                            WorkerMode mode = WorkerMode::kThread,
                            trace::Tracer* tracer = nullptr,
                            stats::PipelineStats* ps = nullptr) const;

  Layout layout() const { return layout_; }
  std::uint32_t member_count() const {
    return static_cast<std::uint32_t>(members_.size());
  }
  /// The generation a kChain or kSingle set was resolved at (0 for a bare
  /// index file and for shards).
  std::uint32_t generation() const { return generation_; }
  std::uint64_t total_sequences() const { return total_sequences_; }
  std::uint64_t total_residues() const { return total_residues_; }
  /// How the database was partitioned; a chain is contiguous.
  PartitionStrategy strategy() const { return strategy_; }

  /// (max - min) / max of the per-member residue counts.
  double predicted_imbalance() const;

  /// Member k's engine, or null for an empty or quarantined member.
  const MuBlastpEngine* engine(std::uint32_t k) const {
    return members_[k].engine.get();
  }

  /// Member k's local-original-id -> global-original-id map.
  std::span<const SeqId> to_global(std::uint32_t k) const {
    return members_[k].to_global;
  }

  /// Member k's index file path ("" for an empty or in-memory member).
  const std::string& member_path(std::uint32_t k) const {
    return members_[k].path;
  }

  /// How member k's index was opened (mode, time, file and resident bytes;
  /// mode "" for an empty, quarantined or in-memory member).
  const stats::IndexLoadStats& load_stats(std::uint32_t k) const {
    return members_[k].load;
  }

  /// The whole database in global original-id order, for rendering merged
  /// results. Built on first call, so a caller that renders a 1-member set
  /// from its member's view never pays for the copy. Quarantined members
  /// contribute one-residue placeholders, which are never rendered: they
  /// contribute no alignments either.
  const SequenceStore& global_db() const;

  const MemberSetOptions& options() const { return options_; }

 private:
  struct Member {
    std::string path;
    std::vector<SeqId> to_global;
    std::uint64_t num_residues = 0;
    stats::IndexLoadStats load;
    std::unique_ptr<MappedDbIndex> mapped;   ///< mapped member
    std::unique_ptr<DbIndex> owned;          ///< copy-loaded or built
    std::unique_ptr<MuBlastpEngine> engine;  ///< null when empty/quarantined

    DbIndexView view() const {
      return mapped ? DbIndexView(*mapped) : DbIndexView(*owned);
    }
  };
  /// What the layout's manifest promises about one member.
  struct Plan;
  struct GlobalStore;
  struct Outcome;

  MemberSet();
  void open_members(const std::vector<Plan>& plans, LoadMode mode,
                    stats::DegradedStats* degraded);
  void start_engines();
  /// "shard k" or "chain member k", for messages.
  std::string label(std::uint32_t k) const;
  void run_in_process(const SequenceStore& queries, int threads,
                      const std::vector<bool>& doomed,
                      std::vector<Outcome>& outcomes, trace::Tracer* tracer,
                      stats::PipelineStats* ps) const;
  void run_in_children(const SequenceStore& queries,
                       const std::vector<bool>& doomed,
                       std::vector<Outcome>& outcomes,
                       trace::Tracer* tracer) const;

  Layout layout_ = Layout::kSingle;
  std::vector<Member> members_;
  std::uint32_t generation_ = 0;
  std::uint64_t total_sequences_ = 0;
  std::uint64_t total_residues_ = 0;
  PartitionStrategy strategy_ = PartitionStrategy::kContiguous;
  MemberSetOptions options_;
  std::unique_ptr<GlobalStore> global_;
};

// ---------------------------------------------------------------------------
// Earlier names, kept for perfbench/layers.cpp, which is frozen together
// with the benchmark. New code uses the names above.
// ---------------------------------------------------------------------------
using ShardWorkerMode = WorkerMode;
using ShardSetOptions = MemberSetOptions;
using GenChainOptions = MemberSetOptions;
using ShardedSearchResult = MemberSearchResult;
using ChainSearchResult = MemberSearchResult;
struct ShardSet : MemberSet {
  static ShardSet load(const std::string& path, const MemberSetOptions& opts,
                       stats::DegradedStats* degraded) {
    return {MemberSet::open_shards(path, opts, degraded)};
  }
  std::uint32_t shard_count() const { return member_count(); }
};
struct GenerationChain : MemberSet {
  static GenerationChain load(const std::string& path,
                              const MemberSetOptions& opts,
                              stats::DegradedStats* degraded) {
    return {MemberSet::open_index(path, opts, degraded)};
  }
};
inline MemberSearchResult search_sharded(const MemberSet& set,
                                         const SequenceStore& queries,
                                         int threads, WorkerMode mode,
                                         trace::Tracer* tracer = nullptr) {
  return set.search(queries, threads, mode, tracer);
}
inline MemberSearchResult search_chain(const MemberSet& set,
                                       const SequenceStore& queries,
                                       int threads,
                                       trace::Tracer* tracer = nullptr) {
  return set.search(queries, threads, WorkerMode::kThread, tracer);
}

}  // namespace mublastp::cluster
