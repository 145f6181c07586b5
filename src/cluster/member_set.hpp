// MemberSet: one logical database searched as an ordered set of
// self-contained index members, for all three database layouts:
//  * kSingle — a plain index file, or a generation with one member;
//  * kChain  — a MUGEN01 generation: base + appended delta members
//              (index/generation.hpp, docs/INCREMENTAL.md);
//  * kShards — the shards of a MUSHARD01 manifest (docs/SHARDING.md).
//
// The paper's Section IV-D treats a partition as a set of blocks followed
// by one batch merge, and so does a search in this process: one
// MuBlastpEngine over one DbIndexView joining every live member's blocks
// (DbIndexView::join), then one gapped stage and one finalize per query.
// A 1-member set's view is its member's own. WorkerMode::kProcess stands in
// for the paper's multi-node design: one fork(2)ed child per member, with
// the children's results merged. Either way the output is bit-identical to
// one index over the whole database:
//  * E-values are priced over the set's manifest total
//    (MuBlastpOptions::effective_db_residues);
//  * every stage after hit detection works per subject, and each subject
//    lives in one member, whose blocks resolve it through that member's
//    own store to its global id;
//  * results are ranked with one total order (final_ranking_less), and
//    each child's kept list holds the global top-K living in its member;
//  * stage counters are additive over disjoint subject sets.
// tests/test_shards.cpp and tests/test_incremental.cpp prove this
// differentially, and mublastp_verify re-proves it on every CI build.
//
// Every member opens the way a single index does: mapped (MappedDbIndex),
// or copy-loaded under --no-mmap; in degraded mode a failed map is retried
// once and then copy-loaded, and damaged blocks are quarantined. On top of
// the section checksums every open verifies, a shard is checked whole
// against its manifest CRC in both modes, over the mapping the open holds,
// so a rotted shard is quarantined whole; a chain member is checked whole
// under strict mode. Every error of a multi-member open names the member.
//
// A member that fails (load damage, a worker crash, an injected fault) is
// quarantined: it contributes no blocks, it lands in
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
  /// In this process: one engine pass over every member's blocks, with
  /// every thread.
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

/// How member index files are opened.
enum class LoadMode {
  kAuto,  ///< map (degraded mode falls back to a copy load)
  kCopy,  ///< copy-load every member (--no-mmap)
};

/// Engine configuration plus the failure policy.
struct MemberSetOptions {
  SearchParams params;
  /// Engine options. effective_db_residues is overwritten with the set's
  /// manifest total: that field is the set's, not the caller's.
  MuBlastpOptions engine;
  /// Fail closed: any member damage or failure throws instead of
  /// quarantining the member and continuing.
  bool strict = false;
};

/// What a search returns: per-query results over the whole set (global
/// subject ids, final ranking, counters over every member) plus per-member
/// telemetry (the stats-v1 "shards" object) and the degradation picked up
/// while searching.
struct MemberSearchResult {
  std::vector<QueryResult> results;
  stats::ShardsStats shards;
  stats::DegradedStats degraded;
};

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

  /// Searches `queries` against every live member. `threads` is the
  /// search-thread budget (<= 0: the hardware concurrency). Injection site
  /// "shard.worker" is evaluated in the parent once per live shard of a
  /// kShards set, in ascending order: a fired thread-mode member's blocks
  /// drop out of the pass, a fired process-mode child dies like a real
  /// crash.
  ///
  /// In thread mode `tracer` (when non-null) records the pass's stage
  /// spans, block ids being positions in view(); in process mode it gets
  /// each child's spans, stamped with the member position in the shard
  /// lane, plus one shard_worker span per member and one merge span. `ps`
  /// (when non-null) collects the run's pipeline telemetry: per-block rows
  /// in thread mode, the results' counters in process mode.
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

  /// True unless member k is empty or quarantined.
  bool live(std::uint32_t k) const { return members_[k].live(); }

  /// The one view over every live member's blocks that in-process searches
  /// run on; results of any layout render against it. Null when no member
  /// is live.
  const DbIndexView* view() const {
    return engine_ != nullptr ? &engine_->view() : nullptr;
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

  /// The whole database in global original-id order, as a copy. Built on
  /// first call. Quarantined members contribute one-residue placeholders,
  /// which are never rendered: they contribute no alignments either.
  const SequenceStore& global_db() const;

  const MemberSetOptions& options() const { return options_; }

 private:
  struct Member {
    std::string path;
    std::vector<SeqId> to_global;
    std::uint64_t num_residues = 0;
    stats::IndexLoadStats load;
    std::unique_ptr<MappedDbIndex> mapped;  ///< mapped member
    std::unique_ptr<DbIndex> owned;         ///< copy-loaded or built

    bool live() const { return mapped != nullptr || owned != nullptr; }
    DbIndexView view() const {
      return mapped ? DbIndexView(*mapped) : DbIndexView(*owned);
    }
  };
  /// What the layout's manifest promises about one member.
  struct Plan;
  struct GlobalStore;

  MemberSet();
  void open_members(const std::vector<Plan>& plans, LoadMode mode,
                    stats::DegradedStats* degraded);
  /// An engine over the joined view of every live member not in `skip`,
  /// or null when there is none.
  std::unique_ptr<MuBlastpEngine> make_engine(
      const std::vector<bool>& skip) const;
  /// "shard k" or "chain member k", for messages.
  std::string label(std::uint32_t k) const;
  /// One forked child per live member, then the merge. Returns why each
  /// member failed ("" for those that did not).
  std::vector<std::string> search_in_children(
      const SequenceStore& queries, int threads,
      const std::vector<bool>& doomed, trace::Tracer* tracer,
      stats::PipelineStats* ps, MemberSearchResult& out) const;

  Layout layout_ = Layout::kSingle;
  std::vector<Member> members_;
  std::uint32_t generation_ = 0;
  std::uint64_t total_sequences_ = 0;
  std::uint64_t total_residues_ = 0;
  PartitionStrategy strategy_ = PartitionStrategy::kContiguous;
  MemberSetOptions options_;
  std::unique_ptr<MuBlastpEngine> engine_;  ///< over every live member
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
