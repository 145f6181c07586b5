// MUSHARD01: the manifest tying N self-contained shard indexes back into
// one logical database (paper Section IV-D made real).
//
// `mublastp_makedb --shards=N` partitions the database with one of the
// src/cluster partitioning policies and writes one ordinary v3 index per
// shard plus this manifest. The manifest records everything a merger needs
// to reconstruct single-database semantics from per-shard results:
//
//  * the shard count and the strategy that produced the partitioning;
//  * the COMBINED database totals (sequences, residues) — per-shard
//    searches compute E-values over the combined residue count, which is
//    what makes merged statistics identical to an unsharded run;
//  * a per-shard sequence-id remap table: shard-local original id ->
//    global original id. Shard stores are built by walking global ids in
//    ascending order, so each shard's remap slice is strictly increasing
//    (validated at load) and local order is global order restricted to the
//    shard — the property that makes the global merge a plain re-sort;
//  * a full-file CRC32 per shard index, so a rotted shard is named before
//    a search ever runs over it;
//  * the shard index file names, stored relative to the manifest.
//
// On disk it is a sectioned file (common/sectioned_file.hpp) with a 12-byte
// magic "MUSHARD01" and a tail padded to 64 bytes; this file owns only its
// section ids and payload codecs. Corruption errors name the offending
// section ("shard manifest section 'remap' checksum mismatch"), never
// crash, and never yield a silently partial search.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/partition.hpp"
#include "common/sequence.hpp"

namespace mublastp::cluster {

/// Current manifest format version.
inline constexpr std::uint32_t kShardManifestVersion = 1;

/// Sections of a MUSHARD01 file. Values are stable on-disk ids.
enum class ShardSectionId : std::uint32_t {
  kConfig = 1,     ///< ShardConfigRecord (counts, strategy, combined totals)
  kShardMeta = 2,  ///< shard_count x ShardMetaRecord
  kRemap = 3,      ///< total_sequences x u32 local -> global original ids
  kPaths = 4,      ///< shard_count NUL-terminated index file names
};

/// Human-readable section name used in error messages.
std::string_view shard_section_name(ShardSectionId id);

/// Payload of the kConfig section.
struct ShardConfigRecord {
  std::uint32_t shard_count;
  std::uint32_t strategy;            ///< raw PartitionStrategy value
  std::uint64_t total_sequences;     ///< combined database sequence count
  std::uint64_t total_residues;      ///< combined database residue count
};
static_assert(sizeof(ShardConfigRecord) == 24);

/// One row of the kShardMeta section.
struct ShardMetaRecord {
  std::uint64_t num_sequences;  ///< sequences in this shard
  std::uint64_t num_residues;   ///< residues in this shard
  std::uint64_t remap_offset;   ///< start of this shard's kRemap slice
  std::uint32_t index_crc32;    ///< CRC32 of the whole shard index file
  std::uint32_t reserved;       ///< zero
};
static_assert(sizeof(ShardMetaRecord) == 32);

/// In-memory form of a manifest (what save consumes and load produces).
struct ShardManifest {
  PartitionStrategy strategy = PartitionStrategy::kRoundRobinSorted;
  std::uint64_t total_sequences = 0;
  std::uint64_t total_residues = 0;

  struct Shard {
    /// Shard index file name, relative to the manifest's directory. Empty
    /// iff the shard holds no sequences (more shards than sequences) — an
    /// empty database cannot be indexed, so empty shards have no file.
    std::string path;
    std::uint64_t num_sequences = 0;
    std::uint64_t num_residues = 0;
    /// CRC32 over the shard index file's bytes (0 for an empty shard).
    std::uint32_t index_crc32 = 0;
    /// Shard-local original id -> global original id, strictly increasing.
    std::vector<SeqId> to_global;
  };
  std::vector<Shard> shards;

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards.size());
  }

  /// (max - min) / max of per-shard residue counts (the partitioner's
  /// promised balance; same definition as Partitioning::imbalance, with
  /// the same empty-partition semantics).
  double predicted_imbalance() const;
};

/// Writes `manifest` to `path`. Throws Error(kInvalid) on inconsistent
/// input (totals not matching the shard lists) and Error(kIo) on write
/// failure.
void save_shard_manifest(const std::string& path,
                         const ShardManifest& manifest);

/// Parses and validates a complete manifest image. Checks, in order: the
/// sectioned file's header, table, padding and section CRC32s, then
/// structural invariants (per-shard counts sum to
/// the totals, remap offsets contiguous, the remap is a permutation of the
/// global ids with strictly increasing per-shard slices, one path per
/// shard). Throws Error(kCorrupt) naming the offending section; never
/// returns a partially-valid manifest.
ShardManifest parse_shard_manifest(std::span<const std::byte> image);

/// Reads and parses a manifest file. Rejects missing/empty/non-regular
/// paths with Error(kIo or kCorrupt). Injection site "shard.manifest"
/// fails the read. Shard paths come back as stored (relative); callers
/// resolve them against the manifest's directory.
ShardManifest load_shard_manifest(const std::string& path);

}  // namespace mublastp::cluster
