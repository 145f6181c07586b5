// MUGEN01: generation manifests for crash-consistent incremental index
// builds (ROADMAP item 4).
//
// A *generation* is an immutable snapshot of the logical database as a
// chain of self-contained v3 index files ("members"):
//
//   db.mbi            the base index (generation 0 — no manifest needed)
//   db.mbi.d000001    delta members appended by `mublastp_makedb --append`
//   db.mbi.c000003    a canonical member produced by `--compact`
//   db.mbi.gen000NNN  the MUGEN01 manifest publishing generation NNN
//
// Readers resolve the HIGHEST-numbered valid manifest next to the base
// path; with no manifest present the bare base file is generation 0. Each
// manifest lists every member with its global id offset (global original
// id = member id_offset + member-local original id — members are a
// partition of the database in append order), its residue/sequence counts
// (so E-values are priced over the combined total), and a whole-file CRC.
//
// Crash consistency is the durable-publish protocol (common/durable.hpp):
// members are fully written + fsynced under their final names BEFORE the
// manifest that references them is published, and the manifest itself goes
// temp → fsync → atomic rename → dir fsync. The manifest rename is the
// single commit point: a kill -9 at ANY instant leaves the previous
// generation resolvable (at worst plus orphaned `*.tmp` files, detected by
// resolve_generations and removed by the next build operation). Published
// files are never renamed over or rewritten — old generations stay valid
// until --compact garbage-collects them AFTER its own publish succeeded.
//
// docs/INCREMENTAL.md walks through the ordering argument and recovery
// rules; tests/test_incremental.cpp and scripts/kill_during_append.sh
// prove them (in-process injection + scripted SIGKILL at every site).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/sequence.hpp"
#include "index/db_index.hpp"

namespace mublastp {

/// Current MUGEN01 format version.
inline constexpr std::uint32_t kGenerationManifestVersion = 1;

/// Sections of a MUGEN01 file. Values are stable on-disk ids.
enum class GenSectionId : std::uint32_t {
  kConfig = 1,      ///< GenConfigRecord + matrix name (build parameters)
  kMemberMeta = 2,  ///< member_count x GenMemberRecord
  kPaths = 3,       ///< member_count NUL-terminated member file names
};

/// Human-readable section name used in error messages.
std::string_view gen_section_name(GenSectionId id);

/// Fixed-size file header at offset 0 (same shape as MUSHARD01).
struct GenManifestHeader {
  char magic[12];              ///< "MUGEN01", NUL-padded
  std::uint32_t version;       ///< kGenerationManifestVersion
  std::uint32_t section_count;
  std::uint32_t table_crc32;   ///< CRC32 of the section-table bytes
  std::uint32_t reserved0;     ///< zero
  std::uint32_t reserved1;     ///< zero; aligns file_bytes to 8
  std::uint64_t file_bytes;    ///< total file size (fast truncation check)
  std::uint8_t reserved[24];   ///< zero; pads the header to 64 bytes
};
static_assert(sizeof(GenManifestHeader) == 64);

/// Fixed prefix of the kConfig section; the matrix name follows it.
struct GenConfigRecord {
  std::uint32_t generation;        ///< generation number this file publishes
  std::uint32_t member_count;
  std::uint64_t total_sequences;   ///< combined over all members
  std::uint64_t total_residues;    ///< combined over all members
  std::uint64_t block_bytes;       ///< build config shared by every member
  std::int32_t neighbor_threshold;
  std::uint32_t matrix_name_len;   ///< chars following this record
  std::uint64_t long_seq_limit;
  std::uint64_t long_seq_overlap;
};
static_assert(sizeof(GenConfigRecord) == 56);

/// One row of the kMemberMeta section.
struct GenMemberRecord {
  std::uint64_t num_sequences;  ///< sequences in this member
  std::uint64_t num_residues;   ///< residues in this member
  std::uint64_t id_offset;      ///< global id = id_offset + local original id
  std::uint32_t index_crc32;    ///< CRC32 of the whole member index file
  std::uint32_t reserved;       ///< zero
};
static_assert(sizeof(GenMemberRecord) == 32);

/// In-memory form of one chain member.
struct GenerationMember {
  /// Member index file name, relative to the manifest's directory.
  std::string path;
  std::uint64_t num_sequences = 0;
  std::uint64_t num_residues = 0;
  std::uint64_t id_offset = 0;
  std::uint32_t index_crc32 = 0;
};

/// In-memory form of a manifest (what save consumes and load produces).
struct GenerationManifest {
  std::uint32_t generation = 0;
  std::uint64_t total_sequences = 0;
  std::uint64_t total_residues = 0;
  /// Build configuration shared by every member (appends read this from
  /// the manifest so deltas are built with identical parameters).
  std::uint64_t block_bytes = 0;
  std::int32_t neighbor_threshold = 0;
  std::string matrix_name;
  std::uint64_t long_seq_limit = 0;
  std::uint64_t long_seq_overlap = 0;
  std::vector<GenerationMember> members;

  std::uint32_t member_count() const {
    return static_cast<std::uint32_t>(members.size());
  }
};

/// CRC32 of a whole file, read in chunks: the checksum manifests record for
/// each member and shard index file. Throws Error(kIo) when unreadable.
std::uint32_t file_crc32(const std::string& path);

/// `<base>.genNNNNNN` — where generation `gen`'s manifest lives.
std::string generation_manifest_path(const std::string& base_path,
                                     std::uint32_t gen);

/// `<base>.dNNNNNN` — the delta member file appended by generation `gen`.
std::string delta_member_path(const std::string& base_path,
                              std::uint32_t gen);

/// `<base>.cNNNNNN` — the canonical member written by a generation-`gen`
/// compaction.
std::string compact_member_path(const std::string& base_path,
                                std::uint32_t gen);

/// Serializes `manifest` to its on-disk image (validating invariants:
/// contiguous id offsets, counts summing to the totals, non-empty paths).
/// Throws Error(kInvalid) on inconsistent input.
std::string serialize_generation_manifest(const GenerationManifest& manifest);

/// Parses and validates a complete manifest image, failing closed with
/// Error(kCorrupt) naming the offending section. Never returns a
/// partially-valid manifest.
GenerationManifest parse_generation_manifest(std::span<const std::byte> image);

/// Writes `manifest` durably next to `base_path` (temp → fsync → atomic
/// rename of `<base>.gen<generation>` → directory fsync). Injection sites:
/// "build.manifest_write", "build.fsync", "build.publish_rename". Returns
/// the published manifest path.
std::string save_generation_manifest(const std::string& base_path,
                                     const GenerationManifest& manifest);

/// Reads and parses a manifest file. Throws Error(kIo) on read failure
/// (injection site "io.read"), Error(kCorrupt) on damage.
GenerationManifest load_generation_manifest(const std::string& path);

/// What resolve_generations found next to a base index path.
struct ResolvedGeneration {
  /// The newest published generation (0 = bare base file, no manifest).
  std::uint32_t generation = 0;
  /// The newest manifest, absent for generation 0.
  std::optional<GenerationManifest> manifest;
  /// Path of the newest manifest file ("" for generation 0).
  std::string manifest_path;
  /// Member index files of the newest generation, directory-joined and in
  /// chain (id_offset) order. For generation 0 this is {base_path} when
  /// the base file exists, else empty.
  std::vector<std::string> member_paths;
  /// Every published generation number found, ascending (stale ones are
  /// GC candidates for --compact; dbinfo reports them).
  std::vector<std::uint32_t> all_generations;
  /// Orphaned `<base>*.tmp` files left by a crashed publish, directory-
  /// joined. Harmless (never resolved) but reported and cleaned by the
  /// next build operation.
  std::vector<std::string> orphan_temps;
};

/// Scans the directory of `base_path` for generation manifests and orphan
/// temps and resolves the newest generation. A corrupt newest manifest is
/// fail-closed (Error(kCorrupt)): rename-after-fsync means a published
/// manifest can only be damaged by real bit rot, which must not silently
/// fall back to a stale generation.
ResolvedGeneration resolve_generations(const std::string& base_path);

/// Unlinks every orphaned temp next to `base_path`. Injection site
/// "build.gc_unlink" per removal. Returns the number removed.
std::size_t clean_orphan_temps(const std::string& base_path);

/// Result of append_generation.
struct AppendResult {
  std::uint32_t generation = 0;      ///< the newly published generation
  std::string delta_path;            ///< the new member file
  std::string manifest_path;         ///< the published manifest
  std::size_t orphans_removed = 0;   ///< temps cleaned before building
  BuildTelemetry telemetry;          ///< delta index build timings
  std::uint32_t chain_length = 0;    ///< members in the new generation
};

/// Appends `new_seqs` to the database at `base_path` as a new delta
/// generation: cleans orphans, reads the chain's build config (from the
/// newest manifest, or the base file's config section for generation 0),
/// builds a self-contained delta index over `new_seqs` with identical
/// parameters, durably writes it as `<base>.d<G+1>`, then publishes
/// manifest generation G+1 whose members are the previous chain plus the
/// delta. A crash at any instant leaves generation G resolvable.
/// `build_threads` as in DbIndexConfig (0 = all).
AppendResult append_generation(const std::string& base_path,
                               const SequenceStore& new_seqs,
                               int build_threads = 0);

/// Result of compact_generations.
struct CompactResult {
  std::uint32_t generation = 0;   ///< the newly published generation
  std::string compact_path;       ///< the single canonical member
  std::vector<std::string> removed;  ///< GC'd stale files (post-publish)
  std::size_t orphans_removed = 0;
  BuildTelemetry telemetry;
};

/// Compacts the chain at `base_path` into one canonical member: loads
/// every member of the newest generation, reassembles the database in
/// global original-id order, rebuilds one length-sorted index, durably
/// writes it as `<base>.c<G+1>`, publishes a single-member manifest for
/// generation G+1, and only then garbage-collects the stale members and
/// manifests (injection site "build.gc_unlink" per unlink — a failure
/// there leaves extra files but the new generation already published).
/// Throws Error(kInvalid) when there is nothing to compact (generation 0).
CompactResult compact_generations(const std::string& base_path,
                                  int build_threads = 0);

}  // namespace mublastp
