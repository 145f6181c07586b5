// Index format v3 ("MUBI"): a sectioned file (common/sectioned_file.hpp)
// whose eleven sections each hold one array of the index in its in-memory
// representation, so a loader can mmap the file and serve spans straight
// out of the mapping. The header's magic is 4 bytes, and the file ends at
// its last payload (no tail padding).
//
// The section table names every payload, which is what lets corruption
// errors say *which* part of the file is bad ("index section 'entries'
// checksum mismatch") instead of a generic stream failure.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/sectioned_file.hpp"
#include "common/sequence.hpp"
#include "index/db_index.hpp"

namespace mublastp {

/// Identifies a section in the v3 table. Values are stable on-disk ids.
enum class SectionId : std::uint32_t {
  kConfig = 1,       ///< build config + matrix name + element counts
  kSeqOffsets = 2,   ///< (num_seqs + 1) x u64 arena offsets
  kArena = 3,        ///< residue arena of the length-sorted store
  kNameOffsets = 4,  ///< (num_seqs + 1) x u64 offsets into the name blob
  kNameBlob = 5,     ///< concatenated sequence names (no terminators)
  kOrder = 6,        ///< num_seqs x u32 sorted-id -> original-id
  kInverse = 7,      ///< num_seqs x u32 original-id -> sorted-id
  kBlockMeta = 8,    ///< num_blocks x BlockMetaRecord
  kFragments = 9,    ///< concatenated FragmentRef arrays of all blocks
  kCsrOffsets = 10,  ///< num_blocks x (kNumWords + 1) x u32
  kEntries = 11,     ///< concatenated packed-entry arrays of all blocks
};

/// Human-readable section name used in error messages and dbinfo output.
std::string_view section_name(SectionId id);

/// Per-block scalars in the kBlockMeta section. Fragment/entry counts are
/// also the cursor into the concatenated kFragments/kEntries sections.
struct BlockMetaRecord {
  std::uint64_t num_fragments;
  std::uint64_t num_entries;
  std::uint64_t max_fragment_len;
  std::uint64_t total_chars;
  std::int32_t offset_bits;
  /// CRC32 over this block's slice of kFragments + kCsrOffsets + kEntries
  /// (in that order). Lets a degraded loader localize a failed section
  /// checksum to the block(s) that actually rotted and quarantine only
  /// those. Files written before this field existed carry 0 here ("no
  /// per-block checksum"; still loadable, but not block-quarantinable).
  /// Occupies what used to be a zero `reserved` field, so the layout and
  /// version are unchanged and old readers ignore it.
  std::uint32_t block_crc32;
};
static_assert(sizeof(BlockMetaRecord) == 40);
static_assert(sizeof(FragmentRef) == 12,
              "FragmentRef is serialized raw; layout must stay packed");

/// Typed, validated view over a complete v3 file image (a read-only mmap or
/// a heap buffer — the parser does not care). Spans point INTO the image;
/// the image must outlive them. DbIndex::carve serves them.
struct ParsedIndexFile {
  DbIndexConfig config;  ///< matrix resolved via matrix_by_name
  std::uint64_t num_seqs = 0;
  std::uint64_t num_blocks = 0;
  std::span<const std::uint64_t> seq_offsets;   ///< num_seqs + 1
  std::span<const Residue> arena;
  std::span<const std::uint64_t> name_offsets;  ///< num_seqs + 1
  std::string_view name_blob;
  std::span<const SeqId> order;
  std::span<const SeqId> inverse;
  std::span<const BlockMetaRecord> block_meta;
  std::span<const FragmentRef> fragments;       ///< all blocks, concatenated
  std::span<const std::uint32_t> csr_offsets;   ///< all blocks, concatenated
  std::span<const std::uint32_t> entries;       ///< all blocks, concatenated
};

/// Controls how strictly parse_db_index_v3 treats damage.
struct IndexParseOptions {
  /// Verify section CRCs + deep structural invariants (reads every page).
  bool verify_checksums = true;

  /// Degraded mode: damage confined to ONE block's slice of the per-block
  /// sections (kFragments / kCsrOffsets / kEntries) quarantines that block
  /// instead of failing the load. Requires `quarantined` to be set. Damage
  /// anywhere else (header, table, config, arena, offsets, block meta) is
  /// always fatal — it cannot be attributed to a single block — as is a
  /// file whose every block is bad, or a pre-block-CRC file (block_crc32
  /// == 0) whose section checksum fails.
  bool tolerate_block_corruption = false;

  /// Out-parameter receiving the quarantined blocks (id + reason). Must be
  /// non-null when tolerate_block_corruption is set.
  std::vector<BlockQuarantine>* quarantined = nullptr;
};

/// Parses and validates a v3 file image. Checks, in order: the sectioned
/// file's header, table, padding and section CRC32s (the CRCs when
/// verifying), then cross-section structural invariants (counts
/// consistent, CSR offsets monotone, fragments and entries in range).
/// Throws mublastp::Error naming the offending section; never
/// returns a partially-valid view — except under
/// IndexParseOptions::tolerate_block_corruption, where block-local damage
/// is reported through `quarantined` and the affected blocks' spans must
/// not be used (loaders replace them with empty blocks).
ParsedIndexFile parse_db_index_v3(std::span<const std::byte> image,
                                  const IndexParseOptions& options);

/// One block as DbIndex::build makes it, before it is serialized.
struct BuiltBlock {
  std::vector<std::uint32_t> offsets;  ///< kNumWords + 1
  std::vector<std::uint32_t> entries;
  std::vector<FragmentRef> fragments;
  std::size_t max_fragment_len = 0;
  std::size_t total_chars = 0;
  int offset_bits = 0;
};

/// The v3 image of a built index: `sorted` is the length-sorted store,
/// `order` maps its ids to the input's and `inverse` back.
std::string write_db_index_v3(const DbIndexConfig& config,
                              const SequenceStore& sorted,
                              std::span<const SeqId> order,
                              std::span<const SeqId> inverse,
                              std::span<const BuiltBlock> blocks);

/// An index file open for reading, checked with one fstat to be a
/// non-empty regular file. Throws Error(kIo) for a path that cannot be
/// opened or is not a regular file and Error(kCorrupt) for an empty file.
/// Injection site "index.open".
struct IndexFile {
  std::string path;
  int fd = -1;
  std::size_t size = 0;

  explicit IndexFile(std::string path);
  ~IndexFile();
  IndexFile(const IndexFile&) = delete;
  IndexFile& operator=(const IndexFile&) = delete;

  /// `n` bytes at `offset`. A short read is Error(kIo).
  std::string read(std::uint64_t offset, std::size_t n) const;
};

}  // namespace mublastp
