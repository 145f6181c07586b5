// Blocked database index (paper Section III, Figure 3(a)).
//
// The index maps every overlapping word (W=3) of every subject sequence to
// its (subject, offset) positions. To bound the working set — the basis of
// all the locality optimizations — the database is sorted by sequence
// length and split into blocks of approximately equal character count; each
// block gets its own position table with *block-local* sequence ids, which
// both compresses entries into 32 bits and gives the radix sort fixed-width
// keys (similar sequence lengths per block => similar diagonal ranges).
//
// Neighboring words are NOT materialized in the position lists (that is the
// query index's strategy and would multiply the index size); instead hit
// detection consults the search engine's neighbor table first, then reads
// the exact word position lists of each neighbor (the "two-level
// structure").
//
// Very long sequences (the paper cites ~40k-residue outliers) are not
// indexed whole: they are split into fragments with overlapped boundaries
// (Orion's scheme, Section IV-A); extensions that touch a fragment boundary
// are re-extended on the original sequence in an assembly step inside the
// engines, so results are identical to un-split search.
//
// One representation: a DbIndex owns the image of its index file (format
// v3, db_index_format.hpp) and serves its blocks, sequences, names and id
// maps as spans into that image, through one parse and one block carve.
// The image has two byte sources. build() serializes the blocks it made,
// so saving writes image() as is. Opening a file maps it read-only (the
// default: no allocation proportional to database size, pages shared with
// every process serving the same database) or read(2)s it into one owned
// buffer (--no-mmap, and the degraded fallback when mapping fails).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/sequence.hpp"
#include "index/neighbor.hpp"

namespace mublastp {

/// Index construction parameters.
struct DbIndexConfig {
  /// Bytes of position data per block (positions are 32-bit, so a 512KB
  /// block holds 128K positions; the paper sweeps 128KB..4MB in Fig. 8).
  std::size_t block_bytes = 512 * 1024;
  /// Substitution matrix neighbor words are scored with. Searches must use
  /// the same matrix.
  const ScoreMatrix* matrix = &blosum62();
  /// Neighbor threshold T.
  Score neighbor_threshold = kDefaultNeighborThreshold;
  /// Sequences longer than this are split into fragments (Section IV-A).
  std::size_t long_seq_limit = 8192;
  /// Overlap between consecutive fragments of a split sequence.
  std::size_t long_seq_overlap = 128;
  /// OpenMP threads for block construction (blocks are independent; the
  /// paper builds each node's index in parallel). 0 = all available.
  int build_threads = 0;
};

/// Per-build telemetry filled by DbIndex::build when the caller passes an
/// out-param: how long the parallel block construction took, with how much
/// parallelism, and where the time went per block. Feeds the "build"
/// stats-v1 object.
struct BuildTelemetry {
  double total_seconds = 0.0;          ///< wall time of the whole build
  double plan_seconds = 0.0;           ///< serial sort + block planning
  int threads = 0;                     ///< OpenMP threads the build used
  std::vector<double> block_seconds;   ///< per-block construction wall time
};

/// A fragment of a subject sequence as stored in a block: a window
/// [start, start+len) of sequence `seq` in the index's sorted store.
struct FragmentRef {
  SeqId seq = 0;            ///< sorted id (DbIndex::sequence)
  std::uint32_t start = 0;  ///< window start within the sequence
  std::uint32_t len = 0;    ///< window length
};

/// One index block: CSR word -> packed (local fragment id, offset) entries,
/// as spans into the index image.
class DbBlockView {
 public:
  DbBlockView() = default;
  DbBlockView(std::span<const std::uint32_t> offsets,
              std::span<const std::uint32_t> entries,
              std::span<const FragmentRef> fragments,
              std::size_t max_fragment_len, std::size_t total_chars,
              int offset_bits)
      : offsets_(offsets),
        entries_(entries),
        fragments_(fragments),
        max_fragment_len_(max_fragment_len),
        total_chars_(total_chars),
        offset_bits_(offset_bits) {}

  /// Packed 32-bit entries for `word` (exact word only, no neighbors),
  /// ordered by (fragment, offset) ascending.
  std::span<const std::uint32_t> entries(std::uint32_t word) const {
    return {entries_.data() + offsets_[word],
            offsets_[word + 1] - offsets_[word]};
  }

  /// Decodes the block-local fragment id of an entry.
  std::uint32_t entry_fragment(std::uint32_t entry) const {
    return entry >> offset_bits_;
  }

  /// Decodes the in-fragment word offset of an entry.
  std::uint32_t entry_offset(std::uint32_t entry) const {
    return entry & ((std::uint32_t{1} << offset_bits_) - 1);
  }

  /// Fragment descriptors; local id indexes this.
  std::span<const FragmentRef> fragments() const { return fragments_; }

  /// Longest fragment in the block (bounds the diagonal range).
  std::size_t max_fragment_len() const { return max_fragment_len_; }

  /// Total residues covered by this block.
  std::size_t total_chars() const { return total_chars_; }

  /// Total stored positions.
  std::size_t num_positions() const { return entries_.size(); }

  /// Approximate footprint of the position data (32-bit entries), the
  /// quantity the paper calls "index block size".
  std::size_t position_bytes() const {
    return entries_.size() * sizeof(std::uint32_t);
  }

  /// Bits used for the offset field of packed entries.
  int offset_bits() const { return offset_bits_; }

  /// Position in DbIndexView::members() of the member whose sequence store
  /// this block's fragments point into (0 outside a joined view).
  std::uint32_t member() const { return member_; }

 private:
  friend class DbIndexView;
  std::span<const std::uint32_t> offsets_;  // kNumWords + 1
  std::span<const std::uint32_t> entries_;
  std::span<const FragmentRef> fragments_;
  std::size_t max_fragment_len_ = 0;
  std::size_t total_chars_ = 0;
  int offset_bits_ = 0;
  std::uint32_t member_ = 0;
};

/// A length-sorted sequence store as the index image lays it out: the
/// residues in one arena and the names in one blob, each cut by an offset
/// array.
struct StoreView {
  std::span<const Residue> arena;
  std::span<const std::size_t> seq_offsets;     ///< sequences + 1
  std::span<const std::uint64_t> name_offsets;  ///< sequences + 1
  const char* name_blob = nullptr;

  /// Residues of sorted sequence `seq`.
  std::span<const Residue> sequence(SeqId seq) const {
    return arena.subspan(seq_offsets[seq],
                         seq_offsets[seq + 1] - seq_offsets[seq]);
  }
  /// FASTA header (may be empty) of sorted sequence `seq`.
  std::string_view name(SeqId seq) const {
    return {name_blob + name_offsets[seq],
            name_offsets[seq + 1] - name_offsets[seq]};
  }
};

/// One block set aside by a degraded open: its data failed validation but
/// the rest of the index is intact and searchable.
struct BlockQuarantine {
  std::uint32_t block = 0;
  std::string reason;

  friend bool operator==(const BlockQuarantine&,
                         const BlockQuarantine&) = default;
};

/// How DbIndex opens a file.
struct DbIndexOpenOptions {
  /// Map the file read-only. False reads it into one owned buffer instead
  /// (--no-mmap, and the degraded fallback when mapping fails).
  bool mmap = true;

  /// Touch every page of the mapping under a SIGBUS guard before parsing,
  /// so a file truncated (or hitting media errors) after the mmap fails
  /// the open with Error(kIo) instead of killing the process (injection
  /// site "index.prefault"). Ignored when the file is read.
  bool prefault = false;

  /// Degraded mode: block-local damage quarantines the affected blocks
  /// (served as empty blocks contributing no hits) instead of failing the
  /// open; see IndexParseOptions::tolerate_block_corruption for what still
  /// fails closed. Quarantined ids are reported via quarantined().
  bool tolerate_block_corruption = false;
};

struct ParsedIndexFile;  // db_index_format.hpp

/// The database index: one v3 image and the spans served out of it.
/// Copies share the image.
class DbIndex {
 public:
  /// Builds the index. The input store is laid out in ascending length
  /// order; original ids are retrievable via original_id(). With a
  /// non-null `telemetry`, per-block timings and the parallelism used are
  /// recorded (the result is identical either way).
  static DbIndex build(const SequenceStore& db, const DbIndexConfig& config,
                       BuildTelemetry* telemetry = nullptr);

  /// Opens the index file at `path`. Every section checksum and structural
  /// invariant is verified: a damaged file throws mublastp::Error naming
  /// the bad section (kIo for path and read problems, kCorrupt for damage,
  /// kResource for a failed mmap). Injection sites "index.open",
  /// "index.mmap", "index.prefault" and "io.read".
  explicit DbIndex(const std::string& path, DbIndexOpenOptions options = {});

  /// Index blocks in ascending sequence-length order.
  std::span<const DbBlockView> blocks() const { return blocks_; }

  /// Number of sequences in the length-sorted store.
  std::size_t num_sequences() const { return order_.size(); }

  /// Residues of sorted sequence `id`.
  std::span<const Residue> sequence(SeqId id) const {
    return store_.sequence(id);
  }

  /// FASTA header (may be empty) of sorted sequence `id`.
  std::string_view name(SeqId id) const { return store_.name(id); }

  /// Total residues across all sequences.
  std::size_t total_residues() const { return store_.arena.size(); }

  /// Maps a sorted id back to the id in the store build() received.
  SeqId original_id(SeqId sorted_id) const { return order_[sorted_id]; }

  /// Maps an original id to its position in the sorted store.
  SeqId sorted_id(SeqId original) const { return inverse_[original]; }

  /// Construction parameters, as the image records them (build_threads is
  /// not recorded).
  const DbIndexConfig& config() const { return config_; }

  /// Blocks set aside by a degraded open; empty otherwise. The matching
  /// entries of blocks() are empty blocks that contribute no hits.
  const std::vector<BlockQuarantine>& quarantined() const {
    return quarantined_;
  }

  /// The v3 file image: exactly the bytes a save writes.
  std::span<const std::byte> image() const { return image_; }

  /// Bytes of a mapped image currently resident in physical memory
  /// (mincore sweep); 0 for an image that is not mapped.
  std::size_t resident_bytes() const;

  /// The block-size formula of Section V-B: with t threads sharing an LLC of
  /// `l3_bytes`, each thread keeps a last-hit array of ~2x the block's
  /// position bytes, so choose b = L3 / (2t + 1).
  static std::size_t optimal_block_bytes(std::size_t l3_bytes, int threads);

 private:
  friend class DbIndexView;

  DbIndex() = default;
  /// Serves `parsed`, a parse of image_: the config, the store, the id maps
  /// and one block per block-meta record (an empty one if quarantined_
  /// names it).
  void carve(const ParsedIndexFile& parsed);

  std::shared_ptr<const void> storage_;  ///< owns image_: mapping or buffer
  std::span<const std::byte> image_;
  bool mapped_ = false;
  DbIndexConfig config_;
  StoreView store_;
  std::span<const SeqId> order_;
  std::span<const SeqId> inverse_;
  std::vector<DbBlockView> blocks_;
  std::vector<BlockQuarantine> quarantined_;
};

}  // namespace mublastp
