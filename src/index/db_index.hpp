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
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
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
  SeqId seq = 0;         ///< id in DbIndex::db() (the sorted store)
  std::uint32_t start = 0;  ///< window start within the sequence
  std::uint32_t len = 0;    ///< window length
};

class DbIndex;
struct IndexLoadOptions;  // db_index_io.hpp

/// One index block: CSR word -> packed (local fragment id, offset) entries.
class DbIndexBlock {
 public:
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

 private:
  friend class DbIndex;
  friend class DbIndexView;
  friend std::string db_index_image(const DbIndex& index);
  friend DbIndex load_db_index(std::istream& in,
                               const IndexLoadOptions& options);
  std::vector<std::uint32_t> offsets_;  // kNumWords + 1
  std::vector<std::uint32_t> entries_;
  std::vector<FragmentRef> fragments_;
  std::size_t max_fragment_len_ = 0;
  std::size_t total_chars_ = 0;
  int offset_bits_ = 0;
};

/// The full database index: a length-sorted copy of the database plus its
/// blocks.
class DbIndex {
 public:
  /// Builds the index. The input store is copied in ascending length order;
  /// original ids are retrievable via sorted_to_original(). With a non-null
  /// `telemetry`, per-block timings and the parallelism used are recorded
  /// (the result is identical either way).
  static DbIndex build(const SequenceStore& db, const DbIndexConfig& config,
                       BuildTelemetry* telemetry = nullptr);

  /// The length-sorted sequence store the blocks reference.
  const SequenceStore& db() const { return db_; }

  /// Index blocks in ascending sequence-length order.
  std::span<const DbIndexBlock> blocks() const { return blocks_; }

  /// Maps a sorted-store id back to the id in the store build() received.
  SeqId original_id(SeqId sorted_id) const { return order_[sorted_id]; }

  /// Maps an original id to its position in the sorted store.
  SeqId sorted_id(SeqId original) const { return inverse_[original]; }

  /// Construction parameters used.
  const DbIndexConfig& config() const { return config_; }

  /// The block-size formula of Section V-B: with t threads sharing an LLC of
  /// `l3_bytes`, each thread keeps a last-hit array of ~2x the block's
  /// position bytes, so choose b = L3 / (2t + 1).
  static std::size_t optimal_block_bytes(std::size_t l3_bytes, int threads);

 private:
  friend class DbIndexView;
  friend std::string db_index_image(const DbIndex& index);
  friend DbIndex load_db_index(std::istream& in,
                               const IndexLoadOptions& options);

  DbIndex(SequenceStore db, std::vector<SeqId> order, DbIndexConfig config)
      : db_(std::move(db)), order_(std::move(order)), config_(config) {}

  SequenceStore db_;
  std::vector<SeqId> order_;
  std::vector<SeqId> inverse_;
  DbIndexConfig config_;
  std::vector<DbIndexBlock> blocks_;
};

}  // namespace mublastp
