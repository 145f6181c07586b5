// Non-owning view over a database index, the common currency of the
// engines.
//
// Two concrete index representations exist: the owned DbIndex (vectors
// built in memory or copy-loaded from a file) and the MappedDbIndex (spans
// served straight out of a read-only mmap of the file). Search must
// drive both identically — same hits, same HSPs, same telemetry counters —
// so the engines are written against this view instead of either concrete
// type. The view is a handful of spans plus scalars: constructing one
// allocates only the per-block view array, and every hot-path accessor
// compiles to the same loads the old DbIndex& code paths produced.
//
// A view can also join the member indexes of one database (a
// cluster::MemberSet's shards or generation members): every member's
// blocks in member order, each resolving its fragments through its own
// member's store (members()[block.member()]), sorted ids numbering the
// members' stores one after another, and original ids global.
//
// Lifetime: a DbIndexView borrows everything (arena, CSR arrays, names)
// from the indexes it was built over; they must outlive the view and every
// engine holding it — the same contract engines already had with
// `const DbIndex&`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "index/db_index.hpp"

namespace mublastp {

class MappedDbIndex;
struct DbIndexPart;

/// One index block as spans: same accessor API as DbIndexBlock, backed by
/// either that block's vectors or a slice of a mapped file.
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

  /// Approximate footprint of the position data (32-bit entries).
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

/// The engines' read-only window onto an index, whatever owns it.
class DbIndexView {
 public:
  /// One member index's sequence store, as its blocks' fragments address
  /// it: FragmentRef::seq is a member-local sorted id.
  struct Member {
    std::span<const Residue> arena;
    std::span<const std::size_t> seq_offsets;  // member sequences + 1
    SeqId first_seq = 0;  ///< view sorted id of the member's sequence 0
    // Name storage differs by backing: the owned store keeps std::strings,
    // the mapped form a blob + offsets. Exactly one of these is active.
    const SequenceStore* owned_names = nullptr;
    std::span<const std::uint64_t> name_offsets;
    const char* name_blob = nullptr;

    /// Residues of member-local sorted sequence `seq`.
    std::span<const Residue> sequence(SeqId seq) const {
      return arena.subspan(seq_offsets[seq],
                           seq_offsets[seq + 1] - seq_offsets[seq]);
    }
    /// FASTA header (may be empty) of member-local sorted sequence `seq`.
    std::string_view name(SeqId seq) const;
  };

  /// View over an owned, in-memory index. Implicit on purpose: existing
  /// `Engine(index)` call sites keep compiling unchanged.
  DbIndexView(const DbIndex& index);  // NOLINT(google-explicit-constructor)

  /// View over a memory-mapped index file.
  DbIndexView(const MappedDbIndex& mapped);  // NOLINT

  /// One view over the parts' blocks, in part order, whose original ids are
  /// global ids in [0, num_global_ids). A global id no part maps to has a
  /// sorted_id() >= num_sequences(). One part whose map is the identity
  /// yields its own view unchanged. Every part must be a 1-member view
  /// built with the same matrix and neighbor threshold: one engine's
  /// neighbor table serves every part's blocks, and the joined view serves
  /// part 0's config.
  static DbIndexView join(std::span<const DbIndexPart> parts,
                          std::size_t num_global_ids);

  /// Index blocks: per member, in ascending sequence-length order.
  std::span<const DbBlockView> blocks() const { return blocks_; }

  /// Member stores, in member order; a plain index view has one.
  std::span<const Member> members() const { return members_; }

  /// Position in members() of the member holding sorted sequence `id`.
  std::uint32_t member_of(SeqId id) const {
    if (members_.size() == 1) return 0;
    const auto next = std::upper_bound(
        members_.begin() + 1, members_.end(), id,
        [](SeqId v, const Member& m) { return v < m.first_seq; });
    return static_cast<std::uint32_t>(next - members_.begin() - 1);
  }

  /// Construction parameters of the underlying index (member 0's).
  const DbIndexConfig& config() const { return config_; }

  /// Number of sequences in the (length-sorted) stores.
  std::size_t num_sequences() const { return order_.size(); }

  /// Residues of sorted sequence `id`.
  std::span<const Residue> sequence(SeqId id) const {
    const Member& m = members_[member_of(id)];
    return m.sequence(id - m.first_seq);
  }

  /// FASTA header (may be empty) of sorted sequence `id`.
  std::string_view name(SeqId id) const {
    const Member& m = members_[member_of(id)];
    return m.name(id - m.first_seq);
  }

  /// Total residues across all sequences.
  std::size_t total_residues() const { return total_residues_; }

  /// Maps a sorted id back to the original database id.
  SeqId original_id(SeqId sorted_id) const { return order_[sorted_id]; }

  /// Maps an original id to its sorted id.
  SeqId sorted_id(SeqId original) const { return inverse_[original]; }

 private:
  DbIndexView() = default;

  std::vector<DbBlockView> blocks_;
  std::vector<Member> members_;
  std::span<const SeqId> order_;
  std::span<const SeqId> inverse_;
  /// Backs order_ and inverse_ in a joined view; shared, so copies of the
  /// view keep their spans valid.
  std::shared_ptr<const std::vector<SeqId>> joined_ids_;
  DbIndexConfig config_;
  std::size_t total_residues_ = 0;
};

/// One input of DbIndexView::join(): a 1-member view and the map from its
/// original ids to the database's global ids.
struct DbIndexPart {
  DbIndexView view;
  std::span<const SeqId> to_global;
};

}  // namespace mublastp
