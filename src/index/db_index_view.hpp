// Non-owning view over a database index, the common currency of the
// engines.
//
// The engines are written against this view rather than against DbIndex,
// so that one engine pass can also search several indexes as one
// database. The view is a handful of spans plus scalars: constructing one
// allocates only the per-block view array, and every hot-path accessor
// compiles to the same loads as reading the index directly.
//
// A view can join the member indexes of one database (a
// cluster::MemberSet's shards or generation members): every member's
// blocks in member order, each resolving its fragments through its own
// member's store (members()[block.member()]), sorted ids numbering the
// members' stores one after another, and original ids global.
//
// Lifetime: a DbIndexView borrows everything (arena, CSR arrays, names)
// from the indexes it was built over; they must outlive the view and every
// engine holding it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "index/db_index.hpp"

namespace mublastp {

struct DbIndexPart;

/// The engines' read-only window onto one index or a join of several.
class DbIndexView {
 public:
  /// One member index's sequence store, as its blocks' fragments address
  /// it: FragmentRef::seq is a member-local sorted id.
  struct Member : StoreView {
    SeqId first_seq = 0;  ///< view sorted id of the member's sequence 0
  };

  /// View over one index. Implicit on purpose: `Engine(index)` call sites
  /// compile unchanged.
  DbIndexView(const DbIndex& index);  // NOLINT(google-explicit-constructor)

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
