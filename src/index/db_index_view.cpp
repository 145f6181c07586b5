#include "index/db_index_view.hpp"

#include "common/error.hpp"
#include "index/mapped_db_index.hpp"

namespace mublastp {

static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "index views require 64-bit size_t (arena offsets are stored "
              "as u64 on disk and viewed as size_t in memory)");

DbIndexView::DbIndexView(const DbIndex& index)
    : order_(index.order_),
      inverse_(index.inverse_),
      config_(index.config_),
      total_residues_(index.db_.total_residues()) {
  Member m;
  m.arena = index.db_.arena();
  m.seq_offsets = index.db_.arena_offsets();
  m.owned_names = &index.db_;
  members_.push_back(m);
  blocks_.reserve(index.blocks_.size());
  for (const DbIndexBlock& b : index.blocks_) {
    blocks_.emplace_back(b.offsets_, b.entries_, b.fragments_,
                         b.max_fragment_len_, b.total_chars_, b.offset_bits_);
  }
}

DbIndexView::DbIndexView(const MappedDbIndex& mapped)
    : blocks_(mapped.blocks().begin(), mapped.blocks().end()),
      order_(mapped.order()),
      inverse_(mapped.inverse()),
      config_(mapped.config()),
      total_residues_(mapped.total_residues()) {
  Member m;
  m.arena = mapped.arena();
  m.seq_offsets = {reinterpret_cast<const std::size_t*>(
                       mapped.seq_offsets().data()),
                   mapped.seq_offsets().size()};
  m.name_offsets = mapped.name_offsets();
  m.name_blob = mapped.name_blob().data();
  members_.push_back(m);
}

DbIndexView DbIndexView::join(std::span<const DbIndexPart> parts,
                              std::size_t num_global_ids) {
  MUBLASTP_CHECK(!parts.empty(), "a joined index view needs a member");
  bool identity = parts.size() == 1 &&
                  parts[0].to_global.size() == num_global_ids;
  for (SeqId i = 0; identity && i < num_global_ids; ++i) {
    identity = parts[0].to_global[i] == i;
  }
  if (identity) return parts[0].view;

  DbIndexView out;
  out.config_ = parts[0].view.config_;
  std::size_t num_sequences = 0;
  for (const DbIndexPart& p : parts) num_sequences += p.view.num_sequences();
  auto ids = std::make_shared<std::vector<SeqId>>(
      num_sequences + num_global_ids, ~SeqId{0});
  SeqId* order = ids->data();
  SeqId* inverse = order + num_sequences;
  SeqId next_seq = 0;
  for (std::uint32_t k = 0; k < parts.size(); ++k) {
    const DbIndexView& v = parts[k].view;
    MUBLASTP_CHECK(v.members_.size() == 1,
                   "only 1-member views can be joined");
    // One engine's neighbor table serves every member's blocks.
    MUBLASTP_CHECK(v.config_.matrix == out.config_.matrix &&
                       v.config_.neighbor_threshold ==
                           out.config_.neighbor_threshold,
                   "joined index members must share one matrix and"
                   " neighbor threshold");
    MUBLASTP_CHECK(parts[k].to_global.size() == v.num_sequences(),
                   "member id map does not cover its index");
    Member m = v.members_[0];
    m.first_seq = next_seq;
    for (SeqId s = 0; s < v.num_sequences(); ++s) {
      const SeqId g = parts[k].to_global[v.original_id(s)];
      MUBLASTP_CHECK(g < num_global_ids, "member id map leaves the database");
      order[next_seq + s] = g;
      inverse[g] = next_seq + s;
    }
    for (DbBlockView b : v.blocks_) {
      b.member_ = k;
      out.blocks_.push_back(b);
    }
    out.members_.push_back(m);
    out.total_residues_ += v.total_residues_;
    next_seq += static_cast<SeqId>(v.num_sequences());
  }
  out.order_ = {order, num_sequences};
  out.inverse_ = {inverse, num_global_ids};
  out.joined_ids_ = std::move(ids);
  return out;
}

std::string_view DbIndexView::Member::name(SeqId seq) const {
  if (owned_names != nullptr) return owned_names->name(seq);
  return {name_blob + name_offsets[seq],
          name_offsets[seq + 1] - name_offsets[seq]};
}

}  // namespace mublastp
