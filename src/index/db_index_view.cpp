#include "index/db_index_view.hpp"

#include "common/error.hpp"

namespace mublastp {

DbIndexView::DbIndexView(const DbIndex& index)
    : blocks_(index.blocks_.begin(), index.blocks_.end()),
      members_{Member{index.store_}},
      order_(index.order_),
      inverse_(index.inverse_),
      config_(index.config_),
      total_residues_(index.total_residues()) {}

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

}  // namespace mublastp
