// Query-specialized flattened neighbor lookup (the PR 8 hit-detection
// tentpole).
//
// The two-level index (paper Section III) keeps the database index small by
// storing positions only for exact words and resolving neighbors through a
// second table at scan time: per query position the detector does
// word_key -> NeighborTable CSR -> one posting list per neighbor. Both the
// word_key recomputation and the neighbor-offsets indirection repeat for
// every database *block*, even though they depend only on the query.
//
// FlatNeighborhood collapses them once per query: a CSR table mapping each
// query offset directly to its packed, merged neighbor-word list. This is
// the order-preserving transpose of the issue's "word -> packed
// query-positions" table — iterating words-major would interleave query
// offsets per diagonal and break the two-hit automaton's ascending-qoff
// contract, so the specialization keys on qoff and packs the *words*. Hit
// detection then runs one indirection per (qoff, neighbor) instead of two,
// with the whole per-query table contiguous (a few KB, L1/L2-resident
// across every block of the batch).
//
// built_for() tells a caller whether the table already describes a
// (query, table) pair, and per-thread workspaces can reuse the buffer
// across queries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/alphabet.hpp"
#include "index/neighbor.hpp"

namespace mublastp {

/// Per-query qoff -> packed neighbor-word-keys table in CSR form.
class FlatNeighborhood {
 public:
  /// Rebuilds the table for `query` against `table`. Cost is one
  /// NeighborTable lookup + memcpy per query position (microseconds);
  /// amortized over every database block the query scans.
  void build(std::span<const Residue> query, const NeighborTable& table);

  /// True when the table already describes exactly this (query, table)
  /// pair — same pointer, length, and neighbor table identity.
  bool built_for(std::span<const Residue> query,
                 const NeighborTable& table) const {
    return built_query_ == query.data() && built_len_ == query.size() &&
           built_table_ == &table;
  }

  /// Merged neighbor word keys for query offset `qoff` (ascending, same
  /// order NeighborTable::neighbors produces — posting lists are visited
  /// in the identical sequence as the classic two-level scan).
  std::span<const std::uint32_t> words(std::uint32_t qoff) const {
    return {flat_.data() + offsets_[qoff],
            offsets_[qoff + 1] - offsets_[qoff]};
  }

  /// Number of query positions (qlen - W + 1, or 0 for short queries).
  std::uint32_t positions() const {
    return offsets_.empty() ? 0u
                            : static_cast<std::uint32_t>(offsets_.size() - 1);
  }

  /// Total packed (qoff, neighbor-word) pairs.
  std::size_t total_words() const {
    return offsets_.empty() ? 0u : offsets_.back();
  }

  /// Bytes retained (workspace footprint accounting).
  std::size_t footprint_bytes() const {
    return (offsets_.capacity() + flat_.capacity()) * sizeof(std::uint32_t);
  }

  /// Releases retained storage (memory-budget enforcement).
  void release() {
    offsets_ = {};
    flat_ = {};
    built_query_ = nullptr;
    built_len_ = 0;
    built_table_ = nullptr;
  }

 private:
  std::vector<std::uint32_t> offsets_;  ///< positions()+1 entries
  std::vector<std::uint32_t> flat_;     ///< packed neighbor word keys
  const Residue* built_query_ = nullptr;
  std::size_t built_len_ = 0;
  const NeighborTable* built_table_ = nullptr;
};

}  // namespace mublastp
