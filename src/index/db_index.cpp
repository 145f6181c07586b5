#include "index/db_index.hpp"

#include <omp.h>

#include <algorithm>
#include <exception>
#include <bit>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace mublastp {
namespace {

// Splits sequence `seq` (length `len`) into fragment windows per config.
// Fragments overlap by `overlap` so any alignment spanning a cut is fully
// contained in (or re-extendable from) at least one fragment.
std::vector<FragmentRef> split_sequence(SeqId seq, std::size_t len,
                                        const DbIndexConfig& cfg) {
  std::vector<FragmentRef> out;
  if (len <= cfg.long_seq_limit) {
    out.push_back({seq, 0, static_cast<std::uint32_t>(len)});
    return out;
  }
  const std::size_t step = cfg.long_seq_limit - cfg.long_seq_overlap;
  for (std::size_t start = 0; start < len; start += step) {
    const std::size_t flen = std::min(cfg.long_seq_limit, len - start);
    out.push_back({seq, static_cast<std::uint32_t>(start),
                   static_cast<std::uint32_t>(flen)});
    if (start + flen >= len) break;
  }
  return out;
}

int bits_for(std::size_t max_value) {
  return std::max(1, static_cast<int>(std::bit_width(max_value)));
}

}  // namespace

std::size_t DbIndex::optimal_block_bytes(std::size_t l3_bytes, int threads) {
  MUBLASTP_CHECK(threads > 0, "thread count must be positive");
  return l3_bytes / (2 * static_cast<std::size_t>(threads) + 1);
}

DbIndex DbIndex::build(const SequenceStore& db, const DbIndexConfig& config,
                       BuildTelemetry* telemetry) {
  const double t_start = omp_get_wtime();
  MUBLASTP_CHECK(!db.empty(), "cannot index an empty database");
  MUBLASTP_CHECK(config.block_bytes >= 4096, "block_bytes too small");
  MUBLASTP_CHECK(config.long_seq_limit > config.long_seq_overlap,
                 "long_seq_limit must exceed long_seq_overlap");
  MUBLASTP_CHECK(
      config.long_seq_overlap >= static_cast<std::size_t>(kWordLength),
      "fragment overlap must cover at least one word");

  // Sort by length (paper Section III / IV-D) and keep the inverse map so
  // callers can report hits against their original ids.
  std::vector<SeqId> order = db.ids_by_length();
  SequenceStore sorted = db.permuted(order);

  DbIndex index(std::move(sorted), std::move(order), config);
  index.inverse_.resize(index.order_.size());
  for (SeqId sorted_pos = 0; sorted_pos < index.order_.size(); ++sorted_pos) {
    index.inverse_[index.order_[sorted_pos]] = sorted_pos;
  }

  // Enumerate fragments in sorted order, then greedily pack them into
  // blocks of ~block_chars characters ("if a sequence exceeds the block
  // boundary, we put it in the next block" — i.e. no fragment straddles two
  // blocks).
  const std::size_t block_chars = config.block_bytes / sizeof(std::uint32_t);
  std::vector<FragmentRef> all_frags;
  for (SeqId id = 0; id < index.db_.size(); ++id) {
    const auto frags = split_sequence(id, index.db_.length(id), config);
    all_frags.insert(all_frags.end(), frags.begin(), frags.end());
  }

  // Plan block boundaries serially (cheap), then build the blocks in
  // parallel — blocks are fully independent, and the result is identical
  // for any thread count.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [first, last)
  {
    std::size_t i = 0;
    while (i < all_frags.size()) {
      const std::size_t first = i;
      std::size_t chars = 0;
      while (i < all_frags.size() &&
             (i == first || chars + all_frags[i].len <= block_chars)) {
        chars += all_frags[i].len;
        ++i;
      }
      ranges.emplace_back(first, i);
    }
  }

  index.blocks_.resize(ranges.size());
  const int threads = config.build_threads > 0 ? config.build_threads
                                               : omp_get_max_threads();
  const double t_plan = omp_get_wtime();
  std::vector<double> block_seconds(telemetry != nullptr ? ranges.size() : 0);
  const auto build_block = [&](std::size_t b) {
    const double t_block = telemetry != nullptr ? omp_get_wtime() : 0.0;
    DbIndexBlock& block = index.blocks_[b];
    block.fragments_.assign(all_frags.begin() + ranges[b].first,
                            all_frags.begin() + ranges[b].second);
    std::size_t chars = 0;
    for (const FragmentRef& f : block.fragments_) {
      chars += f.len;
      block.max_fragment_len_ =
          std::max(block.max_fragment_len_, static_cast<std::size_t>(f.len));
    }
    block.total_chars_ = chars;

    // Pack entries as (local fragment id << offset_bits) | offset.
    block.offset_bits_ = bits_for(block.max_fragment_len_);
    const std::size_t id_bits = static_cast<std::size_t>(
        bits_for(block.fragments_.size() > 0 ? block.fragments_.size() - 1
                                             : 0));
    MUBLASTP_CHECK(
        id_bits + static_cast<std::size_t>(block.offset_bits_) <= 32,
        "block too large to pack entries into 32 bits");

    // Counting pass over all words of all fragments.
    block.offsets_.assign(static_cast<std::size_t>(kNumWords) + 1, 0);
    for (const FragmentRef& f : block.fragments_) {
      if (f.len < static_cast<std::size_t>(kWordLength)) continue;
      const auto seq = index.db_.sequence(f.seq).subspan(f.start, f.len);
      for (std::size_t p = 0; p + kWordLength <= seq.size(); ++p) {
        ++block.offsets_[word_key(seq.data() + p) + 1];
      }
    }
    for (std::size_t w = 0; w < static_cast<std::size_t>(kNumWords); ++w) {
      block.offsets_[w + 1] += block.offsets_[w];
    }
    block.entries_.resize(block.offsets_.back());

    // Fill pass: iterate fragments in local-id order so each word's entry
    // list is ordered by (fragment, offset) without sorting.
    std::vector<std::uint32_t> cursor(block.offsets_.begin(),
                                      block.offsets_.end() - 1);
    for (std::uint32_t local = 0; local < block.fragments_.size(); ++local) {
      const FragmentRef& f = block.fragments_[local];
      if (f.len < static_cast<std::size_t>(kWordLength)) continue;
      const auto seq = index.db_.sequence(f.seq).subspan(f.start, f.len);
      for (std::size_t p = 0; p + kWordLength <= seq.size(); ++p) {
        const std::uint32_t w = word_key(seq.data() + p);
        block.entries_[cursor[w]++] =
            (local << block.offset_bits_) | static_cast<std::uint32_t>(p);
      }
    }
    if (telemetry != nullptr) block_seconds[b] = omp_get_wtime() - t_block;
  };
  const std::exception_ptr build_error =
      parallel_tasks(threads, ranges.size(), build_block);
  if (build_error != nullptr) std::rethrow_exception(build_error);

  if (telemetry != nullptr) {
    telemetry->total_seconds = omp_get_wtime() - t_start;
    telemetry->plan_seconds = t_plan - t_start;
    telemetry->threads = threads;
    telemetry->block_seconds = std::move(block_seconds);
  }
  return index;
}

}  // namespace mublastp
