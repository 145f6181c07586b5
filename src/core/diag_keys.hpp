// Dense per-block diagonal keys of the database-indexed engines.
//
// In one (query, block) round, fragment f owns the key range
// [bases[f], bases[f+1]), one key per diagonal of the (query, fragment)
// pair: bases[f+1] - bases[f] = len_f + qlen + 1. A key is at once the
// index into the last-hit array and the radix-sort key. DiagState stores
// int32 words and the hit-scan kernels decode keys in 32-bit lanes, so
// every key of a round must stay below 2^kMaxDiagKeyBits.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "index/db_index.hpp"

namespace mublastp {

inline constexpr int kMaxDiagKeyBits = 31;

/// Fills `bases` (fragments.size() + 1 entries) for one round and returns
/// the round's key count, bases.back(). The prefix sum runs in 64 bits, so
/// a long query against many fragments cannot wrap past the limit; a round
/// over it throws Error(kResource) before any key-sized allocation.
inline std::uint32_t diagonal_key_bases(std::span<const FragmentRef> fragments,
                                        std::size_t qlen,
                                        std::vector<std::uint32_t>& bases) {
  bases.resize(fragments.size() + 1);
  bases[0] = 0;
  std::uint64_t total = 0;
  for (std::size_t f = 0; f < fragments.size(); ++f) {
    total += std::uint64_t{fragments[f].len} + qlen + 1;
    bases[f + 1] = static_cast<std::uint32_t>(total);
  }
  MUBLASTP_CHECK_KIND(total < (std::uint64_t{1} << kMaxDiagKeyBits),
                      ErrorKind::kResource,
                      "block too large: query length " + std::to_string(qlen) +
                          " x " + std::to_string(fragments.size()) +
                          " fragments needs " + std::to_string(total) +
                          " diagonal keys (limit 2^31)");
  return static_cast<std::uint32_t>(total);
}

}  // namespace mublastp
