// Shared scalar pieces of the hit-scan kernels: branchless key decode and
// two-hit prefilter spans, used whole by the scalar dispatch path and as
// the sub-tile tail of the AVX2 kernels.
//
// The prefilter span is the engines' per-entry automaton rewritten without
// control flow, operating on DiagState's raw representation (stored word =
// base + q when valid, < base otherwise):
//
//   prev    = last[key]
//   valid   = prev >= base                 (a hit was recorded this round)
//   delta   = q_raw - prev                 (== q - last when valid)
//   overlap = valid && delta < min         -> ignored, last unchanged
//   last[key] = overlap ? prev : q_raw     (value-identical to set_last_hit)
//   paired  = valid && !overlap && delta < window
//
// The valid mask is load-bearing: a stale word from an earlier round can
// make delta small by accident, so delta alone decides nothing. deltas stay
// inside int32 (1 <= base <= 2^30 during a round, offsets < 2^25), so none
// of the arithmetic wraps. Pair emission is a compaction store: the record
// is written unconditionally and the cursor advances only when paired,
// which is why callers must size `out` for every entry of the scan.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/hit_record.hpp"
#include "simd/kernels.hpp"

namespace mublastp::simd::detail {

/// Entries per internal chunk of the vector kernels: sized so the decoded
/// key buffer (4 * kHitChunk bytes) stays L1-resident and the last-hit
/// prefetches issued during decode land a bounded distance ahead of the
/// filter pass that consumes them.
inline constexpr std::size_t kHitChunk = 128;

/// Decodes entries[0..n) to diagonal keys (see HitScan for the formula).
inline void decode_keys_scalar(const std::uint32_t* entries, std::size_t n,
                               const std::uint32_t* bases,
                               std::uint32_t offset_bits, std::uint32_t add,
                               std::uint32_t* keys) {
  const std::uint32_t mask = (1u << offset_bits) - 1u;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t e = entries[i];
    keys[i] = bases[e >> offset_bits] + (e & mask) + add;
  }
}

/// Runs the branchless prefilter over pre-decoded keys[0..n), appending
/// paired records to `out` (capacity >= n required). Returns records
/// written. q_raw must equal filter.base + qoff.
inline std::size_t prefilter_span_scalar(const std::uint32_t* keys,
                                         std::size_t n, std::int32_t* last,
                                         std::int32_t base, std::int32_t q_raw,
                                         std::int32_t min, std::int32_t window,
                                         std::uint32_t qoff, HitRecord* out) {
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t key = keys[i];
    const std::int32_t prev = last[key];
    const bool valid = prev >= base;
    const std::int32_t delta = q_raw - prev;
    const bool overlap = valid & (delta < min);
    last[key] = overlap ? prev : q_raw;
    const bool paired = valid & !overlap & (delta < window);
    out[cnt] = HitRecord{key, qoff};
    cnt += paired;
  }
  return cnt;
}

/// Whole-scan scalar prefilter: fused decode + filter, no key buffer.
inline std::size_t hit_prefilter_scalar_impl(const HitScan& scan,
                                             const HitScanFilter& f,
                                             HitRecord* out) {
  const std::uint32_t mask = (1u << scan.offset_bits) - 1u;
  const std::int32_t q_raw =
      f.base + static_cast<std::int32_t>(scan.qoff);
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < scan.count; ++i) {
    const std::uint32_t e = scan.entries[i];
    const std::uint32_t key =
        scan.bases[e >> scan.offset_bits] + (e & mask) + scan.key_add;
    const std::int32_t prev = f.last[key];
    const bool valid = prev >= f.base;
    const std::int32_t delta = q_raw - prev;
    const bool overlap = valid & (delta < f.min);
    f.last[key] = overlap ? prev : q_raw;
    const bool paired = valid & !overlap & (delta < f.window);
    out[cnt] = HitRecord{key, scan.qoff};
    cnt += paired;
  }
  return cnt;
}

/// Whole-scan scalar collect: decode every entry, emit every record.
inline std::size_t hit_collect_scalar_impl(const HitScan& scan,
                                           HitRecord* out) {
  const std::uint32_t mask = (1u << scan.offset_bits) - 1u;
  for (std::size_t i = 0; i < scan.count; ++i) {
    const std::uint32_t e = scan.entries[i];
    out[i] = HitRecord{
        scan.bases[e >> scan.offset_bits] + (e & mask) + scan.key_add,
        scan.qoff};
  }
  return scan.count;
}

}  // namespace mublastp::simd::detail
