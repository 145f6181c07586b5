// Internals shared by the dispatcher and the AVX2 translation unit: the
// banded gapped kernel's outcome type and the AVX2 entry points.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/alphabet.hpp"
#include "score/matrix.hpp"
#include "simd/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MUBLASTP_SIMD_X86 1
#endif

namespace mublastp::simd::detail {

/// Outcome of one tiered banded gapped extension attempt. tier 1 = the
/// int8 pass produced the (exact) result, tier 2 = the int16 re-run did,
/// tier 0 = both tiers saturated or were ineligible and the caller must
/// run the scalar kernel.
struct BandedOutcome {
  std::optional<GappedExtent> ext;
  std::uint8_t tier = 0;
};

#ifdef MUBLASTP_SIMD_X86

// AVX2 entry points. They are compiled in their own translation unit with
// -mavx2 and must only be called after the CPUID check
// (simd::kernel_supported).

// Striped Smith-Waterman (score only), int16 lanes with saturating
// arithmetic. Returns nullopt when the best score came within one matrix
// entry of int16 saturation — the caller must rerun the scalar kernel (the
// guard makes returned values exact).
std::optional<Score> sw_striped_avx2(std::span<const Residue> query,
                                     std::span<const Residue> subject,
                                     const ScoreMatrix& matrix,
                                     Score gap_open, Score gap_extend);

// Banded gapped x-drop extension, tiered int8 -> int16 saturating lanes
// (see gapped_banded_impl.hpp for the implementation and its exactness
// argument).
BandedOutcome xdrop_banded_avx2(std::span<const Residue> a,
                                std::span<const Residue> b,
                                const ScoreMatrix& matrix, Score gap_open,
                                Score gap_extend, Score xdrop);

// Hit-scan kernels (chunked decode + prefetch + vector two-hit prefilter;
// see hit_prefilter_impl.hpp for the shared scalar spans and exactness
// argument). Tallies pointers may be null.
std::size_t hit_prefilter_avx2(const HitScan& scan, const HitScanFilter& f,
                               HitRecord* out, HitScanTallies* tallies);
std::size_t hit_collect_avx2(const HitScan& scan, HitRecord* out,
                             HitScanTallies* tallies);

#endif  // MUBLASTP_SIMD_X86

}  // namespace mublastp::simd::detail
