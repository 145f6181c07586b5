#include "simd/kernels.hpp"

#include "simd/hit_prefilter_impl.hpp"
#include "simd/simd_internal.hpp"

namespace mublastp::simd {

std::size_t hit_scan_prefilter(KernelPath path, const HitScan& scan,
                               const HitScanFilter& filter, HitRecord* out,
                               HitScanTallies* tallies) {
#ifdef MUBLASTP_SIMD_X86
  if (path == KernelPath::kAvx2) {
    return detail::hit_prefilter_avx2(scan, filter, out, tallies);
  }
#endif
  if (tallies) tallies->tail_entries += scan.count;
  return detail::hit_prefilter_scalar_impl(scan, filter, out);
}

std::size_t hit_scan_collect(KernelPath path, const HitScan& scan,
                             HitRecord* out, HitScanTallies* tallies) {
#ifdef MUBLASTP_SIMD_X86
  if (path == KernelPath::kAvx2) {
    return detail::hit_collect_avx2(scan, out, tallies);
  }
#endif
  if (tallies) tallies->tail_entries += scan.count;
  return detail::hit_collect_scalar_impl(scan, out);
}

std::optional<GappedExtent> xdrop_extend_banded(
    KernelPath path, std::span<const Residue> a, std::span<const Residue> b,
    const ScoreMatrix& matrix, Score gap_open, Score gap_extend, Score xdrop,
    GappedKernelCounters* counters) {
#ifdef MUBLASTP_SIMD_X86
  if (path == KernelPath::kScalar) return std::nullopt;
  const detail::BandedOutcome out =
      detail::xdrop_banded_avx2(a, b, matrix, gap_open, gap_extend, xdrop);
  if (counters) {
    if (out.tier == 1) {
      ++counters->int8_runs;
    } else if (out.tier == 2) {
      ++counters->int16_reruns;
    } else {
      ++counters->scalar_fallbacks;
    }
  }
  return out.ext;
#else
  (void)path;
  (void)a;
  (void)b;
  (void)matrix;
  (void)gap_open;
  (void)gap_extend;
  (void)xdrop;
  (void)counters;
  return std::nullopt;
#endif
}

std::optional<Score> smith_waterman_score_striped(
    KernelPath path, std::span<const Residue> query,
    std::span<const Residue> subject, const ScoreMatrix& matrix,
    Score gap_open, Score gap_extend) {
#ifdef MUBLASTP_SIMD_X86
  if (path == KernelPath::kScalar || query.empty() || subject.empty()) {
    return std::nullopt;
  }
  return detail::sw_striped_avx2(query, subject, matrix, gap_open,
                                 gap_extend);
#else
  (void)path;
  (void)query;
  (void)subject;
  (void)matrix;
  (void)gap_open;
  (void)gap_extend;
  return std::nullopt;
#endif
}

}  // namespace mublastp::simd
