// SSE4.2 kernels. Compiled with -msse4.2 (per-file, see CMakeLists.txt);
// entered only after __builtin_cpu_supports("sse4.2").
//
// Same structure as the AVX2 kernels at half the width: the striped
// Smith-Waterman runs 8 int16 lanes and the hit-scan filter 4 key lanes.
// See kernels_avx2.cpp for how each kernel is laid out; the recurrences
// are identical.
#include "simd/simd_internal.hpp"

#ifdef MUBLASTP_SIMD_X86

#include <nmmintrin.h>
#include <smmintrin.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "simd/gapped_banded_impl.hpp"
#include "simd/hit_prefilter_impl.hpp"

namespace mublastp::simd::detail {

// ---------------------------------------------------------------------------
// Striped Smith-Waterman (Farrar), 8 signed int16 lanes.
// ---------------------------------------------------------------------------
namespace {

constexpr int kSwLanes = 8;
constexpr std::int16_t kSwNegInf = -30000;

inline std::int16_t hmax_epi16_128(__m128i v) {
  v = _mm_max_epi16(v, _mm_srli_si128(v, 8));
  v = _mm_max_epi16(v, _mm_srli_si128(v, 4));
  v = _mm_max_epi16(v, _mm_srli_si128(v, 2));
  return static_cast<std::int16_t>(_mm_extract_epi16(v, 0));
}

}  // namespace

std::optional<Score> sw_striped_sse42(std::span<const Residue> query,
                                      std::span<const Residue> subject,
                                      const ScoreMatrix& matrix,
                                      Score gap_open, Score gap_extend) {
  const std::size_t n = query.size();
  const std::size_t m = subject.size();
  const Score open_cost = gap_open + gap_extend;
  if (open_cost >= -kSwNegInf) return std::nullopt;  // pathological params

  const std::size_t segs = (n + kSwLanes - 1) / kSwLanes;
  std::vector<std::int16_t> prof(kAlphabetSize * segs * kSwLanes, 0);
  for (int a = 0; a < kAlphabetSize; ++a) {
    std::int16_t* row = prof.data() + static_cast<std::size_t>(a) * segs *
                                          kSwLanes;
    for (std::size_t l = 0; l < static_cast<std::size_t>(kSwLanes); ++l) {
      for (std::size_t j = 0; j < segs; ++j) {
        const std::size_t i = l * segs + j;
        if (i < n) {
          row[j * kSwLanes + l] = static_cast<std::int16_t>(
              matrix(static_cast<Residue>(a), query[i]));
        }
      }
    }
  }

  std::vector<std::int16_t> h_store(segs * kSwLanes, 0);
  std::vector<std::int16_t> h_load(segs * kSwLanes, 0);
  std::vector<std::int16_t> e(segs * kSwLanes, kSwNegInf);
  const __m128i v_zero = _mm_setzero_si128();
  const __m128i v_open = _mm_set1_epi16(static_cast<std::int16_t>(open_cost));
  const __m128i v_ext = _mm_set1_epi16(static_cast<std::int16_t>(gap_extend));
  __m128i v_max = v_zero;

  for (std::size_t j = 0; j < m; ++j) {
    const std::int16_t* row =
        prof.data() + static_cast<std::size_t>(subject[j]) * segs * kSwLanes;
    __m128i v_f = _mm_set1_epi16(kSwNegInf);
    __m128i v_h = _mm_slli_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(
            h_store.data() + (segs - 1) * kSwLanes)),
        2);
    std::swap(h_store, h_load);
    for (std::size_t k = 0; k < segs; ++k) {
      v_h = _mm_adds_epi16(v_h, _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(row + k * kSwLanes)));
      __m128i v_e = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(e.data() + k * kSwLanes));
      v_h = _mm_max_epi16(v_h, v_e);
      v_h = _mm_max_epi16(v_h, v_f);
      v_h = _mm_max_epi16(v_h, v_zero);
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(h_store.data() + k * kSwLanes), v_h);
      v_max = _mm_max_epi16(v_max, v_h);
      const __m128i v_hoc = _mm_subs_epi16(v_h, v_open);
      v_e = _mm_subs_epi16(v_e, v_ext);
      v_e = _mm_max_epi16(v_e, v_hoc);
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(e.data() + k * kSwLanes), v_e);
      v_f = _mm_subs_epi16(v_f, v_ext);
      v_f = _mm_max_epi16(v_f, v_hoc);
      v_h = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(h_load.data() + k * kSwLanes));
    }
    bool f_active = true;
    for (int rep = 0; rep < kSwLanes && f_active; ++rep) {
      v_f = _mm_slli_si128(v_f, 2);
      v_f = _mm_insert_epi16(v_f, kSwNegInf, 0);
      for (std::size_t k = 0; k < segs; ++k) {
        __m128i v_h2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(h_store.data() + k * kSwLanes));
        v_h2 = _mm_max_epi16(v_h2, v_f);
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(h_store.data() + k * kSwLanes), v_h2);
        v_max = _mm_max_epi16(v_max, v_h2);
        const __m128i v_hoc = _mm_subs_epi16(v_h2, v_open);
        __m128i v_e = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(e.data() + k * kSwLanes));
        v_e = _mm_max_epi16(v_e, v_hoc);
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(e.data() + k * kSwLanes), v_e);
        v_f = _mm_subs_epi16(v_f, v_ext);
        if (_mm_movemask_epi8(_mm_cmpgt_epi16(v_f, v_hoc)) == 0) {
          f_active = false;
          break;
        }
      }
    }
  }

  const std::int16_t best = hmax_epi16_128(v_max);
  if (best >= std::numeric_limits<std::int16_t>::max() - matrix.max_score()) {
    return std::nullopt;
  }
  return static_cast<Score>(best);
}

// ---- Banded gapped x-drop extension ---------------------------------------

namespace {

struct Sse42I8Ops {
  using Cell = std::int8_t;
  static constexpr int kLanes = 16;
  static __m128i loadu(const Cell* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(Cell* p, __m128i v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static __m128i splat(Cell v) { return _mm_set1_epi8(static_cast<char>(v)); }
  static __m128i adds(__m128i a, __m128i b) { return _mm_adds_epi8(a, b); }
  static __m128i subs(__m128i a, __m128i b) { return _mm_subs_epi8(a, b); }
  static __m128i max(__m128i a, __m128i b) { return _mm_max_epi8(a, b); }
};

struct Sse42I16Ops {
  using Cell = std::int16_t;
  static constexpr int kLanes = 8;
  static __m128i loadu(const Cell* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(Cell* p, __m128i v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static __m128i splat(Cell v) { return _mm_set1_epi16(v); }
  static __m128i adds(__m128i a, __m128i b) { return _mm_adds_epi16(a, b); }
  static __m128i subs(__m128i a, __m128i b) { return _mm_subs_epi16(a, b); }
  static __m128i max(__m128i a, __m128i b) { return _mm_max_epi16(a, b); }
};

}  // namespace

BandedOutcome xdrop_banded_sse42(std::span<const Residue> a,
                                 std::span<const Residue> b,
                                 const ScoreMatrix& matrix, Score gap_open,
                                 Score gap_extend, Score xdrop) {
  return banded_xdrop_tiered<Sse42I8Ops, Sse42I16Ops>(a, b, matrix, gap_open,
                                                      gap_extend, xdrop);
}

// --- Hit-scan kernels (PR 8) ------------------------------------------
//
// Same chunked decode -> prefetch -> filter structure as the AVX2 kernels
// at half the tile width. SSE has no gather: the chunk's keys are decoded
// with the shared scalar span, and each filter tile pulls its 4 previous
// last-hit words with independent scalar loads (the memory-level
// parallelism is what the prefetched chunk exists to feed).

namespace {

constexpr int kLanes = 4;  ///< 32-bit keys per filter tile

}  // namespace

std::size_t hit_prefilter_sse42(const HitScan& scan, const HitScanFilter& f,
                                HitRecord* out, HitScanTallies* tallies) {
  const std::int32_t q_raw = f.base + static_cast<std::int32_t>(scan.qoff);
  const __m128i vbase = _mm_set1_epi32(f.base);
  const __m128i vqraw = _mm_set1_epi32(q_raw);
  const __m128i vmin = _mm_set1_epi32(f.min);
  const __m128i vwin = _mm_set1_epi32(f.window);
  alignas(16) std::uint32_t keys[kHitChunk];
  alignas(16) std::int32_t lane_new[kLanes];
  std::size_t cnt = 0;
  std::uint64_t tiles = 0;
  std::uint64_t tail = 0;
  for (std::size_t cbeg = 0; cbeg < scan.count; cbeg += kHitChunk) {
    const std::size_t cn = std::min(kHitChunk, scan.count - cbeg);
    decode_keys_scalar(scan.entries + cbeg, cn, scan.bases, scan.offset_bits,
                       scan.key_add, keys);
    for (std::size_t p = 0; p < cn; ++p) {
      __builtin_prefetch(f.last + keys[p], 1);
    }
    std::size_t i = 0;
    for (; i + kLanes <= cn; i += kLanes) {
      const __m128i vkey =
          _mm_load_si128(reinterpret_cast<const __m128i*>(keys + i));
      const __m128i prev =
          _mm_set_epi32(f.last[keys[i + 3]], f.last[keys[i + 2]],
                        f.last[keys[i + 1]], f.last[keys[i]]);
      const __m128i invalid = _mm_cmpgt_epi32(vbase, prev);
      const __m128i delta = _mm_sub_epi32(vqraw, prev);
      const __m128i lt_min = _mm_cmpgt_epi32(vmin, delta);
      const __m128i lt_win = _mm_cmpgt_epi32(vwin, delta);
      const __m128i overlap = _mm_andnot_si128(invalid, lt_min);
      const __m128i paired =
          _mm_andnot_si128(_mm_or_si128(invalid, overlap), lt_win);
      const __m128i newlast = _mm_blendv_epi8(vqraw, prev, overlap);
      _mm_store_si128(reinterpret_cast<__m128i*>(lane_new), newlast);
      f.last[keys[i]] = lane_new[0];
      f.last[keys[i + 1]] = lane_new[1];
      f.last[keys[i + 2]] = lane_new[2];
      f.last[keys[i + 3]] = lane_new[3];
      unsigned m = static_cast<unsigned>(
          _mm_movemask_ps(_mm_castsi128_ps(paired)));
      while (m) {
        const int j = __builtin_ctz(m);
        out[cnt++] = HitRecord{keys[i + static_cast<std::size_t>(j)],
                               scan.qoff};
        m &= m - 1;
      }
      ++tiles;
    }
    cnt += prefilter_span_scalar(keys + i, cn - i, f.last, f.base, q_raw,
                                 f.min, f.window, scan.qoff, out + cnt);
    tail += cn - i;
  }
  if (tallies) {
    tallies->tiles += tiles;
    tallies->tail_entries += tail;
  }
  return cnt;
}

std::size_t hit_collect_sse42(const HitScan& scan, HitRecord* out,
                              HitScanTallies* tallies) {
  const __m128i vqoff = _mm_set1_epi32(static_cast<int>(scan.qoff));
  alignas(16) std::uint32_t keys[kHitChunk];
  std::size_t written = 0;
  std::uint64_t tiles = 0;
  std::uint64_t tail = 0;
  for (std::size_t cbeg = 0; cbeg < scan.count; cbeg += kHitChunk) {
    const std::size_t cn = std::min(kHitChunk, scan.count - cbeg);
    decode_keys_scalar(scan.entries + cbeg, cn, scan.bases, scan.offset_bits,
                       scan.key_add, keys);
    std::size_t i = 0;
    for (; i + kLanes <= cn; i += kLanes) {
      const __m128i vkey =
          _mm_load_si128(reinterpret_cast<const __m128i*>(keys + i));
      const __m128i lo = _mm_unpacklo_epi32(vkey, vqoff);
      const __m128i hi = _mm_unpackhi_epi32(vkey, vqoff);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + written), lo);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + written + 2), hi);
      written += kLanes;
      ++tiles;
    }
    for (; i < cn; ++i) {
      out[written++] = HitRecord{keys[i], scan.qoff};
      ++tail;
    }
  }
  if (tallies) {
    tallies->tiles += tiles;
    tallies->tail_entries += tail;
  }
  return scan.count;
}

}  // namespace mublastp::simd::detail

#endif  // MUBLASTP_SIMD_X86
