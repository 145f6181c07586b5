// AVX2 kernels. Compiled with -mavx2 (per-file, see CMakeLists.txt);
// entered only after __builtin_cpu_supports("avx2").
//
// The striped Smith-Waterman runs 16 int16 lanes, the banded gapped tiers
// 32 int8 / 16 int16 lanes, and the hit-scan filter 8 key lanes.
#include "simd/simd_internal.hpp"

#ifdef MUBLASTP_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "simd/gapped_banded_impl.hpp"
#include "simd/hit_prefilter_impl.hpp"

namespace mublastp::simd::detail {

// ---------------------------------------------------------------------------
// Striped Smith-Waterman (Farrar), 16 signed int16 lanes.
// ---------------------------------------------------------------------------
namespace {

constexpr int kSwLanes = 16;
constexpr std::int16_t kSwNegInf = -30000;  // headroom under int16 min

/// 256-bit shift left by one int16 lane, zero fill (crosses the 128-bit
/// boundary, unlike _mm256_slli_si256).
inline __m256i shiftl_one_epi16(__m256i v) {
  const __m256i lo = _mm256_permute2x128_si256(v, v, 0x08);  // [0, v.lo]
  return _mm256_alignr_epi8(v, lo, 14);
}

inline std::int16_t hmax_epi16_256(__m256i v) {
  __m128i x = _mm_max_epi16(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  x = _mm_max_epi16(x, _mm_srli_si128(x, 8));
  x = _mm_max_epi16(x, _mm_srli_si128(x, 4));
  x = _mm_max_epi16(x, _mm_srli_si128(x, 2));
  return static_cast<std::int16_t>(_mm_extract_epi16(x, 0));
}

}  // namespace

std::optional<Score> sw_striped_avx2(std::span<const Residue> query,
                                     std::span<const Residue> subject,
                                     const ScoreMatrix& matrix,
                                     Score gap_open, Score gap_extend) {
  const std::size_t n = query.size();
  const std::size_t m = subject.size();
  const Score open_cost = gap_open + gap_extend;
  if (open_cost >= -kSwNegInf) return std::nullopt;  // pathological params

  const std::size_t segs = (n + kSwLanes - 1) / kSwLanes;
  // Striped profile: lane l of vector j holds matrix(a, query[l*segs + j]).
  // Padding positions (l*segs + j >= n) score 0; their H values only ever
  // feed other padding positions, never a real cell (they occupy the tail
  // lanes, and lane l's carry enters lane l+1 at position (l+1)*segs, which
  // is itself past the query end whenever lane l held padding).
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
  const __m256i v_zero = _mm256_setzero_si256();
  const __m256i v_open = _mm256_set1_epi16(static_cast<std::int16_t>(open_cost));
  const __m256i v_ext = _mm256_set1_epi16(static_cast<std::int16_t>(gap_extend));
  __m256i v_max = v_zero;

  for (std::size_t j = 0; j < m; ++j) {
    const std::int16_t* row =
        prof.data() + static_cast<std::size_t>(subject[j]) * segs * kSwLanes;
    __m256i v_f = _mm256_set1_epi16(kSwNegInf);
    // Diagonal carry: previous column's last vector shifted one lane up;
    // lane 0 becomes the H[-1] = 0 boundary of local alignment.
    __m256i v_h = shiftl_one_epi16(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(h_store.data() +
                                         (segs - 1) * kSwLanes)));
    std::swap(h_store, h_load);
    for (std::size_t k = 0; k < segs; ++k) {
      v_h = _mm256_adds_epi16(v_h, _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(row + k * kSwLanes)));
      __m256i v_e = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(e.data() + k * kSwLanes));
      v_h = _mm256_max_epi16(v_h, v_e);
      v_h = _mm256_max_epi16(v_h, v_f);
      v_h = _mm256_max_epi16(v_h, v_zero);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(h_store.data() + k * kSwLanes), v_h);
      v_max = _mm256_max_epi16(v_max, v_h);
      const __m256i v_hoc = _mm256_subs_epi16(v_h, v_open);
      v_e = _mm256_subs_epi16(v_e, v_ext);
      v_e = _mm256_max_epi16(v_e, v_hoc);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(e.data() + k * kSwLanes), v_e);
      v_f = _mm256_subs_epi16(v_f, v_ext);
      v_f = _mm256_max_epi16(v_f, v_hoc);
      v_h = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(h_load.data() + k * kSwLanes));
    }
    // Lazy-F correction: keep pushing F down the column until it can no
    // longer raise any H. E is refreshed from the raised H so the next
    // column sees the true recurrence value.
    bool f_active = true;
    for (int rep = 0; rep < kSwLanes && f_active; ++rep) {
      v_f = shiftl_one_epi16(v_f);
      v_f = _mm256_insert_epi16(v_f, kSwNegInf, 0);
      for (std::size_t k = 0; k < segs; ++k) {
        __m256i v_h2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(h_store.data() + k * kSwLanes));
        v_h2 = _mm256_max_epi16(v_h2, v_f);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(h_store.data() + k * kSwLanes), v_h2);
        v_max = _mm256_max_epi16(v_max, v_h2);
        const __m256i v_hoc = _mm256_subs_epi16(v_h2, v_open);
        __m256i v_e = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(e.data() + k * kSwLanes));
        v_e = _mm256_max_epi16(v_e, v_hoc);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(e.data() + k * kSwLanes), v_e);
        v_f = _mm256_subs_epi16(v_f, v_ext);
        if (_mm256_movemask_epi8(_mm256_cmpgt_epi16(v_f, v_hoc)) == 0) {
          f_active = false;
          break;
        }
      }
    }
  }

  const std::int16_t best = hmax_epi16_256(v_max);
  if (best >= std::numeric_limits<std::int16_t>::max() - matrix.max_score()) {
    return std::nullopt;  // would have saturated: caller reruns scalar
  }
  return static_cast<Score>(best);
}

// ---- Banded gapped x-drop extension ---------------------------------------

namespace {

struct Avx2I8Ops {
  using Cell = std::int8_t;
  static constexpr int kLanes = 32;
  static __m256i loadu(const Cell* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(Cell* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static __m256i splat(Cell v) {
    return _mm256_set1_epi8(static_cast<char>(v));
  }
  static __m256i adds(__m256i a, __m256i b) { return _mm256_adds_epi8(a, b); }
  static __m256i subs(__m256i a, __m256i b) { return _mm256_subs_epi8(a, b); }
  static __m256i max(__m256i a, __m256i b) { return _mm256_max_epi8(a, b); }
};

struct Avx2I16Ops {
  using Cell = std::int16_t;
  static constexpr int kLanes = 16;
  static __m256i loadu(const Cell* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(Cell* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static __m256i splat(Cell v) { return _mm256_set1_epi16(v); }
  static __m256i adds(__m256i a, __m256i b) { return _mm256_adds_epi16(a, b); }
  static __m256i subs(__m256i a, __m256i b) { return _mm256_subs_epi16(a, b); }
  static __m256i max(__m256i a, __m256i b) { return _mm256_max_epi16(a, b); }
};

}  // namespace

BandedOutcome xdrop_banded_avx2(std::span<const Residue> a,
                                std::span<const Residue> b,
                                const ScoreMatrix& matrix, Score gap_open,
                                Score gap_extend, Score xdrop) {
  return banded_xdrop_tiered<Avx2I8Ops, Avx2I16Ops>(a, b, matrix, gap_open,
                                                    gap_extend, xdrop);
}

// --- Hit-scan kernels (PR 8) ------------------------------------------
//
// Chunked: each kHitChunk-entry chunk is decoded to diagonal keys first
// (vector shift/and + one bases gather per 8 entries), issuing a software
// prefetch for every last-hit line the chunk will touch, then the two-hit
// prefilter runs 8 keys per tile against lines that are already in
// flight. Keys within one posting scan are strictly ascending and
// distinct (HitScan precondition), so the gather/scatter tiles are
// conflict-free and the scatter is 8 independent scalar stores.

namespace {

constexpr int kLanes = 8;  ///< 32-bit keys per filter tile

}  // namespace

std::size_t hit_prefilter_avx2(const HitScan& scan, const HitScanFilter& f,
                               HitRecord* out, HitScanTallies* tallies) {
  const std::int32_t q_raw = f.base + static_cast<std::int32_t>(scan.qoff);
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(scan.offset_bits));
  const __m256i vmask =
      _mm256_set1_epi32(static_cast<int>((1u << scan.offset_bits) - 1u));
  const __m256i vadd = _mm256_set1_epi32(static_cast<int>(scan.key_add));
  const __m256i vbase = _mm256_set1_epi32(f.base);
  const __m256i vqraw = _mm256_set1_epi32(q_raw);
  const __m256i vmin = _mm256_set1_epi32(f.min);
  const __m256i vwin = _mm256_set1_epi32(f.window);
  alignas(32) std::uint32_t keys[kHitChunk];
  alignas(32) std::int32_t lane_keys[kLanes];
  alignas(32) std::int32_t lane_new[kLanes];
  std::size_t cnt = 0;
  std::uint64_t tiles = 0;
  std::uint64_t tail = 0;
  for (std::size_t cbeg = 0; cbeg < scan.count; cbeg += kHitChunk) {
    const std::size_t cn = std::min(kHitChunk, scan.count - cbeg);
    const std::uint32_t* ent = scan.entries + cbeg;
    // Phase A: decode the chunk's keys, prefetching their last-hit lines.
    std::size_t i = 0;
    for (; i + kLanes <= cn; i += kLanes) {
      const __m256i e = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ent + i));
      const __m256i frag = _mm256_srl_epi32(e, vshift);
      const __m256i soff = _mm256_and_si256(e, vmask);
      const __m256i kb = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(scan.bases), frag, 4);
      const __m256i key = _mm256_add_epi32(kb, _mm256_add_epi32(soff, vadd));
      _mm256_store_si256(reinterpret_cast<__m256i*>(keys + i), key);
    }
    if (i < cn) decode_keys_scalar(ent + i, cn - i, scan.bases,
                                   scan.offset_bits, scan.key_add, keys + i);
    for (std::size_t p = 0; p < cn; ++p) {
      __builtin_prefetch(f.last + keys[p], 1);
    }
    // Phase B: vector two-hit prefilter over the decoded keys.
    i = 0;
    for (; i + kLanes <= cn; i += kLanes) {
      const __m256i vkey =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(keys + i));
      // Eight independent scalar loads beat vpgatherdd here: the lines are
      // already in flight from phase A's prefetches, and the gathered
      // addresses are reused immediately below for the scatter anyway.
      const __m256i prev = _mm256_setr_epi32(
          f.last[keys[i]], f.last[keys[i + 1]], f.last[keys[i + 2]],
          f.last[keys[i + 3]], f.last[keys[i + 4]], f.last[keys[i + 5]],
          f.last[keys[i + 6]], f.last[keys[i + 7]]);
      const __m256i invalid = _mm256_cmpgt_epi32(vbase, prev);
      const __m256i delta = _mm256_sub_epi32(vqraw, prev);
      const __m256i lt_min = _mm256_cmpgt_epi32(vmin, delta);
      const __m256i lt_win = _mm256_cmpgt_epi32(vwin, delta);
      const __m256i overlap = _mm256_andnot_si256(invalid, lt_min);
      const __m256i paired = _mm256_andnot_si256(
          _mm256_or_si256(invalid, overlap), lt_win);
      const __m256i newlast = _mm256_blendv_epi8(vqraw, prev, overlap);
      _mm256_store_si256(reinterpret_cast<__m256i*>(lane_keys), vkey);
      _mm256_store_si256(reinterpret_cast<__m256i*>(lane_new), newlast);
      for (int j = 0; j < kLanes; ++j) f.last[lane_keys[j]] = lane_new[j];
      unsigned m = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(paired)));
      while (m) {
        const int j = __builtin_ctz(m);
        out[cnt++] = HitRecord{keys[i + static_cast<std::size_t>(j)],
                               scan.qoff};
        m &= m - 1;
      }
      ++tiles;
    }
    // 4-lane sub-tile: posting lists are often shorter than one 8-lane
    // tile (a few entries per word is the common case), so the 4..7-entry
    // remainder still runs vectorized instead of falling to the tail.
    for (; i + 4 <= cn; i += 4) {
      const __m128i prev =
          _mm_set_epi32(f.last[keys[i + 3]], f.last[keys[i + 2]],
                        f.last[keys[i + 1]], f.last[keys[i]]);
      const __m128i vbase4 = _mm256_castsi256_si128(vbase);
      const __m128i vqraw4 = _mm256_castsi256_si128(vqraw);
      const __m128i invalid = _mm_cmpgt_epi32(vbase4, prev);
      const __m128i delta = _mm_sub_epi32(vqraw4, prev);
      const __m128i lt_min =
          _mm_cmpgt_epi32(_mm256_castsi256_si128(vmin), delta);
      const __m128i lt_win =
          _mm_cmpgt_epi32(_mm256_castsi256_si128(vwin), delta);
      const __m128i overlap = _mm_andnot_si128(invalid, lt_min);
      const __m128i paired =
          _mm_andnot_si128(_mm_or_si128(invalid, overlap), lt_win);
      const __m128i newlast = _mm_blendv_epi8(vqraw4, prev, overlap);
      _mm_store_si128(reinterpret_cast<__m128i*>(lane_new), newlast);
      for (int j = 0; j < 4; ++j) f.last[keys[i + j]] = lane_new[j];
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

std::size_t hit_collect_avx2(const HitScan& scan, HitRecord* out,
                             HitScanTallies* tallies) {
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(scan.offset_bits));
  const __m256i vmask =
      _mm256_set1_epi32(static_cast<int>((1u << scan.offset_bits) - 1u));
  const __m256i vadd = _mm256_set1_epi32(static_cast<int>(scan.key_add));
  const __m256i vqoff = _mm256_set1_epi32(static_cast<int>(scan.qoff));
  std::size_t i = 0;
  std::uint64_t tiles = 0;
  for (; i + kLanes <= scan.count; i += kLanes) {
    const __m256i e = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(scan.entries + i));
    const __m256i frag = _mm256_srl_epi32(e, vshift);
    const __m256i soff = _mm256_and_si256(e, vmask);
    const __m256i kb = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(scan.bases), frag, 4);
    const __m256i key = _mm256_add_epi32(kb, _mm256_add_epi32(soff, vadd));
    // Interleave (key, qoff) pairs: unpack within 128-bit halves, then fix
    // the half order so records land in entry order.
    const __m256i lo = _mm256_unpacklo_epi32(key, vqoff);
    const __m256i hi = _mm256_unpackhi_epi32(key, vqoff);
    const __m256i r0 = _mm256_permute2x128_si256(lo, hi, 0x20);
    const __m256i r1 = _mm256_permute2x128_si256(lo, hi, 0x31);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), r1);
    ++tiles;
  }
  const std::uint32_t mask = (1u << scan.offset_bits) - 1u;
  for (; i < scan.count; ++i) {
    const std::uint32_t e = scan.entries[i];
    out[i] = HitRecord{
        scan.bases[e >> scan.offset_bits] + (e & mask) + scan.key_add,
        scan.qoff};
    if (tallies) ++tallies->tail_entries;
  }
  if (tallies) tallies->tiles += tiles;
  return scan.count;
}

}  // namespace mublastp::simd::detail

#endif  // MUBLASTP_SIMD_X86
