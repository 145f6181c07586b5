// Implementation of the banded tiered int8/int16 gapped x-drop kernel,
// instantiated by kernels_avx2.cpp with its int8 and int16 vector-ops
// traits.
//
// The kernel computes exactly the adaptive-band affine-gap x-drop DP of
// core/gapped.cpp (score-only), with two changes of representation that
// remove its irregularities without changing any observable value:
//
//   - Cells live in flat arrays of a small integer type (int8 first,
//     int16 on overflow) indexed by absolute column, instead of per-row
//     std::vectors with band-offset lambdas. "Outside the band" and
//     "pruned" collapse into one dead sentinel, the type's minimum value,
//     which saturating arithmetic makes absorbing: subtracting a positive
//     gap cost from dead stays dead, and adding a matrix entry to dead
//     cannot climb back above the x-drop survival threshold (the tier
//     eligibility rule below guarantees it). So band-bounds checks vanish
//     from the inner loop.
//
//   - Each row is split into a data-parallel phase and a serial phase.
//     Phase A evaluates the vertical (F) and diagonal recurrences for the
//     whole band with saturating vector adds/subs/max — these depend only
//     on the previous row. Phase B walks the band once, serially, adding
//     the horizontal (E) chain, the x-drop prune, band bookkeeping and the
//     best-cell update — the exact control flow of the scalar kernel, on
//     values the vectors produced.
//
// Exactness argument (why every returned value is bit-identical to the
// scalar kernel): saturating arithmetic only clamps at the type limits.
// A bottom-clamped value equals the dead sentinel, and the true value it
// replaced was even lower; both are below the x-drop survival threshold
// (best - xdrop >= -xdrop > dead + max_matrix_score, by eligibility), so
// both would be pruned to dead — the observable state is identical. A
// top-clamped value saturates the running best at the type maximum, which
// is precisely the overflow trigger: the whole pass is discarded and the
// next tier re-runs it. Every surviving cell is therefore exact.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/alphabet.hpp"
#include "score/matrix.hpp"
#include "simd/kernels.hpp"
#include "simd/simd_internal.hpp"

namespace mublastp::simd::detail {

/// Row stride of the lane-width matrix copy: 32 >= kAlphabetSize slots per
/// row, so a row base is a shift of the residue, not a multiply.
inline constexpr int kResidueShift = 5;
inline constexpr std::uint32_t kProfileStride = 1u << kResidueShift;

/// A tier is eligible when its arithmetic provably reproduces the scalar
/// DP: every matrix entry is representable, gap costs fit a lane, and the
/// dead sentinel cannot be revived above the x-drop survival threshold
/// (dead + max_score < -xdrop, i.e. xdrop + max_score <= lane max).
template <class Cell>
inline bool banded_tier_eligible(const ScoreMatrix& matrix, Score gap_open,
                                 Score gap_extend, Score xdrop) {
  constexpr std::int64_t kMax = std::numeric_limits<Cell>::max();
  constexpr std::int64_t kMin = std::numeric_limits<Cell>::min();
  if (gap_open < 0 || gap_extend <= 0 || xdrop < 0) return false;
  const std::int64_t open_cost =
      static_cast<std::int64_t>(gap_open) + gap_extend;
  return static_cast<std::int64_t>(xdrop) + matrix.max_score() <= kMax &&
         open_cost <= kMax && gap_extend <= kMax &&
         matrix.max_score() <= kMax && matrix.min_score() >= kMin;
}

template <class Cell>
inline Cell sat_cell(std::int64_t v) {
  constexpr std::int64_t kMax = std::numeric_limits<Cell>::max();
  constexpr std::int64_t kMin = std::numeric_limits<Cell>::min();
  return static_cast<Cell>(v < kMin ? kMin : (v > kMax ? kMax : v));
}

/// Flat per-thread DP rows, grown monotonically; idx(j) = j + 1 so the
/// virtual column -1 has a slot, plus one vector of slack for the phase-A
/// overshoot (lanes past the band are computed and ignored).
template <class Cell>
struct BandedWorkspace {
  std::vector<Cell> h, f, t, mrow;
  void ensure(std::size_t m, std::size_t lanes) {
    const std::size_t need = m + 2 + lanes;
    if (h.size() < need) {
      h.resize(need);
      f.resize(need);
      t.resize(need);
      mrow.resize(need);
    }
  }
};

/// Lane-width copy of the score matrix, row stride kProfileStride so the
/// row base is a shift. Rebuilt only when the matrix changes (engines use
/// one matrix per search, so this is one 24x24 copy per thread in
/// practice). Eligibility has already checked every entry fits Cell.
template <class Cell>
struct BandedMatrixCache {
  const ScoreMatrix* built_for = nullptr;
  std::array<Cell, static_cast<std::size_t>(kAlphabetSize) * kProfileStride>
      rows{};

  const Cell* get(const ScoreMatrix& matrix) {
    if (built_for != &matrix) {
      for (int q = 0; q < kAlphabetSize; ++q) {
        for (int s = 0; s < kAlphabetSize; ++s) {
          rows[(static_cast<std::size_t>(q) << kResidueShift) |
               static_cast<std::size_t>(s)] = static_cast<Cell>(
              matrix(static_cast<Residue>(q), static_cast<Residue>(s)));
        }
      }
      built_for = &matrix;
    }
    return rows.data();
  }
};

/// One tier of the banded DP. `Ops` supplies the lane type and saturating
/// vector primitives (see the traits in kernels_avx2.cpp).
/// Returns the extent and sets `overflowed` when the running best hit the
/// lane maximum — the result must then be discarded and the next tier run.
template <class Ops>
GappedExtent banded_xdrop_tier(std::span<const Residue> a,
                               std::span<const Residue> b,
                               const ScoreMatrix& matrix, Score gap_open,
                               Score gap_extend, Score xdrop,
                               bool& overflowed) {
  using Cell = typename Ops::Cell;
  constexpr int kLanes = Ops::kLanes;
  constexpr std::int64_t kDead = std::numeric_limits<Cell>::min();
  constexpr std::int64_t kSat = std::numeric_limits<Cell>::max();

  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  const std::int64_t open_cost =
      static_cast<std::int64_t>(gap_open) + gap_extend;

  thread_local BandedWorkspace<Cell> ws;
  thread_local BandedMatrixCache<Cell> cache;
  ws.ensure(static_cast<std::size_t>(m), kLanes);
  Cell* H = ws.h.data();  // H[j + 1] = previous row's H at column j
  Cell* F = ws.f.data();
  Cell* T = ws.t.data();  // phase-A output: max(diagonal, F) per column
  Cell* MR = ws.mrow.data();  // MR[j] = matrix(a[i-1], b[j-1])
  const Cell* mat = cache.get(matrix);

  overflowed = false;

  // Row 0: pure horizontal gap runs, exactly the scalar loop. Values are
  // >= -xdrop, which eligibility guarantees fits a lane.
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  H[0] = static_cast<Cell>(kDead);  // virtual column -1
  H[1] = 0;
  F[1] = static_cast<Cell>(kDead);
  for (std::int64_t j = 1; j <= m; ++j) {
    const std::int64_t v = -(gap_open + j * gap_extend);
    if (-v > xdrop) break;
    H[j + 1] = static_cast<Cell>(v);
    F[j + 1] = static_cast<Cell>(kDead);
    hi = j;
  }
  // The next row reads one column past the band; make it dead explicitly
  // (later rows leave a dead cell there as part of their scan).
  if (hi + 1 <= m) {
    H[hi + 2] = static_cast<Cell>(kDead);
    F[hi + 2] = static_cast<Cell>(kDead);
  }

  std::int64_t best = 0;
  std::int64_t best_i = 0;
  std::int64_t best_j = 0;

  const auto voc = Ops::splat(static_cast<Cell>(open_cost));
  const auto vge = Ops::splat(static_cast<Cell>(gap_extend));

  for (std::int64_t i = 1; i <= n; ++i) {
    // Columns the previous row can feed diagonally/vertically end at
    // hi + 1; beyond that only the horizontal E run can stay alive.
    const std::int64_t ta_hi = std::min(hi + 1, m);

    // Gather this row's matrix entries for the band.
    const Cell* row =
        mat + (static_cast<std::size_t>(a[static_cast<std::size_t>(i - 1)])
               << kResidueShift);
    for (std::int64_t j = std::max<std::int64_t>(lo, 1); j <= ta_hi; ++j) {
      MR[j] = row[b[static_cast<std::size_t>(j - 1)]];
    }

    H[lo] = static_cast<Cell>(kDead);  // virtual column lo - 1

    // Phase A: F and diagonal candidates for the whole band. Column 0 has
    // no diagonal (and no subject residue), so it is peeled off.
    std::int64_t ja = lo;
    if (ja == 0) {
      const std::int64_t fn =
          std::max(sat_cell<Cell>(static_cast<std::int64_t>(H[1]) - open_cost),
                   sat_cell<Cell>(static_cast<std::int64_t>(F[1]) - gap_extend));
      F[1] = static_cast<Cell>(fn);
      T[1] = static_cast<Cell>(fn);
      ja = 1;
    }
    for (std::int64_t j = ja; j <= ta_hi; j += kLanes) {
      const auto hprev = Ops::loadu(H + j);      // H at column j-1
      const auto hcur = Ops::loadu(H + j + 1);   // H at column j
      const auto fcur = Ops::loadu(F + j + 1);
      const auto mr = Ops::loadu(MR + j);
      const auto diag = Ops::adds(hprev, mr);
      const auto fnew = Ops::max(Ops::subs(hcur, voc), Ops::subs(fcur, vge));
      Ops::storeu(F + j + 1, fnew);
      Ops::storeu(T + j + 1, Ops::max(diag, fnew));
    }

    // Phase B: the serial E chain, x-drop prune and band bookkeeping —
    // the scalar kernel's control flow verbatim. Saturating scalar math
    // matches the vector lanes bit-for-bit.
    std::int64_t cur_lo = -1;
    std::int64_t cur_hi = -2;
    std::int64_t h_left = kDead;
    std::int64_t e_run = kDead;
    for (std::int64_t j = lo; j <= m; ++j) {
      const std::int64_t e =
          std::max(sat_cell<Cell>(h_left - open_cost),
                   sat_cell<Cell>(e_run - gap_extend));
      std::int64_t h = kDead;
      std::int64_t fv = kDead;
      if (j <= ta_hi) {
        h = T[j + 1];
        fv = F[j + 1];
      }
      if (e > h) h = e;

      const bool alive = h >= best - xdrop;
      std::int64_t e_out = e;
      if (!alive) {
        h = kDead;
        e_out = kDead;
        fv = kDead;
      }
      H[j + 1] = static_cast<Cell>(h);
      F[j + 1] = static_cast<Cell>(fv);

      if (alive) {
        if (cur_lo == -1) cur_lo = j;
        cur_hi = j;
        if (h > best) {
          best = h;
          best_i = i;
          best_j = j;
        }
      }
      h_left = h;
      e_run = e_out;

      if (j > hi && !alive) break;
    }

    if (cur_lo == -1) break;  // band died entirely: extension finished
    lo = cur_lo;
    hi = cur_hi;
    if (best == kSat) {
      overflowed = true;
      return {};
    }
  }

  GappedExtent ext;
  ext.score = static_cast<Score>(best);
  ext.a_len = static_cast<std::uint32_t>(best_i);
  ext.b_len = static_cast<std::uint32_t>(best_j);
  return ext;
}

/// Tier driver of the AVX2 entry point: int8 first, int16 only when
/// the int8 pass saturated (or was ineligible), scalar fallback when even
/// int16 cannot represent the result.
template <class Ops8, class Ops16>
BandedOutcome banded_xdrop_tiered(std::span<const Residue> a,
                                  std::span<const Residue> b,
                                  const ScoreMatrix& matrix, Score gap_open,
                                  Score gap_extend, Score xdrop) {
  BandedOutcome out;
  bool overflowed = false;
  if (banded_tier_eligible<typename Ops8::Cell>(matrix, gap_open, gap_extend,
                                                xdrop)) {
    const GappedExtent ext = banded_xdrop_tier<Ops8>(
        a, b, matrix, gap_open, gap_extend, xdrop, overflowed);
    if (!overflowed) {
      out.ext = ext;
      out.tier = 1;
      return out;
    }
  }
  if (banded_tier_eligible<typename Ops16::Cell>(matrix, gap_open, gap_extend,
                                                 xdrop)) {
    const GappedExtent ext = banded_xdrop_tier<Ops16>(
        a, b, matrix, gap_open, gap_extend, xdrop, overflowed);
    if (!overflowed) {
      out.ext = ext;
      out.tier = 2;
      return out;
    }
  }
  return out;  // tier 0: caller runs the scalar kernel
}

}  // namespace mublastp::simd::detail
