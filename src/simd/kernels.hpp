// Public SIMD kernel API: dispatched hit detection (the two-hit prefilter
// and the Algorithm 1 collect scan), the banded gapped x-drop extension and
// the striped Smith-Waterman score.
//
// Every entry point takes an explicit KernelPath so engines resolve the
// path once at construction; passing KernelPath::kScalar routes to the
// unchanged reference kernels, so forced-scalar runs execute exactly the
// pre-SIMD code. All paths are bit-identical — the repo's verify tool and
// equivalence tests assert it.
#pragma once

#include <optional>
#include <span>

#include "common/alphabet.hpp"
#include "core/hit_record.hpp"
#include "score/matrix.hpp"
#include "simd/dispatch.hpp"

namespace mublastp::simd {

/// Result of one banded gapped x-drop extension half: the best score and
/// how many residues of each sequence the best path consumed — the
/// (score, q_len, s_len) triple of core/gapped.hpp's GappedHalf.
struct GappedExtent {
  Score score = 0;
  std::uint32_t a_len = 0;
  std::uint32_t b_len = 0;
};

/// Which tier of the banded gapped kernel produced each extension. The
/// tier choice is value-driven (saturation of the running best), so these
/// do not depend on the thread split — and are all zero on scalar runs.
struct GappedKernelCounters {
  std::uint64_t int8_runs = 0;        ///< int8 first pass sufficed
  std::uint64_t int16_reruns = 0;     ///< int8 saturated; int16 re-ran it
  std::uint64_t scalar_fallbacks = 0; ///< both tiers declined; scalar ran

  friend bool operator==(const GappedKernelCounters&,
                         const GappedKernelCounters&) = default;
};

/// Banded gapped x-drop extension (score-only) via the tiered saturating
/// int8/int16 kernel: an int8 pass over the adaptive band first, an int16
/// re-run only when the running best saturated. Returns nullopt when the
/// caller must use the scalar xdrop_extend instead: path == kScalar, a
/// non-x86 build, or even the int16 tier saturating. A returned value is
/// bit-identical to the scalar kernel's (score, q_len, s_len). Counter
/// increments (when `counters` is non-null) record which tier answered.
std::optional<GappedExtent> xdrop_extend_banded(
    KernelPath path, std::span<const Residue> a, std::span<const Residue> b,
    const ScoreMatrix& matrix, Score gap_open, Score gap_extend, Score xdrop,
    GappedKernelCounters* counters = nullptr);

/// One posting-list scan for the hit-detection kernels: the packed entries
/// of one neighbor word at one query offset, plus everything needed to
/// decode each entry to its dense diagonal key
///   key = bases[entry >> offset_bits] + (entry & mask) + key_add
/// with key_add = qlen - qoff (unsigned wraparound — identical to the
/// engines' int64 form since soff - qoff + qlen >= kWordLength > 0).
///
/// Precondition the vector kernels rely on: within one scan the decoded
/// keys are pairwise DISTINCT, so gather/scatter tiles over the last-hit
/// array are conflict-free. One posting list satisfies this with ascending
/// keys (entries are (fragment, offset) ascending and the per-fragment
/// bases leave headroom of qlen+1 keys); the engines' fused per-qoff scan
/// concatenates several lists, which stays distinct — different words
/// index disjoint (fragment, offset) sets — though no longer sorted.
struct HitScan {
  const std::uint32_t* entries = nullptr;  ///< packed posting entries
  std::size_t count = 0;
  const std::uint32_t* bases = nullptr;  ///< per-fragment diagonal key bases
  std::uint32_t offset_bits = 0;  ///< entry = fragment << offset_bits | soff
  std::uint32_t qoff = 0;         ///< query offset being scanned
  std::uint32_t key_add = 0;      ///< qlen - qoff
};

/// The two-hit automaton state for hit_scan_prefilter, in DiagState's raw
/// epoch-stamped representation (DiagState::raw_last / base): an entry is
/// valid this round iff last[key] >= base, and a recorded offset q is
/// stored as base + q. The kernels preserve that representation exactly.
struct HitScanFilter {
  std::int32_t* last = nullptr;  ///< DiagState::raw_last()
  std::int32_t base = 0;         ///< DiagState::base()
  std::int32_t min = 0;          ///< overlap bound W (SearchParams::two_hit_min)
  std::int32_t window = 0;       ///< pairing window A (two_hit_window)
};

/// Vector-tile vs scalar-tail split of the hit-scan kernels, surfaced in
/// the optional stats-v1 "hit_kernel" object. Lane widths differ between
/// paths (the AVX2 prefilter also runs 4-lane sub-tiles on short
/// remainders), so these are telemetry only — never compared across
/// kernels.
struct HitScanTallies {
  std::uint64_t tiles = 0;         ///< vector tiles processed (any width)
  std::uint64_t tail_entries = 0;  ///< entries handled by the scalar tail
};

/// Algorithm 2 hit detection over one posting list: decodes every entry's
/// diagonal key and runs the two-hit automaton (overlap-ignore, last-hit
/// update, pairing window) against `filter`, appending one HitRecord per
/// *paired* hit to `out` in entry order. Returns the number of records
/// written; `out` must have room for scan.count records (the kernels write
/// compaction slots unconditionally). Bit-identical to the engines' scalar
/// detection loop for every path, including the last-hit array contents.
std::size_t hit_scan_prefilter(KernelPath path, const HitScan& scan,
                               const HitScanFilter& filter, HitRecord* out,
                               HitScanTallies* tallies = nullptr);

/// Algorithm 1 hit detection over one posting list: decodes every entry's
/// diagonal key and appends all scan.count records to `out` in entry
/// order. Returns scan.count.
std::size_t hit_scan_collect(KernelPath path, const HitScan& scan,
                             HitRecord* out,
                             HitScanTallies* tallies = nullptr);

/// Smith-Waterman best local score via the Farrar striped int16 kernel.
/// Returns nullopt when the caller must use its scalar kernel instead:
/// path == kScalar, an empty input, or the exactness guard tripping (best
/// score within one matrix entry of int16 saturation). A returned value is
/// exact — identical to the scalar rolling-row kernel.
std::optional<Score> smith_waterman_score_striped(
    KernelPath path, std::span<const Residue> query,
    std::span<const Residue> subject, const ScoreMatrix& matrix,
    Score gap_open, Score gap_extend);

}  // namespace mublastp::simd
