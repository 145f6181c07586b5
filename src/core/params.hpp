// Search parameters and result types shared by every engine.
//
// All three engines (query-indexed "NCBI", interleaved database-indexed
// "NCBI-db", and muBLASTP) consume the same SearchParams and produce the
// same result types, so the paper's Section V-E verification — identical
// outputs at every stage — is checkable by direct comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sequence.hpp"
#include "score/matrix.hpp"

namespace mublastp {

/// Heuristic and scoring parameters (defaults are the BLASTP defaults the
/// paper uses: W=3, T=11, two-hit window A=40, BLOSUM62, gap 11/1).
struct SearchParams {
  /// Substitution matrix. Must match the matrix the database index's
  /// neighbor table was built with (engines check this).
  const ScoreMatrix* matrix = &blosum62();
  /// Two-hit window A: second hit must lie within this many query positions
  /// of the previous hit on the same diagonal to trigger an extension.
  std::int32_t two_hit_window = 40;
  /// Minimum diagonal distance for a pair (NCBI semantics: hits closer than
  /// the word length overlap the previous hit and are ignored entirely —
  /// they neither pair nor advance the last-hit position).
  std::int32_t two_hit_min = kWordLength;
  /// X-drop for ungapped extension (raw score units).
  Score ungapped_xdrop = 16;
  /// Minimum ungapped score to become a high-scoring segment (and seed the
  /// gapped stage).
  Score ungapped_cutoff = 38;
  /// Affine gap penalties (open includes the first extension, NCBI style:
  /// a gap of length L costs gap_open + L * gap_extend).
  Score gap_open = 11;
  Score gap_extend = 1;
  /// X-drop for the gapped extension.
  Score gapped_xdrop = 38;
  /// Minimum gapped score for an alignment to be reported.
  Score gapped_cutoff = 50;
  /// Maximum E-value for an alignment to be reported (NCBI's -evalue;
  /// default 10). Applied in the final stage on top of gapped_cutoff.
  double evalue_cutoff = 10.0;
  /// Maximum alignments reported per query after ranking.
  std::size_t max_alignments = 500;

  /// Throws mublastp::Error if any field is out of its valid domain.
  /// Engines call this once at construction.
  void validate() const;
};

/// A high-scoring ungapped segment (stage-2 output). Coordinates are
/// half-open: [q_start, q_end) x [s_start, s_end) with q_end - q_start ==
/// s_end - s_start (no gaps).
struct UngappedAlignment {
  SeqId subject = 0;          ///< subject id (original database ids)
  std::uint32_t q_start = 0;
  std::uint32_t q_end = 0;
  std::uint32_t s_start = 0;
  std::uint32_t s_end = 0;
  Score score = 0;

  friend auto operator<=>(const UngappedAlignment&,
                          const UngappedAlignment&) = default;
};

/// A gapped alignment with optional traceback (stage-3/4 output).
struct GappedAlignment {
  SeqId subject = 0;
  std::uint32_t q_start = 0;
  std::uint32_t q_end = 0;
  std::uint32_t s_start = 0;
  std::uint32_t s_end = 0;
  Score score = 0;
  double bit_score = 0.0;
  double evalue = 0.0;
  /// The anchor pair the X-drop extension started from (derived from the
  /// seeding ungapped segment). Stage 4 re-runs the identical DP from this
  /// anchor to record the traceback, guaranteeing the same alignment.
  std::uint32_t anchor_q = 0;
  std::uint32_t anchor_s = 0;
  /// Edit transcript from traceback: 'M' (aligned pair), 'I' (gap in
  /// subject: query residue unmatched), 'D' (gap in query). Empty until the
  /// traceback stage runs.
  std::string ops;
};

/// Per-query pipeline counters, maintained by every engine on every search
/// (increments only — cheap enough to always be on). Field names match
/// stats::StageCounters so the telemetry subsystem (src/stats) can lift
/// deltas out of them; wall-clock timing lives entirely in that subsystem
/// and is collected only when a stats::PipelineStats run is active.
struct StageStats {
  std::uint64_t hits = 0;            ///< stage-1 word hits
  std::uint64_t hit_pairs = 0;       ///< two-hit pairs (post pre-filter)
  std::uint64_t extensions = 0;      ///< ungapped extensions executed
  std::uint64_t ungapped_alignments = 0;
  std::uint64_t gapped_extensions = 0;
  std::uint64_t sorted_records = 0;  ///< records that went through reorder
  /// Banded gapped-kernel tier tallies (one extension = two extension
  /// halves, each counted once). Zero on scalar runs; the tier choice is
  /// value-driven, so they do not depend on the thread split. These are
  /// execution-strategy telemetry, not part of the deterministic
  /// stats::StageCounters set that forced-scalar/vector twins must match.
  std::uint64_t gapped_int8_runs = 0;
  std::uint64_t gapped_int16_reruns = 0;
  std::uint64_t gapped_scalar_fallbacks = 0;

  friend bool operator==(const StageStats&, const StageStats&) = default;

  StageStats& operator+=(const StageStats& o) {
    hits += o.hits;
    hit_pairs += o.hit_pairs;
    extensions += o.extensions;
    ungapped_alignments += o.ungapped_alignments;
    gapped_extensions += o.gapped_extensions;
    sorted_records += o.sorted_records;
    gapped_int8_runs += o.gapped_int8_runs;
    gapped_int16_reruns += o.gapped_int16_reruns;
    gapped_scalar_fallbacks += o.gapped_scalar_fallbacks;
    return *this;
  }
};

/// Everything an engine returns for one query.
struct QueryResult {
  /// Final alignments, ranked by (score desc, subject asc, q_start asc).
  std::vector<GappedAlignment> alignments;
  /// Stage-2 output in canonical order, for stage-level verification.
  std::vector<UngappedAlignment> ungapped;
  StageStats stats;
};

}  // namespace mublastp
