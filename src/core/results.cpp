#include "core/results.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"
#include "core/gapped.hpp"

namespace mublastp {
namespace {

// (subject, diagonal, q_start) ordering used for the canonical stage-2 list.
bool ungapped_less(const UngappedAlignment& a, const UngappedAlignment& b) {
  const std::int64_t da =
      static_cast<std::int64_t>(a.s_start) - static_cast<std::int64_t>(a.q_start);
  const std::int64_t db =
      static_cast<std::int64_t>(b.s_start) - static_cast<std::int64_t>(b.q_start);
  if (a.subject != b.subject) return a.subject < b.subject;
  if (da != db) return da < db;
  if (a.q_start != b.q_start) return a.q_start < b.q_start;
  return a.q_end < b.q_end;
}

bool contains(const GappedAlignment& outer, std::uint32_t q_start,
              std::uint32_t q_end, std::uint32_t s_start, std::uint32_t s_end) {
  return q_start >= outer.q_start && q_end <= outer.q_end &&
         s_start >= outer.s_start && s_end <= outer.s_end;
}

}  // namespace

bool final_ranking_less(const GappedAlignment& a, const GappedAlignment& b) {
  // Descending keys compare b's field against a's.
  return std::tie(b.score, a.subject, a.q_start, a.s_start, b.q_end, b.s_end,
                  b.anchor_q, b.anchor_s) <
         std::tie(a.score, b.subject, b.q_start, b.s_start, a.q_end, a.s_end,
                  a.anchor_q, a.anchor_s);
}

void canonicalize_ungapped(std::vector<UngappedAlignment>& segs) {
  std::sort(segs.begin(), segs.end(), ungapped_less);
  segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
}

std::vector<GappedAlignment> gapped_stage(std::span<const Residue> query,
                                          const SubjectLookup& subjects,
                                          std::vector<UngappedAlignment> ungapped,
                                          const ScoreMatrix& matrix,
                                          const SearchParams& params,
                                          StageStats* stats,
                                          simd::KernelPath kernel) {
  // Deterministic processing order: best segments first, canonical
  // tie-breaks so every engine walks the same order.
  std::sort(ungapped.begin(), ungapped.end(),
            [](const UngappedAlignment& a, const UngappedAlignment& b) {
              if (a.score != b.score) return a.score > b.score;
              return ungapped_less(a, b);
            });

  std::vector<GappedAlignment> out;
  simd::GappedKernelCounters kc;
  for (const UngappedAlignment& seg : ungapped) {
    // Redundancy skip: a segment inside an already-found gapped alignment
    // (same subject) would re-derive the same alignment.
    bool covered = false;
    for (const GappedAlignment& g : out) {
      if (g.subject == seg.subject &&
          contains(g, seg.q_start, seg.q_end, seg.s_start, seg.s_end)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;

    const std::span<const Residue> subject = subjects(seg.subject);
    GappedAlignment aln = gapped_align(query, subject, seg, matrix, params,
                                       /*traceback=*/false, kernel, &kc);
    if (stats != nullptr) ++stats->gapped_extensions;
    if (aln.score >= params.gapped_cutoff) {
      out.push_back(aln);
    }
  }
  if (stats != nullptr) {
    stats->gapped_int8_runs += kc.int8_runs;
    stats->gapped_int16_reruns += kc.int16_reruns;
    stats->gapped_scalar_fallbacks += kc.scalar_fallbacks;
  }
  return out;
}

std::vector<GappedAlignment> finalize_stage(std::span<const Residue> query,
                                            const SubjectLookup& subjects,
                                            std::vector<GappedAlignment> gapped,
                                            const ScoreMatrix& matrix,
                                            const SearchParams& params,
                                            const KarlinParams& karlin,
                                            std::size_t db_residues) {
  std::sort(gapped.begin(), gapped.end(), final_ranking_less);

  // Envelope culling: drop an alignment contained in a better one on the
  // same subject (including exact duplicates from block overlap).
  std::vector<GappedAlignment> kept;
  kept.reserve(std::min<std::size_t>(gapped.size(), params.max_alignments));
  for (const GappedAlignment& g : gapped) {
    bool redundant = false;
    for (const GappedAlignment& k : kept) {
      if (k.subject == g.subject &&
          contains(k, g.q_start, g.q_end, g.s_start, g.s_end)) {
        redundant = true;
        break;
      }
    }
    if (redundant) continue;
    kept.push_back(g);
    if (kept.size() >= params.max_alignments) break;
  }

  // E-value reporting threshold (NCBI -evalue), applied BEFORE the
  // traceback pass: E-values depend only on the score, the score-only and
  // traceback passes produce the same score (checked below), and E-values
  // are monotone in score — so trimming the ranked suffix here drops
  // exactly the alignments the old trim-after-traceback dropped, without
  // paying their traceback DP.
  for (GappedAlignment& g : kept) {
    g.evalue = evalue(g.score, query.size(), db_residues, karlin);
  }
  while (!kept.empty() && kept.back().evalue > params.evalue_cutoff) {
    kept.pop_back();
  }

  // Traceback pass (stage 4 proper): realign the survivors recording ops,
  // and attach statistics.
  for (GappedAlignment& g : kept) {
    const std::span<const Residue> subject = subjects(g.subject);
    // Re-run the identical X-drop DP from the recorded anchor, this time
    // recording the direction matrix. Same anchor + same DP = the same
    // alignment, now with its transcript.
    GappedAlignment with_tb = gapped_align_at_anchor(
        query, subject, g.anchor_q, g.anchor_s, matrix, params,
        /*traceback=*/true);
    with_tb.subject = g.subject;
    MUBLASTP_CHECK(with_tb.score == g.score,
                   "traceback pass diverged from score-only pass");
    g = with_tb;
    g.bit_score = bit_score(g.score, karlin);
    g.evalue = evalue(g.score, query.size(), db_residues, karlin);
  }
  return kept;
}

}  // namespace mublastp
