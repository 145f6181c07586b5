// Shared stage-3/stage-4 processing.
//
// Every engine funnels its stage-2 output (ungapped alignments) through the
// functions here, so gapped extension, culling, ranking, E-values and
// traceback are engine-invariant — a structural guarantee of the paper's
// Section V-E property that optimizations never change outputs.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "score/karlin.hpp"
#include "score/matrix.hpp"
#include "simd/dispatch.hpp"

namespace mublastp {

/// Resolves a subject id (original database numbering) to its residues.
using SubjectLookup = std::function<std::span<const Residue>(SeqId)>;

/// Canonicalizes a stage-2 list: sorts by (subject, diagonal, q_start) and
/// removes exact duplicates (duplicates arise only from overlapped fragments
/// of split long sequences).
void canonicalize_ungapped(std::vector<UngappedAlignment>& segs);

/// Stage 3: seeds gapped extensions from ungapped segments in descending
/// score order, skipping segments already contained in an accepted gapped
/// alignment's envelope (NCBI's redundancy heuristic). Returns score-only
/// gapped alignments with score >= params.gapped_cutoff. Score-only
/// extensions run on the tiered banded SIMD kernel when `kernel` names a
/// vector path (bit-identical to scalar; tier tallies land in `stats`).
std::vector<GappedAlignment> gapped_stage(
    std::span<const Residue> query, const SubjectLookup& subjects,
    std::vector<UngappedAlignment> ungapped, const ScoreMatrix& matrix,
    const SearchParams& params, StageStats* stats = nullptr,
    simd::KernelPath kernel = simd::KernelPath::kScalar);

/// The final ranking, a total order: score descending; then subject, q_start
/// and s_start ascending; then q_end and s_end descending, so an alignment
/// that contains another at equal score ranks first and culls it; then
/// anchor_q and anchor_s descending, which picks one traceback among
/// alignments with the same coordinates. finalize_stage ranks with it, and
/// a partitioned search merges its members' lists with it, so the reported
/// list never depends on input order or on how the database was split.
bool final_ranking_less(const GappedAlignment& a, const GappedAlignment& b);

/// Stage 4: merges gapped alignments (possibly from several index blocks),
/// culls envelope-contained ones, keeps the top params.max_alignments by
/// score, recomputes each winner with traceback, and attaches bit scores
/// and E-values for a search space of query_len x db_residues.
std::vector<GappedAlignment> finalize_stage(
    std::span<const Residue> query, const SubjectLookup& subjects,
    std::vector<GappedAlignment> gapped, const ScoreMatrix& matrix,
    const SearchParams& params, const KarlinParams& karlin,
    std::size_t db_residues);

}  // namespace mublastp
