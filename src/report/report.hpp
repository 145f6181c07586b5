// Result reporting: the output formats BLAST users consume.
//
// Two formats are provided, mirroring NCBI-BLAST's most used -outfmt modes:
//  * tabular ("outfmt 6"): one line per alignment with the standard twelve
//    columns (qseqid sseqid pident length mismatch gapopen qstart qend
//    sstart send evalue bitscore) — 1-based inclusive coordinates;
//  * pairwise ("outfmt 0"): alignment blocks with query/match/subject
//    lines, identities/positives/gaps counts and score/E-value headers.
//
// Both formats consume the GappedAlignment transcripts produced by the
// traceback stage, so what is printed is exactly what was aligned.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "common/sequence.hpp"
#include "core/params.hpp"
#include "index/db_index_view.hpp"
#include "score/matrix.hpp"

namespace mublastp {

/// Summary statistics of one alignment transcript.
struct AlignmentSummary {
  std::size_t length = 0;      ///< alignment columns (matches + gaps)
  std::size_t identities = 0;  ///< exact residue matches
  std::size_t positives = 0;   ///< matrix score > 0 (includes identities)
  std::size_t mismatches = 0;  ///< aligned pairs that differ
  std::size_t gap_opens = 0;   ///< distinct gap runs
  std::size_t gaps = 0;        ///< total gap columns

  double percent_identity() const {
    return length == 0 ? 0.0
                       : 100.0 * static_cast<double>(identities) /
                             static_cast<double>(length);
  }
};

/// Computes the summary of an alignment against its sequences. The
/// alignment must carry a traceback transcript.
AlignmentSummary summarize_alignment(std::span<const Residue> query,
                                     std::span<const Residue> subject,
                                     const GappedAlignment& alignment,
                                     const ScoreMatrix& matrix);

/// Writes one query's results in tabular (outfmt-6 style) form.
void write_tabular(std::ostream& out, const std::string& query_name,
                   std::span<const Residue> query, const SequenceStore& db,
                   const QueryResult& result, const ScoreMatrix& matrix);

/// Same, but resolving subjects through an index view;
/// `result` subjects are original database ids, remapped internally. Lets
/// index-backed searches report without materializing a SequenceStore.
void write_tabular(std::ostream& out, const std::string& query_name,
                   std::span<const Residue> query, const DbIndexView& db,
                   const QueryResult& result, const ScoreMatrix& matrix);

/// Writes one query's results as classic pairwise alignment blocks.
/// `line_width` residues per block line.
void write_pairwise(std::ostream& out, const std::string& query_name,
                    std::span<const Residue> query, const SequenceStore& db,
                    const QueryResult& result, const ScoreMatrix& matrix,
                    std::size_t line_width = 60);

/// Pairwise form of the index-view overload above.
void write_pairwise(std::ostream& out, const std::string& query_name,
                    std::span<const Residue> query, const DbIndexView& db,
                    const QueryResult& result, const ScoreMatrix& matrix,
                    std::size_t line_width = 60);

}  // namespace mublastp
