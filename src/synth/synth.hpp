// Synthetic protein databases and query sets.
//
// The paper evaluates on two public NCBI databases: uniprot_sprot (~300k
// sequences, 250MB, median length 292, mean 355) and env_nr (~6M sequences,
// 1.7GB, median 177, mean 197). Those files are not available offline, so
// this module generates statistical stand-ins:
//
//  * lengths  ~ lognormal fitted to the published median/mean (a lognormal's
//    median fixes mu and the mean/median ratio fixes sigma), truncated to the
//    paper's observed range (Fig. 7: bulk of sequences in 60..1000);
//  * residues ~ Robinson-Robinson background frequencies;
//  * a configurable fraction of sequences belong to planted homologous
//    families (mutated copies of a family parent) so that hit detection and
//    extension fire at realistic rates rather than at the random-background
//    floor.
//
// Queries are sampled from the generated database exactly as in the paper
// (Section V-A): fixed-length sets of 128/256/512 plus a "mixed" set that
// follows the database's own length distribution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sequence.hpp"

namespace mublastp::synth {

/// Parameters of a synthetic database.
struct DatabaseSpec {
  std::string name;                  ///< label used in bench output
  std::size_t target_residues = 1 << 22;  ///< approximate total characters
  double median_length = 292;        ///< lognormal median (= exp(mu))
  double mean_length = 355;          ///< lognormal mean (fixes sigma)
  std::size_t min_length = 40;       ///< truncation (shorter draws redrawn)
  std::size_t max_length = 5000;     ///< truncation (longer draws redrawn)
  double family_fraction = 0.35;     ///< fraction of residues in families
  double family_size_mean = 8.0;     ///< geometric mean family cardinality
  double mutation_rate = 0.25;       ///< per-residue substitution probability
  double indel_rate = 0.02;          ///< per-position insertion/deletion prob
};

/// Spec matching uniprot_sprot's published shape at a reduced scale.
DatabaseSpec sprot_like(std::size_t target_residues = 1 << 22);

/// Spec matching env_nr's published shape at a reduced scale.
DatabaseSpec envnr_like(std::size_t target_residues = 1 << 23);

/// The preset a tool names: "sprot" (sprot_like) or "envnr" (envnr_like).
/// Throws mublastp::Error on any other name.
DatabaseSpec preset(const std::string& name, std::size_t target_residues);

/// Generates a database. Deterministic for a given (spec, seed).
SequenceStore generate_database(const DatabaseSpec& spec, std::uint64_t seed);

/// Samples `count` queries of exactly `length` residues: picks a random
/// database sequence of length >= `length` and takes a random window, which
/// mirrors the paper's "randomly pick queries from target databases".
/// Requires at least one database sequence of sufficient length.
SequenceStore sample_queries(const SequenceStore& db, std::size_t count,
                             std::size_t length, Rng& rng);

/// Samples `count` whole sequences from the database ("mixed" query set —
/// follows the database length distribution by construction).
SequenceStore sample_queries_mixed(const SequenceStore& db, std::size_t count,
                                   Rng& rng);

/// Histogram of sequence lengths with the given bin edges; result has
/// edges.size()+1 buckets (last bucket = overflow).
std::vector<std::size_t> length_histogram(const SequenceStore& db,
                                          const std::vector<std::size_t>& edges);

}  // namespace mublastp::synth
