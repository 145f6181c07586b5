#include "synth/synth.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "score/karlin.hpp"
#include "score/matrix.hpp"

namespace mublastp::synth {
namespace {

// Cumulative distribution over the 20 standard residues for inverse-CDF
// sampling of background composition.
struct BackgroundSampler {
  std::array<double, 20> cdf{};
  BackgroundSampler() {
    const auto& f = robinson_frequencies();
    double acc = 0.0;
    for (int i = 0; i < 20; ++i) {
      acc += f[i];
      cdf[i] = acc;
    }
    // Normalize so the last entry is exactly 1 (the frequencies sum to
    // ~0.99999 due to rounding in the published table).
    for (int i = 0; i < 20; ++i) cdf[i] /= acc;
  }

  Residue draw(Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<Residue>(std::distance(cdf.begin(), it));
  }
};

const BackgroundSampler& background() {
  static const BackgroundSampler s;
  return s;
}

// Per-residue substitution sampler conditioned on the original residue:
// substitutes toward residues with high BLOSUM62 scores, which makes planted
// family members look like real homologs (neighbors fire) rather than random
// noise.
struct MutationSampler {
  std::array<std::array<double, 20>, 20> cdf{};
  MutationSampler() {
    const ScoreMatrix& m = blosum62();
    for (int a = 0; a < 20; ++a) {
      double acc = 0.0;
      for (int b = 0; b < 20; ++b) {
        // exp(lambda * s(a,b)) ∝ target frequency of aligning a with b.
        const double w =
            robinson_frequencies()[b] *
            std::exp(0.3176 * m(static_cast<Residue>(a), static_cast<Residue>(b)));
        acc += w;
        cdf[a][b] = acc;
      }
      for (int b = 0; b < 20; ++b) cdf[a][b] /= acc;
    }
  }

  Residue draw(Residue from, Rng& rng) const {
    const auto& row = cdf[from];
    const double u = rng.next_double();
    const auto it = std::lower_bound(row.begin(), row.end(), u);
    return static_cast<Residue>(std::distance(row.begin(), it));
  }
};

const MutationSampler& mutation_sampler() {
  static const MutationSampler s;
  return s;
}

// Draws a sequence length from the truncated lognormal of the spec.
std::size_t draw_length(const DatabaseSpec& spec, double mu, double sigma,
                        Rng& rng) {
  for (;;) {
    const double len = std::exp(mu + sigma * rng.next_normal());
    const auto n = static_cast<std::size_t>(std::llround(len));
    if (n >= spec.min_length && n <= spec.max_length) return n;
  }
}

std::vector<Residue> random_sequence(std::size_t len, Rng& rng) {
  std::vector<Residue> seq(len);
  for (auto& r : seq) r = background().draw(rng);
  return seq;
}

// Derives a family member from a parent: point substitutions at
// mutation_rate (BLOSUM-conditioned), plus occasional single-residue
// insertions/deletions at indel_rate.
std::vector<Residue> mutate(const std::vector<Residue>& parent,
                            const DatabaseSpec& spec, Rng& rng) {
  std::vector<Residue> out;
  out.reserve(parent.size() + 8);
  for (const Residue r : parent) {
    const double u = rng.next_double();
    if (u < spec.indel_rate * 0.5) {
      continue;  // deletion
    }
    if (u < spec.indel_rate) {
      out.push_back(background().draw(rng));  // insertion before r
    }
    if (rng.next_double() < spec.mutation_rate && r < 20) {
      out.push_back(mutation_sampler().draw(r, rng));
    } else {
      out.push_back(r);
    }
  }
  if (out.size() < 2 * static_cast<std::size_t>(kWordLength)) {
    out = parent;  // degenerate after indels; keep the parent copy
  }
  return out;
}

}  // namespace

DatabaseSpec sprot_like(std::size_t target_residues) {
  DatabaseSpec spec;
  spec.name = "sprot_like";
  spec.target_residues = target_residues;
  spec.median_length = 292;
  spec.mean_length = 355;
  return spec;
}

DatabaseSpec envnr_like(std::size_t target_residues) {
  DatabaseSpec spec;
  spec.name = "envnr_like";
  spec.target_residues = target_residues;
  spec.median_length = 177;
  spec.mean_length = 197;
  return spec;
}

DatabaseSpec preset(const std::string& name, std::size_t target_residues) {
  if (name == "sprot") return sprot_like(target_residues);
  if (name == "envnr") return envnr_like(target_residues);
  throw Error("unknown preset '" + name + "' (expected sprot or envnr)");
}

SequenceStore generate_database(const DatabaseSpec& spec, std::uint64_t seed) {
  MUBLASTP_CHECK(spec.mean_length >= spec.median_length,
                 "lognormal needs mean >= median");
  MUBLASTP_CHECK(spec.min_length >= static_cast<std::size_t>(kWordLength),
                 "min_length must allow at least one word");
  Rng rng(seed);
  const double mu = std::log(spec.median_length);
  const double sigma =
      std::sqrt(2.0 * std::log(spec.mean_length / spec.median_length));

  SequenceStore db;
  std::size_t produced = 0;
  std::size_t family_id = 0;
  std::size_t singleton_id = 0;
  while (produced < spec.target_residues) {
    if (rng.next_double() < spec.family_fraction) {
      // Plant a family: a parent plus geometric-many mutated children.
      const std::size_t len = draw_length(spec, mu, sigma, rng);
      const std::vector<Residue> parent = random_sequence(len, rng);
      std::size_t members = 2;
      while (rng.next_double() < 1.0 - 1.0 / spec.family_size_mean &&
             members < 64) {
        ++members;
      }
      const std::string base = "fam" + std::to_string(family_id++);
      db.add(parent, base + "_p");
      produced += parent.size();
      for (std::size_t k = 1;
           k < members && produced < spec.target_residues; ++k) {
        const std::vector<Residue> child = mutate(parent, spec, rng);
        db.add(child, base + "_c" + std::to_string(k));
        produced += child.size();
      }
    } else {
      const std::size_t len = draw_length(spec, mu, sigma, rng);
      const std::vector<Residue> seq = random_sequence(len, rng);
      db.add(seq, "syn" + std::to_string(singleton_id++));
      produced += seq.size();
    }
  }
  return db;
}

SequenceStore sample_queries(const SequenceStore& db, std::size_t count,
                             std::size_t length, Rng& rng) {
  MUBLASTP_CHECK(!db.empty(), "database is empty");
  std::vector<SeqId> eligible;
  for (SeqId id = 0; id < db.size(); ++id) {
    if (db.length(id) >= length) eligible.push_back(id);
  }
  MUBLASTP_CHECK(!eligible.empty(),
                 "no database sequence long enough for query length " +
                     std::to_string(length));
  SequenceStore out;
  for (std::size_t i = 0; i < count; ++i) {
    const SeqId id = eligible[rng.next_below(eligible.size())];
    const auto seq = db.sequence(id);
    const std::size_t start = rng.next_below(seq.size() - length + 1);
    out.add(seq.subspan(start, length),
            "q" + std::to_string(i) + "_from_" + db.name(id));
  }
  return out;
}

SequenceStore sample_queries_mixed(const SequenceStore& db, std::size_t count,
                                   Rng& rng) {
  MUBLASTP_CHECK(!db.empty(), "database is empty");
  SequenceStore out;
  for (std::size_t i = 0; i < count; ++i) {
    const SeqId id = static_cast<SeqId>(rng.next_below(db.size()));
    out.add(db.sequence(id), "q" + std::to_string(i) + "_mixed_" + db.name(id));
  }
  return out;
}

std::vector<std::size_t> length_histogram(
    const SequenceStore& db, const std::vector<std::size_t>& edges) {
  std::vector<std::size_t> counts(edges.size() + 1, 0);
  for (SeqId id = 0; id < db.size(); ++id) {
    const std::size_t len = db.length(id);
    const auto it = std::upper_bound(edges.begin(), edges.end(), len);
    counts[static_cast<std::size_t>(std::distance(edges.begin(), it))]++;
  }
  return counts;
}

}  // namespace mublastp::synth
