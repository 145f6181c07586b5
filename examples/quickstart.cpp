// Quickstart: build a database index, search one query, print alignments.
//
// Usage: quickstart [seed]
//
// Generates a small synthetic protein database (stand-in for uniprot_sprot;
// see DESIGN.md), indexes it, picks a query from it, and runs the full
// muBLASTP pipeline, printing the top alignments BLAST-report style.
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index.hpp"
#include "synth/synth.hpp"

int main(int argc, char** argv) {
  using namespace mublastp;
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // 1. A ~2M-residue database shaped like uniprot_sprot.
  const synth::DatabaseSpec spec = synth::sprot_like(std::size_t{1} << 21);
  std::printf("generating %s (~%zu residues, seed %llu)...\n",
              spec.name.c_str(), spec.target_residues,
              static_cast<unsigned long long>(seed));
  const SequenceStore db = synth::generate_database(spec, seed);
  std::printf("  %zu sequences, %zu residues\n", db.size(),
              db.total_residues());

  // 2. Build the blocked database index (overlapping + neighboring words).
  Timer t;
  DbIndexConfig config;
  config.block_bytes = 512 * 1024;
  const DbIndex index = DbIndex::build(db, config);
  std::printf("indexed into %zu blocks in %.2fs (T=%d neighbor threshold)\n",
              index.blocks().size(), t.seconds(),
              index.config().neighbor_threshold);

  // 3. Pick a 256-residue query out of the database.
  Rng rng(seed + 1);
  const SequenceStore queries = synth::sample_queries(db, 1, 256, rng);
  const auto query = queries.sequence(0);
  std::printf("query: %s (%zu residues)\n", queries.name(0).c_str(),
              query.size());

  // 4. Search with muBLASTP (pre-filter + LSD radix reordering).
  const MuBlastpEngine engine(index);
  t.reset();
  const QueryResult result = engine.search(query);
  std::printf(
      "search: %.3fs | hits %llu -> pairs %llu (%.1f%% survive pre-filter) "
      "-> extensions %llu -> ungapped %llu -> gapped %llu\n",
      t.seconds(), static_cast<unsigned long long>(result.stats.hits),
      static_cast<unsigned long long>(result.stats.hit_pairs),
      100.0 * static_cast<double>(result.stats.hit_pairs) /
          static_cast<double>(result.stats.hits ? result.stats.hits : 1),
      static_cast<unsigned long long>(result.stats.extensions),
      static_cast<unsigned long long>(result.stats.ungapped_alignments),
      static_cast<unsigned long long>(result.stats.gapped_extensions));

  // 5. Report the top alignments.
  std::printf("\n%-24s %7s %9s %10s %-s\n", "subject", "score", "bits",
              "evalue", "region");
  const std::size_t top = std::min<std::size_t>(result.alignments.size(), 10);
  for (std::size_t i = 0; i < top; ++i) {
    const GappedAlignment& a = result.alignments[i];
    std::printf("%-24s %7d %9.1f %10.2e q[%u,%u) s[%u,%u) %zu ops\n",
                db.name(a.subject).c_str(), a.score, a.bit_score, a.evalue,
                a.q_start, a.q_end, a.s_start, a.s_end, a.ops.size());
  }
  if (result.alignments.empty()) {
    std::printf("(no alignments above the reporting cutoffs)\n");
  }
  return 0;
}
