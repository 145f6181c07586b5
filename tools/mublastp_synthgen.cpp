// mublastp_synthgen: emit a synthetic protein database (and optionally a
// query set sampled from it) as FASTA — the data-generation substitution
// for the paper's uniprot_sprot / env_nr workloads (see DESIGN.md).
//
// Usage:
//   mublastp_synthgen --preset=sprot|envnr --residues=N --seed=S
//                     --out=db.fasta [--queries=K --qlen=L --qout=q.fasta]
//
// Numeric flags take decimal digits only; a bad value, or a flag the tool
// does not take, exits 2 naming the flag.
#include <cstdio>
#include <limits>
#include <string>

#include "cli_args.hpp"
#include "common/rng.hpp"
#include "fasta/fasta.hpp"
#include "synth/synth.hpp"

int main(int argc, char** argv) {
  using namespace mublastp;
  using namespace mublastp::cli;
  if (!known_flags(argc, argv,
                   {"preset=", "residues=", "seed=", "out=", "queries=",
                    "qlen=", "qout="})) {
    return 2;
  }
  const std::string out_path = arg_str(argc, argv, "out", "");
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: mublastp_synthgen --preset=sprot|envnr"
                 " [--residues=N] [--seed=S] --out=db.fasta"
                 " [--queries=K --qlen=L --qout=q.fasta]\n");
    return 2;
  }

  std::size_t residues = 0;
  std::uint64_t seed = 0;
  std::size_t nq = 0;
  std::size_t qlen = 0;
  try {
    residues = arg_number<std::size_t>(argc, argv, "residues", 1 << 22, 1,
                                       std::size_t{1} << 40);
    seed = arg_number<std::uint64_t>(
        argc, argv, "seed", 42, 0,
        std::numeric_limits<std::uint64_t>::max());
    nq = arg_number<std::size_t>(argc, argv, "queries", 0, 0,
                                 std::size_t{1} << 32);
    qlen = arg_number<std::size_t>(argc, argv, "qlen", 0, 0,
                                   std::size_t{1} << 32);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    const std::string preset = arg_str(argc, argv, "preset", "sprot");
    const synth::DatabaseSpec spec = preset == "envnr"
                                         ? synth::envnr_like(residues)
                                         : synth::sprot_like(residues);
    const SequenceStore db = synth::generate_database(spec, seed);
    write_fasta_file(out_path, db);
    std::printf("%s: %zu sequences, %zu residues -> %s\n", spec.name.c_str(),
                db.size(), db.total_residues(), out_path.c_str());

    if (nq > 0) {
      const std::string qout = arg_str(argc, argv, "qout", "queries.fasta");
      Rng rng(seed + 1);
      const SequenceStore queries =
          qlen == 0 ? synth::sample_queries_mixed(db, nq, rng)
                    : synth::sample_queries(db, nq, qlen, rng);
      write_fasta_file(qout, queries);
      std::printf("%zu queries (%s length) -> %s\n", queries.size(),
                  qlen == 0 ? "mixed" : std::to_string(qlen).c_str(),
                  qout.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
