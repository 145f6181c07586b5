// mublastp_verify: the paper's Section V-E check as a command — run the
// query-indexed engine (NCBI), the interleaved database-indexed engine
// (NCBI-db) and muBLASTP (with and without pre-filtering, plus a run over a
// memory-mapped copy of the index) on the same workload and diff their
// outputs stage by stage. Three additional runs drive muBLASTP and NCBI-db
// through the SIMD kernels (--kernel, default the best the CPU supports)
// against the forced-scalar baselines — muBLASTP and NCBI-db with vector
// hit detection and the banded gapped kernel, and muBLASTP with
// pre-filtering off (Algorithm 1 through the vector hit-scan collect path)
// — asserting the vector kernels are bit-identical down to every counter.
// An eighth run searches a 3-shard round-robin partitioning of the same
// database as a cluster::MemberSet (docs/SHARDING.md): merged
// results must match every other engine, per-query stage stats must equal
// the single-index run exactly, and the per-shard hit counters must sum to
// the single-index total.
// A tenth run proves the incremental-build contract
// (docs/INCREMENTAL.md): the database is split, the prefix saved as a base
// index, the remainder published as a delta generation with
// append_generation, and the base+delta chain opened and searched as a
// cluster::MemberSet — merged results AND per-query stage stats must equal
// the from-scratch single-index run exactly, field for field.
//
// Usage:
//   mublastp_verify [--residues=N] [--queries=K] [--qlen=L] [--seed=S]
//                   [--stats[=json]] [--kernel=auto|scalar|sse42|avx2]
//   mublastp_verify --db=db.fasta --query=q.fasta
//
// Numeric flags take decimal digits only; a bad value, or a flag the tool
// does not take, exits 2 naming the flag.
//
// Exit code 0 iff every stage of every engine pair matches exactly — both
// the result lists AND the pipeline counters (hits, two-hit pairs, ungapped
// alignments, gapped extensions must be identical across engines; ungapped
// extension counts additionally match across the database-indexed engines).
// The mmap run saves the index to a temporary file, reopens it zero-copy
// through MappedDbIndex and must be indistinguishable from the in-memory
// engine — the round-trip guarantee of index format v3. The SIMD runs must
// match their scalar twins on EVERY counter, execution-strategy ones
// included.
//
// --stats prints one telemetry table per engine to stderr; --stats=json
// emits one "mublastp-stats-v1" JSON snapshot per engine, one per line, to
// stdout.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "baseline/interleaved_engine.hpp"
#include "cli_args.hpp"
#include "baseline/query_engine.hpp"
#include "cluster/member_set.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "fasta/fasta.hpp"
#include "index/db_index.hpp"
#include "index/db_index_io.hpp"
#include "index/generation.hpp"
#include "index/mapped_db_index.hpp"
#include "simd/dispatch.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"

namespace {

using namespace mublastp;
using namespace mublastp::cli;

bool same_ungapped(const QueryResult& a, const QueryResult& b) {
  return a.ungapped == b.ungapped;
}

// Counter-level equivalence: every engine must detect the same hits, keep
// the same two-hit pairs, and produce the same HSPs and gapped extensions.
// (sorted_records and extensions are execution-strategy details — e.g. the
// pre-filter-off variant sorts raw hits — and are not compared across all.)
bool same_counters(const stats::StageCounters& a,
                   const stats::StageCounters& b) {
  return a.hits == b.hits && a.hit_pairs == b.hit_pairs &&
         a.ungapped_alignments == b.ungapped_alignments &&
         a.gapped_extensions == b.gapped_extensions;
}

bool same_final(const QueryResult& a, const QueryResult& b) {
  if (a.alignments.size() != b.alignments.size()) return false;
  for (std::size_t i = 0; i < a.alignments.size(); ++i) {
    const GappedAlignment& x = a.alignments[i];
    const GappedAlignment& y = b.alignments[i];
    if (x.subject != y.subject || x.score != y.score ||
        x.q_start != y.q_start || x.q_end != y.q_end ||
        x.s_start != y.s_start || x.s_end != y.s_end || x.ops != y.ops) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!known_flags(argc, argv,
                   {"residues=", "queries=", "qlen=", "seed=", "stats",
                    "stats=", "kernel=", "db=", "query="})) {
    return 2;
  }
  try {
    const std::string stats_mode =
        arg_flag(argc, argv, "stats") ? "table"
                                      : arg_str(argc, argv, "stats", "");
    if (!stats_mode.empty() && stats_mode != "table" && stats_mode != "json") {
      std::fprintf(stderr, "error: unknown --stats mode '%s'"
                   " (expected --stats or --stats=json)\n",
                   stats_mode.c_str());
      return 2;
    }
    const std::uint64_t seed = arg_number<std::uint64_t>(
        argc, argv, "seed", 515, 0,
        std::numeric_limits<std::uint64_t>::max());
    const std::size_t residues = arg_number<std::size_t>(
        argc, argv, "residues", 1 << 20, 1, std::size_t{1} << 40);
    const std::size_t num_queries = arg_number<std::size_t>(
        argc, argv, "queries", 4, 1, std::size_t{1} << 20);
    const std::size_t qlen = arg_number<std::size_t>(
        argc, argv, "qlen", 128, 1, std::size_t{1} << 20);
    SequenceStore db;
    SequenceStore queries;
    const std::string db_path = arg_str(argc, argv, "db", "");
    if (!db_path.empty()) {
      read_fasta_file(db_path, db);
      read_fasta_file(arg_str(argc, argv, "query", ""), queries);
    } else {
      db = synth::generate_database(synth::sprot_like(residues), seed);
      Rng rng(seed + 1);
      queries = synth::sample_queries(db, num_queries, qlen, rng);
    }
    std::printf("database: %zu sequences (%zu residues); %zu queries\n",
                db.size(), db.total_residues(), queries.size());

    const simd::KernelPath kernel =
        simd::parse_kernel(arg_str(argc, argv, "kernel", "auto"));
    if (!simd::kernel_supported(kernel)) {
      std::fprintf(stderr, "error: kernel '%s' is not supported on this"
                   " CPU\n", simd::kernel_name(kernel));
      return 2;
    }
    std::printf("simd kernel under test: %s\n", simd::kernel_name(kernel));

    const DbIndex index = DbIndex::build(db, {});
    // The five baseline runs are forced scalar; the -simd runs execute the
    // kernel under test and must match them bit for bit.
    constexpr simd::KernelPath kScalarPath = simd::KernelPath::kScalar;
    const QueryIndexedEngine ncbi(db, {}, kDefaultNeighborThreshold,
                                  QueryIndexedEngine::Detector::kLookupTable,
                                  kScalarPath);
    const InterleavedDbEngine ncbi_db(index, {}, kScalarPath);
    MuBlastpOptions scalar_opts;
    scalar_opts.kernel = kScalarPath;
    const MuBlastpEngine mu(index, {}, scalar_opts);
    MuBlastpOptions nopf = scalar_opts;
    nopf.prefilter = false;
    const MuBlastpEngine mu_nopf(index, {}, nopf);
    MuBlastpOptions simd_opts;
    simd_opts.kernel = kernel;
    const MuBlastpEngine mu_simd(index, {}, simd_opts);
    const InterleavedDbEngine ncbi_db_simd(index, {}, kernel);
    // Algorithm 1 through the dispatched kernel: with pre-filtering off the
    // hit-scan *collect* kernel feeds the sort; must twin mublastp-alg1.
    MuBlastpOptions nopf_simd = simd_opts;
    nopf_simd.prefilter = false;
    const MuBlastpEngine mu_alg1_simd(index, {}, nopf_simd);

    // The owned-vs-mapped equivalence check: round-trip the index through a
    // v3 file and drive the same engine off the read-only mapping.
    const std::filesystem::path tmp_index =
        std::filesystem::temp_directory_path() /
        ("mublastp_verify_" + std::to_string(::getpid()) + ".mbi");
    save_db_index_file(tmp_index.string(), index);
    const MappedDbIndex mapped(tmp_index.string());
    // The mapping keeps the pages alive after the unlink (POSIX), so the
    // temp file cannot leak even if a later check throws.
    std::filesystem::remove(tmp_index);
    const MuBlastpEngine mu_mmap(mapped, {}, scalar_opts);

    // The sharded run: same database split 3 ways round-robin (in memory —
    // no files), searched and merged back. One batch search up front; the
    // per-query loop below diffs its slices.
    namespace cl = cluster;
    const cl::MemberSet shard_set = cl::MemberSet::partition(
        db, 3, cl::PartitionStrategy::kRoundRobinSorted, {},
        {{}, scalar_opts, false});
    const cl::MemberSearchResult sharded = shard_set.search(queries, 1);

    // The incremental-build run: prefix of the database published as a base
    // index, the remainder appended as a delta generation through the real
    // on-disk protocol (durable publish, MUGEN01 manifest), the chain
    // opened strictly and searched. Files are unlinked right after the
    // open: the members stay mapped (POSIX keeps an unlinked file's pages
    // alive while a mapping holds them).
    const std::size_t base_count =
        db.size() > 1 ? std::max<std::size_t>(1, db.size() * 2 / 3)
                      : db.size();
    SequenceStore db_base;
    SequenceStore db_delta;
    for (SeqId s = 0; s < db.size(); ++s) {
      (s < base_count ? db_base : db_delta).add(db.sequence(s), db.name(s));
    }
    const std::filesystem::path gen_base =
        std::filesystem::temp_directory_path() /
        ("mublastp_verify_gen_" + std::to_string(::getpid()) + ".mbi");
    save_db_index_file_durable(gen_base.string(), DbIndex::build(db_base, {}));
    std::vector<std::filesystem::path> gen_files = {gen_base};
    if (db_delta.size() != 0) {
      const AppendResult appended =
          append_generation(gen_base.string(), db_delta);
      gen_files.emplace_back(appended.delta_path);
      gen_files.emplace_back(appended.manifest_path);
    }
    const cl::MemberSet chain = cl::MemberSet::open_index(
        gen_base.string(), {{}, scalar_opts, /*strict=*/true}, nullptr);
    for (const std::filesystem::path& f : gen_files) {
      std::filesystem::remove(f);
    }
    const cl::MemberSearchResult chained = chain.search(queries, 1);

    struct Named {
      const char* name;
      QueryResult result;
      stats::PipelineSnapshot snap;
    };

    constexpr int kRuns = 10;
    stats::PipelineSnapshot agg[kRuns];
    bool all_ok = true;
    for (SeqId q = 0; q < queries.size(); ++q) {
      const auto query = queries.sequence(q);
      const auto run = [&](const char* name, const auto& engine) {
        stats::PipelineStats ps(name);
        QueryResult r = engine.search(query, ps);
        return Named{name, std::move(r), ps.snapshot()};
      };
      // The sharded run was computed as one batch above; wrap this query's
      // slice so the generic comparisons below treat it like any engine.
      const auto sharded_run = [&] {
        Named n;
        n.name = "mublastp-sharded";
        n.result = sharded.results[q];
        n.snap.engine = "mublastp-sharded";
        n.snap.queries = 1;
        n.snap.totals = stats::counters_of(n.result.stats);
        return n;
      };
      const auto chain_run = [&] {
        Named n;
        n.name = "mublastp-chain";
        n.result = chained.results[q];
        n.snap.engine = "mublastp-chain";
        n.snap.queries = 1;
        n.snap.totals = stats::counters_of(n.result.stats);
        return n;
      };
      const Named runs[kRuns] = {
          run("ncbi", ncbi),
          run("ncbi-db", ncbi_db),
          run("mublastp", mu),
          run("mublastp-alg1", mu_nopf),
          run("mublastp-mmap", mu_mmap),
          run("mublastp-simd", mu_simd),
          run("ncbi-db-simd", ncbi_db_simd),
          sharded_run(),
          run("mublastp-alg1-simd", mu_alg1_simd),
          chain_run(),
      };
      bool ok = true;
      for (std::size_t i = 1; i < kRuns; ++i) {
        if (!same_ungapped(runs[0].result, runs[i].result)) {
          std::printf("query %u: STAGE-2 MISMATCH %s vs %s\n", q,
                      runs[0].name, runs[i].name);
          ok = false;
        }
        if (!same_final(runs[0].result, runs[i].result)) {
          std::printf("query %u: FINAL MISMATCH %s vs %s\n", q, runs[0].name,
                      runs[i].name);
          ok = false;
        }
        if (!same_counters(runs[0].snap.totals, runs[i].snap.totals)) {
          std::printf("query %u: COUNTER MISMATCH %s vs %s"
                      " (hits %llu vs %llu, pairs %llu vs %llu,"
                      " HSPs %llu vs %llu, gapped %llu vs %llu)\n",
                      q, runs[0].name, runs[i].name,
                      static_cast<unsigned long long>(runs[0].snap.totals.hits),
                      static_cast<unsigned long long>(runs[i].snap.totals.hits),
                      static_cast<unsigned long long>(
                          runs[0].snap.totals.hit_pairs),
                      static_cast<unsigned long long>(
                          runs[i].snap.totals.hit_pairs),
                      static_cast<unsigned long long>(
                          runs[0].snap.totals.ungapped_alignments),
                      static_cast<unsigned long long>(
                          runs[i].snap.totals.ungapped_alignments),
                      static_cast<unsigned long long>(
                          runs[0].snap.totals.gapped_extensions),
                      static_cast<unsigned long long>(
                          runs[i].snap.totals.gapped_extensions));
          ok = false;
        }
      }
      // Both database-indexed engines execute the same two-hit pairs, so
      // their ungapped-extension counts must agree exactly as well.
      if (runs[1].snap.totals.extensions != runs[2].snap.totals.extensions) {
        std::printf("query %u: EXTENSION-COUNT MISMATCH %s vs %s"
                    " (%llu vs %llu)\n", q, runs[1].name, runs[2].name,
                    static_cast<unsigned long long>(
                        runs[1].snap.totals.extensions),
                    static_cast<unsigned long long>(
                        runs[2].snap.totals.extensions));
        ok = false;
      }
      // Owned and mapped runs are the SAME engine on the same data; every
      // counter — including execution-strategy ones — must be identical.
      if (runs[2].snap.totals != runs[4].snap.totals) {
        std::printf("query %u: OWNED/MAPPED COUNTER MISMATCH %s vs %s\n", q,
                    runs[2].name, runs[4].name);
        ok = false;
      }
      // A SIMD run differs from its scalar twin only in which kernel
      // executes the same extensions — EVERY counter must be identical.
      if (runs[2].snap.totals != runs[5].snap.totals) {
        std::printf("query %u: SCALAR/SIMD COUNTER MISMATCH %s vs %s\n", q,
                    runs[2].name, runs[5].name);
        ok = false;
      }
      if (runs[1].snap.totals != runs[6].snap.totals) {
        std::printf("query %u: SCALAR/SIMD COUNTER MISMATCH %s vs %s\n", q,
                    runs[1].name, runs[6].name);
        ok = false;
      }
      if (runs[3].snap.totals != runs[8].snap.totals) {
        std::printf("query %u: SCALAR/SIMD COUNTER MISMATCH %s vs %s\n", q,
                    runs[3].name, runs[8].name);
        ok = false;
      }
      // Every gapped extension is one left half + one right half, and each
      // half is settled by exactly one tier of the banded kernel — so on a
      // dispatched run the tier tallies must sum to 2x gapped_extensions
      // (and stay zero on forced-scalar runs, checked via .any()).
      for (const int i : {5, 6, 8}) {
        const stats::GappedKernelStats& gk = runs[i].snap.gapped_kernel;
        const std::uint64_t halves =
            gk.int8_runs + gk.int16_reruns + gk.scalar_fallbacks;
        const std::uint64_t expect =
            kernel == kScalarPath
                ? 0
                : 2 * runs[i].snap.totals.gapped_extensions;
        if (halves != expect) {
          std::printf("query %u: GAPPED-TIER TALLY MISMATCH %s"
                      " (%llu halves, expected %llu)\n",
                      q, runs[i].name,
                      static_cast<unsigned long long>(halves),
                      static_cast<unsigned long long>(expect));
          ok = false;
        }
      }
      if (runs[2].snap.gapped_kernel.any()) {
        std::printf("query %u: scalar run booked gapped-kernel tiers\n", q);
        ok = false;
      }
      // The sharded merge sums per-shard stage stats over disjoint subject
      // sets — the result must equal the single-index run's stats EXACTLY,
      // field for field, not just on the deterministic counter subset.
      if (runs[7].result.stats != runs[2].result.stats) {
        std::printf("query %u: SHARDED STAGE-STATS MISMATCH %s vs %s\n", q,
                    runs[7].name, runs[2].name);
        ok = false;
      }
      // Same contract for the base+delta chain: the merge sums per-member
      // stage stats over disjoint subject sets — every field must equal the
      // from-scratch single-index run, not just the deterministic subset.
      if (runs[9].result.stats != runs[2].result.stats) {
        std::printf("query %u: CHAIN STAGE-STATS MISMATCH %s vs %s\n", q,
                    runs[9].name, runs[2].name);
        ok = false;
      }
      for (int i = 0; i < kRuns; ++i) agg[i].merge(runs[i].snap);
      std::printf("query %-3u %-40s %s (%zu ungapped, %zu alignments)\n", q,
                  queries.name(q).c_str(), ok ? "OK" : "MISMATCH",
                  runs[0].result.ungapped.size(),
                  runs[0].result.alignments.size());
      all_ok = all_ok && ok;
    }
    // Counter-sum tally: the per-shard hit counters the member set books
    // (telemetry, not merged results) must sum to the single-index engine's
    // aggregate — no hit double-counted, none dropped, across the batch.
    std::uint64_t shard_hits = 0;
    for (const auto& s : sharded.shards.per_shard) shard_hits += s.hits;
    if (shard_hits != agg[2].totals.hits) {
      std::printf("SHARD TALLY MISMATCH: per-shard hits sum %llu !="
                  " single-index total %llu\n",
                  static_cast<unsigned long long>(shard_hits),
                  static_cast<unsigned long long>(agg[2].totals.hits));
      all_ok = false;
    } else {
      std::printf("shard tally: %u shards (%s), per-shard hits sum %llu =="
                  " single-index total\n",
                  sharded.shards.count, sharded.shards.strategy.c_str(),
                  static_cast<unsigned long long>(shard_hits));
    }
    std::printf("generation chain: %u member(s) at generation %u searched"
                " through the on-disk base+delta protocol\n",
                chain.member_count(), chain.generation());
    if (!stats_mode.empty()) {
      for (int i = 0; i < kRuns; ++i) {
        if (stats_mode == "json") {
          // One snapshot per line (JSONL): collapse the pretty-printed form
          // by dropping newlines and their indentation. No raw newline can
          // sit inside a string, because to_json escapes strings.
          const std::string json = stats::to_json(agg[i]);
          std::string line;
          line.reserve(json.size());
          for (std::size_t p = 0; p < json.size(); ++p) {
            if (json[p] == '\n') {
              while (p + 1 < json.size() && json[p + 1] == ' ') ++p;
              continue;
            }
            line.push_back(json[p]);
          }
          std::fwrite(line.data(), 1, line.size(), stdout);
          std::fputc('\n', stdout);
        } else {
          stats::print_table(stderr, agg[i]);
        }
      }
    }
    std::printf("%s\n", all_ok
                            ? "verification PASSED: all engines identical at "
                              "every stage"
                            : "verification FAILED");
    return all_ok ? 0 : 1;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
