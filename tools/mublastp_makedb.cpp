// mublastp_makedb: build a database index from FASTA (or a synthetic
// preset) and save it for reuse — the "formatdb"/"makeblastdb" step of the
// database-indexed workflow.
//
// Usage:
//   mublastp_makedb --in=db.fasta --out=db.mbi [--block-kb=512]
//                   [--threshold=11] [--long-limit=8192]
//                   [--build-threads=N] [--stats[=json]]
//   mublastp_makedb --synth=sprot|envnr --residues=N --seed=S --out=db.mbi
//   mublastp_makedb --append=new.fasta --out=db.mbi
//   mublastp_makedb --compact --out=db.mbi
//
// Every index and manifest this tool writes is published crash-safely
// (common/durable.hpp): bytes go to `<final>.tmp`, are fsynced, atomically
// rename(2)d onto the final name, and the directory is fsynced — a kill -9
// at any instant leaves either the old state or the new one, never a torn
// file. Orphaned `*.tmp` files from a crashed run are removed by the next
// incremental operation.
//
// Incremental builds (--append, exclusive with --in/--synth/--shards):
// reads the chain's build configuration from the newest MUGEN01 generation
// manifest next to --out (or from the base index's config section when no
// manifest exists yet), builds a self-contained delta index over the new
// sequences with identical parameters, writes it as <out>.dNNNNNN, and
// publishes generation manifest <out>.genNNNNNN as the single commit
// point. mublastp_search --index=<out> transparently searches the whole
// chain with output bit-identical to a from-scratch rebuild (see
// docs/INCREMENTAL.md).
//
// --compact folds the whole chain back into one canonical length-sorted
// member (<out>.cNNNNNN), publishes it as a new single-member generation,
// and only then garbage-collects the stale members and manifests.
//
// --build-threads=N bounds the OpenMP per-block build parallelism (0 = all
// cores, the default). --stats prints a build-telemetry table to stderr;
// --stats=json emits the machine-readable "mublastp-stats-v1" snapshot
// (with the "build" object: per-block seconds, parallelism, generation
// chain length) to stdout — the informational progress lines move to
// stderr then, so stdout is pure JSON.
//
// With --shards=N the database is partitioned (--strategy=rr|lpt|contig,
// default rr — the paper's length-sort + round-robin deal) into N
// self-contained shard indexes written as <out>.shard0..<out>.shardN-1,
// and <out> becomes a MUSHARD01 manifest tying them together (see
// docs/SHARDING.md). mublastp_search --shards-manifest=<out> searches them
// as one database. --stats is refused with --shards (exit 2).
//
// --inject=site:Nth[:errno] arms a fault-injection site (see
// docs/ROBUSTNESS.md); exit codes map the typed error taxonomy:
// 0 ok, 1 generic, 2 usage, 4 I/O, 5 corrupt input, 6 resources. A usage
// error (a bad value such as an unknown --synth or --strategy, or a flag
// the tool does not take or given twice) exits 2 before any input is read.
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "cluster/partition.hpp"
#include "cluster/shard_manifest.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/timer.hpp"
#include "fasta/fasta.hpp"
#include "index/db_index.hpp"
#include "index/db_index_io.hpp"
#include "index/generation.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"

namespace {

using namespace mublastp::cli;

/// The most --shards and --build-threads accept.
constexpr std::size_t kMaxShards = 1024;
constexpr int kMaxThreads = 1024;

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Informational output: stdout normally, stderr when --stats=json owns
/// stdout (so the JSON snapshot is the only thing on it).
std::FILE* g_info = stdout;

void info(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(g_info, fmt, ap);
  va_end(ap);
}

// Builds + writes the N shard indexes and the MUSHARD01 manifest.
void make_sharded(const mublastp::SequenceStore& db,
                  const mublastp::DbIndexConfig& config,
                  const std::string& out_path, int shards,
                  mublastp::cluster::PartitionStrategy strategy) {
  using namespace mublastp;
  namespace cl = mublastp::cluster;

  std::vector<std::size_t> seq_lens(db.size());
  for (SeqId i = 0; i < db.size(); ++i) seq_lens[i] = db.length(i);
  const cl::Partitioning parts =
      cl::make_partitioning(seq_lens, shards, strategy);

  cl::ShardManifest manifest;
  manifest.strategy = strategy;
  manifest.total_sequences = db.size();
  manifest.total_residues = db.total_residues();
  manifest.shards.resize(static_cast<std::size_t>(shards));
  // Ascending global-id walk keeps every shard's remap strictly increasing
  // (the manifest invariant the merge relies on).
  for (SeqId i = 0; i < db.size(); ++i) {
    manifest.shards[parts.assignment[i]].to_global.push_back(i);
  }

  Timer t;
  for (int k = 0; k < shards; ++k) {
    cl::ShardManifest::Shard& shard =
        manifest.shards[static_cast<std::size_t>(k)];
    shard.num_sequences = shard.to_global.size();
    if (shard.to_global.empty()) continue;  // empty shard: no index file
    SequenceStore shard_db;
    for (const SeqId g : shard.to_global) {
      shard_db.add(db.sequence(g), db.name(g));
      shard.num_residues += db.length(g);
    }
    const DbIndex index = DbIndex::build(shard_db, config);
    const std::string shard_path = out_path + ".shard" + std::to_string(k);
    // Shard members publish durably too: the manifest (written last, also
    // durably) must never name a shard file that could be torn by a crash.
    shard.index_crc32 = save_db_index_file_durable(shard_path, index);
    shard.path = basename_of(shard_path);
    info("shard %d: %zu sequences, %llu residues, %zu blocks -> %s\n",
         k, shard.to_global.size(),
         static_cast<unsigned long long>(shard.num_residues),
         index.blocks().size(), shard_path.c_str());
  }
  cl::save_shard_manifest(out_path, manifest);
  info("wrote manifest %s: %d shards (%s), imbalance %.3f, in %.2fs\n",
       out_path.c_str(), shards, cl::strategy_name(strategy),
       manifest.predicted_imbalance(), t.seconds());
}

/// Emits the --stats output (table to stderr, or stats-v1 JSON to stdout).
void emit_stats(const std::string& stats_mode,
                const mublastp::stats::BuildStats& build) {
  namespace stats = mublastp::stats;
  stats::PipelineSnapshot snap;
  snap.engine = "mublastp-makedb";
  snap.threads = build.threads;
  snap.build = build;
  if (stats_mode == "json") {
    const std::string json = stats::to_json(snap);
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
  } else {
    stats::print_table(stderr, snap);
  }
}

mublastp::stats::BuildStats build_stats_of(
    const mublastp::BuildTelemetry& telemetry, std::uint32_t generation,
    std::uint32_t chain_length, std::uint64_t sequences,
    std::uint64_t residues) {
  mublastp::stats::BuildStats b;
  b.generation = generation;
  b.chain_length = chain_length;
  b.sequences = sequences;
  b.residues = residues;
  b.threads = telemetry.threads;
  b.plan_seconds = telemetry.plan_seconds;
  b.total_seconds = telemetry.total_seconds;
  b.block_seconds = telemetry.block_seconds;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mublastp;
  if (!known_flags(argc, argv,
                   {"in=", "synth=", "out=", "append=", "compact", "stats",
                    "stats=", "shards=", "strategy=", "build-threads=",
                    "residues=", "seed=", "block-kb=", "threshold=",
                    "long-limit=", "inject="})) {
    return 2;
  }
  const std::string in_path = arg_str(argc, argv, "in", "");
  const std::string synth_preset = arg_str(argc, argv, "synth", "");
  const std::string out_path = arg_str(argc, argv, "out", "");
  const std::string append_path = arg_str(argc, argv, "append", "");
  const bool compact = arg_flag(argc, argv, "compact");
  const std::string stats_mode =
      arg_flag(argc, argv, "stats") ? "table"
                                    : arg_str(argc, argv, "stats", "");
  const bool have_input = !in_path.empty() || !synth_preset.empty();
  // Exactly one of: plain build (--in/--synth), --append, --compact.
  const int modes = (have_input ? 1 : 0) + (append_path.empty() ? 0 : 1) +
                    (compact ? 1 : 0);
  if (out_path.empty() || modes != 1) {
    std::fprintf(stderr,
                 "usage: mublastp_makedb (--in=db.fasta | --synth=sprot|envnr"
                 " --residues=N | --append=new.fasta | --compact)"
                 " --out=db.mbi [--block-kb=512]"
                 " [--threshold=11] [--long-limit=8192] [--seed=42]"
                 " [--build-threads=N] [--stats[=json]]"
                 " [--shards=N [--strategy=rr|lpt|contig]]"
                 " [--inject=site:Nth]\n"
                 "       (--append/--compact are exclusive with --in/--synth"
                 " and --shards)\n");
    return 2;
  }
  std::size_t shards = 0;
  int build_threads = 0;
  std::uint64_t seed = 0;
  synth::DatabaseSpec spec;
  cluster::PartitionStrategy strategy{};
  DbIndexConfig config;
  try {
    if (!stats_mode.empty() && stats_mode != "table" &&
        stats_mode != "json") {
      throw UsageError("unknown --stats mode '" + stats_mode +
                       "' (expected --stats or --stats=json)");
    }
    shards = arg_number<std::size_t>(argc, argv, "shards", 0, 0, kMaxShards);
    if (shards > 0 && (!append_path.empty() || compact)) {
      throw UsageError("--shards is exclusive with --append/--compact");
    }
    if (shards > 0 && !stats_mode.empty()) {
      throw UsageError("--stats is not available with --shards (a sharded"
                       " build prints no stats)");
    }
    build_threads =
        arg_number(argc, argv, "build-threads", 0, 0, kMaxThreads);
    const std::size_t residues = arg_number<std::size_t>(
        argc, argv, "residues", 1 << 22, 1, std::size_t{1} << 40);
    if (!synth_preset.empty()) {
      spec = arg_parsed(argc, argv, "synth", "",
                        [&](const std::string& name) {
                          return synth::preset(name, residues);
                        });
    }
    strategy =
        arg_parsed(argc, argv, "strategy", "rr", cluster::parse_strategy);
    seed = arg_number<std::uint64_t>(
        argc, argv, "seed", 42, 0,
        std::numeric_limits<std::uint64_t>::max());
    config.block_bytes =
        arg_number<std::size_t>(argc, argv, "block-kb", 512, 4, 1 << 20) *
        1024;
    config.neighbor_threshold =
        arg_number<Score>(argc, argv, "threshold", 11, 0, 1000);
    config.long_seq_limit = arg_number<std::size_t>(
        argc, argv, "long-limit", 8192, config.long_seq_overlap + 1,
        std::size_t{1} << 32);
    config.build_threads = build_threads;
    const std::string inject = arg_str(argc, argv, "inject", "");
    if (!inject.empty()) {
      try {
        fi::arm_from_spec(inject);
      } catch (const Error& e) {
        throw UsageError("bad --inject spec '" + inject + "': " + e.what());
      }
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (stats_mode == "json") g_info = stderr;

  try {
    if (compact) {
      Timer t;
      const CompactResult res = compact_generations(out_path, build_threads);
      info("compacted chain -> %s (generation %u) in %.2fs\n",
           res.compact_path.c_str(), res.generation, t.seconds());
      for (const std::string& gone : res.removed) {
        info("removed stale %s\n", gone.c_str());
      }
      if (!stats_mode.empty()) {
        // The compacted member holds the whole database; its totals come
        // from the freshly published manifest.
        const ResolvedGeneration now = resolve_generations(out_path);
        emit_stats(stats_mode,
                   build_stats_of(res.telemetry, res.generation, 1,
                                  now.manifest ? now.manifest->total_sequences
                                               : 0,
                                  now.manifest ? now.manifest->total_residues
                                               : 0));
      }
      return 0;
    }

    SequenceStore db;
    const std::string read_path =
        append_path.empty() ? in_path : append_path;
    if (!read_path.empty()) {
      Timer t;
      const std::size_t n = read_fasta_file(read_path, db);
      info("read %zu sequences (%zu residues) from %s in %.2fs\n", n,
           db.total_residues(), read_path.c_str(), t.seconds());
    } else {
      db = synth::generate_database(spec, seed);
      info("generated %s: %zu sequences, %zu residues (seed %llu)\n",
           spec.name.c_str(), db.size(), db.total_residues(),
           static_cast<unsigned long long>(seed));
    }

    if (!append_path.empty()) {
      Timer t;
      const AppendResult res =
          append_generation(out_path, db, build_threads);
      if (res.orphans_removed != 0) {
        info("removed %zu orphaned temp file(s)\n", res.orphans_removed);
      }
      info("appended %zu sequences -> %s, published generation %u"
           " (%u member chain) in %.2fs\n",
           db.size(), res.delta_path.c_str(), res.generation,
           res.chain_length, t.seconds());
      if (!stats_mode.empty()) {
        emit_stats(stats_mode,
                   build_stats_of(res.telemetry, res.generation,
                                  res.chain_length, db.size(),
                                  db.total_residues()));
      }
      return 0;
    }

    if (shards > 0) {
      make_sharded(db, config, out_path, static_cast<int>(shards),
                   strategy);
      return 0;
    }

    Timer t;
    BuildTelemetry telemetry;
    const DbIndex index = DbIndex::build(db, config, &telemetry);
    info("built %zu blocks (T=%d, block %zu KB, %d thread(s)) in %.2fs\n",
         index.blocks().size(), config.neighbor_threshold,
         config.block_bytes / 1024, telemetry.threads, t.seconds());

    t.reset();
    // Durable publish (temp -> fsync -> rename -> dir fsync): exit 0 means
    // the index survives a crash or power loss the instant we return.
    save_db_index_file_durable(out_path, index);
    info("wrote %s in %.2fs\n", out_path.c_str(), t.seconds());
    if (!stats_mode.empty()) {
      emit_stats(stats_mode,
                 build_stats_of(telemetry, 0, 1, db.size(),
                                db.total_residues()));
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e.kind());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
