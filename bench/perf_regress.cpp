// perf_regress: the SIMD-kernel perf-regression harness.
//
// Runs the same synthetic workload through the muBLASTP pipeline once per
// kernel the CPU supports (scalar always; AVX2 when available)
// and reports per-stage timings, throughput, and each configuration's
// speedup over scalar — the banded gapped DP and (since the flattened
// hit-scan kernels) stage-1 hit detection are the stages the SIMD paths
// target. Counters are asserted identical across kernels (exit 1 on any
// mismatch), so a run doubles as an equivalence check on a perf-sized
// workload.
//
//   perf_regress [--residues=N] [--queries=K] [--qlen=L] [--seed=S]
//                [--threads=T] [--reps=R] [--json=out.json]
//
// Timings are the minimum over --reps repetitions (per kernel), the usual
// noise floor for regression tracking. --json writes the machine-readable
// "mublastp-bench-v1" document tools/bench_to_json.py wraps.
//
// A second section times the striped Smith-Waterman kernel against the
// scalar DP on query-vs-sampled-subject pairs — the alignment kernel is
// where int16-lane SIMD pays off regardless of extension length.
//
// A third section covers the incremental-build path: DbIndex::build
// throughput at 1 thread vs all threads (the OpenMP block construction),
// and the search overhead of a 2-member base+delta generation chain on
// disk versus one canonical index over the same sequences — the price of
// skipping --compact. Alignment counts are asserted identical between the
// two, so this section too doubles as an equivalence check.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "baseline/smith_waterman.hpp"
#include "bench_common.hpp"
#include "cluster/member_set.hpp"
#include "common/faultinject.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index.hpp"
#include "index/db_index_io.hpp"
#include "index/generation.hpp"
#include "simd/dispatch.hpp"
#include "stats/stats.hpp"

namespace {

using namespace mublastp;

std::string arg_str(int argc, char** argv, const std::string& key,
                    const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

struct KernelRun {
  simd::KernelPath path;
  std::string name;              ///< "scalar", "avx2"
  stats::PipelineSnapshot best;  ///< rep with the fastest total
};

double stage_sec(const stats::PipelineSnapshot& s, stats::Stage st) {
  return s.stage_seconds[static_cast<int>(st)];
}

void append_json_run(std::string& out, const KernelRun& r) {
  // Floats go through jsonw so the emitted bytes are identical under any
  // LC_NUMERIC (printf %f localizes the decimal separator).
  char buf[256];
  out += "    {\"kernel\": \"";
  out += r.name;
  out += "\", \"stage_seconds\": {";
  for (int s = 0; s < stats::kNumStages; ++s) {
    if (s != 0) out += ", ";
    out += '"';
    out += stats::stage_name(static_cast<stats::Stage>(s));
    out += "\": ";
    jsonw::append_fixed(out, r.best.stage_seconds[s], 6);
  }
  const double total = r.best.total_seconds;
  const auto& c = r.best.totals;
  out += "}, \"total_seconds\": ";
  jsonw::append_fixed(out, total, 6);
  out += ", \"hits_per_sec\": ";
  jsonw::append_fixed(out, total > 0 ? static_cast<double>(c.hits) / total
                                     : 0.0, 0);
  out += ", \"extensions_per_sec\": ";
  jsonw::append_fixed(out,
                      total > 0 ? static_cast<double>(c.extensions) / total
                                : 0.0, 0);
  out += ',';
  std::snprintf(buf, sizeof(buf),
                " \"counters\": {\"hits\": %llu, \"hit_pairs\": %llu,"
                " \"extensions\": %llu, \"ungapped_alignments\": %llu,"
                " \"gapped_extensions\": %llu},",
                static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.hit_pairs),
                static_cast<unsigned long long>(c.extensions),
                static_cast<unsigned long long>(c.ungapped_alignments),
                static_cast<unsigned long long>(c.gapped_extensions));
  out += buf;
  const stats::GappedKernelStats& gk = r.best.gapped_kernel;
  std::snprintf(buf, sizeof(buf),
                " \"gapped_kernel\": {\"int8_runs\": %llu,"
                " \"int16_reruns\": %llu, \"scalar_fallbacks\": %llu}",
                static_cast<unsigned long long>(gk.int8_runs),
                static_cast<unsigned long long>(gk.int16_reruns),
                static_cast<unsigned long long>(gk.scalar_fallbacks));
  out += buf;
  const stats::HitKernelStats& hk = r.best.hit_kernel;
  std::snprintf(buf, sizeof(buf),
                ", \"hit_kernel\": {\"flatten_builds\": %llu,"
                " \"flatten_seconds\": ",
                static_cast<unsigned long long>(hk.flatten_builds));
  out += buf;
  jsonw::append_fixed(out, hk.flatten_seconds, 6);
  std::snprintf(buf, sizeof(buf),
                ", \"tiles\": %llu, \"tail_entries\": %llu}}",
                static_cast<unsigned long long>(hk.tiles),
                static_cast<unsigned long long>(hk.tail_entries));
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  // Armed fault injection would turn the recovery paths' overhead into
  // phantom perf regressions (and can abort a stage mid-timing): refuse.
  if (fi::any_armed()) {
    std::fprintf(stderr,
                 "perf_regress: fault injection is armed (MUBLASTP_FAULTS); "
                 "refusing to benchmark a degraded pipeline\n");
    return 2;
  }
  const std::size_t residues = bench::arg_size(argc, argv, "residues", 1u << 22);
  const std::size_t nq = bench::arg_size(argc, argv, "queries", 8);
  const std::size_t qlen = bench::arg_size(argc, argv, "qlen", 256);
  const std::uint64_t seed = bench::arg_size(argc, argv, "seed", 515);
  const int threads =
      static_cast<int>(bench::arg_size(argc, argv, "threads", 1));
  const std::size_t reps = bench::arg_size(argc, argv, "reps", 3);
  const std::string json_path = arg_str(argc, argv, "json", "");

  bench::print_header("perf_regress", "SIMD kernel perf regression", seed);
  const SequenceStore db = bench::make_db(synth::sprot_like(residues), seed);
  Rng rng(seed + 1);
  const SequenceStore queries = synth::sample_queries(db, nq, qlen, rng);
  Timer t;
  const DbIndex index = DbIndex::build(db, {});
  std::printf("[setup] index: %zu blocks (%.2fs)\n", index.blocks().size(),
              t.seconds());
  std::printf("[setup] %zu queries x %zu residues, %d thread(s), %zu reps\n",
              queries.size(), qlen, threads, reps);
  std::printf("[setup] auto-dispatch kernel: %s\n",
              simd::kernel_name(simd::default_kernel()));

  std::vector<simd::KernelPath> paths = {simd::KernelPath::kScalar};
  if (simd::kernel_supported(simd::KernelPath::kAvx2)) {
    paths.push_back(simd::KernelPath::kAvx2);
  }

  std::vector<KernelRun> runs;
  for (const simd::KernelPath path : paths) {
    MuBlastpOptions options;
    options.kernel = path;
    const MuBlastpEngine engine(index, {}, options);
    std::optional<stats::PipelineSnapshot> best;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      stats::PipelineStats ps;
      (void)engine.search_batch(queries, threads, &ps);
      stats::PipelineSnapshot snap = ps.snapshot();
      if (!best || snap.total_seconds < best->total_seconds) {
        best = std::move(snap);
      }
    }
    runs.push_back({path, simd::kernel_name(path), std::move(*best)});
    std::printf("[run] %-14s ungapped %.4fs gapped %.4fs total %.4fs\n",
                runs.back().name.c_str(),
                stage_sec(runs.back().best, stats::Stage::kUngapped),
                stage_sec(runs.back().best, stats::Stage::kGapped),
                runs.back().best.total_seconds);
  }

  // Equivalence gate: every kernel's counters must equal scalar's.
  bool counters_ok = true;
  for (const KernelRun& r : runs) {
    if (r.best.totals != runs.front().best.totals) {
      std::printf("COUNTER MISMATCH: %s differs from scalar\n",
                  r.name.c_str());
      counters_ok = false;
    }
  }
  // The scalar run never enters the banded kernel, so it books no tiers.
  if (runs.front().best.gapped_kernel.any()) {
    std::printf("TIER MISMATCH: scalar run booked gapped-kernel tiers\n");
    counters_ok = false;
  }

  std::printf("\n%-14s %10s %10s %10s %10s %10s %10s %9s %9s %9s\n",
              "kernel", "detect", "sort", "ungapped", "gapped", "finalize",
              "total", "x detect", "x gapped", "x total");
  const double base_detect =
      stage_sec(runs.front().best, stats::Stage::kHitDetect);
  const double base_ungap =
      stage_sec(runs.front().best, stats::Stage::kUngapped);
  const double base_gapped =
      stage_sec(runs.front().best, stats::Stage::kGapped);
  const double base_total = runs.front().best.total_seconds;
  for (const KernelRun& r : runs) {
    const double detect = stage_sec(r.best, stats::Stage::kHitDetect);
    const double gapped = stage_sec(r.best, stats::Stage::kGapped);
    const double total = r.best.total_seconds;
    std::printf(
        "%-14s %9.4fs %9.4fs %9.4fs %9.4fs %9.4fs %9.4fs %8.2fx %8.2fx"
        " %8.2fx\n",
        r.name.c_str(), detect,
        stage_sec(r.best, stats::Stage::kSort),
        stage_sec(r.best, stats::Stage::kUngapped), gapped,
        stage_sec(r.best, stats::Stage::kFinalize), total,
        detect > 0 ? base_detect / detect : 0.0,
        gapped > 0 ? base_gapped / gapped : 0.0,
        total > 0 ? base_total / total : 0.0);
  }
  std::printf("counters: %s\n",
              counters_ok ? "identical across kernels" : "MISMATCH");

  // ---- Striped Smith-Waterman: the alignment-kernel side of dispatch. ---
  std::vector<std::span<const Residue>> sw_subjects;
  const SeqId sw_stride = static_cast<SeqId>(db.size() / 32 + 1);
  for (SeqId sid = 0; sid < db.size() && sw_subjects.size() < 32;
       sid += sw_stride) {
    sw_subjects.push_back(db.sequence(sid));
  }
  const SearchParams sw_params;
  struct SwRun {
    simd::KernelPath path;
    double secs;
    long long checksum;
  };
  std::vector<SwRun> sw_runs;
  for (const simd::KernelPath path : paths) {
    double best_sec = 1e100;
    long long checksum = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      checksum = 0;
      Timer st;
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        for (const std::span<const Residue> subj : sw_subjects) {
          checksum += smith_waterman_score(queries.sequence(qi), subj,
                                           blosum62(), sw_params.gap_open,
                                           sw_params.gap_extend, path);
        }
      }
      best_sec = std::min(best_sec, st.seconds());
    }
    sw_runs.push_back({path, best_sec, checksum});
  }
  bool sw_ok = true;
  for (const SwRun& r : sw_runs) {
    if (r.checksum != sw_runs.front().checksum) sw_ok = false;
  }
  std::printf("\nsmith-waterman (%zu query x %zu subject pairs):\n",
              queries.size(), sw_subjects.size());
  for (const SwRun& r : sw_runs) {
    std::printf("%-8s %9.4fs %8.2fx\n", simd::kernel_name(r.path), r.secs,
                r.secs > 0 ? sw_runs.front().secs / r.secs : 0.0);
  }
  std::printf("sw scores: %s\n",
              sw_ok ? "identical across kernels" : "MISMATCH");
  counters_ok = counters_ok && sw_ok;

  // ---- Incremental builds: parallel index construction + chain price. ---
  double build_sec_1 = 1e100;
  double build_sec_n = 1e100;
  int build_threads_n = 1;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    DbIndexConfig cfg1;
    cfg1.build_threads = 1;
    BuildTelemetry tele1;
    (void)DbIndex::build(db, cfg1, &tele1);
    build_sec_1 = std::min(build_sec_1, tele1.total_seconds);
    DbIndexConfig cfgn;
    cfgn.build_threads = 0;  // all available
    BuildTelemetry telen;
    (void)DbIndex::build(db, cfgn, &telen);
    build_sec_n = std::min(build_sec_n, telen.total_seconds);
    build_threads_n = telen.threads;
  }
  std::printf("\nindex build (%zu residues):\n", residues);
  std::printf("%-10s %9.4fs %12.0f residues/s\n", "1 thread", build_sec_1,
              build_sec_1 > 0 ? static_cast<double>(residues) / build_sec_1
                              : 0.0);
  std::printf("%-10s %9.4fs %12.0f residues/s %8.2fx\n",
              (std::to_string(build_threads_n) + " threads").c_str(),
              build_sec_n,
              build_sec_n > 0 ? static_cast<double>(residues) / build_sec_n
                              : 0.0,
              build_sec_n > 0 ? build_sec_1 / build_sec_n : 0.0);

  // The chain price: base (first 2/3) + appended delta (last 1/3) searched
  // through the on-disk generation protocol vs one canonical index. Same
  // sequences in the same global order, so the merged output must agree.
  const std::filesystem::path chain_base =
      std::filesystem::temp_directory_path() /
      ("mublastp_perf_chain_" + std::to_string(::getpid()) + ".mbi");
  SequenceStore db_base;
  SequenceStore db_delta;
  const SeqId split = static_cast<SeqId>(db.size() * 2 / 3);
  for (SeqId sid = 0; sid < db.size(); ++sid) {
    (sid < split ? db_base : db_delta).add(db.sequence(sid), db.name(sid));
  }
  save_db_index_file_durable(chain_base.string(), DbIndex::build(db_base, {}));
  const AppendResult appended =
      append_generation(chain_base.string(), db_delta);
  const cluster::MemberSet chain = cluster::MemberSet::open_index(
      chain_base.string(), {SearchParams{}, MuBlastpOptions{}, true}, nullptr);
  std::filesystem::remove(chain_base);
  std::filesystem::remove(appended.delta_path);
  std::filesystem::remove(appended.manifest_path);

  const MuBlastpEngine full_engine(index, {}, {});
  double full_sec = 1e100;
  double chain_sec = 1e100;
  std::uint64_t full_alignments = 0;
  std::uint64_t chain_alignments = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    Timer ft;
    const std::vector<QueryResult> full =
        full_engine.search_batch(queries, threads);
    full_sec = std::min(full_sec, ft.seconds());
    Timer ct;
    const cluster::MemberSearchResult chained =
        chain.search(queries, threads);
    chain_sec = std::min(chain_sec, ct.seconds());
    full_alignments = chain_alignments = 0;
    for (const QueryResult& r : full) full_alignments += r.alignments.size();
    for (const QueryResult& r : chained.results) {
      chain_alignments += r.alignments.size();
    }
  }
  const bool chain_ok = full_alignments == chain_alignments;
  std::printf("\ndelta-search overhead (%u-member chain vs canonical):\n",
              chain.member_count());
  std::printf("%-10s %9.4fs\n", "canonical", full_sec);
  std::printf("%-10s %9.4fs %8.2fx\n", "chain", chain_sec,
              full_sec > 0 ? chain_sec / full_sec : 0.0);
  std::printf("alignments: %s\n",
              chain_ok ? "identical" : "MISMATCH");
  counters_ok = counters_ok && chain_ok;

  if (!json_path.empty()) {
    std::string out;
    out += "{\n  \"schema\": \"mublastp-bench-v1\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"workload\": {\"residues\": %zu, \"queries\": %zu,"
                  " \"qlen\": %zu, \"seed\": %llu, \"threads\": %d,"
                  " \"reps\": %zu},\n",
                  residues, queries.size(), qlen,
                  static_cast<unsigned long long>(seed), threads, reps);
    out += buf;
    out += "  \"auto_kernel\": \"";
    out += simd::kernel_name(simd::default_kernel());
    out += "\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      append_json_run(out, runs[i]);
      out += i + 1 < runs.size() ? ",\n" : "\n";
    }
    out += "  ],\n  \"speedup_vs_scalar\": {";
    bool first = true;
    for (const KernelRun& r : runs) {
      if (r.path == simd::KernelPath::kScalar) continue;
      const double detect = stage_sec(r.best, stats::Stage::kHitDetect);
      const double ungap = stage_sec(r.best, stats::Stage::kUngapped);
      const double gapped = stage_sec(r.best, stats::Stage::kGapped);
      if (!first) out += ", ";
      out += '"';
      out += r.name;
      out += "\": {\"hit_detect\": ";
      jsonw::append_fixed(out, detect > 0 ? base_detect / detect : 0.0, 3);
      out += ", \"ungapped\": ";
      jsonw::append_fixed(out, ungap > 0 ? base_ungap / ungap : 0.0, 3);
      out += ", \"gapped\": ";
      jsonw::append_fixed(out, gapped > 0 ? base_gapped / gapped : 0.0, 3);
      out += ", \"total\": ";
      jsonw::append_fixed(out,
                          r.best.total_seconds > 0
                              ? base_total / r.best.total_seconds
                              : 0.0, 3);
      out += '}';
      first = false;
    }
    out += "},\n  \"smith_waterman\": {";
    std::snprintf(buf, sizeof(buf), "\"pairs\": %zu, \"runs\": [",
                  queries.size() * sw_subjects.size());
    out += buf;
    for (std::size_t i = 0; i < sw_runs.size(); ++i) {
      if (i != 0) out += ", ";
      out += "{\"kernel\": \"";
      out += simd::kernel_name(sw_runs[i].path);
      out += "\", \"seconds\": ";
      jsonw::append_fixed(out, sw_runs[i].secs, 6);
      out += ", \"speedup\": ";
      jsonw::append_fixed(out,
                          sw_runs[i].secs > 0
                              ? sw_runs.front().secs / sw_runs[i].secs
                              : 0.0, 3);
      out += '}';
    }
    std::snprintf(buf, sizeof(buf), "], \"scores_identical\": %s},\n",
                  sw_ok ? "true" : "false");
    out += buf;
    out += "  \"incremental_build\": {\"index_build\": {";
    std::snprintf(buf, sizeof(buf), "\"residues\": %zu, ", residues);
    out += buf;
    out += "\"serial_seconds\": ";
    jsonw::append_fixed(out, build_sec_1, 6);
    std::snprintf(buf, sizeof(buf), ", \"parallel_threads\": %d,"
                  " \"parallel_seconds\": ", build_threads_n);
    out += buf;
    jsonw::append_fixed(out, build_sec_n, 6);
    out += ", \"residues_per_sec\": ";
    jsonw::append_fixed(out,
                        build_sec_n > 0
                            ? static_cast<double>(residues) / build_sec_n
                            : 0.0, 0);
    out += ", \"parallel_speedup\": ";
    jsonw::append_fixed(out, build_sec_n > 0 ? build_sec_1 / build_sec_n
                                             : 0.0, 3);
    std::snprintf(buf, sizeof(buf),
                  "}, \"chain_search\": {\"members\": %u, ",
                  chain.member_count());
    out += buf;
    out += "\"canonical_seconds\": ";
    jsonw::append_fixed(out, full_sec, 6);
    out += ", \"chain_seconds\": ";
    jsonw::append_fixed(out, chain_sec, 6);
    out += ", \"overhead_ratio\": ";
    jsonw::append_fixed(out, full_sec > 0 ? chain_sec / full_sec : 0.0, 3);
    std::snprintf(buf, sizeof(buf), ", \"alignments_identical\": %s}},\n",
                  chain_ok ? "true" : "false");
    out += buf;
    out += "  \"analysis\": \"docs/ALGORITHMS.md section 'SIMD kernels and"
           " dispatch' discusses these numbers: the banded tiered int8/int16"
           " gapped DP is the production vector path; ungapped extension"
           " is scalar on every kernel; striped SW is where the int16 lanes"
           " pay\",\n";
    std::snprintf(buf, sizeof(buf), "  \"counters_identical\": %s\n}\n",
                  counters_ok ? "true" : "false");
    out += buf;
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write '%s'\n", json_path.c_str());
      return 2;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return counters_ok ? 0 : 1;
}
