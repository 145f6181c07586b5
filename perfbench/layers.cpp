// perfbench_layers: the benchmark's traced run, in its own process.
//
// It repeats one workload's search flow -- the calls mublastp_search makes
// for that database layout -- and times each module's public entry point
// around the call. Then, outside that flow, it times the set-up calls
// (index build, save, append) and a few probes, so that every per-layer
// metric is measured on every workload. It prints one JSON object: the
// per-layer metrics, the pipeline counters, the dispatched kernel, and the
// flow's spans.
//
// Usage:
//   perfbench_layers --layout=single|shards|chain --dir=WORKDIR
//                    --query=q.fasta --out=traced.tab [--threads=4]
//
// WORKDIR is what run.py generated: db.fasta and its single index db.mbi
// for every layout, db.shardset* (shards) or base.fasta, delta.fasta and
// the chain.mbi* generation chain (chain). Set-up probes write under
// WORKDIR/probe.
//
// Flow per layout (the calls of one mublastp_search command):
//   single  index.open (MappedDbIndex), fasta.parse (read_fasta_file),
//           core.search (MuBlastpEngine::search_batch), report.render
//   shards  cluster.load (ShardSet::load), fasta.parse,
//           cluster.search (search_sharded, thread workers), report.render
//   chain   cluster.load (GenerationChain::load), fasta.parse,
//           cluster.search (search_chain), report.render
// The flow's spans plus the gaps between them must add up to its wall time
// within 2%; the process exits 3 if they do not.
//
// Stage numbers are CPU time summed over threads (`*_cpu_s`): from
// stats::PipelineStats on the single layout, and from the tracer's stage
// spans on the cluster layouts, whose entry points take no PipelineStats.
// Exit codes: 0 ok, 1 error, 2 usage, 3 attribution check failed.
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/gen_chain.hpp"
#include "cluster/orchestrator.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/mublastp_engine.hpp"
#include "fasta/fasta.hpp"
#include "index/db_index.hpp"
#include "index/db_index_io.hpp"
#include "index/generation.hpp"
#include "index/mapped_db_index.hpp"
#include "report/report.hpp"
#include "score/matrix.hpp"
#include "simd/dispatch.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mublastp;

// The tool's default report size (mublastp_search --max-alignments).
constexpr std::size_t kMaxAlignments = 25;

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

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double file_mb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / 1e6;
}

double safe_div(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Named, ordered metric list (the JSON keeps this order).
struct Metrics {
  std::vector<std::pair<std::string, double>> items;
  void set(const std::string& name, double value) {
    items.emplace_back(name, value);
  }
};

/// The flow's spans, in call order, on one steady clock.
struct Flow {
  struct Span {
    std::string name;
    double begin = 0.0;
    double end = 0.0;
  };
  double begin = now_s();
  double end = 0.0;
  std::vector<Span> spans;

  /// Records [t0, now] as span `name`; returns its length.
  double close(const std::string& name, double t0) {
    const double t1 = now_s();
    spans.push_back({name, t0, t1});
    return t1 - t0;
  }
};

/// Stage CPU (seconds summed over threads) plus what the per-unit costs
/// divide by. Filled from PipelineStats or from tracer spans.
struct CoreNumbers {
  stats::StageSeconds stage{};
  stats::StageCounters counters;
  std::uint64_t alignments = 0;
  stats::GappedKernelStats gapped;
  std::uint64_t workspace_peak_bytes = 0;
  double search_s = 0.0;
};

void add_result_counts(CoreNumbers& core,
                       const std::vector<QueryResult>& results) {
  for (const QueryResult& r : results) {
    core.counters += stats::counters_of(r.stats);
    core.alignments += r.alignments.size();
    core.gapped.int8_runs += r.stats.gapped_int8_runs;
    core.gapped.int16_reruns += r.stats.gapped_int16_reruns;
    core.gapped.scalar_fallbacks += r.stats.gapped_scalar_fallbacks;
  }
}

/// A tracer whose lanes hold a whole short-query block round between
/// flushes, so no stage span is dropped.
trace::TracerOptions tracer_options() {
  trace::TracerOptions opts;
  opts.ring_capacity = std::size_t{1} << 16;
  return opts;
}

/// What a cluster-layer search's spans say: stage CPU, the slowest and
/// fastest member's wall, and the merge span.
struct ClusterSpans {
  stats::StageSeconds stage{};
  double slowest_member_s = 0.0;
  double fastest_member_s = 0.0;
  double merge_s = 0.0;
};

ClusterSpans read_cluster_spans(trace::Tracer& tracer) {
  tracer.flush();
  MUBLASTP_CHECK(tracer.dropped() == 0, "tracer dropped stage spans");
  ClusterSpans out;
  std::vector<double> members;
  for (const trace::Span& s : tracer.spans()) {
    const double d = static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
    const int kind = static_cast<int>(s.kind);
    if (kind < stats::kNumStages) {
      out.stage[static_cast<std::size_t>(kind)] += d;
    } else if (s.kind == trace::SpanKind::kShardWorker) {
      members.push_back(d);
    } else if (s.kind == trace::SpanKind::kMerge) {
      out.merge_s += d;
    }
  }
  if (!members.empty()) {
    out.slowest_member_s = *std::max_element(members.begin(), members.end());
    out.fastest_member_s = *std::min_element(members.begin(), members.end());
  }
  return out;
}

/// cluster.imbalance is ShardsStats::imbalance_measured's formula,
/// (max - min) / max over member walls, for both partition kinds.
void set_cluster_metrics(Metrics& m, double load_s, double search_s,
                         const ClusterSpans& cs) {
  m.set("cluster.load_s", load_s);
  m.set("cluster.search_s", search_s);
  m.set("cluster.slowest_member_s", cs.slowest_member_s);
  m.set("cluster.imbalance",
        safe_div(cs.slowest_member_s - cs.fastest_member_s,
                 cs.slowest_member_s));
  m.set("cluster.merge_s", cs.merge_s);
}

void set_core_metrics(Metrics& m, const CoreNumbers& c, int threads) {
  using stats::Stage;
  const auto st = [&](Stage s) { return c.stage[static_cast<int>(s)]; };
  double stage_cpu = 0.0;
  for (double s : c.stage) stage_cpu += s;
  const stats::StageCounters& n = c.counters;
  m.set("core.search_s", c.search_s);
  m.set("core.busy_frac", safe_div(stage_cpu, threads * c.search_s));
  m.set("core.hit_detect_cpu_s", st(Stage::kHitDetect));
  m.set("core.hit_detect_ns_per_hit",
        safe_div(st(Stage::kHitDetect) * 1e9, static_cast<double>(n.hits)));
  m.set("core.sort_cpu_s", st(Stage::kSort));
  m.set("core.sort_ns_per_record",
        safe_div(st(Stage::kSort) * 1e9,
                 static_cast<double>(n.sorted_records)));
  m.set("core.ungapped_cpu_s", st(Stage::kUngapped));
  m.set("core.ungapped_ns_per_ext",
        safe_div(st(Stage::kUngapped) * 1e9,
                 static_cast<double>(n.extensions)));
  m.set("core.gapped_cpu_s", st(Stage::kGapped));
  m.set("core.gapped_us_per_ext",
        safe_div(st(Stage::kGapped) * 1e6,
                 static_cast<double>(n.gapped_extensions)));
  m.set("core.finalize_cpu_s", st(Stage::kFinalize));
  m.set("core.finalize_us_per_alignment",
        safe_div(st(Stage::kFinalize) * 1e6,
                 static_cast<double>(c.alignments)));
  m.set("core.workspace_peak_mb",
        static_cast<double>(c.workspace_peak_bytes) / 1e6);
  m.set("core.hits", static_cast<double>(n.hits));
  m.set("core.hit_pairs", static_cast<double>(n.hit_pairs));
  m.set("core.extensions", static_cast<double>(n.extensions));
  m.set("core.ungapped_alignments",
        static_cast<double>(n.ungapped_alignments));
  m.set("core.gapped_extensions", static_cast<double>(n.gapped_extensions));
  m.set("core.alignments", static_cast<double>(c.alignments));
  m.set("core.prefilter_survival", n.survival_ratio());
  m.set("core.ungapped_yield",
        safe_div(static_cast<double>(n.ungapped_alignments),
                 static_cast<double>(n.extensions)));
  m.set("core.gapped_yield",
        safe_div(static_cast<double>(c.alignments),
                 static_cast<double>(n.gapped_extensions)));
  const double halves = static_cast<double>(
      c.gapped.int8_runs + c.gapped.int16_reruns + c.gapped.scalar_fallbacks);
  m.set("simd.int16_rerun_frac",
        safe_div(static_cast<double>(c.gapped.int16_reruns), halves));
}

/// Reads a whole file into memory (the CRC probe's input).
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo, "cannot read " + path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// CRC32 throughput over the index files the flow verifies at open: the
/// median of three passes over the bytes, already in memory.
double crc32_mb_per_s(const std::vector<std::string>& paths) {
  std::vector<std::string> images;
  double mb = 0.0;
  for (const std::string& p : paths) {
    images.push_back(slurp(p));
    mb += static_cast<double>(images.back().size()) / 1e6;
  }
  std::vector<double> rates;
  volatile std::uint32_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    std::uint32_t crc = 0;
    for (const std::string& img : images) crc ^= crc32(img.data(), img.size());
    rates.push_back(mb / (now_s() - t0));
    sink = sink ^ crc;
  }
  std::sort(rates.begin(), rates.end());
  return rates[1];
}

/// Query parse, index open and report render, plus the CRC32 throughput
/// over `crc_files`, the index files the flow verifies.
void set_io_metrics(Metrics& m, const std::string& query_path, double parse_s,
                    const std::string& index_path, double open_s,
                    const std::string& out_path, double render_s,
                    std::uint64_t alignments,
                    const std::vector<std::string>& crc_files) {
  m.set("fasta.parse_s", parse_s);
  m.set("fasta.parse_mb_per_s", safe_div(file_mb(query_path), parse_s));
  m.set("index.open_s", open_s);
  m.set("index.open_mb_per_s", safe_div(file_mb(index_path), open_s));
  m.set("report.render_s", render_s);
  m.set("report.ns_per_alignment",
        safe_div(render_s * 1e9, static_cast<double>(alignments)));
  m.set("report.mb", file_mb(out_path));
  m.set("common.crc32_mb_per_s", crc32_mb_per_s(crc_files));
}

/// The CLI's default (degraded-mode) mmap open.
MappedDbIndex open_mapped(const std::string& path) {
  MappedDbIndexOptions opts;
  opts.tolerate_block_corruption = true;
  opts.prefault = true;
  return MappedDbIndex(path, opts);
}

void write_report(const std::string& out_path, const SequenceStore& queries,
                  const std::vector<QueryResult>& results,
                  const DbIndexView* view, const SequenceStore* db) {
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  MUBLASTP_CHECK_KIND(out.good(), ErrorKind::kIo,
                      "cannot open output file: " + out_path);
  for (SeqId q = 0; q < queries.size(); ++q) {
    if (view != nullptr) {
      write_tabular(out, queries.name(q), queries.sequence(q), *view,
                    results[q], blosum62());
    } else {
      write_tabular(out, queries.name(q), queries.sequence(q), *db,
                    results[q], blosum62());
    }
  }
  out.flush();
  MUBLASTP_CHECK_KIND(!out.bad(), ErrorKind::kIo, "write failure on report");
}

/// Set-up calls of makedb, in-process: build + durable save of the base
/// database, then (chain) the append. Non-chain layouts append the query
/// set to their probe copy, so index.append_s is measured everywhere.
void time_setup(Metrics& m, const std::string& layout, const std::string& dir,
                const std::string& query_path) {
  const std::string probe = dir + "/probe";
  std::filesystem::remove_all(probe);
  std::filesystem::create_directories(probe);
  const bool chain = layout == "chain";

  SequenceStore base;
  read_fasta_file(dir + (chain ? "/base.fasta" : "/db.fasta"), base);
  double t0 = now_s();
  const DbIndex index = DbIndex::build(base, DbIndexConfig{});
  const double build_s = now_s() - t0;
  const std::string base_path = probe + "/base.mbi";
  t0 = now_s();
  save_db_index_file_durable(base_path, index);
  const double save_s = now_s() - t0;

  SequenceStore delta;
  read_fasta_file(chain ? dir + "/delta.fasta" : query_path, delta);
  t0 = now_s();
  append_generation(base_path, delta);
  const double append_s = now_s() - t0;

  m.set("index.build_s", build_s);
  m.set("index.build_mres_per_s",
        safe_div(static_cast<double>(base.total_residues()) / 1e6, build_s));
  m.set("index.save_s", save_s);
  m.set("index.append_s", append_s);
  std::filesystem::remove_all(probe);
}

struct FlowResult {
  Metrics metrics;
  CoreNumbers core;
  Flow flow;
};

void run_single(const std::string& dir, const std::string& query_path,
                const std::string& out_path, int threads, FlowResult& r) {
  Metrics& m = r.metrics;
  Flow& flow = r.flow;
  const std::string index_path = dir + "/db.mbi";

  double t0 = now_s();
  const MappedDbIndex mapped = open_mapped(index_path);
  const double open_s = flow.close("index.open", t0);
  const DbIndexView view(mapped);

  t0 = now_s();
  SequenceStore queries;
  read_fasta_file(query_path, queries);
  const double parse_s = flow.close("fasta.parse", t0);

  SearchParams params;
  params.max_alignments = kMaxAlignments;
  const MuBlastpEngine engine(view, params, MuBlastpOptions{});
  stats::PipelineStats ps;
  stats::DegradedStats degraded;
  t0 = now_s();
  const std::vector<QueryResult> results =
      engine.search_batch(queries, threads, &ps, &degraded);
  r.core.search_s = flow.close("core.search", t0);
  MUBLASTP_CHECK(!degraded.any(), "traced search ran degraded");

  t0 = now_s();
  write_report(out_path, queries, results, &view, nullptr);
  const double render_s = flow.close("report.render", t0);
  flow.end = now_s();

  const stats::PipelineSnapshot snap = ps.snapshot();
  r.core.stage = snap.stage_seconds;
  r.core.workspace_peak_bytes = snap.workspace_peak_bytes;
  add_result_counts(r.core, results);
  MUBLASTP_CHECK(r.core.counters == snap.totals,
                 "PipelineStats totals disagree with the per-query counters");

  set_io_metrics(m, query_path, parse_s, index_path, open_s, out_path,
                 render_s, r.core.alignments, {index_path});

  // Probe: the same database searched as a 1-member generation chain, the
  // cluster layer's cost where the CLI bypasses it.
  cluster::GenChainOptions copts;
  copts.params.max_alignments = kMaxAlignments;
  stats::DegradedStats chain_degraded;
  t0 = now_s();
  const cluster::GenerationChain chain =
      cluster::GenerationChain::load(index_path, copts, &chain_degraded);
  const double load_s = now_s() - t0;
  trace::Tracer tracer(tracer_options());
  t0 = now_s();
  const cluster::ChainSearchResult cres =
      cluster::search_chain(chain, queries, threads, &tracer);
  const double search_s = now_s() - t0;
  CoreNumbers check;
  add_result_counts(check, cres.results);
  MUBLASTP_CHECK(check.counters == r.core.counters &&
                     check.alignments == r.core.alignments,
                 "1-member chain probe disagrees with the single-index search");
  set_cluster_metrics(m, load_s, search_s, read_cluster_spans(tracer));
}

void run_cluster(const std::string& layout, const std::string& dir,
                 const std::string& query_path, const std::string& out_path,
                 int threads, FlowResult& r) {
  Metrics& m = r.metrics;
  Flow& flow = r.flow;
  const bool shards = layout == "shards";
  const std::string db_path = dir + (shards ? "/db.shardset" : "/chain.mbi");
  stats::DegradedStats degraded;
  trace::Tracer tracer(tracer_options());

  std::optional<cluster::ShardSet> set;
  std::optional<cluster::GenerationChain> chain;
  std::vector<std::string> member_files;
  double t0 = now_s();
  if (shards) {
    cluster::ShardSetOptions sopts;
    sopts.params.max_alignments = kMaxAlignments;
    set.emplace(cluster::ShardSet::load(db_path, sopts, &degraded));
    for (std::uint32_t k = 0; k < set->shard_count(); ++k) {
      member_files.push_back(db_path + ".shard" + std::to_string(k));
    }
  } else {
    cluster::GenChainOptions copts;
    copts.params.max_alignments = kMaxAlignments;
    chain.emplace(cluster::GenerationChain::load(db_path, copts, &degraded));
    for (std::uint32_t k = 0; k < chain->member_count(); ++k) {
      member_files.push_back(chain->member_path(k));
    }
  }
  const double load_s = flow.close("cluster.load", t0);

  t0 = now_s();
  SequenceStore queries;
  read_fasta_file(query_path, queries);
  const double parse_s = flow.close("fasta.parse", t0);

  t0 = now_s();
  std::vector<QueryResult> results;
  if (shards) {
    cluster::ShardedSearchResult res = cluster::search_sharded(
        *set, queries, threads, cluster::ShardWorkerMode::kThread, &tracer);
    degraded = res.degraded;
    results = std::move(res.results);
  } else {
    cluster::ChainSearchResult res =
        cluster::search_chain(*chain, queries, threads, &tracer);
    degraded = res.degraded;
    results = std::move(res.results);
  }
  const double search_s = flow.close("cluster.search", t0);
  MUBLASTP_CHECK(!degraded.any(), "traced cluster search ran degraded");

  t0 = now_s();
  write_report(out_path, queries, results, nullptr,
               shards ? &set->global_db() : &chain->global_db());
  const double render_s = flow.close("report.render", t0);
  flow.end = now_s();

  const ClusterSpans cs = read_cluster_spans(tracer);
  r.core.stage = cs.stage;
  r.core.search_s = search_s - cs.merge_s;
  add_result_counts(r.core, results);

  // Probe: the mmap open of the workload's single index, which the
  // cluster layouts bypass.
  const std::string single = dir + "/db.mbi";
  t0 = now_s();
  { const MappedDbIndex probe = open_mapped(single); }
  const double open_s = now_s() - t0;
  set_io_metrics(m, query_path, parse_s, single, open_s, out_path, render_s,
                 r.core.alignments, member_files);
  set_cluster_metrics(m, load_s, search_s, cs);
}

/// Prints `s` as a JSON string literal (names here are plain ASCII).
void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  const std::string layout = arg_str(argc, argv, "layout", "");
  const std::string dir = arg_str(argc, argv, "dir", "");
  const std::string query_path = arg_str(argc, argv, "query", "");
  const std::string out_path = arg_str(argc, argv, "out", "");
  const int threads = std::atoi(arg_str(argc, argv, "threads", "4").c_str());
  if ((layout != "single" && layout != "shards" && layout != "chain") ||
      dir.empty() || query_path.empty() || out_path.empty() || threads <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_layers --layout=single|shards|chain"
                 " --dir=WORKDIR --query=q.fasta --out=traced.tab"
                 " [--threads=4]\n");
    return 2;
  }

  try {
    FlowResult r;
    if (layout == "single") {
      run_single(dir, query_path, out_path, threads, r);
    } else {
      run_cluster(layout, dir, query_path, out_path, threads, r);
    }
    set_core_metrics(r.metrics, r.core, threads);
    time_setup(r.metrics, layout, dir, query_path);

    // Attribution: spans in call order, no overlap, and spans plus the gaps
    // between them equal the flow's wall time within 2%.
    const Flow& flow = r.flow;
    const double wall = flow.end - flow.begin;
    double attributed = 0.0;
    double gaps = 0.0;
    double cursor = flow.begin;
    bool ordered = true;
    for (const Flow::Span& s : flow.spans) {
      ordered = ordered && s.begin >= cursor && s.end >= s.begin;
      gaps += s.begin - cursor;
      attributed += s.end - s.begin;
      cursor = s.end;
    }
    gaps += flow.end - cursor;
    r.metrics.set("run.traced_wall_s", wall);
    r.metrics.set("run.unattributed_s", gaps);
    const double mismatch = std::abs(attributed + gaps - wall);
    if (!ordered || mismatch > 0.02 * wall) {
      std::fprintf(stderr,
                   "error: layer spans (%.6fs) + unattributed (%.6fs) do not"
                   " match the traced wall (%.6fs) within 2%%\n",
                   attributed, gaps, wall);
      return 3;
    }

    std::printf("{\"kernel\": ");
    print_json_string(simd::kernel_name(simd::default_kernel()));
    std::printf(", \"threads\": %d, \"omp_max_threads\": %d", threads,
                omp_get_max_threads());
    const stats::StageCounters& n = r.core.counters;
    std::printf(", \"counters\": {\"hits\": %llu, \"hit_pairs\": %llu,"
                " \"sorted_records\": %llu, \"extensions\": %llu,"
                " \"ungapped_alignments\": %llu, \"gapped_extensions\": %llu}",
                static_cast<unsigned long long>(n.hits),
                static_cast<unsigned long long>(n.hit_pairs),
                static_cast<unsigned long long>(n.sorted_records),
                static_cast<unsigned long long>(n.extensions),
                static_cast<unsigned long long>(n.ungapped_alignments),
                static_cast<unsigned long long>(n.gapped_extensions));
    std::printf(", \"spans\": [");
    for (std::size_t i = 0; i < flow.spans.size(); ++i) {
      std::printf("%s{\"name\": ", i == 0 ? "" : ", ");
      print_json_string(flow.spans[i].name);
      std::printf(", \"s\": %.9g}", flow.spans[i].end - flow.spans[i].begin);
    }
    std::printf("], \"metrics\": {");
    for (std::size_t i = 0; i < r.metrics.items.size(); ++i) {
      std::printf("%s", i == 0 ? "" : ", ");
      print_json_string(r.metrics.items[i].first);
      std::printf(": %.9g", r.metrics.items[i].second);
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
