// Shard balance: the partitioner's PROMISED balance vs what a real sharded
// run MEASURES, for every strategy x shard count — the static half of the
// paper's multi-node load-balancing argument checked against live workers.
//
// Three numbers per (strategy, N) cell:
//  * predicted  — (max - min) / max of per-shard residue counts, straight
//    from the partitioning (MemberSet::predicted_imbalance);
//  * simulated  — the same ratio over per-shard busy seconds from the
//    fig10 discrete-event cost model (irregularity + homolog hot-spots),
//    i.e. what residue imbalance turns into once per-query cost is noisy;
//  * measured   — the ratio over real per-shard worker wall seconds
//    reported by MemberSet::search (stats-v1 "shards" object).
//
// Expectation (the paper's Section IV-D story): round-robin-sorted and
// greedy-lpt keep all three near 0; contiguous partitioning of a
// length-skewed database shows residue balance but can still lose on
// measured time (long-sequence blocks cluster in one shard).
#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "cluster/member_set.hpp"
#include "index/db_index.hpp"

int main(int argc, char** argv) {
  using namespace mublastp;
  namespace cl = mublastp::cluster;

  const std::uint64_t seed = bench::arg_size(argc, argv, "seed", 20170701);
  const std::size_t residues =
      bench::arg_size(argc, argv, "residues", std::size_t{1} << 21);
  const std::size_t n_queries = bench::arg_size(argc, argv, "queries", 8);
  const int threads =
      static_cast<int>(bench::arg_size(argc, argv, "threads", 4));
  bench::print_header("Shard balance",
                      "predicted vs simulated vs measured imbalance", seed);

  const SequenceStore db =
      bench::make_db(synth::sprot_like(residues), seed);
  Rng rng(seed + 1);
  const SequenceStore queries = synth::sample_queries(db, n_queries, 192, rng);
  std::printf("database: %zu sequences, %zu residues; %zu queries x 192\n\n",
              db.size(), db.total_residues(), queries.size());

  std::vector<std::size_t> seq_lens(db.size());
  for (SeqId i = 0; i < db.size(); ++i) seq_lens[i] = db.length(i);
  std::vector<std::size_t> query_lens(queries.size());
  for (SeqId i = 0; i < queries.size(); ++i) query_lens[i] = queries.length(i);

  std::printf("%-20s %3s  %10s %10s %10s\n", "strategy", "N", "predicted",
              "simulated", "measured");
  for (const cl::PartitionStrategy strategy :
       {cl::PartitionStrategy::kContiguous,
        cl::PartitionStrategy::kRoundRobinSorted,
        cl::PartitionStrategy::kGreedyLpt}) {
    for (const int n : {2, 4, 8}) {
      const cl::Partitioning parts =
          cl::make_partitioning(seq_lens, n, strategy);

      // Simulated: run the fig10 cost model over this exact partitioning
      // and balance the per-shard column sums (each shard searches every
      // query once; no scheduling — sharding is a static assignment).
      const auto costs =
          cl::cost_matrix(query_lens, parts.chars, {}, seed + 2);
      std::vector<double> shard_sec(static_cast<std::size_t>(n), 0.0);
      for (const auto& row : costs) {
        for (std::size_t p = 0; p < row.size(); ++p) shard_sec[p] += row[p];
      }
      const auto [slo, shi] =
          std::minmax_element(shard_sec.begin(), shard_sec.end());
      const double simulated = *shi == 0.0 ? 0.0 : (*shi - *slo) / *shi;

      // Measured: a real sharded search, thread workers.
      const cl::MemberSet set =
          cl::MemberSet::partition(db, n, strategy, {}, {});
      const cl::MemberSearchResult res = set.search(queries, threads);

      std::printf("%-20s %3d  %10.3f %10.3f %10.3f\n",
                  cl::strategy_name(strategy), n, parts.imbalance(),
                  simulated, res.shards.imbalance_measured);
    }
  }
  std::printf("\nimbalance = (max - min) / max over shards; 0 is perfect.\n");
  return 0;
}
