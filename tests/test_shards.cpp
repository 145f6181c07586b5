// Sharded-execution campaign (the differential proof of docs/SHARDING.md):
// for every (shard count, partition strategy, worker mode) cell the merged
// sharded output must be bit-identical to the unsharded engine — same
// alignments (scores, E-values, bit scores, tracebacks), same canonical
// ungapped lists, same summed counters, same rendered report lines. Plus
// the failure half: manifest corruption is rejected naming the damaged
// section, a killed shard worker quarantines only that shard, and strict
// mode fails closed with the documented error kinds.
#include "cluster/member_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/shard_manifest.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index_format.hpp"
#include "index/db_index_io.hpp"
#include "index/db_index_view.hpp"
#include "report/report.hpp"
#include "score/matrix.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"
#include "temp_path.hpp"

namespace mublastp::cluster {
namespace {

SearchParams test_params() {
  SearchParams p;
  // Small enough that the global top-k truncation is actually exercised by
  // the merge (several shards must compete for the k slots).
  p.max_alignments = 10;
  return p;
}

DbIndexConfig test_config() {
  DbIndexConfig cfg;
  cfg.block_bytes = 64 * 1024;
  return cfg;
}

/// Shared corpus + unsharded reference results, built once.
class ShardCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new SequenceStore(
        synth::generate_database(synth::sprot_like(120000), 1234));
    Rng rng(56);
    queries_ = new SequenceStore(synth::sample_queries(*db_, 3, 128, rng));
    reference_ = new std::vector<QueryResult>();
    const DbIndex index = DbIndex::build(*db_, test_config());
    const MuBlastpEngine engine(index, test_params());
    *reference_ = engine.search_batch(*queries_, 2);
  }
  static void TearDownTestSuite() {
    delete db_;
    delete queries_;
    delete reference_;
    db_ = nullptr;
    queries_ = nullptr;
    reference_ = nullptr;
  }
  void SetUp() override { fi::reset(); }
  void TearDown() override { fi::reset(); }

  static void expect_same_alignments(const std::vector<GappedAlignment>& a,
                                     const std::vector<GappedAlignment>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].subject, b[i].subject) << i;
      EXPECT_EQ(a[i].q_start, b[i].q_start) << i;
      EXPECT_EQ(a[i].q_end, b[i].q_end) << i;
      EXPECT_EQ(a[i].s_start, b[i].s_start) << i;
      EXPECT_EQ(a[i].s_end, b[i].s_end) << i;
      EXPECT_EQ(a[i].score, b[i].score) << i;
      // Bit-identical, not approximately equal: every shard prices its
      // statistics over the combined database size.
      EXPECT_EQ(a[i].bit_score, b[i].bit_score) << i;
      EXPECT_EQ(a[i].evalue, b[i].evalue) << i;
      EXPECT_EQ(a[i].ops, b[i].ops) << i;
    }
  }

  static void expect_same_results(const std::vector<QueryResult>& got,
                                  const std::vector<QueryResult>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < got.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      expect_same_alignments(got[q].alignments, want[q].alignments);
      EXPECT_EQ(got[q].ungapped, want[q].ungapped);
      EXPECT_EQ(got[q].stats, want[q].stats);
    }
  }

  static SequenceStore* db_;
  static SequenceStore* queries_;
  static std::vector<QueryResult>* reference_;
};

SequenceStore* ShardCampaign::db_ = nullptr;
SequenceStore* ShardCampaign::queries_ = nullptr;
std::vector<QueryResult>* ShardCampaign::reference_ = nullptr;

// ---------------------------------------------------------------------------
// The equivalence matrix: N x strategy x worker mode
// ---------------------------------------------------------------------------

using Cell = std::tuple<int, PartitionStrategy, WorkerMode>;

class ShardEquivalence : public ShardCampaign,
                         public ::testing::WithParamInterface<Cell> {};

TEST_P(ShardEquivalence, MergedOutputIsBitIdenticalToUnsharded) {
  const auto [n, strategy, mode] = GetParam();
  const MemberSet set = MemberSet::partition(
      *db_, n, strategy, test_config(), {test_params(), {}, false});
  EXPECT_EQ(set.member_count(), static_cast<std::uint32_t>(n));
  EXPECT_EQ(set.total_residues(), db_->total_residues());

  const MemberSearchResult res = set.search(*queries_, 2, mode);
  EXPECT_FALSE(res.degraded.any());
  expect_same_results(res.results, *reference_);

  // A batch with fewer queries than threads must give the same answer.
  SequenceStore one;
  one.add(queries_->sequence(0), queries_->name(0));
  const MemberSearchResult single = set.search(one, 2, mode);
  EXPECT_FALSE(single.degraded.any());
  expect_same_results(single.results, {(*reference_)[0]});

  // Telemetry sanity: one entry per shard, counters additive.
  ASSERT_EQ(res.shards.per_shard.size(), static_cast<std::size_t>(n));
  std::uint64_t shard_hits = 0;
  for (const auto& s : res.shards.per_shard) shard_hits += s.hits;
  std::uint64_t ref_hits = 0;
  for (const QueryResult& r : *reference_) ref_hits += r.stats.hits;
  EXPECT_EQ(shard_hits, ref_hits);

  // Rendered reports must match line for line: results carry global ids,
  // resolved against the set's joined view (what mublastp_search renders
  // from) and against the reconstructed global store.
  const DbIndex index = DbIndex::build(*db_, test_config());
  const DbIndexView view(index);
  for (SeqId q = 0; q < queries_->size(); ++q) {
    std::ostringstream joined, copied, unsharded;
    write_tabular(joined, queries_->name(q), queries_->sequence(q),
                  *set.view(), res.results[q], blosum62());
    write_tabular(copied, queries_->name(q), queries_->sequence(q),
                  set.global_db(), res.results[q], blosum62());
    write_tabular(unsharded, queries_->name(q), queries_->sequence(q), view,
                  (*reference_)[q], blosum62());
    EXPECT_EQ(joined.str(), unsharded.str()) << "query " << q;
    EXPECT_EQ(copied.str(), unsharded.str()) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShardEquivalence,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 7),
        ::testing::Values(PartitionStrategy::kContiguous,
                          PartitionStrategy::kRoundRobinSorted,
                          PartitionStrategy::kGreedyLpt),
        ::testing::Values(WorkerMode::kThread,
                          WorkerMode::kProcess)),
    [](const auto& info) {
      std::string n = "N" + std::to_string(std::get<0>(info.param));
      n += std::string("_") + strategy_name(std::get<1>(info.param));
      n += std::string("_") + worker_mode_name(std::get<2>(info.param));
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// ---------------------------------------------------------------------------
// One engine pass: pipeline telemetry over every member's blocks
// ---------------------------------------------------------------------------

class ShardTelemetry : public ShardCampaign,
                       public ::testing::WithParamInterface<int> {};

TEST_P(ShardTelemetry, OnePassBooksEveryMembersBlocks) {
  const int n = GetParam();
  const DbIndex index = DbIndex::build(*db_, test_config());
  const MuBlastpEngine engine(index, test_params());
  stats::PipelineStats single;
  (void)engine.search_batch(*queries_, 2, &single);

  const MemberSet set = MemberSet::partition(
      *db_, n, PartitionStrategy::kRoundRobinSorted, test_config(),
      {test_params(), {}, false});
  std::size_t member_blocks = 0;
  for (std::uint32_t k = 0; k < set.member_count(); ++k) {
    SequenceStore slice;
    for (const SeqId g : set.to_global(k)) {
      slice.add(db_->sequence(g), db_->name(g));
    }
    member_blocks += DbIndex::build(slice, test_config()).blocks().size();
  }

  stats::PipelineStats ps;
  const MemberSearchResult res =
      set.search(*queries_, 2, WorkerMode::kThread, nullptr, &ps);
  EXPECT_FALSE(res.degraded.any());
  expect_same_results(res.results, *reference_);
  const stats::PipelineSnapshot got = ps.snapshot();
  EXPECT_TRUE(got.totals == single.snapshot().totals);
  // One row per block of every member, numbered by position in the view.
  ASSERT_EQ(got.per_block.size(), member_blocks);
  for (std::size_t b = 0; b < got.per_block.size(); ++b) {
    EXPECT_EQ(got.per_block[b].block, b);
    EXPECT_EQ(got.per_block[b].rounds, queries_->size());
  }
  std::uint64_t shard_hits = 0;
  for (const stats::ShardStats& s : res.shards.per_shard) {
    shard_hits += s.hits;
  }
  EXPECT_EQ(shard_hits, got.totals.hits);
}

INSTANTIATE_TEST_SUITE_P(Members, ShardTelemetry, ::testing::Values(1, 3, 7),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// More shards than sequences: surplus shards are empty and harmless
// ---------------------------------------------------------------------------

TEST_F(ShardCampaign, EmptyShardsAreHarmless) {
  SequenceStore tiny;
  Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    std::vector<Residue> seq(80 + 10 * i);
    for (auto& r : seq) r = static_cast<Residue>(rng.next_below(20));
    tiny.add(seq, "tiny" + std::to_string(i));
  }
  const DbIndex index = DbIndex::build(tiny, test_config());
  const MuBlastpEngine engine(index, test_params());
  Rng qrng(10);
  const SequenceStore queries = synth::sample_queries(tiny, 2, 60, qrng);
  std::vector<QueryResult> want;
  for (SeqId q = 0; q < queries.size(); ++q) {
    want.push_back(engine.search(queries.sequence(q)));
  }

  const MemberSet set = MemberSet::partition(
      tiny, 7, PartitionStrategy::kRoundRobinSorted, test_config(),
      {test_params(), {}, false});
  std::uint32_t live = 0;
  for (std::uint32_t k = 0; k < set.member_count(); ++k) {
    if (set.live(k)) ++live;
  }
  EXPECT_EQ(live, 5u);
  const MemberSearchResult res =
      set.search(queries, 2, WorkerMode::kThread);
  EXPECT_FALSE(res.degraded.any());
  expect_same_results(res.results, want);
}

// One measured-imbalance rule: an empty shard books no time, whether the
// run is one batch or several folded together.
TEST_F(ShardCampaign, MeasuredImbalanceSkipsEmptyShardsAcrossBatches) {
  SequenceStore two;
  for (SeqId g = 0; g < 2; ++g) two.add(db_->sequence(g), db_->name(g));
  const MemberSet set = MemberSet::partition(
      two, 3, PartitionStrategy::kRoundRobinSorted, test_config(),
      {test_params(), {}, false});
  ASSERT_FALSE(set.live(2));

  // Two batches folded the way mublastp_search folds its checkpoint batches.
  stats::PipelineSnapshot run;
  for (SeqId q = 0; q < 2; ++q) {
    SequenceStore batch;
    batch.add(queries_->sequence(q), queries_->name(q));
    stats::PipelineStats ps;
    const MemberSearchResult res =
        set.search(batch, 2, WorkerMode::kThread, nullptr, &ps);
    stats::PipelineSnapshot snap = ps.snapshot();
    snap.shards = res.shards;
    run.merge(snap);
  }
  ASSERT_EQ(run.shards.per_shard.size(), 3u);
  const double a = run.shards.per_shard[0].seconds;
  const double b = run.shards.per_shard[1].seconds;
  ASSERT_GT(a, 0.0);
  ASSERT_GT(b, 0.0);
  EXPECT_EQ(run.shards.per_shard[2].seconds, 0.0);
  EXPECT_DOUBLE_EQ(run.shards.imbalance_measured,
                   (std::max(a, b) - std::min(a, b)) / std::max(a, b));
}

// ---------------------------------------------------------------------------
// File-based round trip: save the shards + manifest, load, search
// ---------------------------------------------------------------------------

/// Writes a real on-disk shard layout (indexes + MUSHARD01 manifest) the
/// way mublastp_makedb --shards does; returns the manifest path.
std::string write_shard_layout(const SequenceStore& db, int n,
                               PartitionStrategy strategy,
                               const std::string& stem) {
  const std::filesystem::path base = test_temp_path(stem);
  const std::string dir = base.parent_path().string();
  const std::string name = base.filename().string();
  const MemberSet set = MemberSet::partition(db, n, strategy,
                                                 test_config(),
                                                 {test_params(), {}, false});
  ShardManifest m;
  m.strategy = strategy;
  m.total_sequences = db.size();
  m.total_residues = db.total_residues();
  m.shards.resize(static_cast<std::size_t>(n));
  for (std::uint32_t k = 0; k < set.member_count(); ++k) {
    ShardManifest::Shard& shard = m.shards[k];
    shard.to_global.assign(set.to_global(k).begin(), set.to_global(k).end());
    shard.num_sequences = shard.to_global.size();
    for (const SeqId g : shard.to_global) {
      shard.num_residues += db.length(g);
    }
    if (!set.live(k)) continue;
    const std::string path =
        name + ".shard" + std::to_string(k) + ".mbi";
    // Rebuild the shard index from the shard's slice (partition does not
    // expose its DbIndex; the build is deterministic, so this is the same
    // index).
    SequenceStore shard_db;
    for (const SeqId g : shard.to_global) {
      shard_db.add(db.sequence(g), db.name(g));
    }
    save_db_index_file(dir + "/" + path,
                       DbIndex::build(shard_db, test_config()));
    std::ifstream in(dir + "/" + path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    shard.path = path;
    shard.index_crc32 = crc32(bytes.data(), bytes.size());
  }
  const std::string manifest_path = dir + "/" + name + ".manifest";
  save_shard_manifest(manifest_path, m);
  return manifest_path;
}

TEST_F(ShardCampaign, FileRoundTripMatchesUnsharded) {
  const std::string manifest = write_shard_layout(
      *db_, 3, PartitionStrategy::kRoundRobinSorted, "roundtrip");
  stats::DegradedStats deg;
  const MemberSet set =
      MemberSet::open_shards(manifest, {test_params(), {}, false}, &deg);
  EXPECT_FALSE(deg.any());
  EXPECT_EQ(set.member_count(), 3u);
  EXPECT_EQ(set.total_sequences(), db_->size());
  EXPECT_EQ(set.strategy(), PartitionStrategy::kRoundRobinSorted);

  const MemberSearchResult res =
      set.search(*queries_, 2, WorkerMode::kThread);
  EXPECT_FALSE(res.degraded.any());
  expect_same_results(res.results, *reference_);

  // The reconstructed global store must mirror the original database.
  ASSERT_EQ(set.global_db().size(), db_->size());
  for (SeqId i = 0; i < db_->size(); ++i) {
    ASSERT_EQ(set.global_db().length(i), db_->length(i)) << i;
    EXPECT_EQ(set.global_db().name(i), db_->name(i)) << i;
  }
}

TEST_F(ShardCampaign, RottedShardIndexIsQuarantinedOrFailsClosed) {
  const std::string manifest = write_shard_layout(
      *db_, 3, PartitionStrategy::kRoundRobinSorted, "rotted");
  // Flip one byte of shard 1's index file.
  const ShardManifest m = load_shard_manifest(manifest);
  const std::string dir = manifest.substr(0, manifest.find_last_of('/'));
  const std::string victim = dir + "/" + m.shards[1].path;
  {
    std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4096);
    char c = 0;
    f.seekg(4096);
    f.get(c);
    c = static_cast<char>(c ^ 0xff);
    f.seekp(4096);
    f.put(c);
  }

  stats::DegradedStats deg;
  const MemberSet set =
      MemberSet::open_shards(manifest, {test_params(), {}, false}, &deg);
  ASSERT_EQ(deg.quarantined_shards.size(), 1u);
  EXPECT_EQ(deg.quarantined_shards[0].shard, 1u);
  EXPECT_NE(deg.quarantined_shards[0].reason.find("checksum"),
            std::string::npos);
  EXPECT_TRUE(deg.partial);
  EXPECT_FALSE(set.live(1));

  // Surviving shards still produce their subjects' exact results.
  const MemberSearchResult res =
      set.search(*queries_, 2, WorkerMode::kThread);
  for (std::size_t q = 0; q < res.results.size(); ++q) {
    for (const GappedAlignment& a : res.results[q].alignments) {
      bool in_shard1 = false;
      for (const SeqId g : set.to_global(1)) {
        if (g == a.subject) in_shard1 = true;
      }
      EXPECT_FALSE(in_shard1) << "alignment from a quarantined shard";
    }
  }

  // Strict mode fails closed with the corrupt kind.
  try {
    MemberSet::open_shards(manifest, {test_params(), {}, true}, nullptr);
    FAIL() << "strict load of a rotted shard did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  }
}

// ---------------------------------------------------------------------------
// Worker failure: one killed shard, both modes
// ---------------------------------------------------------------------------

class ShardFailure : public ShardCampaign,
                     public ::testing::WithParamInterface<WorkerMode> {};

TEST_P(ShardFailure, KilledWorkerIsQuarantinedAndRestComplete) {
  const WorkerMode mode = GetParam();
  const MemberSet set = MemberSet::partition(
      *db_, 3, PartitionStrategy::kRoundRobinSorted, test_config(),
      {test_params(), {}, false});

  fi::arm("shard.worker", 2);  // shard index 1 (parent evaluates in order)
  const MemberSearchResult res = set.search(*queries_, 2, mode);
  ASSERT_EQ(res.degraded.quarantined_shards.size(), 1u);
  EXPECT_EQ(res.degraded.quarantined_shards[0].shard, 1u);
  EXPECT_TRUE(res.degraded.partial);

  // Every merged alignment comes from a surviving shard, and the surviving
  // shards' subjects match the reference exactly.
  for (std::size_t q = 0; q < res.results.size(); ++q) {
    std::vector<GappedAlignment> expect;
    for (const GappedAlignment& a : (*reference_)[q].alignments) {
      bool survived = true;
      for (const SeqId g : set.to_global(1)) {
        if (g == a.subject) survived = false;
      }
      if (survived) expect.push_back(a);
    }
    // The reference's global top-k minus the dead shard is a subset of the
    // degraded run's top-k (the degraded run may promote alignments the
    // full top-k squeezed out, so compare as a subset, in order).
    std::size_t j = 0;
    for (const GappedAlignment& want : expect) {
      bool found = false;
      for (; j < res.results[q].alignments.size(); ++j) {
        const GappedAlignment& got = res.results[q].alignments[j];
        if (got.subject == want.subject && got.score == want.score &&
            got.q_start == want.q_start && got.s_start == want.s_start) {
          found = true;
          ++j;
          break;
        }
      }
      EXPECT_TRUE(found) << "missing surviving alignment, query " << q;
    }
  }
}

TEST_P(ShardFailure, StrictModeFailsClosedWithIoKind) {
  const WorkerMode mode = GetParam();
  const MemberSet set = MemberSet::partition(
      *db_, 3, PartitionStrategy::kRoundRobinSorted, test_config(),
      {test_params(), {}, true});
  fi::arm("shard.worker", 1);
  try {
    set.search(*queries_, 2, mode);
    FAIL() << "strict sharded search with a dead worker did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ShardFailure,
                         ::testing::Values(WorkerMode::kThread,
                                           WorkerMode::kProcess),
                         [](const auto& info) {
                           return std::string(worker_mode_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Manifest corruption: every section, truncation and bit rot
// ---------------------------------------------------------------------------

// The shard manifest header as laid out on disk (a sectioned file with a
// 12-byte magic), spelled out here so these tests pin the field offsets.
struct ShardManifestHeader {
  char magic[12];
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint32_t table_crc32;
  std::uint32_t reserved0;
  std::uint32_t reserved1;
  std::uint64_t file_bytes;
  std::uint8_t reserved[24];
};
static_assert(sizeof(ShardManifestHeader) == kSectionedHeaderBytes);

class ManifestCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardManifest m;
    m.strategy = PartitionStrategy::kRoundRobinSorted;
    m.total_sequences = 5;
    m.total_residues = 500;
    m.shards.resize(3);
    m.shards[0].to_global = {0, 3};
    m.shards[0].num_sequences = 2;
    m.shards[0].num_residues = 200;
    m.shards[0].path = "a.shard0";
    m.shards[0].index_crc32 = 0x11111111;
    m.shards[1].to_global = {1, 2, 4};
    m.shards[1].num_sequences = 3;
    m.shards[1].num_residues = 300;
    m.shards[1].path = "a.shard1";
    m.shards[1].index_crc32 = 0x22222222;
    // shard 2 deliberately empty: no path, no sequences.
    // One file per test: each SetUp rewrites its manifest.
    path_ = test_temp_path("corrupt.manifest");
    save_shard_manifest(path_, m);
    std::ifstream in(path_, std::ios::binary);
    image_.assign((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static std::string parse_error(const std::string& bytes) {
    try {
      parse_shard_manifest({reinterpret_cast<const std::byte*>(bytes.data()),
                            bytes.size()});
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
      return e.what();
    }
    return {};
  }

  std::string path_;
  std::string image_;
};

TEST_F(ManifestCorruption, CleanImageRoundTrips) {
  const ShardManifest m = load_shard_manifest(path_);
  EXPECT_EQ(m.shard_count(), 3u);
  EXPECT_EQ(m.total_sequences, 5u);
  EXPECT_EQ(m.shards[1].to_global, (std::vector<SeqId>{1, 2, 4}));
  EXPECT_TRUE(m.shards[2].path.empty());
  EXPECT_DOUBLE_EQ(m.predicted_imbalance(), 1.0);  // empty shard present
}

TEST_F(ManifestCorruption, TruncationAtEveryBoundaryIsRejected) {
  // Cut the file at a sweep of prefixes covering: inside the header,
  // inside the section table, and inside every section payload. Every cut
  // must produce a typed kCorrupt error — never a crash, never success.
  for (std::size_t cut = 0; cut < image_.size();
       cut += 7) {  // step keeps the sweep fast but hits every region
    const std::string truncated = image_.substr(0, cut);
    const std::string what = parse_error(truncated);
    EXPECT_FALSE(what.empty()) << "truncation at " << cut << " accepted";
  }
}

TEST_F(ManifestCorruption, BitRotInEverySectionNamesTheSection) {
  // Recover the section table to know where each payload lives.
  const ShardManifest clean = load_shard_manifest(path_);  // sanity
  ShardManifestHeader header{};
  std::memcpy(&header, image_.data(), sizeof(header));
  std::vector<SectionRecord> table(header.section_count);
  std::memcpy(table.data(), image_.data() + sizeof(header),
              table.size() * sizeof(SectionRecord));
  for (const SectionRecord& rec : table) {
    if (rec.length == 0) continue;
    std::string rotted = image_;
    rotted[rec.offset] = static_cast<char>(rotted[rec.offset] ^ 0x01);
    const std::string what = parse_error(rotted);
    const std::string want(
        shard_section_name(static_cast<ShardSectionId>(rec.id)));
    EXPECT_NE(what.find(want), std::string::npos)
        << "section " << want << " rot reported as: " << what;
  }
  // Rot in the table itself is caught by the table CRC.
  std::string rotted = image_;
  rotted[sizeof(ShardManifestHeader)] ^= 0x01;
  EXPECT_NE(parse_error(rotted).find("section table"), std::string::npos);
}

TEST_F(ManifestCorruption, BadMagicVersionAndSizeAreRejected) {
  std::string bad = image_;
  bad[0] = 'X';
  EXPECT_NE(parse_error(bad).find("magic"), std::string::npos);

  // Version lives after the 12-byte magic; CRCs do not cover the header,
  // so this tests the version check directly.
  bad = image_;
  bad[12] = 9;
  EXPECT_NE(parse_error(bad).find("version"), std::string::npos);

  bad = image_ + std::string(8, '\0');  // grown file: header size mismatch
  EXPECT_NE(parse_error(bad).find("size mismatch"), std::string::npos);
}

TEST_F(ManifestCorruption, LoadSiteInjectionFailsWithIoKind) {
  fi::reset();
  fi::arm("shard.manifest", 1);
  try {
    load_shard_manifest(path_);
    FAIL() << "armed shard.manifest site did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
  fi::reset();
}

TEST_F(ManifestCorruption, WriterRejectsInconsistentManifests) {
  ShardManifest m;
  m.total_sequences = 2;
  m.total_residues = 100;
  m.shards.resize(1);
  m.shards[0].to_global = {0};  // one id, but num_sequences says 2
  m.shards[0].num_sequences = 2;
  m.shards[0].num_residues = 100;
  m.shards[0].path = "x";
  EXPECT_THROW(save_shard_manifest(path_ + ".bad", m), Error);
}

}  // namespace
}  // namespace mublastp::cluster
