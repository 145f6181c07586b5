// Round-trip property battery for index format v3 (and the v2 legacy
// path): for a spread of database shapes, an index that goes through
// save -> load (stream or file) or save -> mmap must drive the engine to
// BIT-IDENTICAL results and telemetry counters as the in-memory original.
#include "index/db_index_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "index/mapped_db_index.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"
#include "temp_path.hpp"

namespace mublastp {
namespace {

struct Shape {
  const char* label;
  std::uint64_t seed;
  std::size_t residues;
  std::size_t block_bytes;
  std::size_t long_seq_limit;
  std::size_t long_seq_overlap;
};

// gtest lists GetParam() next to each test name; its default byte dump would
// show the label pointer, which differs from run to run under ASLR.
void PrintTo(const Shape& s, std::ostream* os) { *os << s.label; }

// ~20 shapes: tiny to mid databases, one-block and many-block layouts, and
// aggressive fragmentation (long_seq_limit far below typical lengths).
const Shape kShapes[] = {
    {"tiny", 101, 2000, 4096, 8192, 128},
    {"tiny_frag", 102, 2000, 4096, 256, 32},
    {"small_a", 103, 10000, 8192, 8192, 128},
    {"small_b", 104, 10000, 4096, 8192, 128},
    {"small_frag", 105, 10000, 8192, 256, 32},
    {"small_frag_tightlap", 106, 10000, 8192, 200, 64},
    {"mid_a", 107, 50000, 32 * 1024, 8192, 128},
    {"mid_b", 108, 50000, 16 * 1024, 8192, 128},
    {"mid_frag", 109, 50000, 32 * 1024, 512, 48},
    {"mid_manyblocks", 110, 50000, 4096, 8192, 128},
    {"big_a", 111, 200000, 64 * 1024, 8192, 128},
    {"big_manyblocks", 112, 200000, 16 * 1024, 8192, 128},
    {"big_frag", 113, 200000, 64 * 1024, 1024, 96},
    {"reseed_a", 114, 30000, 32 * 1024, 8192, 128},
    {"reseed_b", 115, 30000, 32 * 1024, 8192, 128},
    {"reseed_c", 116, 30000, 32 * 1024, 8192, 128},
    {"reseed_frag", 117, 30000, 32 * 1024, 300, 40},
};

DbIndex build_shape(const Shape& s, SequenceStore* db_out = nullptr) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(s.residues), s.seed);
  DbIndexConfig cfg;
  cfg.block_bytes = s.block_bytes;
  cfg.long_seq_limit = s.long_seq_limit;
  cfg.long_seq_overlap = s.long_seq_overlap;
  if (db_out != nullptr) *db_out = db;
  return DbIndex::build(db, cfg);
}

// Result of driving one engine over a query set with telemetry on.
struct RunOutput {
  std::vector<QueryResult> results;
  std::vector<stats::StageCounters> counters;
};

RunOutput drive(const MuBlastpEngine& engine, const SequenceStore& queries) {
  RunOutput out;
  for (SeqId q = 0; q < queries.size(); ++q) {
    stats::PipelineStats ps;
    out.results.push_back(engine.search(queries.sequence(q), ps));
    out.counters.push_back(ps.snapshot().totals);
  }
  return out;
}

void expect_identical(const RunOutput& ref, const RunOutput& got,
                      const char* what) {
  ASSERT_EQ(ref.results.size(), got.results.size()) << what;
  for (std::size_t q = 0; q < ref.results.size(); ++q) {
    const QueryResult& a = ref.results[q];
    const QueryResult& b = got.results[q];
    EXPECT_EQ(a.ungapped, b.ungapped) << what << " query " << q;
    EXPECT_TRUE(ref.counters[q] == got.counters[q])
        << what << " counters, query " << q;
    ASSERT_EQ(a.alignments.size(), b.alignments.size())
        << what << " query " << q;
    for (std::size_t i = 0; i < a.alignments.size(); ++i) {
      const GappedAlignment& x = a.alignments[i];
      const GappedAlignment& y = b.alignments[i];
      EXPECT_EQ(x.subject, y.subject) << what;
      EXPECT_EQ(x.score, y.score) << what;
      EXPECT_EQ(x.q_start, y.q_start) << what;
      EXPECT_EQ(x.q_end, y.q_end) << what;
      EXPECT_EQ(x.s_start, y.s_start) << what;
      EXPECT_EQ(x.s_end, y.s_end) << what;
      EXPECT_EQ(x.ops, y.ops) << what;
      EXPECT_DOUBLE_EQ(x.evalue, y.evalue) << what;
    }
  }
}

class IndexIoRoundTrip : public ::testing::TestWithParam<Shape> {};

TEST_P(IndexIoRoundTrip, AllLoadPathsSearchIdentically) {
  const Shape& shape = GetParam();
  SequenceStore db;
  const DbIndex original = build_shape(shape, &db);

  Rng rng(shape.seed + 1000);
  const SequenceStore queries = synth::sample_queries(db, 3, 96, rng);
  const RunOutput ref = drive(MuBlastpEngine(original), queries);

  // Stream round-trip (v3 copy loader).
  std::stringstream buf;
  save_db_index(buf, original);
  const DbIndex stream_loaded = load_db_index(buf);
  expect_identical(ref, drive(MuBlastpEngine(stream_loaded), queries),
                   "stream-loaded");

  // File round-trip (copy loader) and mmap round-trip (zero-copy loader)
  // over the same bytes.
  const std::string path = test_temp_path("index.mbi");
  save_db_index_file(path, original);
  const DbIndex file_loaded = load_db_index_file(path);
  expect_identical(ref, drive(MuBlastpEngine(file_loaded), queries),
                   "file-loaded");
  {
    const MappedDbIndex mapped(path);
    expect_identical(ref, drive(MuBlastpEngine(mapped), queries), "mapped");
    EXPECT_EQ(mapped.num_sequences(), original.db().size());
    EXPECT_GT(mapped.file_bytes(), 0u);
  }
  {
    // Unverified open must serve the same data (it only skips checks).
    MappedDbIndex::Options opts;
    opts.verify_checksums = false;
    const MappedDbIndex lazy(path, opts);
    expect_identical(ref, drive(MuBlastpEngine(lazy), queries),
                     "mapped-unverified");
  }

  // Legacy v2 writer -> v2 reader must also reproduce the search exactly.
  std::stringstream v2buf;
  save_db_index_v2(v2buf, original);
  const DbIndex v2_loaded = load_db_index(v2buf);
  expect_identical(ref, drive(MuBlastpEngine(v2_loaded), queries),
                   "v2-loaded");

  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Shapes, IndexIoRoundTrip,
                         ::testing::ValuesIn(kShapes),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

TEST(IndexIoRoundTrip, SingleSequenceDatabase) {
  const SequenceStore pool =
      synth::generate_database(synth::sprot_like(5000), 211);
  SequenceStore db;
  db.add(pool.sequence(0), "");  // also exercises an empty FASTA name
  DbIndexConfig cfg;
  cfg.block_bytes = 4096;
  const DbIndex original = DbIndex::build(db, cfg);

  Rng rng(212);
  const SequenceStore queries = synth::sample_queries(db, 2, 32, rng);
  const RunOutput ref = drive(MuBlastpEngine(original), queries);

  const std::string path = test_temp_path("single_seq.mbi");
  save_db_index_file(path, original);
  const DbIndex loaded = load_db_index_file(path);
  EXPECT_EQ(loaded.db().name(0), "");
  expect_identical(ref, drive(MuBlastpEngine(loaded), queries), "file");
  const MappedDbIndex mapped(path);
  EXPECT_EQ(DbIndexView(mapped).name(0), "");
  expect_identical(ref, drive(MuBlastpEngine(mapped), queries), "mapped");
  std::remove(path.c_str());
}

TEST(IndexIoRoundTrip, SingleLongFragmentedSequence) {
  // One sequence far above the fragment limit: every block entry goes
  // through the fragment/assembly machinery.
  const SequenceStore pool =
      synth::generate_database(synth::sprot_like(60000), 213);
  SeqId longest = 0;
  for (SeqId i = 0; i < pool.size(); ++i) {
    if (pool.length(i) > pool.length(longest)) longest = i;
  }
  SequenceStore db;
  db.add(pool.sequence(longest), "the_long_one");
  DbIndexConfig cfg;
  cfg.block_bytes = 4096;
  cfg.long_seq_limit = 128;
  cfg.long_seq_overlap = 24;
  const DbIndex original = DbIndex::build(db, cfg);
  ASSERT_GT(original.blocks().size(), 0u);

  Rng rng(214);
  const SequenceStore queries = synth::sample_queries(db, 2, 48, rng);
  const RunOutput ref = drive(MuBlastpEngine(original), queries);
  const std::string path = test_temp_path("long_frag.mbi");
  save_db_index_file(path, original);
  expect_identical(ref,
                   drive(MuBlastpEngine(load_db_index_file(path)), queries),
                   "file");
  const MappedDbIndex mapped(path);
  expect_identical(ref, drive(MuBlastpEngine(mapped), queries), "mapped");
  std::remove(path.c_str());
}

TEST(IndexIoRoundTrip, EmptyDatabaseIsRejectedAtBuild) {
  // There is no such thing as an empty index file: an empty store cannot be
  // indexed, so the whole save/load surface never sees a zero-sequence DB.
  const SequenceStore empty;
  EXPECT_THROW(DbIndex::build(empty, {}), Error);
}

TEST(IndexIoRoundTrip, V2FixtureStillLoads) {
  // A v2 file produced by the legacy writer is checked into tests/data/ so
  // forward compatibility is pinned by bytes on disk, not by the current
  // writer's behaviour.
  const std::string path = std::string(MUBLASTP_TEST_DATA_DIR) +
                           "/tiny_v2.mbi";
  const DbIndex loaded = load_db_index_file(path);
  ASSERT_EQ(loaded.db().size(), 4u);
  EXPECT_EQ(loaded.config().block_bytes, 4096u);

  // Reconstruct the original-order store through the id maps and rebuild;
  // the fixture index must search exactly like a fresh build of its DB.
  SequenceStore original_db;
  for (SeqId orig = 0; orig < loaded.db().size(); ++orig) {
    const SeqId sorted = loaded.sorted_id(orig);
    original_db.add(loaded.db().sequence(sorted), loaded.db().name(sorted));
  }
  EXPECT_EQ(original_db.name(0), "fix_helix");
  const DbIndex rebuilt = DbIndex::build(original_db, loaded.config());

  Rng rng(215);
  const SequenceStore queries = synth::sample_queries(original_db, 2, 24, rng);
  expect_identical(drive(MuBlastpEngine(rebuilt), queries),
                   drive(MuBlastpEngine(loaded), queries), "v2 fixture");
}

TEST(IndexIoRoundTrip, DescribeReportsSectionsForV3AndVersionForV2) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(5000), 216);
  DbIndexConfig cfg;
  cfg.block_bytes = 4096;
  const DbIndex index = DbIndex::build(db, cfg);

  const std::string v3_path = test_temp_path("describe_v3.mbi");
  save_db_index_file(v3_path, index);
  const DbIndexFileInfo v3 = describe_db_index_file(v3_path);
  EXPECT_EQ(v3.version, kDbIndexFormatVersion);
  EXPECT_EQ(v3.sections.size(), 11u);
  for (const IndexSectionInfo& s : v3.sections) {
    EXPECT_NE(s.name, "unknown");
    EXPECT_EQ(s.offset % kSectionAlign, 0u) << s.name;
    EXPECT_LE(s.offset + s.length, v3.file_bytes) << s.name;
  }

  const std::string v2_path = test_temp_path("describe_v2.mbi");
  {
    std::ofstream out(v2_path, std::ios::binary);
    save_db_index_v2(out, index);
  }
  const DbIndexFileInfo v2 = describe_db_index_file(v2_path);
  EXPECT_EQ(v2.version, 2u);
  EXPECT_TRUE(v2.sections.empty());
  std::remove(v3_path.c_str());
  std::remove(v2_path.c_str());
}

}  // namespace
}  // namespace mublastp
