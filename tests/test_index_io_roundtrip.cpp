// Round-trip property battery for index format v3: for a spread of
// database shapes, a built index, its saved file, and a mapped and a read
// open of that file are one image, and all of them drive the engine to
// BIT-IDENTICAL results and telemetry counters.
#include "index/db_index_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sectioned_file.hpp"
#include "core/mublastp_engine.hpp"
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The --no-mmap open.
DbIndexOpenOptions read_options() {
  DbIndexOpenOptions o;
  o.mmap = false;
  return o;
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

  // One image, two byte sources: the saved file holds the built image, and
  // a mapped open and a read open of the file both serve exactly it.
  const std::string path = test_temp_path("index.mbi");
  save_db_index_file(path, original);
  const std::string file = read_file(path);
  EXPECT_TRUE(std::ranges::equal(std::as_bytes(std::span(file)),
                                 original.image()));
  {
    const DbIndex mapped(path);
    EXPECT_TRUE(std::ranges::equal(mapped.image(), original.image()));
    EXPECT_EQ(mapped.num_sequences(), original.num_sequences());
    expect_identical(ref, drive(MuBlastpEngine(mapped), queries), "mapped");
  }
  {
    const DbIndex read(path, read_options());
    EXPECT_TRUE(std::ranges::equal(read.image(), original.image()));
    expect_identical(ref, drive(MuBlastpEngine(read), queries), "read");
  }

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
  const DbIndex loaded(path, read_options());
  EXPECT_EQ(loaded.name(0), "");
  expect_identical(ref, drive(MuBlastpEngine(loaded), queries), "file");
  const DbIndex mapped(path);
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
  const DbIndex read(path, read_options());
  expect_identical(ref, drive(MuBlastpEngine(read), queries), "file");
  const DbIndex mapped(path);
  expect_identical(ref, drive(MuBlastpEngine(mapped), queries), "mapped");
  std::remove(path.c_str());
}

TEST(IndexIoRoundTrip, EmptyDatabaseIsRejectedAtBuild) {
  // There is no such thing as an empty index file: an empty store cannot be
  // indexed, so the whole save/load surface never sees a zero-sequence DB.
  const SequenceStore empty;
  EXPECT_THROW(DbIndex::build(empty, {}), Error);
}

std::string fixture_path(const char* name) {
  return std::string(MUBLASTP_TEST_DATA_DIR) + "/" + name;
}

// The database inside a loaded index, back in its original order.
SequenceStore original_order_store(const DbIndex& loaded) {
  SequenceStore db;
  for (SeqId orig = 0; orig < loaded.num_sequences(); ++orig) {
    const SeqId sorted = loaded.sorted_id(orig);
    db.add(loaded.sequence(sorted), std::string(loaded.name(sorted)));
  }
  return db;
}

TEST(IndexIoRoundTrip, V3FixtureIsByteStable) {
  // tiny_v3.mbi's own database, back in original order and rebuilt with
  // its config, must save to the fixture's exact bytes. Every section CRC,
  // block CRC and the table CRC are in it, so a writer, layout or checksum
  // change shows up here as a byte difference against a file on disk.
  const std::string fixture = fixture_path("tiny_v3.mbi");
  const DbIndex loaded(fixture, read_options());
  const SequenceStore original_db = original_order_store(loaded);
  ASSERT_EQ(original_db.size(), 4u);
  EXPECT_EQ(original_db.name(0), "fix_helix");
  const DbIndex rebuilt = DbIndex::build(original_db, loaded.config());

  const std::string path = test_temp_path("tiny_v3.mbi");
  save_db_index_file(path, rebuilt);
  const std::string want = read_file(fixture);
  EXPECT_EQ(want.size(), 57652u);
  EXPECT_TRUE(read_file(path) == want)
      << "a fresh save differs from the checked-in v3 fixture";
  std::remove(path.c_str());

  // Both byte sources accept the fixture with every checksum verified, and
  // both search exactly like the fresh build.
  Rng rng(217);
  const SequenceStore queries = synth::sample_queries(original_db, 2, 24, rng);
  const RunOutput ref = drive(MuBlastpEngine(rebuilt), queries);
  const DbIndex mapped(fixture);
  EXPECT_EQ(mapped.num_sequences(), original_db.size());
  expect_identical(ref, drive(MuBlastpEngine(mapped), queries),
                   "v3 fixture, mapped");
  expect_identical(ref, drive(MuBlastpEngine(loaded), queries),
                   "v3 fixture, read");
}

TEST(IndexIoRoundTrip, DescribeReportsEverySection) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(5000), 216);
  DbIndexConfig cfg;
  cfg.block_bytes = 4096;
  const DbIndex index = DbIndex::build(db, cfg);

  const std::string path = test_temp_path("describe_v3.mbi");
  save_db_index_file(path, index);
  const DbIndexFileInfo info = describe_db_index_file(path);
  EXPECT_EQ(info.sections.size(), 11u);
  for (const IndexSectionInfo& s : info.sections) {
    EXPECT_NE(s.name, "unknown");
    EXPECT_EQ(s.offset % kSectionAlign, 0u) << s.name;
    EXPECT_LE(s.offset + s.length, info.file_bytes) << s.name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mublastp
