#include "index/db_index_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "synth/synth.hpp"
#include "temp_path.hpp"

namespace mublastp {
namespace {

DbIndex make_index(std::uint64_t seed, std::size_t residues = 100000) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(residues), seed);
  DbIndexConfig cfg;
  cfg.block_bytes = 32 * 1024;
  return DbIndex::build(db, cfg);
}

TEST(DbIndexIo, RoundTripPreservesStructure) {
  const DbIndex original = make_index(31);
  std::stringstream buf;
  save_db_index(buf, original);
  const DbIndex loaded = load_db_index(buf);

  ASSERT_EQ(loaded.db().size(), original.db().size());
  EXPECT_EQ(loaded.db().total_residues(), original.db().total_residues());
  ASSERT_EQ(loaded.blocks().size(), original.blocks().size());
  EXPECT_EQ(loaded.config().block_bytes, original.config().block_bytes);
  EXPECT_EQ(loaded.config().neighbor_threshold,
            original.config().neighbor_threshold);

  for (SeqId i = 0; i < loaded.db().size(); ++i) {
    EXPECT_EQ(loaded.db().name(i), original.db().name(i));
    EXPECT_EQ(loaded.original_id(i), original.original_id(i));
    EXPECT_EQ(loaded.sorted_id(i), original.sorted_id(i));
    const auto a = loaded.db().sequence(i);
    const auto b = original.db().sequence(i);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }

  for (std::size_t bi = 0; bi < loaded.blocks().size(); ++bi) {
    const DbIndexBlock& lb = loaded.blocks()[bi];
    const DbIndexBlock& ob = original.blocks()[bi];
    EXPECT_EQ(lb.num_positions(), ob.num_positions());
    EXPECT_EQ(lb.total_chars(), ob.total_chars());
    EXPECT_EQ(lb.max_fragment_len(), ob.max_fragment_len());
    EXPECT_EQ(lb.offset_bits(), ob.offset_bits());
    ASSERT_EQ(lb.fragments().size(), ob.fragments().size());
    for (std::uint32_t w = 0; w < static_cast<std::uint32_t>(kNumWords);
         w += 173) {
      const auto le = lb.entries(w);
      const auto oe = ob.entries(w);
      ASSERT_EQ(le.size(), oe.size());
      EXPECT_TRUE(std::equal(le.begin(), le.end(), oe.begin()));
    }
  }
}

TEST(DbIndexIo, LoadedIndexSearchesIdentically) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(150000), 33);
  DbIndexConfig cfg;
  cfg.block_bytes = 64 * 1024;
  const DbIndex original = DbIndex::build(db, cfg);
  std::stringstream buf;
  save_db_index(buf, original);
  const DbIndex loaded = load_db_index(buf);

  Rng rng(34);
  const SequenceStore queries = synth::sample_queries(db, 3, 128, rng);
  const MuBlastpEngine e1(original);
  const MuBlastpEngine e2(loaded);
  for (SeqId q = 0; q < queries.size(); ++q) {
    const QueryResult a = e1.search(queries.sequence(q));
    const QueryResult b = e2.search(queries.sequence(q));
    EXPECT_EQ(a.ungapped, b.ungapped);
    ASSERT_EQ(a.alignments.size(), b.alignments.size());
    for (std::size_t i = 0; i < a.alignments.size(); ++i) {
      EXPECT_EQ(a.alignments[i].score, b.alignments[i].score);
      EXPECT_EQ(a.alignments[i].subject, b.alignments[i].subject);
      EXPECT_EQ(a.alignments[i].ops, b.alignments[i].ops);
    }
  }
}

TEST(DbIndexIo, FileRoundTrip) {
  const DbIndex original = make_index(35, 50000);
  const std::string path = test_temp_path("index.mbi");
  save_db_index_file(path, original);
  const DbIndex loaded = load_db_index_file(path);
  EXPECT_EQ(loaded.db().size(), original.db().size());
  EXPECT_EQ(loaded.blocks().size(), original.blocks().size());
}

TEST(DbIndexIo, RejectsBadMagic) {
  std::stringstream buf;
  buf << "NOTANINDEX_____________";
  EXPECT_THROW(load_db_index(buf), Error);
}

TEST(DbIndexIo, RejectsWrongVersion) {
  const DbIndex original = make_index(36, 50000);
  std::stringstream buf;
  save_db_index(buf, original);
  std::string bytes = buf.str();
  bytes[4] = 99;  // clobber the version field
  std::stringstream bad(bytes);
  EXPECT_THROW(load_db_index(bad), Error);
}

TEST(DbIndexIo, RejectsTruncatedFile) {
  const DbIndex original = make_index(37, 50000);
  std::stringstream buf;
  save_db_index(buf, original);
  const std::string bytes = buf.str();
  for (const double frac : {0.1, 0.5, 0.9, 0.999}) {
    std::stringstream cut(
        bytes.substr(0, static_cast<std::size_t>(bytes.size() * frac)));
    EXPECT_THROW(load_db_index(cut), Error) << "frac " << frac;
  }
}

TEST(DbIndexIo, ParallelBuildIsByteIdenticalToSerial) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(120000), 39);
  DbIndexConfig serial_cfg;
  serial_cfg.block_bytes = 16 * 1024;  // many blocks -> real parallelism
  serial_cfg.build_threads = 1;
  DbIndexConfig parallel_cfg = serial_cfg;
  parallel_cfg.build_threads = 4;
  std::stringstream a;
  save_db_index(a, DbIndex::build(db, serial_cfg));
  std::stringstream b;
  save_db_index(b, DbIndex::build(db, parallel_cfg));
  EXPECT_EQ(a.str(), b.str());
}

TEST(DbIndexIo, RejectsMissingFile) {
  EXPECT_THROW(load_db_index_file("/nonexistent/index.mbi"), Error);
}

TEST(DbIndexIo, CorruptFragmentRangeDetected) {
  const DbIndex original = make_index(38, 50000);
  std::stringstream buf;
  save_db_index(buf, original);
  std::string bytes = buf.str();
  // Flip bytes near the end (inside block data) until the loader objects;
  // structural validation must catch gross corruption rather than crash.
  bool threw = false;
  for (std::size_t back = 32; back <= 4096 && !threw; back *= 2) {
    std::string mutated = bytes;
    for (std::size_t i = mutated.size() - back;
         i < mutated.size() - back + 16 && i < mutated.size(); ++i) {
      mutated[i] = static_cast<char>(0xFF);
    }
    std::stringstream bad(mutated);
    try {
      const DbIndex loaded = load_db_index(bad);
      (void)loaded;
    } catch (const Error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace mublastp
