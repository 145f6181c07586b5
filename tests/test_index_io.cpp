#include "index/db_index_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

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

std::string bytes_of(const DbIndex& index) {
  return {reinterpret_cast<const char*>(index.image().data()),
          index.image().size()};
}

// Writes `bytes` to a file and reads it back (the --no-mmap open).
DbIndex read_back(const std::string& bytes) {
  DbIndexOpenOptions read;
  read.mmap = false;
  return DbIndex(write_temp_file("bytes.mbi", bytes), read);
}

TEST(DbIndexIo, RoundTripPreservesStructure) {
  const DbIndex original = make_index(31);
  const DbIndex loaded = read_back(bytes_of(original));
  EXPECT_TRUE(std::ranges::equal(loaded.image(), original.image()));

  ASSERT_EQ(loaded.num_sequences(), original.num_sequences());
  EXPECT_EQ(loaded.total_residues(), original.total_residues());
  ASSERT_EQ(loaded.blocks().size(), original.blocks().size());
  EXPECT_EQ(loaded.config().block_bytes, original.config().block_bytes);
  EXPECT_EQ(loaded.config().neighbor_threshold,
            original.config().neighbor_threshold);

  for (SeqId i = 0; i < loaded.num_sequences(); ++i) {
    EXPECT_EQ(loaded.name(i), original.name(i));
    EXPECT_EQ(loaded.original_id(i), original.original_id(i));
    EXPECT_EQ(loaded.sorted_id(i), original.sorted_id(i));
    const auto a = loaded.sequence(i);
    const auto b = original.sequence(i);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }

  for (std::size_t bi = 0; bi < loaded.blocks().size(); ++bi) {
    const DbBlockView& lb = loaded.blocks()[bi];
    const DbBlockView& ob = original.blocks()[bi];
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
  const DbIndex loaded = read_back(bytes_of(original));

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
  const DbIndex loaded(path);
  EXPECT_EQ(loaded.num_sequences(), original.num_sequences());
  EXPECT_EQ(loaded.blocks().size(), original.blocks().size());
  std::remove(path.c_str());
}

TEST(DbIndexIo, RejectsBadMagic) {
  EXPECT_THROW(read_back("NOTANINDEX_____________"), Error);
}

TEST(DbIndexIo, RejectsWrongVersion) {
  std::string bytes = bytes_of(make_index(36, 50000));
  bytes[4] = 99;  // clobber the version field
  EXPECT_THROW(read_back(bytes), Error);
}

TEST(DbIndexIo, RejectsTruncatedFile) {
  const std::string bytes = bytes_of(make_index(37, 50000));
  for (const double frac : {0.1, 0.5, 0.9, 0.999}) {
    const std::string cut =
        bytes.substr(0, static_cast<std::size_t>(bytes.size() * frac));
    EXPECT_THROW(read_back(cut), Error) << "frac " << frac;
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
  EXPECT_TRUE(std::ranges::equal(DbIndex::build(db, serial_cfg).image(),
                                 DbIndex::build(db, parallel_cfg).image()));
}

TEST(DbIndexIo, RejectsMissingFile) {
  DbIndexOpenOptions read;
  read.mmap = false;
  EXPECT_THROW(DbIndex("/nonexistent/index.mbi", read), Error);
}

TEST(DbIndexIo, CorruptFragmentRangeDetected) {
  const std::string bytes = bytes_of(make_index(38, 50000));
  // Flip bytes near the end (inside block data) until the loader objects;
  // structural validation must catch gross corruption rather than crash.
  bool threw = false;
  for (std::size_t back = 32; back <= 4096 && !threw; back *= 2) {
    std::string mutated = bytes;
    for (std::size_t i = mutated.size() - back;
         i < mutated.size() - back + 16 && i < mutated.size(); ++i) {
      mutated[i] = static_cast<char>(0xFF);
    }
    try {
      (void)read_back(mutated);
    } catch (const Error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace mublastp
