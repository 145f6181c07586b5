#include "fasta/fasta.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/rng.hpp"
#include "temp_path.hpp"

namespace mublastp {
namespace {

SequenceStore parse(const std::string& text) {
  std::istringstream in(text);
  SequenceStore store;
  read_fasta(in, store);
  return store;
}

// Parses expecting failure; returns the Error for kind/message assertions.
Error parse_error(const std::string& text) {
  std::istringstream in(text);
  SequenceStore store;
  try {
    read_fasta(in, store);
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "input was accepted: " << text;
  return Error("unreached");
}

TEST(Fasta, ParsesSingleRecord) {
  const auto store = parse(">seq1 description here\nARNDC\n");
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.name(0), "seq1 description here");
  EXPECT_EQ(store.length(0), 5u);
}

TEST(Fasta, ParsesMultilineSequences) {
  const auto store = parse(">s\nARND\nCQEG\nHI\n");
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.length(0), 10u);
}

TEST(Fasta, ParsesMultipleRecords) {
  const auto store = parse(">a\nAAA\n>b\nRRRR\n>c\nNN\n");
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store.name(0), "a");
  EXPECT_EQ(store.name(2), "c");
  EXPECT_EQ(store.length(1), 4u);
}

TEST(Fasta, SkipsBlankLines) {
  const auto store = parse("\n>a\nAAA\n\n\n>b\n\nRR\n");
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.length(1), 2u);
}

TEST(Fasta, HandlesWindowsLineEndings) {
  const auto store = parse(">a desc\r\nARND\r\nCQ\r\n");
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.name(0), "a desc");
  EXPECT_EQ(store.length(0), 6u);
}

TEST(Fasta, RejectsSequenceBeforeHeader) {
  std::istringstream in("ARND\n>a\nAAA\n");
  SequenceStore store;
  EXPECT_THROW(read_fasta(in, store), Error);
}

TEST(Fasta, RejectsEmptyRecord) {
  std::istringstream in(">a\n>b\nAAA\n");
  SequenceStore store;
  EXPECT_THROW(read_fasta(in, store), Error);
}

TEST(Fasta, ReturnsRecordCount) {
  std::istringstream in(">a\nAA\n>b\nRR\n");
  SequenceStore store;
  EXPECT_EQ(read_fasta(in, store), 2u);
}

TEST(Fasta, AppendsToExistingStore) {
  SequenceStore store;
  store.add_ascii("CCCC", "existing");
  std::istringstream in(">new\nAAA\n");
  read_fasta(in, store);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.name(0), "existing");
  EXPECT_EQ(store.name(1), "new");
}

TEST(Fasta, WriteReadRoundTrip) {
  SequenceStore store;
  store.add_ascii("ARNDCQEGHILKMFPSTWYV", "first seq");
  store.add_ascii("BZX", "second");
  std::ostringstream out;
  write_fasta(out, store, 7);  // force wrapping
  const SequenceStore back = parse(out.str());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.name(0), "first seq");
  EXPECT_EQ(back.length(0), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(back.sequence(0)[i], store.sequence(0)[i]);
  }
}

TEST(Fasta, WriterWrapsAtWidth) {
  SequenceStore store;
  store.add_ascii(std::string(25, 'A'), "s");
  std::ostringstream out;
  write_fasta(out, store, 10);
  EXPECT_EQ(out.str(), ">s\nAAAAAAAAAA\nAAAAAAAAAA\nAAAAA\n");
}

TEST(Fasta, WriteRejectsZeroWidth) {
  SequenceStore store;
  store.add_ascii("AAA");
  std::ostringstream out;
  EXPECT_THROW(write_fasta(out, store, 0), Error);
}

TEST(Fasta, FileRoundTrip) {
  SequenceStore store;
  store.add_ascii("ARNDCQ", "file test");
  const std::string path = test_temp_path("input.fa");
  write_fasta_file(path, store);
  SequenceStore back;
  EXPECT_EQ(read_fasta_file(path, back), 1u);
  EXPECT_EQ(back.name(0), "file test");
}

TEST(Fasta, MissingFileThrows) {
  SequenceStore store;
  EXPECT_THROW(read_fasta_file("/nonexistent/path.fa", store), Error);
}

TEST(Fasta, UnknownResiduesBecomeX) {
  const auto store = parse(">a\nA1A\n");
  EXPECT_EQ(store.sequence(0)[1], encode_residue('X'));
}

TEST(Fasta, RandomByteStreamsNeverCrash) {
  // Fuzz-lite: arbitrary byte soup must either parse or throw
  // mublastp::Error — never crash or corrupt the store.
  Rng rng(0xFA57A);
  for (int trial = 0; trial < 200; ++trial) {
    std::string soup(rng.next_below(400), '\0');
    for (auto& c : soup) {
      c = static_cast<char>(rng.next_below(256));
    }
    std::istringstream in(soup);
    SequenceStore store;
    try {
      const std::size_t n = read_fasta(in, store);
      EXPECT_EQ(n, store.size());
      for (SeqId i = 0; i < store.size(); ++i) {
        EXPECT_GT(store.length(i), 0u);
      }
    } catch (const Error&) {
      // acceptable outcome for malformed input
    }
  }
}

TEST(Fasta, HeaderOnlyGarbageWithNewlinesParses) {
  // '>' lines with binary junk are tolerated as names.
  const auto store = parse(">\x01\x02garbage\xff\nARND\n");
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.length(0), 4u);
}

TEST(Fasta, EmptyRecordErrorNamesRecordAndLine) {
  const Error e = parse_error(">first\nAAA\n>empty one\n>c\nRR\n");
  EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  EXPECT_NE(std::string(e.what()).find("empty one"), std::string::npos)
      << e.what();
  EXPECT_NE(std::string(e.what()).find("record 2"), std::string::npos)
      << e.what();
  EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
      << e.what();
}

TEST(Fasta, TrailingHeaderWithNoSequenceIsRejected) {
  const Error e = parse_error(">a\nAAA\n>tail\n");
  EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  EXPECT_NE(std::string(e.what()).find("tail"), std::string::npos);
}

TEST(Fasta, SequenceBeforeHeaderIsCorrupt) {
  const Error e = parse_error("ARND\n>a\nAAA\n");
  EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
      << e.what();
}

TEST(Fasta, NulByteIsRejectedWithLocation) {
  std::string text = ">a\nAR_D\n";
  text[4] = '\0';  // NUL inside the sequence line
  const Error e = parse_error(text);
  EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  EXPECT_NE(std::string(e.what()).find("NUL"), std::string::npos) << e.what();
  EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
      << e.what();
}

TEST(Fasta, NulByteInHeaderIsRejected) {
  std::string text = ">a_b\nARND\n";
  text[2] = '\0';
  EXPECT_EQ(parse_error(text).kind(), ErrorKind::kCorrupt);
}

TEST(Fasta, InjectedReadFailureIsTypedIo) {
  fi::reset();
  fi::arm("io.read", 1);
  std::istringstream in(">a\nARND\n");
  SequenceStore store;
  try {
    read_fasta(in, store);
    ADD_FAILURE() << "armed io.read did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
  fi::reset();
  // Disarmed, the same stream parses fine (site is a no-op).
  std::istringstream again(">a\nARND\n");
  EXPECT_EQ(read_fasta(again, store), 1u);
}

}  // namespace
}  // namespace mublastp
