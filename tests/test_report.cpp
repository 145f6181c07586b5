#include "report/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

GappedAlignment make_alignment(SeqId subject, std::uint32_t qs,
                               std::uint32_t ss, const std::string& ops) {
  GappedAlignment a;
  a.subject = subject;
  a.q_start = qs;
  a.s_start = ss;
  std::uint32_t q = qs, s = ss;
  for (char op : ops) {
    if (op == 'M' || op == 'I') ++q;
    if (op == 'M' || op == 'D') ++s;
  }
  a.q_end = q;
  a.s_end = s;
  a.ops = ops;
  return a;
}

TEST(Summarize, PerfectMatch) {
  const auto q = encode_sequence("ARNDC");
  const auto a = make_alignment(0, 0, 0, "MMMMM");
  const auto s = summarize_alignment(q, q, a, blosum62());
  EXPECT_EQ(s.length, 5u);
  EXPECT_EQ(s.identities, 5u);
  EXPECT_EQ(s.positives, 5u);
  EXPECT_EQ(s.mismatches, 0u);
  EXPECT_EQ(s.gaps, 0u);
  EXPECT_DOUBLE_EQ(s.percent_identity(), 100.0);
}

TEST(Summarize, CountsMismatchesAndPositives) {
  const auto q = encode_sequence("ILK");   // I/L scores +2 (positive)
  const auto s2 = encode_sequence("LLK");  // first pair mismatch but positive
  const auto a = make_alignment(0, 0, 0, "MMM");
  const auto s = summarize_alignment(q, s2, a, blosum62());
  EXPECT_EQ(s.identities, 2u);
  EXPECT_EQ(s.positives, 3u);
  EXPECT_EQ(s.mismatches, 1u);
}

TEST(Summarize, CountsGapRuns) {
  const auto q = encode_sequence("ARNDCQ");
  const auto s2 = encode_sequence("ARCQ");
  // ARNDCQ vs AR--CQ: one gap run of length 2 in the subject.
  const auto a = make_alignment(0, 0, 0, "MMIIMM");
  const auto s = summarize_alignment(q, s2, a, blosum62());
  EXPECT_EQ(s.length, 6u);
  EXPECT_EQ(s.gaps, 2u);
  EXPECT_EQ(s.gap_opens, 1u);
  EXPECT_EQ(s.identities, 4u);
}

TEST(Summarize, SeparateGapRunsCountedSeparately) {
  const auto q = encode_sequence("ARNDC");
  const auto s2 = encode_sequence("RND");
  const auto a = make_alignment(0, 0, 0, "IMMMI");
  const auto s = summarize_alignment(q, s2, a, blosum62());
  EXPECT_EQ(s.gap_opens, 2u);
  EXPECT_EQ(s.gaps, 2u);
}

TEST(Summarize, RejectsMissingTranscript) {
  const auto q = encode_sequence("ARNDC");
  GappedAlignment a;
  a.q_end = 5;
  a.s_end = 5;
  EXPECT_THROW(summarize_alignment(q, q, a, blosum62()), Error);
}

class ReportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = synth::generate_database(synth::sprot_like(100000), 21);
    index_ = std::make_unique<DbIndex>(DbIndex::build(db_, {}));
    engine_ = std::make_unique<MuBlastpEngine>(*index_);
    Rng rng(22);
    queries_ = synth::sample_queries(db_, 1, 120, rng);
    // Subjects are original ids: the reports render against db_.
    result_ = engine_->search(queries_.sequence(0));
    ASSERT_FALSE(result_.alignments.empty());
  }

  SequenceStore db_;
  std::unique_ptr<DbIndex> index_;
  std::unique_ptr<MuBlastpEngine> engine_;
  SequenceStore queries_;
  QueryResult result_;
};

TEST_F(ReportFixture, TabularHasTwelveColumns) {
  std::ostringstream out;
  write_tabular(out, "query1", queries_.sequence(0), db_, result_,
                blosum62());
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 11) << line;
    EXPECT_EQ(line.substr(0, 6), "query1");
  }
  EXPECT_EQ(count, result_.alignments.size());
}

TEST_F(ReportFixture, TabularCoordinatesAreOneBasedInclusive) {
  std::ostringstream out;
  write_tabular(out, "q", queries_.sequence(0), db_, result_,
                blosum62());
  std::istringstream first_line(out.str());
  std::string field;
  std::vector<std::string> fields;
  while (std::getline(first_line, field, '\t')) fields.push_back(field);
  ASSERT_GE(fields.size(), 10u);
  const GappedAlignment& a = result_.alignments.front();
  EXPECT_EQ(std::stoul(fields[6]), a.q_start + 1);
  EXPECT_EQ(std::stoul(fields[7]), a.q_end);
  EXPECT_EQ(std::stoul(fields[8]), a.s_start + 1);
}

TEST_F(ReportFixture, TopHitIsNearHundredPercentIdentity) {
  // The query is a window of a database sequence: its source should report
  // ~100% identity in the tabular output.
  const GappedAlignment& top = result_.alignments.front();
  const auto s = summarize_alignment(queries_.sequence(0),
                                     db_.sequence(top.subject), top,
                                     blosum62());
  EXPECT_GT(s.percent_identity(), 99.0);
}

TEST_F(ReportFixture, PairwiseContainsHeadersAndBlocks) {
  std::ostringstream out;
  write_pairwise(out, "query1", queries_.sequence(0), db_, result_,
                 blosum62());
  const std::string text = out.str();
  EXPECT_NE(text.find("Query= query1"), std::string::npos);
  EXPECT_NE(text.find("Score ="), std::string::npos);
  EXPECT_NE(text.find("Identities ="), std::string::npos);
  EXPECT_NE(text.find("Query      1"), std::string::npos);
  EXPECT_NE(text.find("Sbjct"), std::string::npos);
}

TEST_F(ReportFixture, PairwiseWrapsAtRequestedWidth) {
  std::ostringstream out;
  write_pairwise(out, "q", queries_.sequence(0), db_, result_,
                 blosum62(), 30);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("Query  ", 0) == 0 || line.rfind("Sbjct  ", 0) == 0) {
      // "Label  NNNNN  <seq>  NNN": the sequence field is <= 30 chars.
      const std::size_t first = line.find("  ", 7);
      ASSERT_NE(first, std::string::npos);
      const std::size_t seq_start = first + 2;
      const std::size_t seq_end = line.find("  ", seq_start);
      ASSERT_NE(seq_end, std::string::npos);
      EXPECT_LE(seq_end - seq_start, 30u);
    }
  }
}

TEST_F(ReportFixture, PairwiseEmptyResultSaysNoHits) {
  QueryResult empty;
  std::ostringstream out;
  write_pairwise(out, "q", queries_.sequence(0), db_, empty,
                 blosum62());
  EXPECT_NE(out.str().find("No hits found"), std::string::npos);
}

}  // namespace
}  // namespace mublastp
