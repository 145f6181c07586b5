// End-to-end searches under non-default scoring matrices: the matrix is a
// parameter of both the index (neighbor table) and the search, and the
// engine-equivalence guarantee must hold for every supported matrix.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "baseline/interleaved_engine.hpp"
#include "baseline/query_engine.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index_io.hpp"
#include "synth/synth.hpp"
#include "temp_path.hpp"

namespace mublastp {
namespace {

class MultiMatrix : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    matrix_ = &matrix_by_name(GetParam());
    db_ = synth::generate_database(synth::sprot_like(80000), 61);
    Rng rng(62);
    queries_ = synth::sample_queries(db_, 2, 100, rng);
    DbIndexConfig cfg;
    cfg.block_bytes = 32 * 1024;
    cfg.matrix = matrix_;
    // BLOSUM80/PAM250 rescale scores; keep T at a level where all matrices
    // produce hits on this small database.
    cfg.neighbor_threshold = 11;
    index_ = std::make_unique<DbIndex>(DbIndex::build(db_, cfg));
    params_.matrix = matrix_;
  }

  const ScoreMatrix* matrix_ = nullptr;
  SequenceStore db_;
  SequenceStore queries_;
  std::unique_ptr<DbIndex> index_;
  SearchParams params_;
};

TEST_P(MultiMatrix, EnginesAgree) {
  const QueryIndexedEngine ncbi(db_, params_, 11);
  const InterleavedDbEngine ncbi_db(*index_, params_);
  const MuBlastpEngine mu(*index_, params_);
  for (SeqId q = 0; q < queries_.size(); ++q) {
    const auto query = queries_.sequence(q);
    const QueryResult a = ncbi.search(query);
    const QueryResult b = ncbi_db.search(query);
    const QueryResult c = mu.search(query);
    EXPECT_EQ(a.ungapped, b.ungapped) << GetParam();
    EXPECT_EQ(b.ungapped, c.ungapped) << GetParam();
    ASSERT_EQ(a.alignments.size(), c.alignments.size()) << GetParam();
    for (std::size_t i = 0; i < a.alignments.size(); ++i) {
      EXPECT_EQ(a.alignments[i].score, c.alignments[i].score);
      EXPECT_EQ(a.alignments[i].ops, c.alignments[i].ops);
    }
  }
}

TEST_P(MultiMatrix, FindsSelfMatch) {
  const MuBlastpEngine mu(*index_, params_);
  const QueryResult r = mu.search(queries_.sequence(0));
  ASSERT_FALSE(r.alignments.empty()) << GetParam();
  // Top alignment covers most of the query at near-self score.
  const GappedAlignment& top = r.alignments.front();
  EXPECT_GT(top.q_end - top.q_start, 90u);
  Score self = 0;
  for (const Residue res : queries_.sequence(0)) {
    self += (*matrix_)(res, res);
  }
  EXPECT_GT(top.score, self * 9 / 10);
}

TEST_P(MultiMatrix, IndexIoPreservesMatrix) {
  const std::string path = test_temp_path("index.mbi");
  save_db_index_file(path, *index_);
  const DbIndex loaded(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.config().matrix, matrix_);
  const MuBlastpEngine a(*index_, params_);
  const MuBlastpEngine b(loaded, params_);
  const QueryResult ra = a.search(queries_.sequence(0));
  const QueryResult rb = b.search(queries_.sequence(0));
  EXPECT_EQ(ra.ungapped, rb.ungapped);
}

INSTANTIATE_TEST_SUITE_P(Matrices, MultiMatrix,
                         ::testing::Values("BLOSUM62", "BLOSUM80", "BLOSUM50",
                                           "PAM250"));

TEST(MatrixMismatch, EngineRejectsWrongMatrix) {
  const SequenceStore db = synth::generate_database(synth::sprot_like(30000),
                                                    63);
  DbIndexConfig cfg;
  cfg.matrix = &blosum80();
  const DbIndex index = DbIndex::build(db, cfg);
  SearchParams params;  // defaults to BLOSUM62
  EXPECT_THROW(MuBlastpEngine(index, params), Error);
  EXPECT_THROW(InterleavedDbEngine(index, params), Error);
}

}  // namespace
}  // namespace mublastp
