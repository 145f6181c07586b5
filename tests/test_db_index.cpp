#include "index/db_index.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

SequenceStore small_db(std::uint64_t seed, std::size_t seqs = 50,
                       std::size_t min_len = 20, std::size_t max_len = 400) {
  Rng rng(seed);
  SequenceStore db;
  for (std::size_t i = 0; i < seqs; ++i) {
    const std::size_t len =
        min_len + rng.next_below(max_len - min_len + 1);
    std::vector<Residue> s(len);
    for (auto& r : s) r = static_cast<Residue>(rng.next_below(20));
    db.add(s, "s" + std::to_string(i));
  }
  return db;
}

TEST(DbIndex, RejectsEmptyDatabase) {
  SequenceStore empty;
  EXPECT_THROW(DbIndex::build(empty, {}), Error);
}

TEST(DbIndex, RejectsBadConfig) {
  SequenceStore db = small_db(1);
  DbIndexConfig bad;
  bad.block_bytes = 16;
  EXPECT_THROW(DbIndex::build(db, bad), Error);
  bad = {};
  bad.long_seq_overlap = bad.long_seq_limit;
  EXPECT_THROW(DbIndex::build(db, bad), Error);
  bad = {};
  bad.long_seq_overlap = 1;
  EXPECT_THROW(DbIndex::build(db, bad), Error);
}

TEST(DbIndex, SortedStoreIsAscendingByLength) {
  const SequenceStore db = small_db(2);
  const DbIndex idx = DbIndex::build(db, {});
  for (SeqId i = 0; i + 1 < idx.num_sequences(); ++i) {
    EXPECT_LE(idx.sequence(i).size(), idx.sequence(i + 1).size());
  }
}

TEST(DbIndex, IdMappingsAreInverse) {
  const SequenceStore db = small_db(3);
  const DbIndex idx = DbIndex::build(db, {});
  for (SeqId s = 0; s < db.size(); ++s) {
    EXPECT_EQ(idx.sorted_id(idx.original_id(s)), s);
    EXPECT_EQ(idx.original_id(idx.sorted_id(s)), s);
    // The sorted sequence content matches the original.
    const auto a = idx.sequence(idx.sorted_id(s));
    const auto b = db.sequence(s);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST(DbIndex, EveryWordPositionIndexedExactlyOnce) {
  const SequenceStore db = small_db(4, 30, 10, 200);
  DbIndexConfig cfg;
  cfg.block_bytes = 8192;  // force several blocks
  const DbIndex idx = DbIndex::build(db, cfg);

  // Collect (sorted seq, global offset, word) triples from the index.
  std::multiset<std::tuple<SeqId, std::uint32_t, std::uint32_t>> indexed;
  for (const DbBlockView& block : idx.blocks()) {
    for (std::uint32_t w = 0; w < static_cast<std::uint32_t>(kNumWords);
         ++w) {
      for (const std::uint32_t e : block.entries(w)) {
        const FragmentRef& f = block.fragments()[block.entry_fragment(e)];
        indexed.insert({f.seq, f.start + block.entry_offset(e), w});
      }
    }
  }

  std::multiset<std::tuple<SeqId, std::uint32_t, std::uint32_t>> expected;
  for (SeqId s = 0; s < idx.num_sequences(); ++s) {
    const auto seq = idx.sequence(s);
    for (std::size_t p = 0; p + kWordLength <= seq.size(); ++p) {
      expected.insert({s, static_cast<std::uint32_t>(p),
                       word_key(seq.data() + p)});
    }
  }
  EXPECT_EQ(indexed, expected);
}

TEST(DbIndex, BlocksRespectCharacterBudget) {
  const SequenceStore db = small_db(5, 60, 10, 150);
  DbIndexConfig cfg;
  cfg.block_bytes = 4096;  // 1024 chars per block
  const DbIndex idx = DbIndex::build(db, cfg);
  EXPECT_GT(idx.blocks().size(), 1u);
  const std::size_t budget = cfg.block_bytes / 4;
  for (std::size_t b = 0; b + 1 < idx.blocks().size(); ++b) {
    // Non-final blocks can exceed the budget only by their last fragment
    // (a fragment is never split across blocks).
    EXPECT_LE(idx.blocks()[b].total_chars(),
              budget + idx.blocks()[b].max_fragment_len());
    EXPECT_FALSE(idx.blocks()[b].fragments().empty());
  }
}

TEST(DbIndex, BlockStatsAreConsistent) {
  const SequenceStore db = small_db(6);
  const DbIndex idx = DbIndex::build(db, {});
  for (const DbBlockView& block : idx.blocks()) {
    std::size_t chars = 0;
    std::size_t positions = 0;
    std::size_t max_len = 0;
    for (const FragmentRef& f : block.fragments()) {
      chars += f.len;
      max_len = std::max<std::size_t>(max_len, f.len);
      if (f.len >= static_cast<std::size_t>(kWordLength)) {
        positions += f.len - kWordLength + 1;
      }
    }
    EXPECT_EQ(block.total_chars(), chars);
    EXPECT_EQ(block.num_positions(), positions);
    EXPECT_EQ(block.max_fragment_len(), max_len);
    EXPECT_EQ(block.position_bytes(), positions * 4);
  }
}

TEST(DbIndex, EntriesAreOrderedByFragmentThenOffset) {
  const SequenceStore db = small_db(7);
  const DbIndex idx = DbIndex::build(db, {});
  for (const DbBlockView& block : idx.blocks()) {
    for (std::uint32_t w = 0; w < static_cast<std::uint32_t>(kNumWords);
         w += 101) {
      const auto entries = block.entries(w);
      EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end()));
    }
  }
}

TEST(DbIndex, LongSequencesAreSplitWithOverlap) {
  SequenceStore db;
  Rng rng(8);
  std::vector<Residue> longseq(20000);
  for (auto& r : longseq) r = static_cast<Residue>(rng.next_below(20));
  db.add(longseq, "long");
  db.add_ascii("ARNDCQEGHILKMFPSTWYV", "short");

  DbIndexConfig cfg;
  cfg.long_seq_limit = 4096;
  cfg.long_seq_overlap = 128;
  const DbIndex idx = DbIndex::build(db, cfg);

  // Collect fragments of the long sequence.
  std::vector<FragmentRef> frags;
  for (const DbBlockView& block : idx.blocks()) {
    for (const FragmentRef& f : block.fragments()) {
      if (idx.sequence(f.seq).size() == 20000) frags.push_back(f);
    }
  }
  ASSERT_GT(frags.size(), 1u);
  std::sort(frags.begin(), frags.end(),
            [](const FragmentRef& a, const FragmentRef& b) {
              return a.start < b.start;
            });
  EXPECT_EQ(frags.front().start, 0u);
  EXPECT_EQ(frags.back().start + frags.back().len, 20000u);
  for (std::size_t i = 0; i + 1 < frags.size(); ++i) {
    EXPECT_LE(frags[i].len, cfg.long_seq_limit);
    // Consecutive fragments overlap by exactly long_seq_overlap.
    EXPECT_EQ(frags[i].start + frags[i].len,
              frags[i + 1].start + cfg.long_seq_overlap);
  }
}

TEST(DbIndex, OptimalBlockFormula) {
  // b = L3 / (2t + 1): paper Section V-B.
  EXPECT_EQ(DbIndex::optimal_block_bytes(30u << 20, 12), (30u << 20) / 25);
  EXPECT_EQ(DbIndex::optimal_block_bytes(20u << 20, 1), (20u << 20) / 3);
  EXPECT_THROW(DbIndex::optimal_block_bytes(1 << 20, 0), Error);
}

TEST(DbIndex, PackedEntriesRoundTrip) {
  const SequenceStore db = small_db(9);
  const DbIndex idx = DbIndex::build(db, {});
  for (const DbBlockView& block : idx.blocks()) {
    for (std::uint32_t w = 0; w < static_cast<std::uint32_t>(kNumWords);
         w += 211) {
      for (const std::uint32_t e : block.entries(w)) {
        const std::uint32_t frag = block.entry_fragment(e);
        const std::uint32_t off = block.entry_offset(e);
        ASSERT_LT(frag, block.fragments().size());
        const FragmentRef& f = block.fragments()[frag];
        ASSERT_LT(off + kWordLength, f.len + 1);
        // The word at the decoded position is the word it is filed under.
        const auto seq = idx.sequence(f.seq);
        EXPECT_EQ(word_key(seq.data() + f.start + off), w);
      }
    }
  }
}

TEST(DbIndex, SyntheticDatabaseRoundTrip) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(100000), 11);
  DbIndexConfig cfg;
  cfg.block_bytes = 64 * 1024;
  const DbIndex idx = DbIndex::build(db, cfg);
  std::size_t total_positions = 0;
  std::size_t total_chars = 0;
  for (const DbBlockView& b : idx.blocks()) {
    total_positions += b.num_positions();
    total_chars += b.total_chars();
  }
  EXPECT_EQ(total_chars, db.total_residues());
  // positions = chars - (W-1) per fragment.
  EXPECT_LT(total_positions, total_chars);
  EXPECT_GT(total_positions, total_chars - 3 * db.size() - 100);
}

}  // namespace
}  // namespace mublastp
