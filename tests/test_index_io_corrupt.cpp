// Fail-closed battery for index format v3: every way a file can rot —
// truncation at and inside every section, a flipped byte in every section,
// a clobbered header field — must surface as a mublastp::Error naming the
// offending part of the file. Never a crash, never a partial index. The
// battery drives BOTH loaders (the copy loader and MappedDbIndex) over the
// same corrupted bytes; the CI sanitizer job runs this under ASan/UBSan.
#include "index/db_index_io.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index_format.hpp"
#include "index/mapped_db_index.hpp"
#include "synth/synth.hpp"
#include "temp_path.hpp"

namespace mublastp {
namespace {

// The index header as laid out on disk (a sectioned file with a 4-byte
// magic), spelled out here so these tests pin the field offsets.
struct FileHeaderV3 {
  char magic[4];
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint32_t table_crc32;
  std::uint64_t file_bytes;
  std::uint8_t reserved[40];
};
static_assert(sizeof(FileHeaderV3) == kSectionedHeaderBytes);

// One saved index, parsed section table and all, shared by every test.
class IndexIoCorrupt : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const SequenceStore db =
        synth::generate_database(synth::sprot_like(30000), 77);
    DbIndexConfig cfg;
    cfg.block_bytes = 8 * 1024;  // several blocks -> non-trivial sections
    index_ = new DbIndex(DbIndex::build(db, cfg));
    std::stringstream buf;
    save_db_index(buf, *index_);
    bytes_ = new std::string(buf.str());

    FileHeaderV3 header;
    std::memcpy(&header, bytes_->data(), sizeof(header));
    table_ = new std::vector<SectionRecord>(header.section_count);
    std::memcpy(table_->data(), bytes_->data() + sizeof(FileHeaderV3),
                header.section_count * sizeof(SectionRecord));
  }

  static void TearDownTestSuite() {
    delete index_;
    delete bytes_;
    delete table_;
    index_ = nullptr;
    bytes_ = nullptr;
    table_ = nullptr;
  }

  static const std::string& bytes() { return *bytes_; }
  static const std::vector<SectionRecord>& table() { return *table_; }

  // Writes `data` to a temp file and asserts that BOTH load paths (copy
  // loader and verified mmap) reject it with an Error mentioning
  // `expect_substr` (empty = any Error). Returns the messages for logging.
  static void expect_rejected(const std::string& data,
                              const std::string& expect_substr,
                              const std::string& context) {
    const std::string path = test_temp_path("case.mbi");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
    }
    check_throws([&] { (void)load_db_index_file(path); }, expect_substr,
                 context + " [copy loader]");
    check_throws([&] { MappedDbIndex mapped(path); }, expect_substr,
                 context + " [mmap loader]");
    // The stream entry point must agree with the file entry point.
    std::stringstream in(data);
    check_throws([&] { (void)load_db_index(in); }, expect_substr,
                 context + " [stream loader]");
    std::remove(path.c_str());
  }

  template <typename Fn>
  static void check_throws(Fn&& fn, const std::string& expect_substr,
                           const std::string& context,
                           std::optional<ErrorKind> kind = std::nullopt) {
    try {
      fn();
      ADD_FAILURE() << context << ": corrupt input was accepted";
    } catch (const Error& e) {
      if (kind) {
        EXPECT_EQ(e.kind(), *kind) << context;
      }
      if (!expect_substr.empty()) {
        EXPECT_NE(std::string(e.what()).find(expect_substr),
                  std::string::npos)
            << context << ": error was \"" << e.what()
            << "\", expected it to mention \"" << expect_substr << "\"";
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << context << ": threw non-mublastp exception: "
                    << e.what();
    }
  }

  static DbIndex* index_;
  static std::string* bytes_;
  static std::vector<SectionRecord>* table_;
};

DbIndex* IndexIoCorrupt::index_ = nullptr;
std::string* IndexIoCorrupt::bytes_ = nullptr;
std::vector<SectionRecord>* IndexIoCorrupt::table_ = nullptr;

TEST_F(IndexIoCorrupt, SavedFileIsSane) {
  ASSERT_EQ(table().size(), 11u);
  FileHeaderV3 header;
  std::memcpy(&header, bytes().data(), sizeof(header));
  EXPECT_EQ(header.file_bytes, bytes().size());
  for (const SectionRecord& r : table()) {
    EXPECT_EQ(r.offset % kSectionAlign, 0u);
    EXPECT_LE(r.offset + r.length, bytes().size());
  }
}

TEST_F(IndexIoCorrupt, TruncationAtEverySectionBoundary) {
  // Cut exactly at the start of each section: everything after it is gone.
  for (const SectionRecord& r : table()) {
    const std::string name(section_name(static_cast<SectionId>(r.id)));
    expect_rejected(bytes().substr(0, r.offset), "truncated",
                    "cut at start of '" + name + "'");
  }
  // And cut just before the end of the file (last byte missing).
  expect_rejected(bytes().substr(0, bytes().size() - 1), "truncated",
                  "last byte missing");
}

TEST_F(IndexIoCorrupt, TruncationMidSection) {
  for (const SectionRecord& r : table()) {
    if (r.length < 2) continue;
    const std::string name(section_name(static_cast<SectionId>(r.id)));
    expect_rejected(bytes().substr(0, r.offset + r.length / 2), "truncated",
                    "cut inside '" + name + "'");
  }
}

TEST_F(IndexIoCorrupt, TruncationInsideHeaderAndTable) {
  for (const std::size_t cut : {0ul, 3ul, 7ul, 15ul, sizeof(FileHeaderV3) - 1,
                                sizeof(FileHeaderV3) + 5}) {
    expect_rejected(bytes().substr(0, cut), "",
                    "cut at byte " + std::to_string(cut));
  }
}

TEST_F(IndexIoCorrupt, ByteFlipInEverySectionNamesTheSection) {
  for (const SectionRecord& r : table()) {
    if (r.length == 0) continue;  // nothing to flip (and padding is not CRCd)
    const std::string name(section_name(static_cast<SectionId>(r.id)));
    for (const std::uint64_t at :
         {r.offset, r.offset + r.length / 2, r.offset + r.length - 1}) {
      std::string mutated = bytes();
      mutated[at] = static_cast<char>(mutated[at] ^ 0x40);
      expect_rejected(mutated, "index section '" + name + "'",
                      "flip at +" + std::to_string(at - r.offset) + " in '" +
                          name + "'");
    }
  }
}

TEST_F(IndexIoCorrupt, CorruptMagic) {
  std::string mutated = bytes();
  mutated[0] = 'X';
  expect_rejected(mutated, "bad magic", "magic[0]");
}

TEST_F(IndexIoCorrupt, CorruptVersion) {
  std::string mutated = bytes();
  mutated[4] = 99;
  expect_rejected(mutated, "unsupported index format version", "version=99");
}

TEST_F(IndexIoCorrupt, CorruptDeclaredFileSize) {
  std::string mutated = bytes();
  mutated[16] = static_cast<char>(mutated[16] ^ 0x01);  // file_bytes LSB
  expect_rejected(mutated, "truncated index file", "file_bytes flipped");
}

TEST_F(IndexIoCorrupt, CorruptTableChecksum) {
  std::string mutated = bytes();
  mutated[12] = static_cast<char>(mutated[12] ^ 0x01);  // table_crc32 LSB
  expect_rejected(mutated, "section table checksum mismatch",
                  "table_crc32 flipped");
}

TEST_F(IndexIoCorrupt, CorruptSectionRecord) {
  // Any damage to the table itself (here: the first record's stored CRC) is
  // caught by the table checksum before the record is trusted.
  std::string mutated = bytes();
  const std::size_t crc_field =
      sizeof(FileHeaderV3) + offsetof(SectionRecord, crc32);
  mutated[crc_field] = static_cast<char>(mutated[crc_field] ^ 0x01);
  expect_rejected(mutated, "section table checksum mismatch",
                  "section record crc flipped");
}

TEST_F(IndexIoCorrupt, ImplausibleSectionCount) {
  std::string mutated = bytes();
  std::uint32_t huge = 0xFFFF;
  std::memcpy(mutated.data() + 8, &huge, sizeof(huge));  // section_count
  expect_rejected(mutated, "", "section_count=0xFFFF");
}

TEST_F(IndexIoCorrupt, EmptyFile) {
  const std::string path = test_temp_path("empty.mbi");
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  check_throws([&] { (void)load_db_index_file(path); }, "empty index file",
               "zero-byte file [copy loader]");
  check_throws([&] { MappedDbIndex mapped(path); }, "", "zero-byte [mmap]");
  std::remove(path.c_str());
}

TEST_F(IndexIoCorrupt, DirectoryPath) {
  const std::string dir = test_temp_path("dir.mbi");
  std::filesystem::create_directory(dir);
  check_throws([&] { (void)load_db_index_file(dir); }, "directory",
               "directory path [copy loader]");
  check_throws([&] { MappedDbIndex mapped(dir); }, "", "directory [mmap]");
  std::filesystem::remove(dir);
}

TEST_F(IndexIoCorrupt, MissingFile) {
  check_throws(
      [&] { (void)load_db_index_file("/nonexistent/db.mbi"); },
      "cannot open index file", "missing file [copy loader]");
  check_throws([&] { MappedDbIndex mapped("/nonexistent/db.mbi"); }, "",
               "missing file [mmap]");
}

TEST_F(IndexIoCorrupt, MmapRejectsV2Files) {
  // Format v2, the retired streamed layout, has the same magic and keeps its
  // version at the same offset. Its reader is gone, so the zero-copy loader
  // (and with it the copy and stream loaders) must refuse such a file by its
  // version, before reading anything laid out after it.
  std::string v2 = bytes();
  const std::uint32_t version = 2;
  std::memcpy(v2.data() + offsetof(FileHeaderV3, version), &version,
              sizeof(version));
  expect_rejected(v2, "unsupported index format version 2", "v2 via mmap");
}

TEST_F(IndexIoCorrupt, DescribeRejectsCorruptHeaders) {
  const std::string path = test_temp_path("describe.mbi");
  const auto write = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  std::string mutated = bytes();
  mutated[0] = 'X';
  write(mutated);
  check_throws([&] { (void)describe_db_index_file(path); }, "bad magic",
               "describe: magic");
  mutated = bytes();
  mutated[12] = static_cast<char>(mutated[12] ^ 0x01);
  write(mutated);
  check_throws([&] { (void)describe_db_index_file(path); },
               "section table checksum mismatch", "describe: table crc");
  std::remove(path.c_str());
}

TEST_F(IndexIoCorrupt, OutOfBoundsSectionRecordIsCorruptNotAnAllocation) {
  // A config record that claims 2^40 bytes, behind a valid table CRC. The
  // table readers must refuse it as corrupt before anything allocates the
  // declared length (append reads the config section this way).
  std::vector<SectionRecord> records = table();
  for (SectionRecord& r : records) {
    if (r.id == static_cast<std::uint32_t>(SectionId::kConfig)) {
      r.length = std::uint64_t{1} << 40;
    }
  }
  const std::size_t table_bytes = records.size() * sizeof(SectionRecord);
  const std::uint32_t table_crc = crc32(records.data(), table_bytes);
  std::string mutated = bytes();
  std::memcpy(mutated.data() + sizeof(FileHeaderV3), records.data(),
              table_bytes);
  std::memcpy(mutated.data() + offsetof(FileHeaderV3, table_crc32),
              &table_crc, sizeof(table_crc));
  const std::string want = "index section 'config' is out of bounds";
  expect_rejected(mutated, want, "config length 2^40");

  const std::string path = test_temp_path("oob_config.mbi");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  check_throws([&] { (void)describe_db_index_file(path); }, want,
               "describe", ErrorKind::kCorrupt);
  check_throws([&] { (void)read_index_config_file(path); }, want,
               "config reader", ErrorKind::kCorrupt);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Degraded mode: block-local damage quarantines that block; the rest of the
// index stays searchable and produces exactly the surviving blocks' hits.

class IndexIoDegraded : public IndexIoCorrupt {
 protected:
  static const SectionRecord& section(SectionId id) {
    for (const SectionRecord& r : table()) {
      if (r.id == static_cast<std::uint32_t>(id)) return r;
    }
    throw std::runtime_error("section not in table");
  }

  static std::vector<BlockMetaRecord> block_meta() {
    const SectionRecord& r = section(SectionId::kBlockMeta);
    std::vector<BlockMetaRecord> meta(r.length / sizeof(BlockMetaRecord));
    std::memcpy(meta.data(), bytes().data() + r.offset, r.length);
    return meta;
  }

  // File offset of a byte in the middle of block `b`'s slice of kEntries.
  static std::size_t entries_byte_of_block(std::size_t b) {
    const std::vector<BlockMetaRecord> meta = block_meta();
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < b; ++i) before += meta[i].num_entries;
    EXPECT_GT(meta[b].num_entries, 0u);
    return section(SectionId::kEntries).offset +
           (before + meta[b].num_entries / 2) * sizeof(std::uint32_t);
  }

  // Loads `data` tolerantly through the copy loader; fills `quarantined`.
  static DbIndex load_degraded(const std::string& data,
                               std::vector<BlockQuarantine>& quarantined) {
    std::stringstream in(data);
    IndexLoadOptions options;
    options.tolerate_block_corruption = true;
    options.quarantined = &quarantined;
    return load_db_index(in, options);
  }
};

TEST_F(IndexIoDegraded, SingleBlockCorruptionIsQuarantined) {
  ASSERT_GE(index_->blocks().size(), 3u) << "fixture must be multi-block";
  const std::size_t bad = 1;
  std::string mutated = bytes();
  const std::size_t at = entries_byte_of_block(bad);
  mutated[at] = static_cast<char>(mutated[at] ^ 0x40);

  std::vector<BlockQuarantine> quarantined;
  const DbIndex degraded = load_degraded(mutated, quarantined);
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].block, bad);
  EXPECT_NE(quarantined[0].reason.find("entries"), std::string::npos)
      << quarantined[0].reason;
  // Same block count; the quarantined one serves as an empty block.
  EXPECT_EQ(degraded.blocks().size(), index_->blocks().size());
  EXPECT_TRUE(degraded.blocks()[bad].fragments().empty());
  EXPECT_FALSE(degraded.blocks()[bad + 1].fragments().empty());

  // The mmap loader must agree byte-for-byte on the quarantine decision.
  const std::string path = test_temp_path("degraded.mbi");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  MappedDbIndexOptions mopts;
  mopts.tolerate_block_corruption = true;
  const MappedDbIndex mapped(path, mopts);
  ASSERT_EQ(mapped.quarantined().size(), 1u);
  EXPECT_EQ(mapped.quarantined()[0].block, bad);
  EXPECT_TRUE(DbIndexView(mapped).blocks()[bad].fragments().empty());
  std::remove(path.c_str());
}

// The acceptance scenario: a multi-block index with one corrupted block
// still returns exactly the hits of the surviving blocks.
TEST_F(IndexIoDegraded, SurvivingBlocksProduceExactlyTheirHits) {
  ASSERT_GE(index_->blocks().size(), 3u);
  const std::size_t bad = 1;

  // Subjects (original ids) with any fragment in the corrupted block. With
  // short synthetic sequences every subject lives in exactly one block, so
  // "drop these subjects from the full results" is the exact ground truth;
  // the assertion below pins that assumption.
  std::set<SeqId> bad_subjects;
  std::map<SeqId, std::set<std::size_t>> blocks_of;
  for (std::size_t b = 0; b < index_->blocks().size(); ++b) {
    for (const FragmentRef& f : index_->blocks()[b].fragments()) {
      const SeqId orig = index_->original_id(f.seq);
      blocks_of[orig].insert(b);
      if (b == bad) bad_subjects.insert(orig);
    }
  }
  for (const auto& [seq, bs] : blocks_of) {
    ASSERT_EQ(bs.size(), 1u) << "subject " << seq << " spans blocks";
  }

  // Queries are actual database subjects — one living in the block about to
  // be corrupted, one from a surviving block — so the corrupted block is
  // guaranteed to contribute hits that degradation must then drop.
  SequenceStore queries;
  const FragmentRef& in_bad = index_->blocks()[bad].fragments().front();
  const FragmentRef& in_good = index_->blocks()[0].fragments().front();
  queries.add(index_->db().sequence(in_bad.seq), "from-corrupted-block");
  queries.add(index_->db().sequence(in_good.seq), "from-surviving-block");
  SearchParams params;
  params.max_alignments = 1000;  // keep culling out of the comparison

  const MuBlastpEngine full_engine(DbIndexView(*index_), params);
  const std::vector<QueryResult> full = full_engine.search_batch(queries, 2);

  std::string mutated = bytes();
  const std::size_t at = entries_byte_of_block(bad);
  mutated[at] = static_cast<char>(mutated[at] ^ 0x40);
  std::vector<BlockQuarantine> quarantined;
  const DbIndex degraded_index = load_degraded(mutated, quarantined);
  ASSERT_EQ(quarantined.size(), 1u);
  const MuBlastpEngine degraded_engine(DbIndexView(degraded_index), params);
  const std::vector<QueryResult> degraded =
      degraded_engine.search_batch(queries, 2);

  bool any_dropped = false;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<UngappedAlignment> expect;
    for (const UngappedAlignment& u : full[q].ungapped) {
      if (bad_subjects.count(u.subject) == 0) expect.push_back(u);
      else any_dropped = true;
    }
    EXPECT_EQ(degraded[q].ungapped, expect) << "query " << q;

    // Final alignments: same filter; per-subject stage-3/4 processing means
    // surviving subjects' alignments (scores, E-values) are unchanged.
    std::vector<const GappedAlignment*> expect_al;
    for (const GappedAlignment& a : full[q].alignments) {
      if (bad_subjects.count(a.subject) == 0) expect_al.push_back(&a);
    }
    ASSERT_EQ(degraded[q].alignments.size(), expect_al.size())
        << "query " << q;
    for (std::size_t i = 0; i < expect_al.size(); ++i) {
      const GappedAlignment& got = degraded[q].alignments[i];
      const GappedAlignment& want = *expect_al[i];
      EXPECT_EQ(got.subject, want.subject);
      EXPECT_EQ(got.score, want.score);
      EXPECT_EQ(got.q_start, want.q_start);
      EXPECT_EQ(got.s_start, want.s_start);
      EXPECT_EQ(got.evalue, want.evalue);
      EXPECT_EQ(got.ops, want.ops);
    }
  }
  // The battery is vacuous if no query ever hit the corrupted block.
  EXPECT_TRUE(any_dropped) << "no hits in the corrupted block; fixture too"
                              " small to exercise degradation";
}

TEST_F(IndexIoDegraded, EveryBlockCorruptIsFatalEvenWhenTolerant) {
  std::string mutated = bytes();
  for (std::size_t b = 0; b < index_->blocks().size(); ++b) {
    const std::size_t at = entries_byte_of_block(b);
    mutated[at] = static_cast<char>(mutated[at] ^ 0x40);
  }
  std::vector<BlockQuarantine> quarantined;
  check_throws([&] { (void)load_degraded(mutated, quarantined); },
               "every block", "all blocks corrupt [tolerant]");
}

TEST_F(IndexIoDegraded, NonBlockSectionDamageIsFatalEvenWhenTolerant) {
  // Arena damage cannot be attributed to one block: fail closed.
  const SectionRecord& arena = section(SectionId::kArena);
  std::string mutated = bytes();
  const std::size_t at = arena.offset + arena.length / 2;
  mutated[at] = static_cast<char>(mutated[at] ^ 0x40);
  std::vector<BlockQuarantine> quarantined;
  check_throws([&] { (void)load_degraded(mutated, quarantined); }, "arena",
               "arena corrupt [tolerant]");
  EXPECT_TRUE(quarantined.empty());
}

TEST_F(IndexIoDegraded, PreBlockCrcFilesAreNotQuarantinable) {
  // Rewrite the file as an old writer would have: zero every block_crc32,
  // refresh the blockmeta section CRC and the table CRC so the file is
  // valid, then rot one entries byte. Tolerant load must fail closed: the
  // damage is real but cannot be localized to a block.
  std::string mutated = bytes();
  const SectionRecord meta_sec = section(SectionId::kBlockMeta);
  std::vector<BlockMetaRecord> meta = block_meta();
  for (BlockMetaRecord& m : meta) m.block_crc32 = 0;
  std::memcpy(mutated.data() + meta_sec.offset, meta.data(),
              meta.size() * sizeof(BlockMetaRecord));

  FileHeaderV3 header;
  std::memcpy(&header, mutated.data(), sizeof(header));
  std::vector<SectionRecord> tab(header.section_count);
  std::memcpy(tab.data(), mutated.data() + sizeof(header),
              tab.size() * sizeof(SectionRecord));
  for (SectionRecord& r : tab) {
    if (r.id == static_cast<std::uint32_t>(SectionId::kBlockMeta)) {
      r.crc32 = crc32(mutated.data() + r.offset, r.length);
    }
  }
  std::memcpy(mutated.data() + sizeof(header), tab.data(),
              tab.size() * sizeof(SectionRecord));
  header.table_crc32 = crc32(mutated.data() + sizeof(header),
                             tab.size() * sizeof(SectionRecord));
  std::memcpy(mutated.data(), &header, sizeof(header));

  // Sanity: the rewrite itself still loads strictly.
  {
    std::stringstream in(mutated);
    EXPECT_NO_THROW((void)load_db_index(in));
  }
  const std::size_t at = entries_byte_of_block(1);
  mutated[at] = static_cast<char>(mutated[at] ^ 0x40);
  std::vector<BlockQuarantine> quarantined;
  check_throws([&] { (void)load_degraded(mutated, quarantined); },
               "per-block checksums", "pre-block-CRC file [tolerant]");
}

}  // namespace
}  // namespace mublastp
