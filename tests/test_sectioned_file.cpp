// The three sectioned-file formats against bytes on disk. Two manifests
// (MUSHARD01 with 3 shards, one empty; MUGEN01 with 2 members) were written
// into tests/data/ by the writers that predate the shared sectioned-file
// module: re-serializing the same in-memory manifests must reproduce them
// byte for byte, and parsing them must give the manifests back. The sweep
// flips every bit of both manifests, and every bit of tiny_v3.mbi before
// its first payload (header, section table, padding), and each flip must
// be refused as kCorrupt by the in-memory parser.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "cluster/shard_manifest.hpp"
#include "common/error.hpp"
#include "index/db_index_format.hpp"
#include "index/generation.hpp"
#include "temp_path.hpp"

namespace mublastp {
namespace {

std::string read_fixture(const char* name) {
  std::ifstream in(std::string(MUBLASTP_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// The manifest in tests/data/three_shards.mushard.
cluster::ShardManifest three_shards() {
  cluster::ShardManifest m;
  m.strategy = cluster::PartitionStrategy::kRoundRobinSorted;
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
  return m;  // shard 2 is empty: no path, no sequences
}

/// The manifest in tests/data/two_members.mugen.
GenerationManifest two_members() {
  GenerationManifest g;
  g.generation = 2;
  g.total_sequences = 7;
  g.total_residues = 700;
  g.block_bytes = 4096;
  g.neighbor_threshold = 11;
  g.matrix_name = "BLOSUM62";
  g.long_seq_limit = 8192;
  g.long_seq_overlap = 128;
  g.members = {{"db.mbi", 4, 400, 0, 0x33333333},
               {"db.mbi.d000002", 3, 300, 4, 0x44444444}};
  return g;
}

TEST(ManifestFixture, ShardManifestBytesAndParse) {
  const std::string fixture = read_fixture("three_shards.mushard");
  ASSERT_EQ(fixture.size(), 512u);
  const std::string path = test_temp_path("three_shards.mushard");
  cluster::save_shard_manifest(path, three_shards());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_TRUE(written.str() == fixture)
      << "a fresh save differs from the checked-in MUSHARD01 fixture";
  std::remove(path.c_str());

  const cluster::ShardManifest want = three_shards();
  const cluster::ShardManifest got =
      cluster::parse_shard_manifest(as_bytes(fixture));
  EXPECT_EQ(got.strategy, want.strategy);
  EXPECT_EQ(got.total_sequences, want.total_sequences);
  EXPECT_EQ(got.total_residues, want.total_residues);
  ASSERT_EQ(got.shard_count(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(got.shards[k].path, want.shards[k].path) << k;
    EXPECT_EQ(got.shards[k].num_sequences, want.shards[k].num_sequences);
    EXPECT_EQ(got.shards[k].num_residues, want.shards[k].num_residues);
    EXPECT_EQ(got.shards[k].index_crc32, want.shards[k].index_crc32);
    EXPECT_EQ(got.shards[k].to_global, want.shards[k].to_global);
  }
}

TEST(ManifestFixture, GenerationManifestBytesAndParse) {
  const std::string fixture = read_fixture("two_members.mugen");
  ASSERT_EQ(fixture.size(), 384u);
  EXPECT_TRUE(serialize_generation_manifest(two_members()) == fixture)
      << "a fresh serialization differs from the checked-in MUGEN01 fixture";

  const GenerationManifest want = two_members();
  const GenerationManifest got = parse_generation_manifest(as_bytes(fixture));
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.total_sequences, want.total_sequences);
  EXPECT_EQ(got.total_residues, want.total_residues);
  EXPECT_EQ(got.block_bytes, want.block_bytes);
  EXPECT_EQ(got.neighbor_threshold, want.neighbor_threshold);
  EXPECT_EQ(got.matrix_name, want.matrix_name);
  EXPECT_EQ(got.long_seq_limit, want.long_seq_limit);
  EXPECT_EQ(got.long_seq_overlap, want.long_seq_overlap);
  ASSERT_EQ(got.member_count(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(got.members[k].path, want.members[k].path) << k;
    EXPECT_EQ(got.members[k].num_sequences, want.members[k].num_sequences);
    EXPECT_EQ(got.members[k].num_residues, want.members[k].num_residues);
    EXPECT_EQ(got.members[k].id_offset, want.members[k].id_offset);
    EXPECT_EQ(got.members[k].index_crc32, want.members[k].index_crc32);
  }
}

/// Flips each bit of image[0, end) in turn and expects `parse` to refuse
/// every result as kCorrupt.
template <typename Parse>
void expect_every_flip_corrupt(const std::string& image, std::size_t end,
                               Parse parse) {
  ASSERT_NO_THROW(parse(as_bytes(image)));
  for (std::size_t at = 0; at < end; ++at) {
    for (int b = 0; b < 8; ++b) {
      std::string flipped = image;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << b));
      try {
        parse(as_bytes(flipped));
        ADD_FAILURE() << "bit " << b << " of byte " << at << " accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kCorrupt)
            << "byte " << at << ": " << e.what();
      }
    }
  }
}

TEST(SectionedSweep, EveryBitOfTheShardManifest) {
  const std::string fixture = read_fixture("three_shards.mushard");
  expect_every_flip_corrupt(fixture, fixture.size(),
                            [](std::span<const std::byte> b) {
                              (void)cluster::parse_shard_manifest(b);
                            });
}

TEST(SectionedSweep, EveryBitOfTheGenerationManifest) {
  const std::string fixture = read_fixture("two_members.mugen");
  expect_every_flip_corrupt(fixture, fixture.size(),
                            [](std::span<const std::byte> b) {
                              (void)parse_generation_manifest(b);
                            });
}

TEST(SectionedSweep, EveryIndexBitBeforeTheFirstPayload) {
  const std::string fixture = read_fixture("tiny_v3.mbi");
  // 11 table rows after the 64-byte header, padded to 64 bytes.
  const std::size_t first_payload = 448;
  expect_every_flip_corrupt(fixture, first_payload,
                            [](std::span<const std::byte> b) {
                              (void)parse_db_index_v3(b);
                            });
}

}  // namespace
}  // namespace mublastp
