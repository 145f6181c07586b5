// CRC-32/IEEE pinned by value. Every index, shard and generation file
// stores these checksums, so the kernel is checked against the catalogue's
// check value and a table-free bitwise reference at every length and start
// alignment around its 16-byte step, not against itself.
#include "common/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace mublastp {
namespace {

// The definition, one bit at a time: reflected polynomial 0xEDB88320 with
// pre- and post-inversion. No tables to share a mistake with the kernel.
std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t n,
                              std::uint32_t crc = 0) {
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (std::uint8_t& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

TEST(Crc32, CheckValueAndEmptyInput) {
  const std::string_view check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::byte>{}), 0u);
  EXPECT_EQ(crc32(std::span<const std::byte>{}, 0x12345678u), 0x12345678u);
}

TEST(Crc32, MatchesReferenceAtEveryShortLengthAndAlignment) {
  const std::vector<std::uint8_t> buf = random_bytes(300 + 16, 1);
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buf.data() + start;
      ASSERT_EQ(crc32(p, len), reference_crc32(p, len))
          << "start " << start << ", length " << len;
      ASSERT_EQ(crc32(p, len, 0xDEADBEEFu),
                reference_crc32(p, len, 0xDEADBEEFu))
          << "seeded, start " << start << ", length " << len;
    }
  }
}

TEST(Crc32, MatchesReferenceOnMegabyteBuffers) {
  const std::vector<std::uint8_t> buf = random_bytes((4u << 20) + 13, 2);
  for (const std::size_t n :
       {std::size_t{1} << 20, (std::size_t{3} << 20) + 7, buf.size()}) {
    EXPECT_EQ(crc32(buf.data(), n), reference_crc32(buf.data(), n))
        << n << " bytes";
  }
}

TEST(Crc32, IncrementalUpdateEqualsOneShotAtEverySplit) {
  const std::vector<std::uint8_t> buf = random_bytes(1000, 3);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  EXPECT_EQ(whole, reference_crc32(buf.data(), buf.size()));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = crc32(buf.data(), split);
    ASSERT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace mublastp
