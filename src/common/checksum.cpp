#include "common/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace mublastp {
namespace {

// Slice-by-16: kTables[0] is the classic Sarwate byte table for the
// reflected polynomial, and kTables[k][i] is the CRC of byte i followed by
// k zero bytes. One step folds 16 input bytes with 16 independent lookups,
// the byte at chunk position j going through kTables[15 - j].
constexpr std::uint32_t kPoly = 0xEDB88320u;
constexpr std::size_t kSlices = 16;

using Tables = std::array<std::array<std::uint32_t, 256>, kSlices>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < kSlices; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// The 16-byte step reads the chunk as four little-endian words.
static_assert(std::endian::native == std::endian::little,
              "crc32 slice-by-16 assumes a little-endian host");

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data,
                    std::uint32_t crc) noexcept {
  const auto& t = kTables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= kSlices; p += kSlices, n -= kSlices) {
    std::uint32_t w[4];
    std::memcpy(w, p, sizeof(w));
    w[0] ^= c;
    c = t[15][w[0] & 0xFFu] ^ t[14][(w[0] >> 8) & 0xFFu] ^
        t[13][(w[0] >> 16) & 0xFFu] ^ t[12][w[0] >> 24] ^
        t[11][w[1] & 0xFFu] ^ t[10][(w[1] >> 8) & 0xFFu] ^
        t[9][(w[1] >> 16) & 0xFFu] ^ t[8][w[1] >> 24] ^
        t[7][w[2] & 0xFFu] ^ t[6][(w[2] >> 8) & 0xFFu] ^
        t[5][(w[2] >> 16) & 0xFFu] ^ t[4][w[2] >> 24] ^
        t[3][w[3] & 0xFFu] ^ t[2][(w[3] >> 8) & 0xFFu] ^
        t[1][(w[3] >> 16) & 0xFFu] ^ t[0][w[3] >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace mublastp
