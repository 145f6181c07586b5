// Sectioned files: the one container of the index (MUBI v3), the shard
// manifest (MUSHARD01) and the generation manifest (MUGEN01).
//
//   header, 64 bytes: the magic (4 or 12 bytes, NUL-padded), u32 version,
//     u32 section_count, u32 table_crc32 (CRC32 of the table bytes), zero
//     up to the next 16-byte boundary, u64 file_bytes, zero up to 64
//   SectionRecord[section_count]
//   the payloads in table order, each on a 64-byte boundary, with zero
//   padding between them (and after the last one if the format pads its
//   tail to 64 bytes)
//
// A format keeps only what is its own: its magic, version and section ids
// and names (Format), and the codecs of its payloads. One rule validates
// every format: the header's fields and reserved bytes, the table checksum,
// every required section exactly once and no unknown id, each payload where
// the layout puts it, every padding byte zero, and (unless the caller opts
// out) every payload CRC. Errors are Error(kCorrupt) naming the file kind
// and, where there is one, the section: "index section 'entries' checksum
// mismatch (corrupt file)". All scalars are little-endian; the library only
// targets little-endian hosts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mublastp {

/// Payload alignment: one cache line, so every typed span carved out of a
/// mapped file is naturally aligned.
inline constexpr std::size_t kSectionAlign = 64;

/// Header bytes at the start of every sectioned file.
inline constexpr std::size_t kSectionedHeaderBytes = 64;

/// One row of the section table, directly after the header.
struct SectionRecord {
  std::uint32_t id;        ///< the format's section id
  std::uint32_t reserved;  ///< zero
  std::uint64_t offset;    ///< absolute file offset, kSectionAlign-aligned
  std::uint64_t length;    ///< payload bytes (excluding padding)
  std::uint64_t crc32;     ///< CRC32 of the payload (low 32 bits)
};
static_assert(sizeof(SectionRecord) == 32);

namespace sectioned {

/// One section of a format: its stable on-disk id and its name in errors.
struct SectionName {
  std::uint32_t id;
  std::string_view name;
};

/// What a file format fixes. Every section it lists is required.
struct Format {
  std::string_view kind;   ///< names the file in errors: "index", ...
  std::string_view magic;  ///< 4 or 12 bytes, NUL-padded
  std::uint32_t version;
  std::span<const SectionName> sections;  ///< in the order they are written
  bool pad_tail;  ///< zero-pad the file after its last payload to 64 bytes
  /// Fault-injection site that fakes a payload checksum mismatch, or null.
  const char* crc_fault_site = nullptr;
};

/// `format`'s name for section `id` ("unknown" if it has none).
std::string_view section_name(const Format& format, std::uint32_t id);

/// Throws Error(kCorrupt): "<kind> section '<name>' <what>".
[[noreturn]] void fail_section(const Format& format, std::uint32_t id,
                               const std::string& what);

template <typename T>
void append_pod(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void append_span(std::string& out, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size_bytes());
}

/// One section's payload as a writer hands it over.
struct Payload {
  std::uint32_t id;
  std::string bytes;
};

/// The file image of `payloads`, which must be exactly format.sections in
/// that order.
std::string write(const Format& format, std::span<const Payload> payloads);

/// Bytes of the header and section table of a `format` file.
std::size_t head_bytes(const Format& format);

/// Validates the header and section table of a `file_bytes`-byte file from
/// its first bytes (`head`, at least min(file_bytes, head_bytes(format))
/// of them). Returns the records in format.sections order.
std::vector<SectionRecord> read_table(const Format& format,
                                      std::span<const std::byte> head,
                                      std::uint64_t file_bytes);

/// One parsed section: its payload bytes, and whether their CRC matched.
struct Section {
  std::span<const std::byte> bytes;
  bool crc_ok = true;
};

/// Validates a whole file image: read_table, then every padding byte, then
/// the payload CRCs. `verify_payloads` false skips the CRCs (a lazy open
/// that must not read every page). A mismatch throws, except in a section
/// whose bit is set in `tolerated` (bit i = format.sections[i]), where it
/// only clears crc_ok. Returns the sections in format.sections order.
std::vector<Section> parse(const Format& format,
                           std::span<const std::byte> image,
                           bool verify_payloads = true,
                           std::uint64_t tolerated = 0);

}  // namespace sectioned
}  // namespace mublastp
