#include "common/sectioned_file.hpp"

#include <algorithm>
#include <cstring>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"

namespace mublastp::sectioned {
namespace {

std::size_t align_up(std::size_t n) {
  return (n + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

// Header field offsets: the three u32 fields follow the magic, file_bytes
// sits on the next 16-byte boundary after them. A 4-byte magic puts it at
// 16, a 12-byte magic (after 8 reserved bytes) at 32.
struct HeaderLayout {
  std::size_t version;
  std::size_t section_count;
  std::size_t table_crc32;
  std::size_t file_bytes;
};

HeaderLayout header_layout(const Format& format) {
  const std::size_t m = format.magic.size();
  return {m, m + 4, m + 8, (m + 12 + 15) / 16 * 16};
}

template <typename T>
T load(std::span<const std::byte> bytes, std::size_t at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void store(std::string& bytes, std::size_t at, const T& value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

/// The name of the magic for messages: up to its first NUL.
std::string_view magic_name(const Format& format) {
  return format.magic.substr(0, format.magic.find('\0'));
}

std::size_t position_of(const Format& format, std::uint32_t id) {
  for (std::size_t i = 0; i < format.sections.size(); ++i) {
    if (format.sections[i].id == id) return i;
  }
  return format.sections.size();
}

[[noreturn]] void fail(const Format& format, const std::string& what) {
  throw Error(std::string(format.kind) + " " + what, ErrorKind::kCorrupt);
}

/// Throws unless bytes [from, to) of `image` are all zero.
void check_zero(const Format& format, std::span<const std::byte> image,
                std::size_t from, std::size_t to) {
  for (std::size_t at = from; at < to; ++at) {
    if (image[at] != std::byte{0}) {
      fail(format, "file has nonzero padding at offset " +
                       std::to_string(at));
    }
  }
}

}  // namespace

std::string_view section_name(const Format& format, std::uint32_t id) {
  const std::size_t i = position_of(format, id);
  return i < format.sections.size() ? format.sections[i].name : "unknown";
}

void fail_section(const Format& format, std::uint32_t id,
                  const std::string& what) {
  fail(format, "section '" + std::string(section_name(format, id)) + "' " +
                   what);
}

std::size_t head_bytes(const Format& format) {
  return kSectionedHeaderBytes +
         format.sections.size() * sizeof(SectionRecord);
}

std::string write(const Format& format, std::span<const Payload> payloads) {
  MUBLASTP_CHECK(payloads.size() == format.sections.size(),
                 "a sectioned file needs every section of its format");
  std::vector<SectionRecord> table(payloads.size());
  std::size_t cursor = align_up(head_bytes(format));
  std::size_t end = cursor;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    MUBLASTP_CHECK(payloads[i].id == format.sections[i].id,
                   "sections must be written in their format's order");
    table[i] = {payloads[i].id, 0, cursor, payloads[i].bytes.size(),
                crc32(payloads[i].bytes.data(), payloads[i].bytes.size())};
    end = cursor + payloads[i].bytes.size();
    cursor = align_up(end);
  }
  const std::size_t file_bytes = format.pad_tail ? cursor : end;

  std::string image(file_bytes, '\0');
  const HeaderLayout h = header_layout(format);
  std::memcpy(image.data(), format.magic.data(), format.magic.size());
  store<std::uint32_t>(image, h.version, format.version);
  store<std::uint32_t>(image, h.section_count,
                       static_cast<std::uint32_t>(table.size()));
  store<std::uint32_t>(
      image, h.table_crc32,
      crc32(table.data(), table.size() * sizeof(SectionRecord)));
  store<std::uint64_t>(image, h.file_bytes, file_bytes);
  std::memcpy(image.data() + kSectionedHeaderBytes, table.data(),
              table.size() * sizeof(SectionRecord));
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::memcpy(image.data() + table[i].offset, payloads[i].bytes.data(),
                payloads[i].bytes.size());
  }
  return image;
}

std::vector<SectionRecord> read_table(const Format& format,
                                      std::span<const std::byte> head,
                                      std::uint64_t file_bytes) {
  const std::string kind(format.kind);
  if (head.size() < kSectionedHeaderBytes) {
    throw Error("truncated " + kind + " file: missing header",
                ErrorKind::kCorrupt);
  }
  const HeaderLayout h = header_layout(format);
  if (std::memcmp(head.data(), format.magic.data(), format.magic.size()) !=
      0) {
    fail(format, "file has bad magic (not a " +
                     std::string(magic_name(format)) + " file)");
  }
  const auto version = load<std::uint32_t>(head, h.version);
  if (version != format.version) {
    throw Error("unsupported " + kind + " format version " +
                    std::to_string(version),
                ErrorKind::kCorrupt);
  }
  const auto declared = load<std::uint64_t>(head, h.file_bytes);
  if (declared != file_bytes) {
    throw Error("truncated " + kind + " file (size mismatch): header"
                    " declares " + std::to_string(declared) +
                    " bytes, file has " + std::to_string(file_bytes),
                ErrorKind::kCorrupt);
  }
  const auto count = load<std::uint32_t>(head, h.section_count);
  if (count != format.sections.size()) {
    fail(format, "header declares " + std::to_string(count) +
                     " sections, expected " +
                     std::to_string(format.sections.size()));
  }
  const auto reserved_zero = [&](std::size_t from, std::size_t to) {
    return std::all_of(head.begin() + static_cast<std::ptrdiff_t>(from),
                       head.begin() + static_cast<std::ptrdiff_t>(to),
                       [](std::byte b) { return b == std::byte{0}; });
  };
  if (!reserved_zero(h.table_crc32 + 4, h.file_bytes) ||
      !reserved_zero(h.file_bytes + 8, kSectionedHeaderBytes)) {
    fail(format, "header has nonzero reserved bytes");
  }
  const std::size_t table_bytes = count * sizeof(SectionRecord);
  if (head.size() < kSectionedHeaderBytes + table_bytes) {
    throw Error("truncated " + kind + " file: section table out of bounds",
                ErrorKind::kCorrupt);
  }
  std::vector<SectionRecord> table(count);
  std::memcpy(table.data(), head.data() + kSectionedHeaderBytes,
              table_bytes);
  if (crc32(table.data(), table_bytes) !=
      load<std::uint32_t>(head, h.table_crc32)) {
    fail(format, "header: section table checksum mismatch");
  }

  // Every section once, each where the layout puts it: 64-byte aligned,
  // right after the one before it (or after the table).
  std::vector<SectionRecord> records(count);
  std::vector<bool> seen(count, false);
  std::uint64_t cursor = align_up(head_bytes(format));
  std::uint64_t end = cursor;
  for (const SectionRecord& r : table) {
    const std::size_t i = position_of(format, r.id);
    if (i == format.sections.size()) {
      fail(format, "file has unknown section id " + std::to_string(r.id));
    }
    if (seen[i]) fail_section(format, r.id, "appears more than once");
    seen[i] = true;
    if (r.offset != cursor) {
      fail_section(format, r.id,
                   "is misplaced (at offset " + std::to_string(r.offset) +
                       ", the layout puts it at " + std::to_string(cursor) +
                       ")");
    }
    if (r.offset > file_bytes || r.length > file_bytes - r.offset) {
      fail_section(format, r.id, "is out of bounds (truncated file?)");
    }
    records[i] = r;
    end = r.offset + r.length;
    cursor = align_up(end);
  }
  if ((format.pad_tail ? cursor : end) != file_bytes) {
    fail(format, "file has bytes after its last section");
  }
  return records;
}

std::vector<Section> parse(const Format& format,
                           std::span<const std::byte> image,
                           bool verify_payloads, std::uint64_t tolerated) {
  const std::vector<SectionRecord> records =
      read_table(format, image, image.size());
  // The layout is canonical, so the padding is what follows the table and
  // each payload up to the next 64-byte boundary (or the end of the file).
  const std::size_t head = head_bytes(format);
  check_zero(format, image, head, align_up(head));
  for (const SectionRecord& r : records) {
    const std::size_t end = r.offset + r.length;
    check_zero(format, image, end, std::min(align_up(end), image.size()));
  }

  std::vector<Section> out(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SectionRecord& r = records[i];
    out[i].bytes = image.subspan(r.offset, r.length);
    if (!verify_payloads) continue;
    const bool injected = format.crc_fault_site != nullptr &&
                          MUBLASTP_FI_FAIL(format.crc_fault_site);
    out[i].crc_ok =
        !injected && crc32(out[i].bytes) == static_cast<std::uint32_t>(r.crc32);
    if (!out[i].crc_ok && (tolerated >> i & 1) == 0) {
      fail_section(format, r.id, "checksum mismatch (corrupt file)");
    }
  }
  return out;
}

}  // namespace mublastp::sectioned
