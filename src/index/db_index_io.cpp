#include "index/db_index_io.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/checksum.hpp"
#include "common/durable.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "index/db_index_format.hpp"
#include "score/matrix.hpp"

namespace mublastp {
namespace {

constexpr char kMagic[4] = {'M', 'U', 'B', 'I'};

// All scalars are written as fixed-width little-endian values. The library
// only targets little-endian hosts (x86/ARM servers); a byte-order check at
// load time would go here if that ever changes.

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kCorrupt, "truncated index file");
  return value;
}

template <typename T>
void write_vector(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vector(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = read_pod<std::uint64_t>(in);
  MUBLASTP_CHECK_KIND(n < (std::uint64_t{1} << 40), ErrorKind::kCorrupt,
                      "implausible vector size");
  std::vector<T> v(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kCorrupt, "truncated index file");
  return v;
}

void write_string(std::ostream& out, const std::string& s) {
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& in) {
  const auto n = read_pod<std::uint32_t>(in);
  MUBLASTP_CHECK_KIND(n < (1u << 20), ErrorKind::kCorrupt,
                      "implausible string size");
  std::string s(n, '\0');
  in.read(s.data(), n);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kCorrupt, "truncated index file");
  return s;
}

// ---------------------------------------------------------------------------
// v3: section assembly (writer side)
// ---------------------------------------------------------------------------

// A section payload being assembled in memory before offsets and checksums
// are known. Payloads are byte strings; the writer computes the final
// layout, then streams header + table + padded payloads in one pass.
struct PendingSection {
  SectionId id;
  std::string payload;
};

template <typename T>
void append_pod(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void append_span(std::string& out, std::span<const T> v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
}

std::size_t align_up(std::size_t n) {
  return (n + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

// ---------------------------------------------------------------------------
// v3: parse helpers (reader side)
// ---------------------------------------------------------------------------

[[noreturn]] void fail_section(SectionId id, const std::string& what) {
  throw Error("index section '" + std::string(section_name(id)) + "' " +
                  what,
              ErrorKind::kCorrupt);
}

// Reads scalars sequentially out of one section's payload with bounds
// checks attributed to that section.
struct SectionReader {
  SectionId id;
  std::span<const std::byte> bytes;
  std::size_t pos = 0;

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos + sizeof(T) > bytes.size()) {
      fail_section(id, "is too short (truncated payload)");
    }
    T value{};
    std::memcpy(&value, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  std::string_view read_string(std::size_t n) {
    if (pos + n > bytes.size()) {
      fail_section(id, "is too short (truncated payload)");
    }
    const auto* p = reinterpret_cast<const char*>(bytes.data() + pos);
    pos += n;
    return {p, n};
  }
};

// Casts a section payload to a typed span, checking divisibility. The
// payload offset is kSectionAlign-aligned by the table validation, so any
// element alignment up to 64 holds.
template <typename T>
std::span<const T> typed_section(SectionId id,
                                 std::span<const std::byte> bytes) {
  if (bytes.size() % sizeof(T) != 0) {
    fail_section(id, "has invalid size (not a whole number of elements)");
  }
  return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
}

}  // namespace

std::string_view section_name(SectionId id) {
  switch (id) {
    case SectionId::kConfig: return "config";
    case SectionId::kSeqOffsets: return "seq-offsets";
    case SectionId::kArena: return "arena";
    case SectionId::kNameOffsets: return "name-offsets";
    case SectionId::kNameBlob: return "name-blob";
    case SectionId::kOrder: return "order";
    case SectionId::kInverse: return "inverse";
    case SectionId::kBlockMeta: return "block-meta";
    case SectionId::kFragments: return "fragments";
    case SectionId::kCsrOffsets: return "csr-offsets";
    case SectionId::kEntries: return "entries";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// v3 writer
// ---------------------------------------------------------------------------

void save_db_index(std::ostream& out, const DbIndex& index) {
  const SequenceStore& db = index.db_;
  std::vector<PendingSection> sections;

  {
    PendingSection s{SectionId::kConfig, {}};
    append_pod<std::uint64_t>(s.payload, index.config_.block_bytes);
    append_pod<std::int32_t>(s.payload, index.config_.neighbor_threshold);
    const std::string matrix_name(index.config_.matrix->name());
    append_pod<std::uint32_t>(s.payload,
                              static_cast<std::uint32_t>(matrix_name.size()));
    s.payload += matrix_name;
    append_pod<std::uint64_t>(s.payload, index.config_.long_seq_limit);
    append_pod<std::uint64_t>(s.payload, index.config_.long_seq_overlap);
    append_pod<std::uint64_t>(s.payload, db.size());
    append_pod<std::uint64_t>(s.payload, index.blocks_.size());
    sections.push_back(std::move(s));
  }
  {
    PendingSection s{SectionId::kSeqOffsets, {}};
    static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
    append_span<std::size_t>(s.payload, db.arena_offsets());
    sections.push_back(std::move(s));
  }
  {
    PendingSection s{SectionId::kArena, {}};
    append_span<Residue>(s.payload, db.arena());
    sections.push_back(std::move(s));
  }
  {
    PendingSection offs{SectionId::kNameOffsets, {}};
    PendingSection blob{SectionId::kNameBlob, {}};
    std::uint64_t cursor = 0;
    append_pod<std::uint64_t>(offs.payload, cursor);
    for (SeqId i = 0; i < db.size(); ++i) {
      blob.payload += db.name(i);
      cursor += db.name(i).size();
      append_pod<std::uint64_t>(offs.payload, cursor);
    }
    sections.push_back(std::move(offs));
    sections.push_back(std::move(blob));
  }
  {
    PendingSection s{SectionId::kOrder, {}};
    append_span<SeqId>(s.payload, index.order_);
    sections.push_back(std::move(s));
  }
  {
    PendingSection s{SectionId::kInverse, {}};
    append_span<SeqId>(s.payload, index.inverse_);
    sections.push_back(std::move(s));
  }
  {
    PendingSection meta{SectionId::kBlockMeta, {}};
    PendingSection frags{SectionId::kFragments, {}};
    PendingSection csr{SectionId::kCsrOffsets, {}};
    PendingSection entries{SectionId::kEntries, {}};
    for (const DbIndexBlock& b : index.blocks_) {
      // Per-block CRC over the block's slice of the three per-block
      // sections, in section order; a degraded loader uses it to pin a
      // failed section checksum on the block(s) that actually rotted.
      std::uint32_t bcrc =
          crc32(b.fragments_.data(), b.fragments_.size() * sizeof(FragmentRef));
      bcrc = crc32(b.offsets_.data(),
                   b.offsets_.size() * sizeof(std::uint32_t), bcrc);
      bcrc = crc32(b.entries_.data(),
                   b.entries_.size() * sizeof(std::uint32_t), bcrc);
      const BlockMetaRecord m{b.fragments_.size(), b.entries_.size(),
                              b.max_fragment_len_, b.total_chars_,
                              b.offset_bits_, bcrc};
      append_pod(meta.payload, m);
      append_span<FragmentRef>(frags.payload, b.fragments_);
      append_span<std::uint32_t>(csr.payload, b.offsets_);
      append_span<std::uint32_t>(entries.payload, b.entries_);
    }
    sections.push_back(std::move(meta));
    sections.push_back(std::move(frags));
    sections.push_back(std::move(csr));
    sections.push_back(std::move(entries));
  }

  // Lay sections out after the header + table, each on a 64-byte boundary.
  std::vector<SectionRecord> table(sections.size());
  std::size_t cursor = align_up(sizeof(FileHeaderV3) +
                                sections.size() * sizeof(SectionRecord));
  for (std::size_t i = 0; i < sections.size(); ++i) {
    table[i].id = static_cast<std::uint32_t>(sections[i].id);
    table[i].reserved = 0;
    table[i].offset = cursor;
    table[i].length = sections[i].payload.size();
    table[i].crc32 = crc32(sections[i].payload.data(),
                           sections[i].payload.size());
    cursor = align_up(cursor + sections[i].payload.size());
  }

  FileHeaderV3 header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kDbIndexFormatV3;
  header.section_count = static_cast<std::uint32_t>(sections.size());
  header.table_crc32 =
      crc32(table.data(), table.size() * sizeof(SectionRecord));
  // The last section's padding is not written; the file ends at its payload.
  header.file_bytes = table.back().offset + table.back().length;

  write_pod(out, header);
  out.write(reinterpret_cast<const char*>(table.data()),
            static_cast<std::streamsize>(table.size() *
                                         sizeof(SectionRecord)));
  std::size_t written = sizeof(FileHeaderV3) +
                        table.size() * sizeof(SectionRecord);
  static constexpr char kZeros[kSectionAlign] = {};
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out.write(kZeros, static_cast<std::streamsize>(table[i].offset -
                                                   written));
    out.write(sections[i].payload.data(),
              static_cast<std::streamsize>(sections[i].payload.size()));
    written = table[i].offset + sections[i].payload.size();
  }
  MUBLASTP_CHECK(out.good(), "write failure while saving index");
}

void save_db_index_file(const std::string& path, const DbIndex& index) {
  std::ofstream out(path, std::ios::binary);
  MUBLASTP_CHECK(out.good(), "cannot open for writing: " + path);
  save_db_index(out, index);
}

void save_db_index_file_durable(const std::string& path,
                                const DbIndex& index) {
  // Serialize in memory, then follow the publish protocol (temp → fsync →
  // rename → dir fsync) so a crash at any instant leaves either no trace
  // (plus an orphaned .tmp) or the complete file under its final name.
  std::ostringstream buf(std::ios::binary);
  save_db_index(buf, index);
  const std::string tmp = durable::temp_path_for(path);
  durable::write_file_durable(tmp, buf.str(), "build.block_write",
                              "build.fsync");
  durable::publish_rename(tmp, path, "build.publish_rename", "build.fsync");
}

// ---------------------------------------------------------------------------
// v2 writer (legacy, kept for compatibility testing and old deployments)
// ---------------------------------------------------------------------------

void save_db_index_v2(std::ostream& out, const DbIndex& index) {
  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(out, kDbIndexFormatV2);

  // Config.
  write_pod<std::uint64_t>(out, index.config_.block_bytes);
  write_pod<std::int32_t>(out, index.config_.neighbor_threshold);
  write_string(out, std::string(index.config_.matrix->name()));
  write_pod<std::uint64_t>(out, index.config_.long_seq_limit);
  write_pod<std::uint64_t>(out, index.config_.long_seq_overlap);

  // Sorted sequence store.
  const SequenceStore& db = index.db_;
  write_pod<std::uint64_t>(out, db.size());
  for (SeqId i = 0; i < db.size(); ++i) {
    const auto seq = db.sequence(i);
    write_pod<std::uint64_t>(out, seq.size());
    out.write(reinterpret_cast<const char*>(seq.data()),
              static_cast<std::streamsize>(seq.size()));
    write_string(out, db.name(i));
  }

  write_vector(out, index.order_);

  // Blocks.
  write_pod<std::uint64_t>(out, index.blocks_.size());
  for (const DbIndexBlock& b : index.blocks_) {
    write_vector(out, b.fragments_);
    write_vector(out, b.offsets_);
    write_vector(out, b.entries_);
    write_pod<std::uint64_t>(out, b.max_fragment_len_);
    write_pod<std::uint64_t>(out, b.total_chars_);
    write_pod<std::int32_t>(out, b.offset_bits_);
  }
  MUBLASTP_CHECK(out.good(), "write failure while saving index");
}

// ---------------------------------------------------------------------------
// v3 parser (shared by the copy loader and MappedDbIndex)
// ---------------------------------------------------------------------------

ParsedIndexFile parse_db_index_v3(std::span<const std::byte> image,
                                  const IndexParseOptions& options) {
  const bool verify_checksums = options.verify_checksums;
  const bool tolerant = options.tolerate_block_corruption;
  MUBLASTP_CHECK(!tolerant || options.quarantined != nullptr,
                 "tolerate_block_corruption requires a quarantine list");
  MUBLASTP_CHECK_KIND(image.size() >= sizeof(FileHeaderV3),
                      ErrorKind::kCorrupt,
                      "truncated index file: missing header");
  FileHeaderV3 header;
  std::memcpy(&header, image.data(), sizeof(header));
  MUBLASTP_CHECK_KIND(std::equal(header.magic, header.magic + 4, kMagic),
                      ErrorKind::kCorrupt,
                      "not a muBLASTP index file (bad magic)");
  MUBLASTP_CHECK_KIND(header.version == kDbIndexFormatV3, ErrorKind::kCorrupt,
                      "unsupported index format version " +
                          std::to_string(header.version));
  MUBLASTP_CHECK_KIND(header.file_bytes == image.size(), ErrorKind::kCorrupt,
                      "truncated index file: header declares " +
                          std::to_string(header.file_bytes) +
                          " bytes, file has " + std::to_string(image.size()));
  MUBLASTP_CHECK_KIND(header.section_count >= 1 && header.section_count <= 64,
                      ErrorKind::kCorrupt,
                      "index header: implausible section count");
  const std::size_t table_bytes =
      header.section_count * sizeof(SectionRecord);
  MUBLASTP_CHECK_KIND(sizeof(FileHeaderV3) + table_bytes <= image.size(),
                      ErrorKind::kCorrupt,
                      "truncated index file: section table out of bounds");
  std::vector<SectionRecord> table(header.section_count);
  std::memcpy(table.data(), image.data() + sizeof(FileHeaderV3), table_bytes);
  MUBLASTP_CHECK_KIND(crc32(table.data(), table_bytes) == header.table_crc32,
                      ErrorKind::kCorrupt,
                      "index header: section table checksum mismatch");

  // Locate every required section, once each, in bounds and aligned. The
  // checksum is verified before any payload byte is interpreted. In
  // tolerant mode a CRC mismatch in a *per-block* section is deferred
  // (recorded in `crc_failed`) so it can be localized to a block below;
  // every other section stays fail-closed.
  SectionId crc_failed_id = SectionId::kConfig;  // valid iff crc_failed
  bool crc_failed = false;
  const auto section = [&](SectionId id) -> std::span<const std::byte> {
    const SectionRecord* found = nullptr;
    for (const SectionRecord& r : table) {
      if (r.id == static_cast<std::uint32_t>(id)) {
        if (found != nullptr) fail_section(id, "appears more than once");
        found = &r;
      }
    }
    if (found == nullptr) fail_section(id, "is missing from the file");
    if (found->offset % kSectionAlign != 0) {
      fail_section(id, "is misaligned");
    }
    if (found->offset > image.size() ||
        found->length > image.size() - found->offset) {
      fail_section(id, "is out of bounds (truncated file?)");
    }
    const auto payload = image.subspan(found->offset, found->length);
    if (verify_checksums &&
        (MUBLASTP_FI_FAIL("index.crc") ||
         crc32(payload) != static_cast<std::uint32_t>(found->crc32))) {
      const bool per_block = id == SectionId::kFragments ||
                             id == SectionId::kCsrOffsets ||
                             id == SectionId::kEntries;
      if (!(tolerant && per_block)) {
        fail_section(id, "checksum mismatch (corrupt file)");
      }
      if (!crc_failed) crc_failed_id = id;
      crc_failed = true;
    }
    return payload;
  };

  ParsedIndexFile p;

  {
    SectionReader r{SectionId::kConfig, section(SectionId::kConfig)};
    p.config.block_bytes = r.read<std::uint64_t>();
    p.config.neighbor_threshold = r.read<std::int32_t>();
    const auto name_len = r.read<std::uint32_t>();
    if (name_len > (1u << 10)) {
      fail_section(SectionId::kConfig, "has an implausible matrix name");
    }
    p.config.matrix = &matrix_by_name(std::string(r.read_string(name_len)));
    p.config.long_seq_limit = r.read<std::uint64_t>();
    p.config.long_seq_overlap = r.read<std::uint64_t>();
    p.num_seqs = r.read<std::uint64_t>();
    p.num_blocks = r.read<std::uint64_t>();
    if (p.num_seqs == 0 || p.num_seqs >= (std::uint64_t{1} << 40)) {
      fail_section(SectionId::kConfig, "has an implausible sequence count");
    }
    if (p.num_blocks == 0 || p.num_blocks >= (std::uint64_t{1} << 32)) {
      fail_section(SectionId::kConfig, "has an implausible block count");
    }
  }

  p.seq_offsets =
      typed_section<std::uint64_t>(SectionId::kSeqOffsets,
                                   section(SectionId::kSeqOffsets));
  p.arena = typed_section<Residue>(SectionId::kArena,
                                   section(SectionId::kArena));
  p.name_offsets =
      typed_section<std::uint64_t>(SectionId::kNameOffsets,
                                   section(SectionId::kNameOffsets));
  {
    const auto blob = section(SectionId::kNameBlob);
    p.name_blob = {reinterpret_cast<const char*>(blob.data()), blob.size()};
  }
  p.order = typed_section<SeqId>(SectionId::kOrder,
                                 section(SectionId::kOrder));
  p.inverse = typed_section<SeqId>(SectionId::kInverse,
                                   section(SectionId::kInverse));
  p.block_meta =
      typed_section<BlockMetaRecord>(SectionId::kBlockMeta,
                                     section(SectionId::kBlockMeta));
  p.fragments = typed_section<FragmentRef>(SectionId::kFragments,
                                           section(SectionId::kFragments));
  p.csr_offsets =
      typed_section<std::uint32_t>(SectionId::kCsrOffsets,
                                   section(SectionId::kCsrOffsets));
  p.entries = typed_section<std::uint32_t>(SectionId::kEntries,
                                           section(SectionId::kEntries));

  // Cross-section structural validation. Sizes first (cheap, always on)...
  if (p.seq_offsets.size() != p.num_seqs + 1) {
    fail_section(SectionId::kSeqOffsets, "has the wrong element count");
  }
  if (p.name_offsets.size() != p.num_seqs + 1) {
    fail_section(SectionId::kNameOffsets, "has the wrong element count");
  }
  if (p.order.size() != p.num_seqs) {
    fail_section(SectionId::kOrder, "has the wrong element count");
  }
  if (p.inverse.size() != p.num_seqs) {
    fail_section(SectionId::kInverse, "has the wrong element count");
  }
  if (p.block_meta.size() != p.num_blocks) {
    fail_section(SectionId::kBlockMeta, "has the wrong element count");
  }
  if (p.csr_offsets.size() !=
      p.num_blocks * (static_cast<std::size_t>(kNumWords) + 1)) {
    fail_section(SectionId::kCsrOffsets, "has the wrong element count");
  }
  if (p.seq_offsets.front() != 0 || p.seq_offsets.back() != p.arena.size()) {
    fail_section(SectionId::kSeqOffsets, "does not bracket the arena");
  }
  if (p.name_offsets.front() != 0 ||
      p.name_offsets.back() != p.name_blob.size()) {
    fail_section(SectionId::kNameOffsets, "does not bracket the name blob");
  }
  std::uint64_t total_frags = 0;
  std::uint64_t total_entries = 0;
  for (const BlockMetaRecord& m : p.block_meta) {
    total_frags += m.num_fragments;
    total_entries += m.num_entries;
    if (m.offset_bits < 1 || m.offset_bits > 31) {
      fail_section(SectionId::kBlockMeta, "has bad offset bits");
    }
  }
  if (p.fragments.size() != total_frags) {
    fail_section(SectionId::kFragments, "has the wrong element count");
  }
  if (p.entries.size() != total_entries) {
    fail_section(SectionId::kEntries, "has the wrong element count");
  }

  // A deferred per-block section CRC failure (tolerant mode only) is
  // localized here: each block's slice of the three per-block sections is
  // re-checksummed against BlockMetaRecord::block_crc32 (the block-meta
  // section already passed its own CRC, so the stored values are trusted),
  // and only mismatching blocks are quarantined. Anything that prevents
  // localization is fatal — better to refuse the file than to silently
  // serve rotten data.
  constexpr std::size_t kCsrLen = static_cast<std::size_t>(kNumWords) + 1;
  std::vector<char> block_bad(p.block_meta.size(), 0);
  if (crc_failed) {
    const std::string failed_name(section_name(crc_failed_id));
    std::size_t frag_cursor = 0;
    std::size_t entry_cursor = 0;
    std::size_t num_bad = 0;
    for (std::size_t b = 0; b < p.block_meta.size(); ++b) {
      const BlockMetaRecord& m = p.block_meta[b];
      if (m.block_crc32 == 0) {
        fail_section(crc_failed_id,
                     "checksum mismatch (file predates per-block checksums;"
                     " cannot localize the damage — rebuild the index)");
      }
      const auto frags = p.fragments.subspan(frag_cursor, m.num_fragments);
      const auto csr = p.csr_offsets.subspan(b * kCsrLen, kCsrLen);
      const auto entries = p.entries.subspan(entry_cursor, m.num_entries);
      std::uint32_t bcrc = crc32(frags.data(), frags.size_bytes());
      bcrc = crc32(csr.data(), csr.size_bytes(), bcrc);
      bcrc = crc32(entries.data(), entries.size_bytes(), bcrc);
      if (bcrc != m.block_crc32) {
        block_bad[b] = 1;
        ++num_bad;
        options.quarantined->push_back(
            {static_cast<std::uint32_t>(b),
             "section '" + failed_name + "' checksum mismatch localized"
             " to this block"});
      }
      frag_cursor += m.num_fragments;
      entry_cursor += m.num_entries;
    }
    if (num_bad == 0) {
      fail_section(crc_failed_id,
                   "checksum mismatch that no per-block checksum explains"
                   " (section metadata itself is suspect)");
    }
    if (num_bad == p.block_meta.size()) {
      fail_section(crc_failed_id,
                   "checksum mismatch in every block (whole file corrupt)");
    }
  }

  // ...then the deep per-element invariants, which read every payload page
  // (skipped together with the checksums when the caller opted out of
  // verification to keep the load strictly lazy).
  if (verify_checksums) {
    for (std::size_t i = 0; i + 1 < p.seq_offsets.size(); ++i) {
      if (p.seq_offsets[i] > p.seq_offsets[i + 1]) {
        fail_section(SectionId::kSeqOffsets, "is not monotone");
      }
    }
    for (std::size_t i = 0; i + 1 < p.name_offsets.size(); ++i) {
      if (p.name_offsets[i] > p.name_offsets[i + 1]) {
        fail_section(SectionId::kNameOffsets, "is not monotone");
      }
    }
    for (std::size_t i = 0; i < p.order.size(); ++i) {
      if (p.order[i] >= p.num_seqs) {
        fail_section(SectionId::kOrder, "maps outside the store");
      }
      if (p.inverse[i] >= p.num_seqs || p.order[p.inverse[i]] != i) {
        fail_section(SectionId::kInverse, "is not the inverse of 'order'");
      }
    }
    std::size_t frag_cursor = 0;
    std::size_t entry_cursor = 0;
    for (std::size_t b = 0; b < p.block_meta.size(); ++b) {
      const BlockMetaRecord& m = p.block_meta[b];
      const std::size_t frag_base = frag_cursor;
      const std::size_t entry_base = entry_cursor;
      frag_cursor += m.num_fragments;
      entry_cursor += m.num_entries;
      if (block_bad[b]) continue;  // already quarantined above
      try {
        const auto frags = p.fragments.subspan(frag_base, m.num_fragments);
        const auto csr = p.csr_offsets.subspan(b * kCsrLen, kCsrLen);
        const auto entries = p.entries.subspan(entry_base, m.num_entries);
        std::uint64_t max_len = 0;
        std::uint64_t chars = 0;
        for (const FragmentRef& f : frags) {
          const bool in_range =
              f.seq < p.num_seqs &&
              p.seq_offsets[f.seq] + f.start + f.len <=
                  p.seq_offsets[f.seq + 1];
          if (!in_range) {
            fail_section(SectionId::kFragments,
                         "references out-of-range data");
          }
          max_len = std::max<std::uint64_t>(max_len, f.len);
          chars += f.len;
        }
        if (m.max_fragment_len != max_len || m.total_chars != chars) {
          fail_section(SectionId::kBlockMeta,
                       "disagrees with the fragment data");
        }
        for (std::size_t w = 0; w + 1 < csr.size(); ++w) {
          if (csr[w] > csr[w + 1]) {
            fail_section(SectionId::kCsrOffsets, "is not monotone");
          }
        }
        if (csr.front() != 0 || csr.back() != entries.size()) {
          fail_section(SectionId::kCsrOffsets,
                       "does not bracket the block's entries");
        }
        const std::uint32_t offset_mask =
            (std::uint32_t{1} << m.offset_bits) - 1;
        for (const std::uint32_t e : entries) {
          const std::uint32_t frag = e >> m.offset_bits;
          if (frag >= frags.size() ||
              (e & offset_mask) + kWordLength > frags[frag].len) {
            fail_section(SectionId::kEntries, "decodes out of range");
          }
        }
      } catch (const Error& e) {
        // Structural damage confined to one block: the section checksum
        // may have passed (e.g. the section was rewritten consistently
        // wrong) but this block's data is unusable. Quarantine it in
        // tolerant mode; strict mode keeps the fail-closed contract.
        if (!tolerant) throw;
        block_bad[b] = 1;
        options.quarantined->push_back(
            {static_cast<std::uint32_t>(b), e.what()});
      }
    }
    if (tolerant) {
      const std::size_t num_bad = static_cast<std::size_t>(
          std::count(block_bad.begin(), block_bad.end(), 1));
      if (num_bad == p.block_meta.size()) {
        throw Error("every index block failed validation (whole file"
                    " corrupt)",
                    ErrorKind::kCorrupt);
      }
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// copy loader (v2 + v3)
// ---------------------------------------------------------------------------

DbIndex load_db_index(std::istream& in, const IndexLoadOptions& options) {
  MUBLASTP_CHECK_KIND(!MUBLASTP_FI_FAIL("io.read"), ErrorKind::kIo,
                      "injected read failure (io.read) while loading index");
  char magic[4];
  in.read(magic, sizeof(magic));
  MUBLASTP_CHECK_KIND(in.good() && std::equal(magic, magic + 4, kMagic),
                      ErrorKind::kCorrupt,
                      "not a muBLASTP index file (bad magic)");
  const auto version = read_pod<std::uint32_t>(in);
  MUBLASTP_CHECK_KIND(
      version == kDbIndexFormatV2 || version == kDbIndexFormatV3,
      ErrorKind::kCorrupt,
      "unsupported index format version " + std::to_string(version));

  if (version == kDbIndexFormatV3) {
    // Slurp the remaining stream and reuse the section parser, then copy
    // the parsed spans into an owned DbIndex. mmap loading (MappedDbIndex)
    // skips this copy entirely; this path exists for stream sources and
    // callers that want an owned index.
    std::string image(reinterpret_cast<const char*>(kMagic),
                      sizeof(kMagic));
    image.append(reinterpret_cast<const char*>(&version), sizeof(version));
    image.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    MUBLASTP_CHECK_KIND(!in.bad(), ErrorKind::kIo,
                        "read failure while loading index");
    IndexParseOptions parse_options;
    parse_options.tolerate_block_corruption =
        options.tolerate_block_corruption;
    parse_options.quarantined = options.quarantined;
    const ParsedIndexFile p = parse_db_index_v3(
        {reinterpret_cast<const std::byte*>(image.data()), image.size()},
        parse_options);
    std::vector<char> block_bad(p.num_blocks, 0);
    if (options.quarantined != nullptr) {
      for (const BlockQuarantine& q : *options.quarantined) {
        if (q.block < block_bad.size()) block_bad[q.block] = 1;
      }
    }

    SequenceStore db;
    for (std::uint64_t i = 0; i < p.num_seqs; ++i) {
      const auto seq =
          p.arena.subspan(p.seq_offsets[i], p.seq_offsets[i + 1] -
                                                p.seq_offsets[i]);
      db.add(seq, std::string(p.name_blob.substr(
                      p.name_offsets[i],
                      p.name_offsets[i + 1] - p.name_offsets[i])));
    }
    std::vector<SeqId> order(p.order.begin(), p.order.end());
    NeighborTable neighbors(*p.config.matrix, p.config.neighbor_threshold);
    DbIndex index(std::move(db), std::move(order), p.config,
                  std::move(neighbors));
    index.inverse_.assign(p.inverse.begin(), p.inverse.end());

    constexpr std::size_t kCsrLen = static_cast<std::size_t>(kNumWords) + 1;
    index.blocks_.resize(p.num_blocks);
    std::size_t frag_cursor = 0;
    std::size_t entry_cursor = 0;
    for (std::size_t b = 0; b < p.num_blocks; ++b) {
      const BlockMetaRecord& m = p.block_meta[b];
      DbIndexBlock& block = index.blocks_[b];
      if (block_bad[b]) {
        // Quarantined: an empty block (all-zero CSR, no fragments or
        // entries) contributes no hits, so the engine skips it naturally.
        block.fragments_.clear();
        block.offsets_.assign(kCsrLen, 0);
        block.entries_.clear();
        block.max_fragment_len_ = 0;
        block.total_chars_ = 0;
        block.offset_bits_ = 1;
      } else {
        const auto frags = p.fragments.subspan(frag_cursor, m.num_fragments);
        const auto csr = p.csr_offsets.subspan(b * kCsrLen, kCsrLen);
        const auto entries = p.entries.subspan(entry_cursor, m.num_entries);
        block.fragments_.assign(frags.begin(), frags.end());
        block.offsets_.assign(csr.begin(), csr.end());
        block.entries_.assign(entries.begin(), entries.end());
        block.max_fragment_len_ = m.max_fragment_len;
        block.total_chars_ = m.total_chars;
        block.offset_bits_ = m.offset_bits;
      }
      frag_cursor += m.num_fragments;
      entry_cursor += m.num_entries;
    }
    return index;
  }

  // --- v2 body (legacy streamed format) ---------------------------------
  DbIndexConfig config;
  config.block_bytes = read_pod<std::uint64_t>(in);
  config.neighbor_threshold = read_pod<std::int32_t>(in);
  config.matrix = &matrix_by_name(read_string(in));
  config.long_seq_limit = read_pod<std::uint64_t>(in);
  config.long_seq_overlap = read_pod<std::uint64_t>(in);

  SequenceStore db;
  const auto num_seqs = read_pod<std::uint64_t>(in);
  MUBLASTP_CHECK(num_seqs > 0 && num_seqs < (std::uint64_t{1} << 40),
                 "implausible sequence count");
  for (std::uint64_t i = 0; i < num_seqs; ++i) {
    const auto len = read_pod<std::uint64_t>(in);
    MUBLASTP_CHECK(len > 0 && len < (std::uint64_t{1} << 32),
                   "implausible sequence length");
    std::vector<Residue> seq(len);
    in.read(reinterpret_cast<char*>(seq.data()),
            static_cast<std::streamsize>(len));
    MUBLASTP_CHECK(in.good(), "truncated index file");
    db.add(seq, read_string(in));
  }

  std::vector<SeqId> order = read_vector<SeqId>(in);
  MUBLASTP_CHECK(order.size() == db.size(), "order/store size mismatch");

  NeighborTable neighbors(*config.matrix, config.neighbor_threshold);
  DbIndex index(std::move(db), std::move(order), config,
                std::move(neighbors));
  index.inverse_.resize(index.order_.size());
  for (SeqId s = 0; s < index.order_.size(); ++s) {
    index.inverse_[index.order_[s]] = s;
  }

  const auto num_blocks = read_pod<std::uint64_t>(in);
  MUBLASTP_CHECK(num_blocks > 0 && num_blocks < (std::uint64_t{1} << 32),
                 "implausible block count");
  index.blocks_.resize(num_blocks);
  for (DbIndexBlock& b : index.blocks_) {
    b.fragments_ = read_vector<FragmentRef>(in);
    b.offsets_ = read_vector<std::uint32_t>(in);
    b.entries_ = read_vector<std::uint32_t>(in);
    b.max_fragment_len_ = read_pod<std::uint64_t>(in);
    b.total_chars_ = read_pod<std::uint64_t>(in);
    b.offset_bits_ = read_pod<std::int32_t>(in);
    MUBLASTP_CHECK(
        b.offsets_.size() == static_cast<std::size_t>(kNumWords) + 1,
        "corrupt block: wrong offsets size");
    MUBLASTP_CHECK(b.offsets_.back() == b.entries_.size(),
                   "corrupt block: offsets/entries mismatch");
    MUBLASTP_CHECK(b.offset_bits_ >= 1 && b.offset_bits_ <= 31,
                   "corrupt block: bad offset bits");
    std::size_t max_len = 0;
    std::size_t chars = 0;
    for (const FragmentRef& f : b.fragments_) {
      MUBLASTP_CHECK(f.seq < index.db_.size() &&
                         f.start + f.len <= index.db_.length(f.seq),
                     "corrupt block: fragment out of range");
      max_len = std::max<std::size_t>(max_len, f.len);
      chars += f.len;
    }
    MUBLASTP_CHECK(b.max_fragment_len_ == max_len,
                   "corrupt block: fragment length summary mismatch");
    MUBLASTP_CHECK(b.total_chars_ == chars,
                   "corrupt block: character count mismatch");
    // Offsets must be monotone and every entry must decode to a valid
    // (fragment, in-range offset) pair.
    for (std::size_t w = 0; w + 1 < b.offsets_.size(); ++w) {
      MUBLASTP_CHECK(b.offsets_[w] <= b.offsets_[w + 1],
                     "corrupt block: offsets not monotone");
    }
    for (const std::uint32_t e : b.entries_) {
      const std::uint32_t frag = b.entry_fragment(e);
      MUBLASTP_CHECK(frag < b.fragments_.size(),
                     "corrupt block: entry fragment out of range");
      MUBLASTP_CHECK(b.entry_offset(e) + kWordLength <=
                         b.fragments_[frag].len,
                     "corrupt block: entry offset out of range");
    }
  }
  return index;
}

namespace {

// Path-level preconditions shared by the copy loader and describe. The
// stream API cannot distinguish "directory" from "garbage", so check the
// filesystem first and fail with a message that names the actual problem.
void check_index_path(const std::string& path) {
  MUBLASTP_CHECK_KIND(!MUBLASTP_FI_FAIL("index.open"), ErrorKind::kIo,
                      "injected open failure (index.open): " + path);
  std::error_code ec;
  const auto status = std::filesystem::status(path, ec);
  MUBLASTP_CHECK_KIND(!ec && std::filesystem::exists(status), ErrorKind::kIo,
                      "cannot open index file: " + path);
  MUBLASTP_CHECK_KIND(!std::filesystem::is_directory(status), ErrorKind::kIo,
                      "index path is a directory, not a file: " + path);
  MUBLASTP_CHECK_KIND(std::filesystem::is_regular_file(status),
                      ErrorKind::kIo,
                      "index path is not a regular file: " + path);
  const auto size = std::filesystem::file_size(path, ec);
  MUBLASTP_CHECK_KIND(!ec, ErrorKind::kIo, "cannot stat index file: " + path);
  MUBLASTP_CHECK_KIND(size > 0, ErrorKind::kCorrupt,
                      "empty index file: " + path);
}

}  // namespace

DbIndex load_db_index(std::istream& in) {
  return load_db_index(in, IndexLoadOptions{});
}

DbIndex load_db_index_file(const std::string& path,
                           const IndexLoadOptions& options) {
  check_index_path(path);
  std::ifstream in(path, std::ios::binary);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo,
                      "cannot open index file: " + path);
  return load_db_index(in, options);
}

DbIndex load_db_index_file(const std::string& path) {
  return load_db_index_file(path, IndexLoadOptions{});
}

IndexConfigSummary read_index_config_file(const std::string& path) {
  const DbIndexFileInfo info = describe_db_index_file(path);
  MUBLASTP_CHECK_KIND(info.version == kDbIndexFormatV3, ErrorKind::kInvalid,
                      "index config summary needs a v3 file: " + path);
  const IndexSectionInfo* cfg = nullptr;
  for (const IndexSectionInfo& s : info.sections) {
    if (s.id == static_cast<std::uint32_t>(SectionId::kConfig)) cfg = &s;
  }
  MUBLASTP_CHECK_KIND(cfg != nullptr, ErrorKind::kCorrupt,
                      "index section 'config' is missing from the file");
  std::ifstream in(path, std::ios::binary);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo,
                      "cannot open index file: " + path);
  in.seekg(static_cast<std::streamoff>(cfg->offset));
  std::string payload(cfg->length, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kCorrupt,
                      "index section 'config' is out of bounds"
                      " (truncated file?)");
  if (crc32(payload.data(), payload.size()) != cfg->crc32) {
    fail_section(SectionId::kConfig, "checksum mismatch (corrupt file)");
  }
  SectionReader r{SectionId::kConfig,
                  {reinterpret_cast<const std::byte*>(payload.data()),
                   payload.size()}};
  IndexConfigSummary out;
  out.block_bytes = r.read<std::uint64_t>();
  out.neighbor_threshold = r.read<std::int32_t>();
  const auto name_len = r.read<std::uint32_t>();
  if (name_len > (1u << 10)) {
    fail_section(SectionId::kConfig, "has an implausible matrix name");
  }
  out.matrix_name = std::string(r.read_string(name_len));
  out.long_seq_limit = r.read<std::uint64_t>();
  out.long_seq_overlap = r.read<std::uint64_t>();
  out.num_seqs = r.read<std::uint64_t>();
  out.num_blocks = r.read<std::uint64_t>();
  return out;
}

DbIndexFileInfo describe_db_index_file(const std::string& path) {
  check_index_path(path);
  std::ifstream in(path, std::ios::binary);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo,
                      "cannot open index file: " + path);

  DbIndexFileInfo info;
  std::error_code ec;
  info.file_bytes = std::filesystem::file_size(path, ec);

  char magic[4];
  in.read(magic, sizeof(magic));
  MUBLASTP_CHECK_KIND(in.good() && std::equal(magic, magic + 4, kMagic),
                      ErrorKind::kCorrupt,
                      "not a muBLASTP index file (bad magic): " + path);
  info.version = read_pod<std::uint32_t>(in);
  MUBLASTP_CHECK_KIND(
      info.version == kDbIndexFormatV2 || info.version == kDbIndexFormatV3,
      ErrorKind::kCorrupt,
      "unsupported index format version " + std::to_string(info.version));
  if (info.version == kDbIndexFormatV2) return info;  // v2 has no table

  const auto section_count = read_pod<std::uint32_t>(in);
  const auto table_crc = read_pod<std::uint32_t>(in);
  const auto file_bytes = read_pod<std::uint64_t>(in);
  MUBLASTP_CHECK_KIND(file_bytes == info.file_bytes, ErrorKind::kCorrupt,
                      "truncated index file: header declares " +
                          std::to_string(file_bytes) + " bytes, file has " +
                          std::to_string(info.file_bytes));
  MUBLASTP_CHECK_KIND(section_count >= 1 && section_count <= 64,
                      ErrorKind::kCorrupt,
                      "index header: implausible section count");
  in.seekg(sizeof(FileHeaderV3));
  std::vector<SectionRecord> table(section_count);
  in.read(reinterpret_cast<char*>(table.data()),
          static_cast<std::streamsize>(section_count *
                                       sizeof(SectionRecord)));
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kCorrupt,
                      "truncated index file: section table missing");
  MUBLASTP_CHECK_KIND(
      crc32(table.data(), section_count * sizeof(SectionRecord)) ==
          table_crc,
      ErrorKind::kCorrupt, "index header: section table checksum mismatch");
  for (const SectionRecord& r : table) {
    // Callers seek to and allocate from these records, so one that runs
    // past the file is corruption, caught here before any allocation.
    if (r.offset > info.file_bytes ||
        r.length > info.file_bytes - r.offset) {
      fail_section(static_cast<SectionId>(r.id),
                   "is out of bounds (truncated file?)");
    }
    info.sections.push_back(
        {std::string(section_name(static_cast<SectionId>(r.id))), r.id,
         r.offset, r.length, static_cast<std::uint32_t>(r.crc32)});
  }
  return info;
}

}  // namespace mublastp
