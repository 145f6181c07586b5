#include "index/db_index_io.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "common/checksum.hpp"
#include "common/durable.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/sectioned_file.hpp"
#include "index/db_index_format.hpp"
#include "score/matrix.hpp"

namespace mublastp {
namespace {

using sectioned::append_pod;
using sectioned::append_span;

constexpr std::uint32_t raw(SectionId id) {
  return static_cast<std::uint32_t>(id);
}

// Listed in id order, so section id k is at position k - 1.
constexpr sectioned::SectionName kSections[] = {
    {raw(SectionId::kConfig), "config"},
    {raw(SectionId::kSeqOffsets), "seq-offsets"},
    {raw(SectionId::kArena), "arena"},
    {raw(SectionId::kNameOffsets), "name-offsets"},
    {raw(SectionId::kNameBlob), "name-blob"},
    {raw(SectionId::kOrder), "order"},
    {raw(SectionId::kInverse), "inverse"},
    {raw(SectionId::kBlockMeta), "block-meta"},
    {raw(SectionId::kFragments), "fragments"},
    {raw(SectionId::kCsrOffsets), "csr-offsets"},
    {raw(SectionId::kEntries), "entries"},
};

constexpr sectioned::Format kFormat{"index", std::string_view("MUBI", 4),
                                    kDbIndexFormatVersion, kSections,
                                    /*pad_tail=*/false, "index.crc"};

constexpr std::uint64_t bit(SectionId id) {
  return std::uint64_t{1} << (raw(id) - 1);
}

/// The sections that each hold a slice per block: a degraded load pins a
/// CRC mismatch in them on the blocks whose block CRC fails.
constexpr std::uint64_t kPerBlockSections = bit(SectionId::kFragments) |
                                            bit(SectionId::kCsrOffsets) |
                                            bit(SectionId::kEntries);

[[noreturn]] void fail_section(SectionId id, const std::string& what) {
  sectioned::fail_section(kFormat, raw(id), what);
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

/// Decodes the 'config' section.
IndexConfigSummary read_config(std::span<const std::byte> bytes) {
  SectionReader r{SectionId::kConfig, bytes};
  IndexConfigSummary c;
  c.block_bytes = r.read<std::uint64_t>();
  c.neighbor_threshold = r.read<std::int32_t>();
  const auto name_len = r.read<std::uint32_t>();
  if (name_len > (1u << 10)) {
    fail_section(SectionId::kConfig, "has an implausible matrix name");
  }
  c.matrix_name = std::string(r.read_string(name_len));
  c.long_seq_limit = r.read<std::uint64_t>();
  c.long_seq_overlap = r.read<std::uint64_t>();
  c.num_seqs = r.read<std::uint64_t>();
  c.num_blocks = r.read<std::uint64_t>();
  if (c.num_seqs == 0 || c.num_seqs >= (std::uint64_t{1} << 40)) {
    fail_section(SectionId::kConfig, "has an implausible sequence count");
  }
  if (c.num_blocks == 0 || c.num_blocks >= (std::uint64_t{1} << 32)) {
    fail_section(SectionId::kConfig, "has an implausible block count");
  }
  return c;
}

}  // namespace

std::string_view section_name(SectionId id) {
  return sectioned::section_name(kFormat, raw(id));
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

std::string db_index_image(const DbIndex& index) {
  const SequenceStore& db = index.db_;
  std::vector<sectioned::Payload> sections;
  sections.reserve(std::size(kSections));  // keeps add()'s references valid
  const auto add = [&](SectionId id) -> std::string& {
    sections.push_back({raw(id), {}});
    return sections.back().bytes;
  };

  {
    std::string& cfg = add(SectionId::kConfig);
    append_pod<std::uint64_t>(cfg, index.config_.block_bytes);
    append_pod<std::int32_t>(cfg, index.config_.neighbor_threshold);
    const std::string matrix_name(index.config_.matrix->name());
    append_pod<std::uint32_t>(cfg,
                              static_cast<std::uint32_t>(matrix_name.size()));
    cfg += matrix_name;
    append_pod<std::uint64_t>(cfg, index.config_.long_seq_limit);
    append_pod<std::uint64_t>(cfg, index.config_.long_seq_overlap);
    append_pod<std::uint64_t>(cfg, db.size());
    append_pod<std::uint64_t>(cfg, index.blocks_.size());
  }
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
  append_span<std::size_t>(add(SectionId::kSeqOffsets), db.arena_offsets());
  append_span<Residue>(add(SectionId::kArena), db.arena());
  {
    std::string& offs = add(SectionId::kNameOffsets);
    std::string& blob = add(SectionId::kNameBlob);
    std::uint64_t cursor = 0;
    append_pod<std::uint64_t>(offs, cursor);
    for (SeqId i = 0; i < db.size(); ++i) {
      blob += db.name(i);
      cursor += db.name(i).size();
      append_pod<std::uint64_t>(offs, cursor);
    }
  }
  append_span<SeqId>(add(SectionId::kOrder), index.order_);
  append_span<SeqId>(add(SectionId::kInverse), index.inverse_);
  {
    std::string& meta = add(SectionId::kBlockMeta);
    std::string& frags = add(SectionId::kFragments);
    std::string& csr = add(SectionId::kCsrOffsets);
    std::string& entries = add(SectionId::kEntries);
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
      append_pod(meta, m);
      append_span<FragmentRef>(frags, b.fragments_);
      append_span<std::uint32_t>(csr, b.offsets_);
      append_span<std::uint32_t>(entries, b.entries_);
    }
  }
  return sectioned::write(kFormat, sections);
}

void save_db_index(std::ostream& out, const DbIndex& index) {
  const std::string image = db_index_image(index);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  MUBLASTP_CHECK(out.good(), "write failure while saving index");
}

void save_db_index_file(const std::string& path, const DbIndex& index) {
  std::ofstream out(path, std::ios::binary);
  MUBLASTP_CHECK(out.good(), "cannot open for writing: " + path);
  save_db_index(out, index);
}

std::uint32_t save_db_index_file_durable(const std::string& path,
                                         const DbIndex& index) {
  // Serialize in memory, then follow the publish protocol (temp → fsync →
  // rename → dir fsync) so a crash at any instant leaves either no trace
  // (plus an orphaned .tmp) or the complete file under its final name.
  const std::string image = db_index_image(index);
  const std::string tmp = durable::temp_path_for(path);
  durable::write_file_durable(tmp, image, "build.block_write", "build.fsync");
  durable::publish_rename(tmp, path, "build.publish_rename", "build.fsync");
  return crc32(image.data(), image.size());
}

// ---------------------------------------------------------------------------
// parser (shared by the copy loader and MappedDbIndex)
// ---------------------------------------------------------------------------

ParsedIndexFile parse_db_index_v3(std::span<const std::byte> image,
                                  const IndexParseOptions& options) {
  const bool verify_checksums = options.verify_checksums;
  const bool tolerant = options.tolerate_block_corruption;
  MUBLASTP_CHECK(!tolerant || options.quarantined != nullptr,
                 "tolerate_block_corruption requires a quarantine list");
  // In tolerant mode a CRC mismatch in a *per-block* section is deferred so
  // it can be localized to a block below; every other section stays
  // fail-closed.
  const std::vector<sectioned::Section> sections = sectioned::parse(
      kFormat, image, verify_checksums, tolerant ? kPerBlockSections : 0);
  const auto section = [&](SectionId id) {
    return sections[raw(id) - 1].bytes;
  };
  bool crc_failed = false;
  SectionId crc_failed_id = SectionId::kConfig;  // valid iff crc_failed
  for (const SectionId id : {SectionId::kFragments, SectionId::kCsrOffsets,
                             SectionId::kEntries}) {
    if (!crc_failed && !sections[raw(id) - 1].crc_ok) {
      crc_failed = true;
      crc_failed_id = id;
    }
  }

  ParsedIndexFile p;
  {
    const IndexConfigSummary c = read_config(section(SectionId::kConfig));
    p.config.block_bytes = c.block_bytes;
    p.config.neighbor_threshold = c.neighbor_threshold;
    p.config.matrix = &matrix_by_name(c.matrix_name);
    p.config.long_seq_limit = c.long_seq_limit;
    p.config.long_seq_overlap = c.long_seq_overlap;
    p.num_seqs = c.num_seqs;
    p.num_blocks = c.num_blocks;
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
// copy loader
// ---------------------------------------------------------------------------

DbIndex load_db_index(std::istream& in, const IndexLoadOptions& options) {
  MUBLASTP_CHECK_KIND(!MUBLASTP_FI_FAIL("io.read"), ErrorKind::kIo,
                      "injected read failure (io.read) while loading index");
  // Slurp the stream and reuse the section parser, then copy the parsed
  // spans into an owned DbIndex. mmap loading (MappedDbIndex) skips this
  // copy entirely; this path exists for stream sources and callers that
  // want an owned index.
  const std::string image((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  MUBLASTP_CHECK_KIND(!in.bad(), ErrorKind::kIo,
                      "read failure while loading index");
  IndexParseOptions parse_options;
  parse_options.tolerate_block_corruption = options.tolerate_block_corruption;
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
    const auto seq = p.arena.subspan(p.seq_offsets[i],
                                     p.seq_offsets[i + 1] - p.seq_offsets[i]);
    db.add(seq, std::string(p.name_blob.substr(
                    p.name_offsets[i],
                    p.name_offsets[i + 1] - p.name_offsets[i])));
  }
  std::vector<SeqId> order(p.order.begin(), p.order.end());
  DbIndex index(std::move(db), std::move(order), p.config);
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
  const IndexSectionInfo& cfg = info.sections[raw(SectionId::kConfig) - 1];
  std::ifstream in(path, std::ios::binary);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo,
                      "cannot open index file: " + path);
  in.seekg(static_cast<std::streamoff>(cfg.offset));
  std::string payload(cfg.length, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo,
                      "read failure on index file: " + path);
  if (crc32(payload.data(), payload.size()) != cfg.crc32) {
    fail_section(SectionId::kConfig, "checksum mismatch (corrupt file)");
  }
  return read_config(
      {reinterpret_cast<const std::byte*>(payload.data()), payload.size()});
}

DbIndexFileInfo describe_db_index_file(const std::string& path) {
  check_index_path(path);
  std::ifstream in(path, std::ios::binary);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo,
                      "cannot open index file: " + path);
  DbIndexFileInfo info;
  std::error_code ec;
  info.file_bytes = std::filesystem::file_size(path, ec);
  std::string head(sectioned::head_bytes(kFormat), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  MUBLASTP_CHECK_KIND(!in.bad(), ErrorKind::kIo,
                      "read failure on index file: " + path);
  head.resize(static_cast<std::size_t>(in.gcount()));
  for (const SectionRecord& r : sectioned::read_table(
           kFormat,
           {reinterpret_cast<const std::byte*>(head.data()), head.size()},
           info.file_bytes)) {
    info.sections.push_back({std::string(section_name(
                                 static_cast<SectionId>(r.id))),
                             r.id, r.offset, r.length,
                             static_cast<std::uint32_t>(r.crc32)});
  }
  return info;
}

}  // namespace mublastp
