// Binary serialization of the database index.
//
// The whole point of a database index is "build once, search many times"
// (paper Section V-A explicitly excludes index build time because "the
// index only need to be built once for a given database"). This module
// persists a DbIndex as index format v3: a sectioned file (see
// db_index_format.hpp and common/sectioned_file.hpp) whose raw sections
// are readable by both the copy loader here and the zero-copy
// MappedDbIndex.
//
// The neighbor table is not serialized: it is a pure function of (matrix,
// threshold) that each search engine builds in milliseconds, while storing
// it would add megabytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "index/db_index.hpp"

namespace mublastp {

struct BlockQuarantine;  // db_index_format.hpp

/// Controls degraded-mode loading (see IndexParseOptions for the parse-level
/// semantics). With tolerate_block_corruption set, a v3 file whose damage is
/// confined to individual blocks loads with those blocks replaced by EMPTY
/// blocks (zero fragments/entries, so they contribute no hits) and their ids
/// + reasons appended to `quarantined`.
struct IndexLoadOptions {
  bool tolerate_block_corruption = false;
  std::vector<BlockQuarantine>* quarantined = nullptr;
};

/// The file-format version every save writes and every loader accepts.
inline constexpr std::uint32_t kDbIndexFormatVersion = 3;

/// The file image of `index`: the bytes every save below writes.
std::string db_index_image(const DbIndex& index);

/// Writes `index` as format v3. Throws mublastp::Error on I/O errors.
void save_db_index(std::ostream& out, const DbIndex& index);

/// Writes `index` to a file (format v3).
void save_db_index_file(const std::string& path, const DbIndex& index);

/// Writes `index` to a file (format v3) with crash-safe publication:
/// serialize to `path + ".tmp"`, fsync it, atomically rename() onto `path`,
/// fsync the parent directory. A crash at any instant leaves `path` either
/// absent/old or complete — never torn. Injection sites:
/// "build.block_write" (data write), "build.fsync" (file/dir fsync),
/// "build.publish_rename" (the atomic rename). Returns the CRC32 of the
/// bytes written, the whole-file checksum manifests record.
std::uint32_t save_db_index_file_durable(const std::string& path,
                                         const DbIndex& index);

/// Reads an index back. Throws
/// mublastp::Error with a typed kind (kCorrupt for malformed or truncated
/// input, bad magic, checksum mismatches, unsupported versions) — never
/// returns a partial index except as allowed by `options` (quarantined
/// blocks come back empty).
DbIndex load_db_index(std::istream& in, const IndexLoadOptions& options);

/// Strict-load convenience overload.
DbIndex load_db_index(std::istream& in);

/// Reads an index from a file. Rejects non-regular files (directories,
/// sockets) and zero-byte files with a clear Error (kIo for path problems,
/// kCorrupt for an empty file) before touching the stream. Injection sites:
/// "index.open" (open fails), "io.read" (read fails mid-stream).
DbIndex load_db_index_file(const std::string& path,
                           const IndexLoadOptions& options);

/// Strict-load convenience overload.
DbIndex load_db_index_file(const std::string& path);

/// One section-table row as reported by describe_db_index_file.
struct IndexSectionInfo {
  std::string name;           ///< section_name() of the id
  std::uint32_t id = 0;       ///< raw SectionId value
  std::uint64_t offset = 0;   ///< absolute file offset
  std::uint64_t length = 0;   ///< payload bytes
  std::uint32_t crc32 = 0;    ///< stored payload checksum
};

/// Surface-level description of an index file (for dbinfo and probes).
struct DbIndexFileInfo {
  std::uint64_t file_bytes = 0;
  std::vector<IndexSectionInfo> sections;  ///< in section-id order
};

/// Reads only the header + section table of an index file: cheap (no
/// payload is touched, no checksum verified beyond the table's own), but
/// the header and table are validated as a full load would.
DbIndexFileInfo describe_db_index_file(const std::string& path);

/// The build configuration an index file was created with, as stored in
/// its 'config' section. Incremental builds (--append) read this from the
/// chain head so every delta is built with identical parameters.
struct IndexConfigSummary {
  std::uint64_t block_bytes = 0;
  std::int32_t neighbor_threshold = 0;
  std::string matrix_name;
  std::uint64_t long_seq_limit = 0;
  std::uint64_t long_seq_overlap = 0;
  std::uint64_t num_seqs = 0;
  std::uint64_t num_blocks = 0;
};

/// Reads (and CRC-verifies) just the 'config' section of an index file.
/// Throws Error(kCorrupt) on damage.
IndexConfigSummary read_index_config_file(const std::string& path);

}  // namespace mublastp
