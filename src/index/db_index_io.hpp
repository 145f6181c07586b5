// Saving and inspecting database index files.
//
// The whole point of a database index is "build once, search many times"
// (paper Section V-A explicitly excludes index build time because "the
// index only need to be built once for a given database"). An index is
// persisted as format v3: a sectioned file (see db_index_format.hpp and
// common/sectioned_file.hpp) whose sections hold the index's arrays as
// they are served, so DbIndex can search the file's image in place. A
// DbIndex already holds that image, so saving it writes DbIndex::image();
// opening a file is DbIndex's own constructor.
//
// The neighbor table is not serialized: it is a pure function of (matrix,
// threshold) that each search engine builds in milliseconds, while storing
// it would add megabytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "index/db_index.hpp"

namespace mublastp {

/// The file-format version every save writes and every open accepts.
inline constexpr std::uint32_t kDbIndexFormatVersion = 3;

/// Writes `index.image()` to a file. Throws mublastp::Error on I/O errors.
void save_db_index_file(const std::string& path, const DbIndex& index);

/// Writes `index.image()` to a file with crash-safe publication: write to
/// `path + ".tmp"`, fsync it, atomically rename() onto `path`, fsync the
/// parent directory. A crash at any instant leaves `path` either
/// absent/old or complete — never torn. Injection sites:
/// "build.block_write" (data write), "build.fsync" (file/dir fsync),
/// "build.publish_rename" (the atomic rename). Returns the CRC32 of the
/// bytes written, the whole-file checksum manifests record.
std::uint32_t save_db_index_file_durable(const std::string& path,
                                         const DbIndex& index);

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
