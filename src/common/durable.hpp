// Durable file publication: the fsync/rename discipline that makes index
// builds and manifests crash-consistent.
//
// The protocol every publisher in this repo follows (docs/INCREMENTAL.md
// has the full ordering argument):
//
//   1. write the complete payload to `<final>.tmp`
//   2. fsync the temp file            (content durable, name still temp)
//   3. rename(<final>.tmp, <final>)   (atomic: the name appears all-at-once)
//   4. fsync the parent directory     (the rename itself durable)
//
// A crash anywhere in 1-3 leaves at worst an orphaned `.tmp` file — the
// published namespace is untouched, so readers keep resolving the previous
// state. A crash after 3 but before 4 can lose the rename across power
// failure, which again just re-exposes the previous state. The commit
// point of a multi-file publish (index data + manifest) is the *manifest*
// rename, so data files must be fully durable before their manifest is.
//
// Each helper takes an optional fault-injection site so the build-path
// fault matrix ("build.fsync", "build.publish_rename", ...) can drive
// every failure branch; pass nullptr to skip injection.
#pragma once

#include <string>
#include <string_view>

namespace mublastp::durable {

/// `path + ".tmp"` — the single temp-name convention. Anything matching
/// `*.tmp` next to an index is, by construction, an orphan of a crashed
/// publish and safe to delete.
std::string temp_path_for(const std::string& path);

/// True when `path` names an orphaned temp file (ends in ".tmp").
bool is_temp_path(const std::string& path);

/// fsync(2) an already-written file by path (open O_RDONLY + fsync, which
/// flushes file data and metadata on Linux). Throws Error(kIo) on failure
/// or when the injection `site` fires.
void fsync_file(const std::string& path, const char* site = nullptr);

/// fsync(2) the parent directory of `path`, making a rename/creat/unlink
/// of that name durable. Throws Error(kIo) on failure or injection.
void fsync_parent_dir(const std::string& path, const char* site = nullptr);

/// Writes `bytes` to `path` in one shot and fsyncs the file (NOT the
/// directory — callers publishing via rename sync the directory after the
/// rename instead). `write_site` fires on the write, `fsync_site` on the
/// flush. Throws Error(kIo) on any failure.
void write_file_durable(const std::string& path, std::string_view bytes,
                        const char* write_site = nullptr,
                        const char* fsync_site = nullptr);

/// Steps 3+4 of the protocol: atomic rename(tmp, final) followed by a
/// parent-directory fsync. Throws Error(kIo) on failure or injection.
void publish_rename(const std::string& tmp, const std::string& final_path,
                    const char* rename_site = nullptr,
                    const char* fsync_site = nullptr);

}  // namespace mublastp::durable
