#include "common/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "common/error.hpp"
#include "common/faultinject.hpp"

namespace mublastp::durable {
namespace {

// One strerror-suffixed kIo throw so every failure message carries the
// syscall's errno text (real or injected).
[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  const int err = errno;
  throw Error(what + " '" + path + "': " + std::strerror(err ? err : EIO),
              ErrorKind::kIo);
}

bool fire(const char* site) {
  return site != nullptr && MUBLASTP_FI_FAIL(site);
}

}  // namespace

std::string temp_path_for(const std::string& path) { return path + ".tmp"; }

bool is_temp_path(const std::string& path) {
  constexpr std::string_view kSuffix = ".tmp";
  return path.size() > kSuffix.size() &&
         path.compare(path.size() - kSuffix.size(), kSuffix.size(),
                      kSuffix) == 0;
}

void fsync_file(const std::string& path, const char* site) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_io("cannot open for fsync", path);
  const bool injected = fire(site);
  if (injected || ::fsync(fd) != 0) {
    ::close(fd);
    throw_io(injected ? "injected fsync failure (" + std::string(site) +
                            ") on"
                      : "fsync",
             path);
  }
  ::close(fd);
}

void fsync_parent_dir(const std::string& path, const char* site) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_io("cannot open directory for fsync", parent.string());
  const bool injected = fire(site);
  if (injected || ::fsync(fd) != 0) {
    ::close(fd);
    throw_io(injected ? "injected directory fsync failure (" +
                            std::string(site) + ") on"
                      : "fsync",
             parent.string());
  }
  ::close(fd);
}

void write_file_durable(const std::string& path, std::string_view bytes,
                        const char* write_site, const char* fsync_site) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw_io("cannot create", path);
  const bool write_injected = fire(write_site);
  if (write_injected ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size() ||
      std::fflush(f) != 0) {
    std::fclose(f);
    throw_io(write_injected ? "injected write failure on" : "cannot write",
             path);
  }
  const bool fsync_injected = fire(fsync_site);
  if (fsync_injected || ::fsync(fileno(f)) != 0) {
    std::fclose(f);
    throw_io(fsync_injected ? "injected fsync failure on" : "fsync", path);
  }
  std::fclose(f);
}

void publish_rename(const std::string& tmp, const std::string& final_path,
                    const char* rename_site, const char* fsync_site) {
  if (fire(rename_site)) {
    throw_io("injected publish-rename failure on", final_path);
  }
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    throw_io("cannot rename '" + tmp + "' to", final_path);
  }
  fsync_parent_dir(final_path, fsync_site);
}

}  // namespace mublastp::durable
