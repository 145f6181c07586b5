#include "index/mapped_db_index.hpp"

#include <fcntl.h>
#include <setjmp.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/faultinject.hpp"

namespace mublastp {
namespace {

// SIGBUS guard for the prefault pass. mmap'd reads raise SIGBUS (not a
// recoverable error code) when the file shrank after the map or the media
// returns an I/O error; the guard turns that into a siglongjmp back to the
// prefault loop so the open can fail with a typed Error instead of killing
// the process. Process-global and not thread-safe — prefaulting happens at
// load time, before worker threads exist.
sigjmp_buf g_sigbus_jmp;
volatile sig_atomic_t g_sigbus_armed = 0;

void sigbus_handler(int sig) {
  if (g_sigbus_armed) siglongjmp(g_sigbus_jmp, 1);
  // SIGBUS from someone else's access: restore default disposition and
  // re-raise so the crash is not swallowed.
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

// Touches one byte per page of [data, data+size) under the SIGBUS guard.
// Returns false if a fault fired. The guarded frame holds no C++ objects
// with destructors, so the siglongjmp skips nothing that needs unwinding.
bool prefault_pages(const std::byte* data, std::size_t size) {
  if (size == 0) return true;
  struct sigaction sa{};
  struct sigaction old{};
  sa.sa_handler = sigbus_handler;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGBUS, &sa, &old) != 0) return true;  // cannot guard
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t step = page > 0 ? static_cast<std::size_t>(page) : 4096;
  volatile bool ok = true;
  g_sigbus_armed = 1;
  if (sigsetjmp(g_sigbus_jmp, 1) == 0) {
    volatile std::byte sink{};
    for (std::size_t off = 0; off < size; off += step) sink = data[off];
    sink = data[size - 1];
    (void)sink;
  } else {
    ok = false;
  }
  g_sigbus_armed = 0;
  ::sigaction(SIGBUS, &old, nullptr);
  return ok;
}

}  // namespace

MappedDbIndex::Mapping::Mapping(const std::string& path) {
  MUBLASTP_CHECK_KIND(!MUBLASTP_FI_FAIL("index.open"), ErrorKind::kIo,
                      "injected open failure (index.open): " + path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  MUBLASTP_CHECK_KIND(fd >= 0, ErrorKind::kIo,
                      "cannot open index file: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw Error("cannot stat index file: " + path, ErrorKind::kIo);
  }
  if (S_ISDIR(st.st_mode)) {
    ::close(fd);
    throw Error("index path is a directory, not a file: " + path,
                ErrorKind::kIo);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    throw Error("index path is not a regular file: " + path, ErrorKind::kIo);
  }
  if (st.st_size == 0) {
    ::close(fd);
    throw Error("empty index file: " + path, ErrorKind::kCorrupt);
  }
  const std::size_t len = static_cast<std::size_t>(st.st_size);
  void* addr = MUBLASTP_FI_FAIL("index.mmap")
                   ? MAP_FAILED
                   : ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  MUBLASTP_CHECK_KIND(addr != MAP_FAILED, ErrorKind::kResource,
                      "mmap failed for index file: " + path);
  data = static_cast<const std::byte*>(addr);
  size = len;
}

MappedDbIndex::Mapping::~Mapping() {
  if (data != nullptr) {
    ::munmap(const_cast<std::byte*>(data), size);
  }
}

MappedDbIndex::Mapping::Mapping(Mapping&& other) noexcept
    : data(std::exchange(other.data, nullptr)),
      size(std::exchange(other.size, 0)) {}

MappedDbIndex::Mapping& MappedDbIndex::Mapping::operator=(
    Mapping&& other) noexcept {
  if (this != &other) {
    if (data != nullptr) ::munmap(const_cast<std::byte*>(data), size);
    data = std::exchange(other.data, nullptr);
    size = std::exchange(other.size, 0);
  }
  return *this;
}

ParsedIndexFile MappedDbIndex::open_image(
    std::span<const std::byte> bytes, const Options& options,
    const std::string& path, std::vector<BlockQuarantine>* quarantined) {
  if (options.prefault) {
    const bool injected = MUBLASTP_FI_FAIL("index.prefault");
    MUBLASTP_CHECK_KIND(
        !injected && prefault_pages(bytes.data(), bytes.size()),
        ErrorKind::kIo,
        "I/O error (SIGBUS) faulting in index file: " + path);
  }
  IndexParseOptions parse_options;
  parse_options.verify_checksums = options.verify_checksums;
  parse_options.tolerate_block_corruption = options.tolerate_block_corruption;
  parse_options.quarantined =
      options.tolerate_block_corruption ? quarantined : nullptr;
  return parse_db_index_v3(bytes, parse_options);
}

MappedDbIndex::MappedDbIndex(const std::string& path, Options options)
    : map_(path),
      parsed_(open_image(map_.bytes(), options, path, &quarantined_)),
      path_(path) {
  // Carve per-block span descriptors out of the concatenated sections.
  constexpr std::size_t kCsrLen = static_cast<std::size_t>(kNumWords) + 1;
  std::vector<char> block_bad(parsed_.num_blocks, 0);
  for (const BlockQuarantine& q : quarantined_) {
    if (q.block < block_bad.size()) block_bad[q.block] = 1;
  }
  if (!quarantined_.empty()) empty_csr_.assign(kCsrLen, 0);
  blocks_.reserve(parsed_.num_blocks);
  std::size_t frag_cursor = 0;
  std::size_t entry_cursor = 0;
  std::size_t csr_cursor = 0;
  for (std::size_t b = 0; b < parsed_.block_meta.size(); ++b) {
    const BlockMetaRecord& m = parsed_.block_meta[b];
    if (block_bad[b]) {
      // Quarantined: an all-zero CSR with no fragments or entries makes
      // the engine find nothing in this block, which is exactly the
      // degraded contract (hits from surviving blocks only).
      blocks_.emplace_back(std::span<const std::uint32_t>(empty_csr_),
                           std::span<const std::uint32_t>(),
                           std::span<const FragmentRef>(),
                           /*max_fragment_len=*/0, /*total_chars=*/0,
                           /*offset_bits=*/1);
    } else {
      blocks_.emplace_back(
          parsed_.csr_offsets.subspan(csr_cursor, kCsrLen),
          parsed_.entries.subspan(entry_cursor, m.num_entries),
          parsed_.fragments.subspan(frag_cursor, m.num_fragments),
          m.max_fragment_len, m.total_chars, m.offset_bits);
    }
    frag_cursor += m.num_fragments;
    entry_cursor += m.num_entries;
    csr_cursor += kCsrLen;
  }
}

std::size_t MappedDbIndex::resident_bytes() const {
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0 || map_.data == nullptr) return 0;
  const std::size_t page_size = static_cast<std::size_t>(page);
  const std::size_t pages = (map_.size + page_size - 1) / page_size;
  std::vector<unsigned char> vec(pages);
  if (::mincore(const_cast<std::byte*>(map_.data), map_.size, vec.data()) !=
      0) {
    return 0;
  }
  std::size_t resident = 0;
  for (const unsigned char v : vec) {
    if (v & 1u) ++resident;
  }
  return resident * page_size;
}

}  // namespace mublastp
