#include "index/db_index.hpp"

#include <omp.h>
#include <setjmp.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <csignal>
#include <exception>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/parallel.hpp"
#include "index/db_index_format.hpp"

namespace mublastp {
namespace {

static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "the index serves its u64 arena offsets as size_t");

constexpr std::size_t kCsrLen = static_cast<std::size_t>(kNumWords) + 1;

/// The CSR of a quarantined block: every word list is empty, so the block
/// contributes no hits.
constexpr std::array<std::uint32_t, kCsrLen> kEmptyCsr{};

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

// Touches one byte per page of `bytes` under the SIGBUS guard. Returns
// false if a fault fired. The guarded frame holds no C++ objects with
// destructors, so the siglongjmp skips nothing that needs unwinding.
bool prefault_pages(std::span<const std::byte> bytes) {
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
    for (std::size_t off = 0; off < bytes.size(); off += step) {
      sink = bytes[off];
    }
    sink = bytes.back();
    (void)sink;
  } else {
    ok = false;
  }
  g_sigbus_armed = 0;
  ::sigaction(SIGBUS, &old, nullptr);
  return ok;
}

// Splits sequence `seq` (length `len`) into fragment windows per config.
// Fragments overlap by `overlap` so any alignment spanning a cut is fully
// contained in (or re-extendable from) at least one fragment.
std::vector<FragmentRef> split_sequence(SeqId seq, std::size_t len,
                                        const DbIndexConfig& cfg) {
  std::vector<FragmentRef> out;
  if (len <= cfg.long_seq_limit) {
    out.push_back({seq, 0, static_cast<std::uint32_t>(len)});
    return out;
  }
  const std::size_t step = cfg.long_seq_limit - cfg.long_seq_overlap;
  for (std::size_t start = 0; start < len; start += step) {
    const std::size_t flen = std::min(cfg.long_seq_limit, len - start);
    out.push_back({seq, static_cast<std::uint32_t>(start),
                   static_cast<std::uint32_t>(flen)});
    if (start + flen >= len) break;
  }
  return out;
}

int bits_for(std::size_t max_value) {
  return std::max(1, static_cast<int>(std::bit_width(max_value)));
}

}  // namespace

std::size_t DbIndex::optimal_block_bytes(std::size_t l3_bytes, int threads) {
  MUBLASTP_CHECK(threads > 0, "thread count must be positive");
  return l3_bytes / (2 * static_cast<std::size_t>(threads) + 1);
}

DbIndex DbIndex::build(const SequenceStore& db, const DbIndexConfig& config,
                       BuildTelemetry* telemetry) {
  const double t_start = omp_get_wtime();
  MUBLASTP_CHECK(!db.empty(), "cannot index an empty database");
  MUBLASTP_CHECK(config.block_bytes >= 4096, "block_bytes too small");
  MUBLASTP_CHECK(config.long_seq_limit > config.long_seq_overlap,
                 "long_seq_limit must exceed long_seq_overlap");
  MUBLASTP_CHECK(
      config.long_seq_overlap >= static_cast<std::size_t>(kWordLength),
      "fragment overlap must cover at least one word");

  // Sort by length (paper Section III / IV-D) and keep the inverse map so
  // callers can report hits against their original ids.
  const std::vector<SeqId> order = db.ids_by_length();
  const SequenceStore sorted = db.permuted(order);
  std::vector<SeqId> inverse(order.size());
  for (SeqId sorted_pos = 0; sorted_pos < order.size(); ++sorted_pos) {
    inverse[order[sorted_pos]] = sorted_pos;
  }

  // Enumerate fragments in sorted order, then greedily pack them into
  // blocks of ~block_chars characters ("if a sequence exceeds the block
  // boundary, we put it in the next block" — i.e. no fragment straddles two
  // blocks).
  const std::size_t block_chars = config.block_bytes / sizeof(std::uint32_t);
  std::vector<FragmentRef> all_frags;
  for (SeqId id = 0; id < sorted.size(); ++id) {
    const auto frags = split_sequence(id, sorted.length(id), config);
    all_frags.insert(all_frags.end(), frags.begin(), frags.end());
  }

  // Plan block boundaries serially (cheap), then build the blocks in
  // parallel — blocks are fully independent, and the result is identical
  // for any thread count.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [first, last)
  {
    std::size_t i = 0;
    while (i < all_frags.size()) {
      const std::size_t first = i;
      std::size_t chars = 0;
      while (i < all_frags.size() &&
             (i == first || chars + all_frags[i].len <= block_chars)) {
        chars += all_frags[i].len;
        ++i;
      }
      ranges.emplace_back(first, i);
    }
  }

  std::vector<BuiltBlock> blocks(ranges.size());
  const int threads = config.build_threads > 0 ? config.build_threads
                                               : omp_get_max_threads();
  const double t_plan = omp_get_wtime();
  std::vector<double> block_seconds(telemetry != nullptr ? ranges.size() : 0);
  const auto build_block = [&](std::size_t b) {
    const double t_block = telemetry != nullptr ? omp_get_wtime() : 0.0;
    BuiltBlock& block = blocks[b];
    block.fragments.assign(all_frags.begin() + ranges[b].first,
                           all_frags.begin() + ranges[b].second);
    for (const FragmentRef& f : block.fragments) {
      block.total_chars += f.len;
      block.max_fragment_len =
          std::max(block.max_fragment_len, static_cast<std::size_t>(f.len));
    }

    // Pack entries as (local fragment id << offset_bits) | offset.
    block.offset_bits = bits_for(block.max_fragment_len);
    const std::size_t id_bits = static_cast<std::size_t>(
        bits_for(block.fragments.size() > 0 ? block.fragments.size() - 1
                                            : 0));
    MUBLASTP_CHECK(
        id_bits + static_cast<std::size_t>(block.offset_bits) <= 32,
        "block too large to pack entries into 32 bits");

    // Counting pass over all words of all fragments.
    block.offsets.assign(kCsrLen, 0);
    for (const FragmentRef& f : block.fragments) {
      if (f.len < static_cast<std::size_t>(kWordLength)) continue;
      const auto seq = sorted.sequence(f.seq).subspan(f.start, f.len);
      for (std::size_t p = 0; p + kWordLength <= seq.size(); ++p) {
        ++block.offsets[word_key(seq.data() + p) + 1];
      }
    }
    for (std::size_t w = 0; w < static_cast<std::size_t>(kNumWords); ++w) {
      block.offsets[w + 1] += block.offsets[w];
    }
    block.entries.resize(block.offsets.back());

    // Fill pass: iterate fragments in local-id order so each word's entry
    // list is ordered by (fragment, offset) without sorting.
    std::vector<std::uint32_t> cursor(block.offsets.begin(),
                                      block.offsets.end() - 1);
    for (std::uint32_t local = 0; local < block.fragments.size(); ++local) {
      const FragmentRef& f = block.fragments[local];
      if (f.len < static_cast<std::size_t>(kWordLength)) continue;
      const auto seq = sorted.sequence(f.seq).subspan(f.start, f.len);
      for (std::size_t p = 0; p + kWordLength <= seq.size(); ++p) {
        const std::uint32_t w = word_key(seq.data() + p);
        block.entries[cursor[w]++] =
            (local << block.offset_bits) | static_cast<std::uint32_t>(p);
      }
    }
    if (telemetry != nullptr) block_seconds[b] = omp_get_wtime() - t_block;
  };
  const std::exception_ptr build_error =
      parallel_tasks(threads, ranges.size(), build_block);
  if (build_error != nullptr) std::rethrow_exception(build_error);

  // Serialize once and serve the image, as an open of the saved file
  // would. Its checksums were just computed, so the parse skips them.
  auto image = std::make_shared<const std::string>(
      write_db_index_v3(config, sorted, order, inverse, blocks));
  DbIndex index;
  index.image_ = std::as_bytes(std::span(*image));
  index.storage_ = std::move(image);
  IndexParseOptions parse_options;
  parse_options.verify_checksums = false;
  index.carve(parse_db_index_v3(index.image_, parse_options));

  if (telemetry != nullptr) {
    telemetry->total_seconds = omp_get_wtime() - t_start;
    telemetry->plan_seconds = t_plan - t_start;
    telemetry->threads = threads;
    telemetry->block_seconds = std::move(block_seconds);
  }
  return index;
}

DbIndex::DbIndex(const std::string& path, DbIndexOpenOptions options) {
  const IndexFile file(path);
  if (options.mmap) {
    void* addr = MUBLASTP_FI_FAIL("index.mmap")
                     ? MAP_FAILED
                     : ::mmap(nullptr, file.size, PROT_READ, MAP_PRIVATE,
                              file.fd, 0);
    MUBLASTP_CHECK_KIND(addr != MAP_FAILED, ErrorKind::kResource,
                        "mmap failed for index file: " + path);
    const std::size_t size = file.size;
    storage_ = std::shared_ptr<const void>(
        addr, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
    image_ = {static_cast<const std::byte*>(addr), size};
    mapped_ = true;
    if (options.prefault) {
      const bool injected = MUBLASTP_FI_FAIL("index.prefault");
      MUBLASTP_CHECK_KIND(
          !injected && prefault_pages(image_), ErrorKind::kIo,
          "I/O error (SIGBUS) faulting in index file: " + path);
    }
  } else {
    MUBLASTP_CHECK_KIND(!MUBLASTP_FI_FAIL("io.read"), ErrorKind::kIo,
                        "injected read failure (io.read): " + path);
    auto bytes = std::make_shared<const std::string>(file.read(0, file.size));
    image_ = std::as_bytes(std::span(*bytes));
    storage_ = std::move(bytes);
  }
  IndexParseOptions parse_options;
  parse_options.tolerate_block_corruption = options.tolerate_block_corruption;
  parse_options.quarantined =
      options.tolerate_block_corruption ? &quarantined_ : nullptr;
  carve(parse_db_index_v3(image_, parse_options));
}

void DbIndex::carve(const ParsedIndexFile& p) {
  config_ = p.config;
  store_.arena = p.arena;
  store_.seq_offsets = {
      reinterpret_cast<const std::size_t*>(p.seq_offsets.data()),
      p.seq_offsets.size()};
  store_.name_offsets = p.name_offsets;
  store_.name_blob = p.name_blob.data();
  order_ = p.order;
  inverse_ = p.inverse;

  blocks_.reserve(p.num_blocks);
  std::size_t frag_cursor = 0;
  std::size_t entry_cursor = 0;
  for (std::size_t b = 0; b < p.block_meta.size(); ++b) {
    const BlockMetaRecord& m = p.block_meta[b];
    if (std::any_of(quarantined_.begin(), quarantined_.end(),
                    [b](const BlockQuarantine& q) { return q.block == b; })) {
      // Quarantined: an all-zero CSR with no fragments or entries makes
      // the engine find nothing in this block, which is exactly the
      // degraded contract (hits from surviving blocks only).
      blocks_.emplace_back(kEmptyCsr, std::span<const std::uint32_t>(),
                           std::span<const FragmentRef>(),
                           /*max_fragment_len=*/0, /*total_chars=*/0,
                           /*offset_bits=*/1);
    } else {
      blocks_.emplace_back(
          p.csr_offsets.subspan(b * kCsrLen, kCsrLen),
          p.entries.subspan(entry_cursor, m.num_entries),
          p.fragments.subspan(frag_cursor, m.num_fragments),
          m.max_fragment_len, m.total_chars, m.offset_bits);
    }
    frag_cursor += m.num_fragments;
    entry_cursor += m.num_entries;
  }
}

std::size_t DbIndex::resident_bytes() const {
  const long page = ::sysconf(_SC_PAGESIZE);
  if (!mapped_ || page <= 0) return 0;
  const std::size_t page_size = static_cast<std::size_t>(page);
  const std::size_t pages = (image_.size() + page_size - 1) / page_size;
  std::vector<unsigned char> vec(pages);
  if (::mincore(const_cast<std::byte*>(image_.data()), image_.size(),
                vec.data()) != 0) {
    return 0;
  }
  std::size_t resident = 0;
  for (const unsigned char v : vec) {
    if (v & 1u) ++resident;
  }
  return resident * page_size;
}

}  // namespace mublastp
