// mublastp_dbinfo: inspect a saved database index — block layout, footprint
// breakdown, word-list statistics, and the last-hit-array budget that the
// b = L3/(2t+1) formula reasons about.
//
// When `mublastp_makedb --append` has published a MUGEN01 generation next
// to --index, the tool first reports the generation chain (every member
// with its id offset, counts and checksum; stale generations awaiting
// --compact GC; orphaned temp files from a crashed publish) and then dumps
// each member index in chain order. A corrupt newest manifest fails closed
// with exit 5 — the same contract as mublastp_search.
//
// Usage: mublastp_dbinfo --index=db.mbi [--threads=12] [--l3-mb=30]
//
// Exit codes: 0 ok, 1 generic failure, 2 usage error, 4 I/O error,
// 5 corrupt input.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "common/error.hpp"
#include "index/db_index_io.hpp"
#include "index/generation.hpp"
#include "index/neighbor.hpp"

namespace {

using namespace mublastp;
using namespace mublastp::cli;

/// The most --threads and --l3-mb accept.
constexpr int kMaxThreads = 1024;
constexpr std::size_t kMaxL3Mb = std::size_t{1} << 20;

double mb(std::size_t bytes) {
  return static_cast<double>(bytes) / (1 << 20);
}

/// The full single-index report (file sections, blocks, word lists, cache
/// budget) — one call per chain member.
void describe_index(const std::string& path, int threads, std::size_t l3) {
  // File-level description first: the checksummed section table the mmap
  // loader navigates by.
  const DbIndexFileInfo finfo = describe_db_index_file(path);
  const DbIndex index = load_db_index_file(path);
  const SequenceStore& db = index.db();
  const NeighborTable neighbors(*index.config().matrix,
                                index.config().neighbor_threshold);

  std::printf("index file        : %s\n", path.c_str());
  std::printf("format            : v%u, %llu bytes"
              " (mmap-able, checksummed sections)\n",
              kDbIndexFormatVersion,
              static_cast<unsigned long long>(finfo.file_bytes));
  for (const IndexSectionInfo& s : finfo.sections) {
    std::printf("  section %-12s offset=%-10llu length=%-10llu"
                " crc32=%08x\n",
                s.name.c_str(), static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.length), s.crc32);
  }
  std::printf("sequences         : %zu (%zu residues)\n", db.size(),
              db.total_residues());
  std::printf("neighbor threshold: T=%d (%zu word-neighbor pairs, avg "
              "%.1f/word)\n",
              neighbors.threshold(), neighbors.total_neighbors(),
              static_cast<double>(neighbors.total_neighbors()) / kNumWords);
  std::printf("config block size : %zu KB positions, long-seq limit %zu\n",
              index.config().block_bytes / 1024,
              index.config().long_seq_limit);

  std::size_t positions = 0;
  std::size_t frags = 0;
  std::size_t entry_bytes = 0;
  std::size_t offset_bytes = 0;
  std::size_t max_block_positions = 0;
  for (const DbIndexBlock& b : index.blocks()) {
    positions += b.num_positions();
    frags += b.fragments().size();
    entry_bytes += b.position_bytes();
    offset_bytes += (static_cast<std::size_t>(kNumWords) + 1) * 4;
    max_block_positions = std::max(max_block_positions, b.num_positions());
  }
  std::printf("blocks            : %zu (%zu fragments, %zu positions)\n",
              index.blocks().size(), frags, positions);
  std::printf("footprint         : %.1f MB entries + %.1f MB offsets + "
              "%.1f MB residues\n",
              mb(entry_bytes), mb(offset_bytes), mb(db.total_residues()));

  // Per-block table (first few + largest).
  std::printf("\n%-6s %10s %10s %12s %10s\n", "block", "frags",
              "positions", "chars", "maxfrag");
  const std::size_t show = std::min<std::size_t>(index.blocks().size(), 8);
  for (std::size_t i = 0; i < show; ++i) {
    const DbIndexBlock& b = index.blocks()[i];
    std::printf("%-6zu %10zu %10zu %12zu %10zu\n", i, b.fragments().size(),
                b.num_positions(), b.total_chars(), b.max_fragment_len());
  }
  if (index.blocks().size() > show) {
    std::printf("... %zu more blocks\n", index.blocks().size() - show);
  }

  // Word-list population statistics of the largest block.
  const DbIndexBlock& big = *std::max_element(
      index.blocks().begin(), index.blocks().end(),
      [](const DbIndexBlock& a, const DbIndexBlock& b) {
        return a.num_positions() < b.num_positions();
      });
  std::size_t empty_words = 0;
  std::size_t max_list = 0;
  for (std::uint32_t w = 0; w < static_cast<std::uint32_t>(kNumWords);
       ++w) {
    const std::size_t n = big.entries(w).size();
    if (n == 0) ++empty_words;
    max_list = std::max(max_list, n);
  }
  std::printf("\nlargest block: %zu positions; %zu/%d words empty "
              "(%.1f%%), longest word list %zu\n",
              big.num_positions(), empty_words, kNumWords,
              100.0 * static_cast<double>(empty_words) / kNumWords,
              max_list);

  // The Section V-B cache budget.
  std::printf("\ncache budget (t=%d, L3=%zu MB): block %zu KB + t x "
              "last-hit ~2x block = %.1f MB %s L3\n",
              threads, l3 >> 20, index.config().block_bytes / 1024,
              mb(index.config().block_bytes *
                 (1 + 2 * static_cast<std::size_t>(threads))),
              index.config().block_bytes *
                          (1 + 2 * static_cast<std::size_t>(threads)) <=
                      l3
                  ? "<= fits"
                  : "> EXCEEDS");
  std::printf("recommended block for this machine: %zu KB "
              "(b = L3/(2t+1))\n",
              DbIndex::optimal_block_bytes(l3, threads) / 1024);
}

}  // namespace

int main(int argc, char** argv) {
  if (!known_flags(argc, argv, {"index=", "threads=", "l3-mb="})) return 2;
  const std::string path = arg_str(argc, argv, "index", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: mublastp_dbinfo --index=db.mbi [--threads=12]"
                 " [--l3-mb=30]\n");
    return 2;
  }
  int threads = 0;
  std::size_t l3 = 0;
  try {
    threads = arg_number(argc, argv, "threads", 12, 1, kMaxThreads);
    l3 = arg_number<std::size_t>(argc, argv, "l3-mb", 30, 1, kMaxL3Mb) << 20;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    // Generation resolution (docs/INCREMENTAL.md): describe the newest
    // published chain if one exists, else the bare file.
    const ResolvedGeneration resolved = resolve_generations(path);
    if (resolved.manifest.has_value()) {
      const GenerationManifest& m = *resolved.manifest;
      std::printf("generation        : %u (%s)\n", resolved.generation,
                  resolved.manifest_path.c_str());
      std::printf("chain             : %zu member(s), %llu sequences,"
                  " %llu residues\n",
                  m.members.size(),
                  static_cast<unsigned long long>(m.total_sequences),
                  static_cast<unsigned long long>(m.total_residues));
      for (std::size_t k = 0; k < m.members.size(); ++k) {
        const GenerationMember& gm = m.members[k];
        std::printf("  member %-3zu %-28s id_offset=%-10llu"
                    " %llu seqs, %llu residues, crc32=%08x\n",
                    k, resolved.member_paths[k].c_str(),
                    static_cast<unsigned long long>(gm.id_offset),
                    static_cast<unsigned long long>(gm.num_sequences),
                    static_cast<unsigned long long>(gm.num_residues),
                    gm.index_crc32);
      }
      std::size_t stale = 0;
      for (const std::uint32_t g : resolved.all_generations) {
        if (g != resolved.generation) ++stale;
      }
      if (stale != 0) {
        std::printf("stale generations : %zu awaiting --compact GC\n",
                    stale);
      }
      if (!resolved.orphan_temps.empty()) {
        std::printf("orphan temps      : %zu (crashed publish; the next"
                    " --append/--compact removes them)\n",
                    resolved.orphan_temps.size());
        for (const std::string& t : resolved.orphan_temps) {
          std::printf("  %s\n", t.c_str());
        }
      }
      for (std::size_t k = 0; k < resolved.member_paths.size(); ++k) {
        std::printf("\n--- member %zu ---\n", k);
        describe_index(resolved.member_paths[k], threads, l3);
      }
    } else {
      describe_index(path, threads, l3);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e.kind());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
