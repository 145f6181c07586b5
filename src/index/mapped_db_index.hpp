// Zero-copy index loading: mmap a v3 index file and search it in place.
//
// The paper's premise is "build the index once, search many times" (Section
// V-A excludes build time for exactly that reason). For a serving process
// the analogous cost is *load* time: the copy loader deserializes the whole
// file into owned vectors on every start. A MappedDbIndex instead maps
// the file read-only and serves the sequence arena, block CSR offsets and
// packed entries directly from the mapping as spans — no allocation
// proportional to database size, pages faulted in on demand, and the OS
// page cache becomes a block cache shared by every process serving the same
// database (the load-path analogue of the paper's cache-conscious block
// design).
//
// Only derived state is materialized: the per-block span descriptors. The
// neighbor table belongs to the search engine, which builds it from
// config().
//
// Integrity: by default the constructor verifies the section table and
// every section's CRC32 plus the structural invariants, so a truncated or
// bit-rotted file fails closed with an Error naming the bad section. That
// verification reads every page (the CRC alone runs at ~2 GB/s);
// Options::verify_checksums = false skips it for trusted files and
// restores pure on-demand faulting.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "index/db_index_format.hpp"
#include "index/db_index_view.hpp"

namespace mublastp {

/// Open options for MappedDbIndex (namespace-scope so it is complete when
/// used as a defaulted constructor argument).
struct MappedDbIndexOptions {
  /// Verify section checksums + structural invariants at open. Reads the
  /// whole file once; disable only for trusted local files where lazy
  /// faulting matters more than corruption detection.
  bool verify_checksums = true;

  /// Touch every page of the mapping under a SIGBUS guard before parsing.
  /// A file truncated (or hitting media errors) after the mmap raises
  /// SIGBUS on first touch, which would otherwise kill the process mid-
  /// verification; with prefault on, that becomes a typed Error(kIo) the
  /// caller can catch and retry or fall back to the copy loader (injection
  /// site "index.prefault"). Costs the same page reads verification does
  /// anyway; leave off for trusted files opened lazily.
  bool prefault = false;

  /// Degraded mode: block-local damage quarantines the affected blocks
  /// (served as empty DbBlockViews contributing no hits) instead of
  /// failing the open; see IndexParseOptions::tolerate_block_corruption
  /// for what still fails closed. Quarantined ids are reported via
  /// MappedDbIndex::quarantined().
  bool tolerate_block_corruption = false;
};

/// A read-only, memory-mapped database index.
class MappedDbIndex {
 public:
  using Options = MappedDbIndexOptions;

  /// Maps `path`. Throws mublastp::Error if the path is not a regular
  /// index file or fails verification.
  explicit MappedDbIndex(const std::string& path, Options options = {});

  MappedDbIndex(MappedDbIndex&& other) noexcept = default;
  MappedDbIndex& operator=(MappedDbIndex&& other) noexcept = default;
  MappedDbIndex(const MappedDbIndex&) = delete;
  MappedDbIndex& operator=(const MappedDbIndex&) = delete;
  ~MappedDbIndex() = default;

  // --- data accessors (all spans point into the mapping) -----------------
  std::span<const Residue> arena() const { return parsed_.arena; }
  std::span<const std::uint64_t> seq_offsets() const {
    return parsed_.seq_offsets;
  }
  std::span<const std::uint64_t> name_offsets() const {
    return parsed_.name_offsets;
  }
  std::string_view name_blob() const { return parsed_.name_blob; }
  std::span<const SeqId> order() const { return parsed_.order; }
  std::span<const SeqId> inverse() const { return parsed_.inverse; }
  std::span<const DbBlockView> blocks() const { return blocks_; }
  const DbIndexConfig& config() const { return parsed_.config; }
  std::size_t num_sequences() const { return parsed_.num_seqs; }
  std::size_t total_residues() const { return parsed_.arena.size(); }

  /// Blocks set aside by a degraded open (Options::tolerate_block_
  /// corruption); empty for a clean file or a strict open. The matching
  /// entries of blocks() are empty views that contribute no hits.
  const std::vector<BlockQuarantine>& quarantined() const {
    return quarantined_;
  }

  // --- serving metrics ---------------------------------------------------
  /// Path the index was mapped from.
  const std::string& path() const { return path_; }

  /// Size of the mapped file.
  std::size_t file_bytes() const { return map_.size; }

  /// The mapped file's bytes.
  std::span<const std::byte> image() const { return map_.bytes(); }

  /// Bytes of the mapping currently resident in physical memory (mincore
  /// sweep). Grows as searches fault pages in; a freshly opened unverified
  /// index reports near zero, a verified one near file_bytes().
  std::size_t resident_bytes() const;

 private:
  // RAII mmap holder. Declared first so spans die before the unmap.
  struct Mapping {
    const std::byte* data = nullptr;
    std::size_t size = 0;

    Mapping() = default;
    explicit Mapping(const std::string& path);
    ~Mapping();
    Mapping(Mapping&& other) noexcept;
    Mapping& operator=(Mapping&& other) noexcept;
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;

    std::span<const std::byte> bytes() const { return {data, size}; }
  };

  /// Prefaults (optional) then parses; kept static so the member-init list
  /// can produce parsed_ after map_ but before the derived members.
  static ParsedIndexFile open_image(std::span<const std::byte> bytes,
                                    const Options& options,
                                    const std::string& path,
                                    std::vector<BlockQuarantine>* quarantined);

  Mapping map_;
  std::vector<BlockQuarantine> quarantined_;  // before parsed_: init order
  ParsedIndexFile parsed_;
  std::vector<DbBlockView> blocks_;
  /// Backing storage for the empty CSR of quarantined blocks' views
  /// (kNumWords + 1 zeros). Heap-allocated, so the spans survive moves.
  std::vector<std::uint32_t> empty_csr_;
  std::string path_;
};

}  // namespace mublastp
