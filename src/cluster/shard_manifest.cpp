#include "cluster/shard_manifest.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/durable.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/sectioned_file.hpp"

namespace mublastp::cluster {
namespace {

using sectioned::append_pod;

constexpr std::uint32_t raw(ShardSectionId id) {
  return static_cast<std::uint32_t>(id);
}

// Listed in id order, so section id k is at position k - 1.
constexpr sectioned::SectionName kSections[] = {
    {raw(ShardSectionId::kConfig), "config"},
    {raw(ShardSectionId::kShardMeta), "shard-meta"},
    {raw(ShardSectionId::kRemap), "remap"},
    {raw(ShardSectionId::kPaths), "paths"},
};

constexpr sectioned::Format kFormat{
    "shard manifest", std::string_view("MUSHARD01\0\0\0", 12),
    kShardManifestVersion, kSections, /*pad_tail=*/true};

[[noreturn]] void fail_section(ShardSectionId id, const std::string& what) {
  sectioned::fail_section(kFormat, raw(id), what);
}

}  // namespace

std::string_view shard_section_name(ShardSectionId id) {
  return sectioned::section_name(kFormat, raw(id));
}

double ShardManifest::predicted_imbalance() const {
  if (shards.empty()) return 0.0;
  std::uint64_t lo = shards.front().num_residues;
  std::uint64_t hi = lo;
  for (const Shard& s : shards) {
    lo = std::min(lo, s.num_residues);
    hi = std::max(hi, s.num_residues);
  }
  // Same empty-partition semantics as Partitioning::imbalance: all-empty is
  // perfectly balanced (0.0), never NaN.
  if (hi == 0) return 0.0;
  return static_cast<double>(hi - lo) / static_cast<double>(hi);
}

void save_shard_manifest(const std::string& path,
                         const ShardManifest& manifest) {
  MUBLASTP_CHECK(!manifest.shards.empty(),
                 "shard manifest needs at least one shard");

  // Validate the input is self-consistent before anything hits disk: the
  // loader enforces these invariants, so a writer bug should fail here,
  // loudly, not at the next load.
  std::uint64_t sum_seqs = 0;
  std::uint64_t sum_residues = 0;
  for (const ShardManifest::Shard& s : manifest.shards) {
    MUBLASTP_CHECK(s.to_global.size() == s.num_sequences,
                   "shard remap size must match its sequence count");
    MUBLASTP_CHECK(s.path.empty() == (s.num_sequences == 0),
                   "shard path must be empty exactly for empty shards");
    MUBLASTP_CHECK(s.path.find('\0') == std::string::npos,
                   "shard path must not contain NUL");
    for (std::size_t i = 1; i < s.to_global.size(); ++i) {
      MUBLASTP_CHECK(s.to_global[i - 1] < s.to_global[i],
                     "shard remap must be strictly increasing");
    }
    sum_seqs += s.num_sequences;
    sum_residues += s.num_residues;
  }
  MUBLASTP_CHECK(sum_seqs == manifest.total_sequences,
                 "shard sequence counts must sum to total_sequences");
  MUBLASTP_CHECK(sum_residues == manifest.total_residues,
                 "shard residue counts must sum to total_residues");

  ShardConfigRecord cfg{};
  cfg.shard_count = manifest.shard_count();
  cfg.strategy = static_cast<std::uint32_t>(manifest.strategy);
  cfg.total_sequences = manifest.total_sequences;
  cfg.total_residues = manifest.total_residues;
  sectioned::Payload sections[] = {{raw(ShardSectionId::kConfig), {}},
                                   {raw(ShardSectionId::kShardMeta), {}},
                                   {raw(ShardSectionId::kRemap), {}},
                                   {raw(ShardSectionId::kPaths), {}}};
  append_pod(sections[0].bytes, cfg);
  std::uint64_t remap_offset = 0;
  for (const ShardManifest::Shard& s : manifest.shards) {
    ShardMetaRecord rec{};
    rec.num_sequences = s.num_sequences;
    rec.num_residues = s.num_residues;
    rec.remap_offset = remap_offset;
    rec.index_crc32 = s.index_crc32;
    rec.reserved = 0;
    append_pod(sections[1].bytes, rec);
    remap_offset += s.num_sequences;
    sectioned::append_span<SeqId>(sections[2].bytes, s.to_global);
    sections[3].bytes.append(s.path);
    sections[3].bytes.push_back('\0');
  }
  const std::string image = sectioned::write(kFormat, sections);

  // Publish with the durable protocol (temp → fsync → atomic rename → dir
  // fsync): a crash while makedb writes the manifest leaves either the old
  // manifest (or none) plus an orphaned .tmp, never a torn MUSHARD01.
  const std::string tmp = durable::temp_path_for(path);
  durable::write_file_durable(tmp, image, "build.manifest_write",
                              "build.fsync");
  durable::publish_rename(tmp, path, "build.publish_rename", "build.fsync");
}

ShardManifest parse_shard_manifest(std::span<const std::byte> image) {
  const std::vector<sectioned::Section> sections =
      sectioned::parse(kFormat, image);
  const auto payload = [&](ShardSectionId id) {
    return sections[raw(id) - 1].bytes;
  };

  // kConfig.
  const auto cfg_bytes = payload(ShardSectionId::kConfig);
  if (cfg_bytes.size() != sizeof(ShardConfigRecord)) {
    fail_section(ShardSectionId::kConfig, "has invalid size");
  }
  ShardConfigRecord cfg{};
  std::memcpy(&cfg, cfg_bytes.data(), sizeof(cfg));
  if (cfg.shard_count == 0) {
    fail_section(ShardSectionId::kConfig, "declares zero shards");
  }
  if (cfg.strategy > static_cast<std::uint32_t>(
                         PartitionStrategy::kGreedyLpt)) {
    fail_section(ShardSectionId::kConfig,
                 "declares unknown partition strategy " +
                     std::to_string(cfg.strategy));
  }

  // kShardMeta.
  const auto meta_bytes = payload(ShardSectionId::kShardMeta);
  if (meta_bytes.size() !=
      static_cast<std::size_t>(cfg.shard_count) * sizeof(ShardMetaRecord)) {
    fail_section(ShardSectionId::kShardMeta,
                 "has invalid size (expected one record per shard)");
  }
  std::vector<ShardMetaRecord> meta(cfg.shard_count);
  std::memcpy(meta.data(), meta_bytes.data(), meta_bytes.size());

  // kRemap.
  const auto remap_bytes = payload(ShardSectionId::kRemap);
  if (remap_bytes.size() != cfg.total_sequences * sizeof(SeqId)) {
    fail_section(ShardSectionId::kRemap,
                 "has invalid size (expected one id per sequence)");
  }
  std::vector<SeqId> remap(cfg.total_sequences);
  if (!remap.empty()) {
    std::memcpy(remap.data(), remap_bytes.data(), remap_bytes.size());
  }

  // kPaths: exactly shard_count NUL-terminated names consuming the section.
  const auto paths_bytes = payload(ShardSectionId::kPaths);
  std::vector<std::string> shard_paths;
  shard_paths.reserve(cfg.shard_count);
  std::size_t pos = 0;
  for (std::uint32_t k = 0; k < cfg.shard_count; ++k) {
    const auto* base = reinterpret_cast<const char*>(paths_bytes.data());
    const void* nul = std::memchr(base + pos, '\0', paths_bytes.size() - pos);
    if (nul == nullptr) {
      fail_section(ShardSectionId::kPaths,
                   "is missing a path terminator (truncated payload)");
    }
    const std::size_t len =
        static_cast<const char*>(nul) - (base + pos);
    shard_paths.emplace_back(base + pos, len);
    pos += len + 1;
  }
  if (pos != paths_bytes.size()) {
    fail_section(ShardSectionId::kPaths, "has trailing bytes");
  }

  // Cross-section structural invariants.
  ShardManifest out;
  out.strategy = static_cast<PartitionStrategy>(cfg.strategy);
  out.total_sequences = cfg.total_sequences;
  out.total_residues = cfg.total_residues;
  out.shards.resize(cfg.shard_count);
  std::uint64_t remap_cursor = 0;
  std::uint64_t sum_residues = 0;
  std::vector<bool> covered(cfg.total_sequences, false);
  for (std::uint32_t k = 0; k < cfg.shard_count; ++k) {
    const ShardMetaRecord& rec = meta[k];
    if (rec.remap_offset != remap_cursor) {
      fail_section(ShardSectionId::kShardMeta,
                   "has non-contiguous remap offsets");
    }
    if (rec.num_sequences > cfg.total_sequences - remap_cursor) {
      fail_section(ShardSectionId::kShardMeta,
                   "shard sequence counts exceed total_sequences");
    }
    if (shard_paths[k].empty() != (rec.num_sequences == 0)) {
      fail_section(ShardSectionId::kPaths,
                   "has an empty path for a non-empty shard (or vice versa)");
    }
    ShardManifest::Shard& shard = out.shards[k];
    shard.path = std::move(shard_paths[k]);
    shard.num_sequences = rec.num_sequences;
    shard.num_residues = rec.num_residues;
    shard.index_crc32 = rec.index_crc32;
    shard.to_global.assign(
        remap.begin() + static_cast<std::ptrdiff_t>(remap_cursor),
        remap.begin() +
            static_cast<std::ptrdiff_t>(remap_cursor + rec.num_sequences));
    for (std::size_t i = 0; i < shard.to_global.size(); ++i) {
      const SeqId g = shard.to_global[i];
      if (g >= cfg.total_sequences) {
        fail_section(ShardSectionId::kRemap,
                     "maps a local id outside the database");
      }
      if (covered[g]) {
        fail_section(ShardSectionId::kRemap,
                     "maps the same global id twice");
      }
      covered[g] = true;
      if (i > 0 && shard.to_global[i - 1] >= g) {
        fail_section(ShardSectionId::kRemap,
                     "is not strictly increasing within a shard");
      }
    }
    remap_cursor += rec.num_sequences;
    sum_residues += rec.num_residues;
  }
  if (remap_cursor != cfg.total_sequences) {
    fail_section(ShardSectionId::kShardMeta,
                 "shard sequence counts do not sum to total_sequences");
  }
  if (sum_residues != cfg.total_residues) {
    fail_section(ShardSectionId::kShardMeta,
                 "shard residue counts do not sum to total_residues");
  }
  return out;
}

ShardManifest load_shard_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good() || MUBLASTP_FI_FAIL("shard.manifest")) {
    throw Error("cannot open shard manifest: " + path, ErrorKind::kIo);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad() || MUBLASTP_FI_FAIL("shard.manifest")) {
    throw Error("failed reading shard manifest: " + path, ErrorKind::kIo);
  }
  return parse_shard_manifest(
      {reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()});
}

}  // namespace mublastp::cluster
