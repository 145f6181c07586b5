#include "index/generation.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/checksum.hpp"
#include "common/durable.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/sectioned_file.hpp"
#include "index/db_index_format.hpp"
#include "index/db_index_io.hpp"
#include "score/matrix.hpp"

namespace mublastp {
namespace {

namespace fs = std::filesystem;

using sectioned::append_pod;

constexpr std::uint32_t raw(GenSectionId id) {
  return static_cast<std::uint32_t>(id);
}

// Listed in id order, so section id k is at position k - 1.
constexpr sectioned::SectionName kSections[] = {
    {raw(GenSectionId::kConfig), "config"},
    {raw(GenSectionId::kMemberMeta), "member-meta"},
    {raw(GenSectionId::kPaths), "paths"},
};

constexpr sectioned::Format kFormat{
    "generation manifest", std::string_view("MUGEN01\0\0\0\0\0", 12),
    kGenerationManifestVersion, kSections, /*pad_tail=*/true};

[[noreturn]] void fail_section(GenSectionId id, const std::string& what) {
  sectioned::fail_section(kFormat, raw(id), what);
}

std::string basename_of(const std::string& path) {
  return fs::path(path).filename().string();
}

std::string dirname_of(const std::string& path) {
  std::string dir = fs::path(path).parent_path().string();
  return dir.empty() ? std::string(".") : dir;
}

std::string join_dir(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / name).string();
}

std::string suffix_path(const std::string& base, const char* tag,
                        std::uint32_t gen) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%s%06u", tag, gen);
  return base + buf;
}

/// Total residues of a v3 index file without loading it: the arena section
/// stores exactly one byte per residue, so its recorded length IS the
/// residue count.
std::uint64_t residues_of_index_file(const std::string& path) {
  const DbIndexFileInfo info = describe_db_index_file(path);
  for (const IndexSectionInfo& s : info.sections) {
    if (s.id == static_cast<std::uint32_t>(SectionId::kArena)) {
      return s.length;
    }
  }
  throw Error("index section 'arena' is missing from the file: " + path,
              ErrorKind::kCorrupt);
}

/// Build config for delta/compact members, from the chain's manifest.
DbIndexConfig chain_build_config(const GenerationManifest& m,
                                 int build_threads) {
  DbIndexConfig cfg;
  cfg.block_bytes = m.block_bytes;
  cfg.matrix = &matrix_by_name(m.matrix_name);
  cfg.neighbor_threshold = m.neighbor_threshold;
  cfg.long_seq_limit = m.long_seq_limit;
  cfg.long_seq_overlap = m.long_seq_overlap;
  cfg.build_threads = build_threads;
  return cfg;
}

/// Unlinks one file through the "build.gc_unlink" injection site. A
/// missing file is fine (an earlier GC got it); any other failure throws.
bool gc_unlink(const std::string& path) {
  MUBLASTP_CHECK_KIND(!MUBLASTP_FI_FAIL("build.gc_unlink"), ErrorKind::kIo,
                      "injected unlink failure (build.gc_unlink): " + path);
  if (::unlink(path.c_str()) == 0) return true;
  MUBLASTP_CHECK_KIND(errno == ENOENT, ErrorKind::kIo,
                      "cannot unlink stale file '" + path +
                          "': " + std::strerror(errno));
  return false;
}

}  // namespace

std::uint32_t file_crc32(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo,
                      "cannot open for checksum: " + path);
  std::uint32_t crc = 0;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    crc = crc32(buf, static_cast<std::size_t>(in.gcount()), crc);
  }
  MUBLASTP_CHECK_KIND(!in.bad(), ErrorKind::kIo,
                      "read failure while checksumming: " + path);
  return crc;
}

std::string_view gen_section_name(GenSectionId id) {
  return sectioned::section_name(kFormat, raw(id));
}

std::string generation_manifest_path(const std::string& base_path,
                                     std::uint32_t gen) {
  return suffix_path(base_path, ".gen", gen);
}

std::string delta_member_path(const std::string& base_path,
                              std::uint32_t gen) {
  return suffix_path(base_path, ".d", gen);
}

std::string compact_member_path(const std::string& base_path,
                                std::uint32_t gen) {
  return suffix_path(base_path, ".c", gen);
}

std::string serialize_generation_manifest(
    const GenerationManifest& manifest) {
  MUBLASTP_CHECK(manifest.generation >= 1,
                 "generation manifests start at generation 1");
  MUBLASTP_CHECK(!manifest.members.empty(),
                 "generation manifest needs at least one member");
  MUBLASTP_CHECK(!manifest.matrix_name.empty(),
                 "generation manifest needs the build matrix name");

  // Writer-side invariant checks: the loader enforces these, so a writer
  // bug should fail loudly here, not at the next load.
  std::uint64_t id_cursor = 0;
  std::uint64_t sum_residues = 0;
  for (const GenerationMember& m : manifest.members) {
    MUBLASTP_CHECK(!m.path.empty(), "member path must not be empty");
    MUBLASTP_CHECK(m.path.find('\0') == std::string::npos,
                   "member path must not contain NUL");
    MUBLASTP_CHECK(m.num_sequences > 0, "member must hold sequences");
    MUBLASTP_CHECK(m.id_offset == id_cursor,
                   "member id offsets must be contiguous");
    id_cursor += m.num_sequences;
    sum_residues += m.num_residues;
  }
  MUBLASTP_CHECK(id_cursor == manifest.total_sequences,
                 "member sequence counts must sum to total_sequences");
  MUBLASTP_CHECK(sum_residues == manifest.total_residues,
                 "member residue counts must sum to total_residues");

  GenConfigRecord cfg{};
  cfg.generation = manifest.generation;
  cfg.member_count = manifest.member_count();
  cfg.total_sequences = manifest.total_sequences;
  cfg.total_residues = manifest.total_residues;
  cfg.block_bytes = manifest.block_bytes;
  cfg.neighbor_threshold = manifest.neighbor_threshold;
  cfg.matrix_name_len =
      static_cast<std::uint32_t>(manifest.matrix_name.size());
  cfg.long_seq_limit = manifest.long_seq_limit;
  cfg.long_seq_overlap = manifest.long_seq_overlap;
  sectioned::Payload sections[] = {{raw(GenSectionId::kConfig), {}},
                                   {raw(GenSectionId::kMemberMeta), {}},
                                   {raw(GenSectionId::kPaths), {}}};
  append_pod(sections[0].bytes, cfg);
  sections[0].bytes += manifest.matrix_name;
  for (const GenerationMember& m : manifest.members) {
    GenMemberRecord rec{};
    rec.num_sequences = m.num_sequences;
    rec.num_residues = m.num_residues;
    rec.id_offset = m.id_offset;
    rec.index_crc32 = m.index_crc32;
    rec.reserved = 0;
    append_pod(sections[1].bytes, rec);
    sections[2].bytes.append(m.path);
    sections[2].bytes.push_back('\0');
  }
  return sectioned::write(kFormat, sections);
}

GenerationManifest parse_generation_manifest(
    std::span<const std::byte> image) {
  const std::vector<sectioned::Section> sections =
      sectioned::parse(kFormat, image);
  const auto payload = [&](GenSectionId id) {
    return sections[raw(id) - 1].bytes;
  };

  // kConfig: fixed record + matrix name.
  const auto cfg_bytes = payload(GenSectionId::kConfig);
  if (cfg_bytes.size() < sizeof(GenConfigRecord)) {
    fail_section(GenSectionId::kConfig, "has invalid size");
  }
  GenConfigRecord cfg{};
  std::memcpy(&cfg, cfg_bytes.data(), sizeof(cfg));
  if (cfg.generation == 0) {
    fail_section(GenSectionId::kConfig, "declares generation zero");
  }
  if (cfg.member_count == 0) {
    fail_section(GenSectionId::kConfig, "declares zero members");
  }
  if (cfg.matrix_name_len == 0 || cfg.matrix_name_len > (1u << 10) ||
      sizeof(GenConfigRecord) + cfg.matrix_name_len != cfg_bytes.size()) {
    fail_section(GenSectionId::kConfig, "has an implausible matrix name");
  }

  GenerationManifest out;
  out.generation = cfg.generation;
  out.total_sequences = cfg.total_sequences;
  out.total_residues = cfg.total_residues;
  out.block_bytes = cfg.block_bytes;
  out.neighbor_threshold = cfg.neighbor_threshold;
  out.matrix_name.assign(
      reinterpret_cast<const char*>(cfg_bytes.data()) +
          sizeof(GenConfigRecord),
      cfg.matrix_name_len);
  out.long_seq_limit = cfg.long_seq_limit;
  out.long_seq_overlap = cfg.long_seq_overlap;

  // kMemberMeta.
  const auto meta_bytes = payload(GenSectionId::kMemberMeta);
  if (meta_bytes.size() !=
      static_cast<std::size_t>(cfg.member_count) * sizeof(GenMemberRecord)) {
    fail_section(GenSectionId::kMemberMeta,
                 "has invalid size (expected one record per member)");
  }
  std::vector<GenMemberRecord> meta(cfg.member_count);
  std::memcpy(meta.data(), meta_bytes.data(), meta_bytes.size());

  // kPaths: exactly member_count NUL-terminated names consuming the
  // section.
  const auto paths_bytes = payload(GenSectionId::kPaths);
  std::vector<std::string> member_paths;
  member_paths.reserve(cfg.member_count);
  std::size_t pos = 0;
  for (std::uint32_t k = 0; k < cfg.member_count; ++k) {
    const auto* base = reinterpret_cast<const char*>(paths_bytes.data());
    const void* nul =
        std::memchr(base + pos, '\0', paths_bytes.size() - pos);
    if (nul == nullptr) {
      fail_section(GenSectionId::kPaths,
                   "is missing a path terminator (truncated payload)");
    }
    const std::size_t len = static_cast<const char*>(nul) - (base + pos);
    member_paths.emplace_back(base + pos, len);
    pos += len + 1;
  }
  if (pos != paths_bytes.size()) {
    fail_section(GenSectionId::kPaths, "has trailing bytes");
  }

  // Cross-section structural invariants.
  out.members.resize(cfg.member_count);
  std::uint64_t id_cursor = 0;
  std::uint64_t sum_residues = 0;
  for (std::uint32_t k = 0; k < cfg.member_count; ++k) {
    const GenMemberRecord& rec = meta[k];
    if (rec.id_offset != id_cursor) {
      fail_section(GenSectionId::kMemberMeta,
                   "has non-contiguous member id offsets");
    }
    if (rec.num_sequences == 0) {
      fail_section(GenSectionId::kMemberMeta, "declares an empty member");
    }
    if (rec.num_sequences > cfg.total_sequences - id_cursor) {
      fail_section(GenSectionId::kMemberMeta,
                   "member sequence counts exceed total_sequences");
    }
    if (member_paths[k].empty()) {
      fail_section(GenSectionId::kPaths, "has an empty member path");
    }
    GenerationMember& m = out.members[k];
    m.path = std::move(member_paths[k]);
    m.num_sequences = rec.num_sequences;
    m.num_residues = rec.num_residues;
    m.id_offset = rec.id_offset;
    m.index_crc32 = rec.index_crc32;
    id_cursor += rec.num_sequences;
    sum_residues += rec.num_residues;
  }
  if (id_cursor != cfg.total_sequences) {
    fail_section(GenSectionId::kMemberMeta,
                 "member sequence counts do not sum to total_sequences");
  }
  if (sum_residues != cfg.total_residues) {
    fail_section(GenSectionId::kMemberMeta,
                 "member residue counts do not sum to total_residues");
  }
  return out;
}

std::string save_generation_manifest(const std::string& base_path,
                                     const GenerationManifest& manifest) {
  const std::string image = serialize_generation_manifest(manifest);
  const std::string final_path =
      generation_manifest_path(base_path, manifest.generation);
  const std::string tmp = durable::temp_path_for(final_path);
  durable::write_file_durable(tmp, image, "build.manifest_write",
                              "build.fsync");
  // The commit point: after this rename + dir fsync, readers resolve the
  // new generation; before it, they resolve the previous one.
  durable::publish_rename(tmp, final_path, "build.publish_rename",
                          "build.fsync");
  return final_path;
}

GenerationManifest load_generation_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good() || MUBLASTP_FI_FAIL("io.read")) {
    throw Error("cannot open generation manifest: " + path, ErrorKind::kIo);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad() || MUBLASTP_FI_FAIL("io.read")) {
    throw Error("failed reading generation manifest: " + path,
                ErrorKind::kIo);
  }
  return parse_generation_manifest(
      {reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()});
}

ResolvedGeneration resolve_generations(const std::string& base_path) {
  ResolvedGeneration res;
  const std::string dir = dirname_of(base_path);
  const std::string base_name = basename_of(base_path);
  const std::string gen_prefix = base_name + ".gen";

  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(base_name, 0) != 0) continue;  // not ours
    if (durable::is_temp_path(name)) {
      res.orphan_temps.push_back(join_dir(dir, name));
      continue;
    }
    if (name.rfind(gen_prefix, 0) != 0) continue;
    const std::string digits = name.substr(gen_prefix.size());
    if (digits.size() < 6 ||
        !std::all_of(digits.begin(), digits.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      continue;
    }
    res.all_generations.push_back(
        static_cast<std::uint32_t>(std::strtoul(digits.c_str(), nullptr,
                                                10)));
  }
  std::sort(res.all_generations.begin(), res.all_generations.end());
  res.all_generations.erase(std::unique(res.all_generations.begin(),
                                        res.all_generations.end()),
                            res.all_generations.end());
  std::sort(res.orphan_temps.begin(), res.orphan_temps.end());

  if (res.all_generations.empty()) {
    // Generation 0: the bare base file, if present.
    res.generation = 0;
    if (fs::exists(base_path, ec) && !ec) {
      res.member_paths.push_back(base_path);
    }
    return res;
  }

  // Highest-numbered manifest wins; published-after-fsync means damage
  // here is real bit rot, so fail closed rather than silently serving a
  // stale generation.
  res.generation = res.all_generations.back();
  res.manifest_path = generation_manifest_path(base_path, res.generation);
  res.manifest = load_generation_manifest(res.manifest_path);
  for (const GenerationMember& m : res.manifest->members) {
    res.member_paths.push_back(join_dir(dir, m.path));
  }
  return res;
}

std::size_t clean_orphan_temps(const std::string& base_path) {
  const ResolvedGeneration res = resolve_generations(base_path);
  std::size_t removed = 0;
  for (const std::string& orphan : res.orphan_temps) {
    if (gc_unlink(orphan)) ++removed;
  }
  return removed;
}

AppendResult append_generation(const std::string& base_path,
                               const SequenceStore& new_seqs,
                               int build_threads) {
  MUBLASTP_CHECK(!new_seqs.empty(), "nothing to append: no new sequences");
  AppendResult out;
  out.orphans_removed = clean_orphan_temps(base_path);
  const ResolvedGeneration res = resolve_generations(base_path);

  GenerationManifest next;
  if (res.generation == 0) {
    MUBLASTP_CHECK_KIND(!res.member_paths.empty(), ErrorKind::kIo,
                        "cannot append: base index not found: " + base_path);
    // First append: lift the base file into the chain as member 0, taking
    // the build config from its own config section.
    const IndexConfigSummary cfg = read_index_config_file(base_path);
    next.block_bytes = cfg.block_bytes;
    next.neighbor_threshold = cfg.neighbor_threshold;
    next.matrix_name = cfg.matrix_name;
    next.long_seq_limit = cfg.long_seq_limit;
    next.long_seq_overlap = cfg.long_seq_overlap;
    GenerationMember base{};
    base.path = basename_of(base_path);
    base.num_sequences = cfg.num_seqs;
    base.num_residues = residues_of_index_file(base_path);
    base.id_offset = 0;
    base.index_crc32 = file_crc32(base_path);
    next.members.push_back(std::move(base));
    next.total_sequences = cfg.num_seqs;
    next.total_residues = next.members.back().num_residues;
  } else {
    next = *res.manifest;
  }
  next.generation = res.generation + 1;

  // Build the delta with the chain's exact parameters, then durably write
  // it under its final name BEFORE the manifest referencing it publishes.
  const DbIndexConfig cfg = chain_build_config(next, build_threads);
  const DbIndex delta = DbIndex::build(new_seqs, cfg, &out.telemetry);
  out.delta_path = delta_member_path(base_path, next.generation);
  GenerationMember m{};
  m.index_crc32 = save_db_index_file_durable(out.delta_path, delta);
  m.path = basename_of(out.delta_path);
  m.num_sequences = new_seqs.size();
  m.num_residues = new_seqs.total_residues();
  m.id_offset = next.total_sequences;
  next.members.push_back(std::move(m));
  next.total_sequences += new_seqs.size();
  next.total_residues += new_seqs.total_residues();

  out.manifest_path = save_generation_manifest(base_path, next);
  out.generation = next.generation;
  out.chain_length = next.member_count();
  return out;
}

CompactResult compact_generations(const std::string& base_path,
                                  int build_threads) {
  CompactResult out;
  out.orphans_removed = clean_orphan_temps(base_path);
  const ResolvedGeneration res = resolve_generations(base_path);
  MUBLASTP_CHECK(res.generation >= 1,
                 "nothing to compact: no generation manifests next to " +
                     base_path);
  const GenerationManifest prev = *res.manifest;

  // Reassemble the database in global original-id order (members are a
  // partition in append order, so this is just concatenation of each
  // member's original-order store).
  SequenceStore global;
  for (std::size_t k = 0; k < prev.members.size(); ++k) {
    const DbIndex member = load_db_index_file(res.member_paths[k]);
    MUBLASTP_CHECK_KIND(member.db().size() == prev.members[k].num_sequences,
                        ErrorKind::kCorrupt,
                        "member '" + res.member_paths[k] +
                            "' disagrees with the manifest sequence count");
    for (SeqId local = 0; local < member.db().size(); ++local) {
      const SeqId sorted = member.sorted_id(local);
      global.add(member.db().sequence(sorted), member.db().name(sorted));
    }
  }
  MUBLASTP_CHECK_KIND(global.size() == prev.total_sequences &&
                          global.total_residues() == prev.total_residues,
                      ErrorKind::kCorrupt,
                      "chain members disagree with the manifest totals");

  // One canonical member: the full DbIndex::build re-sorts the combined
  // database by length, restoring the single-index layout.
  const DbIndexConfig cfg = chain_build_config(prev, build_threads);
  const DbIndex canonical = DbIndex::build(global, cfg, &out.telemetry);
  out.generation = prev.generation + 1;
  out.compact_path = compact_member_path(base_path, out.generation);
  const std::uint32_t compact_crc =
      save_db_index_file_durable(out.compact_path, canonical);

  GenerationManifest next;
  next.generation = out.generation;
  next.total_sequences = prev.total_sequences;
  next.total_residues = prev.total_residues;
  next.block_bytes = prev.block_bytes;
  next.neighbor_threshold = prev.neighbor_threshold;
  next.matrix_name = prev.matrix_name;
  next.long_seq_limit = prev.long_seq_limit;
  next.long_seq_overlap = prev.long_seq_overlap;
  GenerationMember m{};
  m.path = basename_of(out.compact_path);
  m.num_sequences = prev.total_sequences;
  m.num_residues = prev.total_residues;
  m.id_offset = 0;
  m.index_crc32 = compact_crc;
  next.members.push_back(std::move(m));
  save_generation_manifest(base_path, next);

  // GC only AFTER the new generation is durably published: stale members
  // (including the original base file once it joined a chain) and every
  // older manifest. A failure mid-GC leaves extra files, never an invalid
  // database — the next compact retries.
  for (const std::string& member : res.member_paths) {
    if (gc_unlink(member)) out.removed.push_back(member);
  }
  for (const std::uint32_t g : res.all_generations) {
    const std::string stale = generation_manifest_path(base_path, g);
    if (gc_unlink(stale)) out.removed.push_back(stale);
  }
  return out;
}

}  // namespace mublastp
