// Incremental-build battery (docs/INCREMENTAL.md): the MUGEN01 manifest
// format fails closed under truncation and bit rot; K appended generations
// search bit-identically (rendered report lines included) to a from-scratch
// rebuild of the same database; every build-path injection site leaves the
// database resolvable as one of the two adjacent generations with nothing
// in between; --compact collapses the chain to one canonical member and
// garbage-collects stale files only after its own publish succeeded.
//
// The scripted half of the kill-anywhere campaign — real SIGKILL instead of
// in-process injection — lives in scripts/kill_during_append.sh.
#include "index/generation.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/member_set.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/rng.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index_io.hpp"
#include "report/report.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"
#include "temp_path.hpp"

namespace mublastp {
namespace {

namespace fs = std::filesystem;

class Incremental : public ::testing::Test {
 protected:
  void SetUp() override {
    fi::reset();
    // A private directory per test: generation resolution scans the base
    // path's directory, so sibling tests must not see each other's files.
    dir_ = test_temp_path("gen");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    base_ = dir_ + "/db.mbi";
  }
  void TearDown() override {
    fi::reset();
    fs::remove_all(dir_);
  }

  /// Files currently next to the base path, by name, sorted.
  std::vector<std::string> dir_listing() const {
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(dir_)) {
      names.push_back(e.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  /// Searches the published chain at base_ (strict) and renders every
  /// query's tabular report — the full user-visible output.
  std::string chain_report(const SequenceStore& queries) const {
    const cluster::MemberSet chain = cluster::MemberSet::open_index(
        base_, {{}, {}, /*strict=*/true}, nullptr);
    const cluster::MemberSearchResult res = chain.search(queries, 1);
    std::ostringstream os;
    for (SeqId q = 0; q < queries.size(); ++q) {
      write_tabular(os, queries.name(q), queries.sequence(q),
                    chain.global_db(), res.results[q], blosum62());
    }
    return os.str();
  }

  /// From-scratch reference: one index over `db`, searched and rendered the
  /// same way.
  static std::string rebuild_report(const SequenceStore& db,
                                    const SequenceStore& queries) {
    const DbIndex index = DbIndex::build(db, {});
    const MuBlastpEngine engine{DbIndexView(index)};
    const std::vector<QueryResult> results = engine.search_batch(queries, 1);
    std::ostringstream os;
    for (SeqId q = 0; q < queries.size(); ++q) {
      write_tabular(os, queries.name(q), queries.sequence(q), db, results[q],
                    blosum62());
    }
    return os.str();
  }

  std::string dir_;
  std::string base_;
};

/// Splits a synthetic database into `parts` disjoint batches (append
/// order), returning the batches; `combined[k]` is the concatenation of
/// batches 0..k.
std::vector<SequenceStore> split_batches(const SequenceStore& db,
                                         std::size_t parts) {
  std::vector<SequenceStore> out(parts);
  for (SeqId s = 0; s < db.size(); ++s) {
    out[s % parts].add(db.sequence(s), db.name(s));
  }
  // Re-pack so batches keep the original relative order inside themselves
  // (the modulo walk above already does) and none is empty.
  for (const SequenceStore& b : out) EXPECT_GT(b.size(), 0u);
  return out;
}

void concat_into(SequenceStore& into, const SequenceStore& from) {
  for (SeqId s = 0; s < from.size(); ++s) {
    into.add(from.sequence(s), from.name(s));
  }
}

// --- the differential append campaign --------------------------------------

TEST_F(Incremental, AppendedChainsMatchFromScratchRebuildPerGeneration) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(60000), 99);
  Rng rng(100);
  const SequenceStore queries = synth::sample_queries(db, 3, 80, rng);
  const std::vector<SequenceStore> batches = split_batches(db, 3);

  // Generation 0: the bare base file.
  save_db_index_file_durable(base_, DbIndex::build(batches[0], {}));
  SequenceStore combined;
  concat_into(combined, batches[0]);
  EXPECT_EQ(chain_report(queries), rebuild_report(combined, queries));

  // Generations 1..K: each append must stay bit-identical to a rebuild of
  // the combined database so far — rendered report lines included, which
  // pins E-value pricing over the combined residue count, not the member's.
  for (std::size_t k = 1; k < batches.size(); ++k) {
    const AppendResult appended = append_generation(base_, batches[k]);
    EXPECT_EQ(appended.generation, k);
    EXPECT_EQ(appended.chain_length, k + 1);
    concat_into(combined, batches[k]);

    const ResolvedGeneration res = resolve_generations(base_);
    ASSERT_TRUE(res.manifest.has_value());
    EXPECT_EQ(res.generation, k);
    EXPECT_EQ(res.member_paths.size(), k + 1);
    EXPECT_EQ(res.manifest->total_sequences, combined.size());
    EXPECT_EQ(res.manifest->total_residues, combined.total_residues());

    EXPECT_EQ(chain_report(queries), rebuild_report(combined, queries))
        << "generation " << k;
  }
}

TEST_F(Incremental, ChainSearchMatchesRebuildDownToEveryCounter) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(40000), 7);
  Rng rng(8);
  const SequenceStore queries = synth::sample_queries(db, 2, 64, rng);
  const std::vector<SequenceStore> batches = split_batches(db, 2);

  save_db_index_file_durable(base_, DbIndex::build(batches[0], {}));
  (void)append_generation(base_, batches[1]);

  SequenceStore combined;
  concat_into(combined, batches[0]);
  concat_into(combined, batches[1]);
  const DbIndex full = DbIndex::build(combined, {});
  const MuBlastpEngine engine{DbIndexView(full)};
  const std::vector<QueryResult> expect = engine.search_batch(queries, 1);

  const cluster::MemberSet chain = cluster::MemberSet::open_index(
      base_, {{}, {}, /*strict=*/true}, nullptr);
  EXPECT_EQ(chain.member_count(), 2u);
  EXPECT_EQ(chain.total_residues(), combined.total_residues());
  const cluster::MemberSearchResult got = chain.search(queries, 1);
  ASSERT_EQ(got.results.size(), expect.size());
  for (SeqId q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(got.results[q].alignments.size(),
              expect[q].alignments.size());
    // Stage stats sum over a disjoint subject partition — every field must
    // equal the single-index run, not just the final ranking.
    EXPECT_TRUE(got.results[q].stats == expect[q].stats) << "query " << q;
    for (std::size_t i = 0; i < expect[q].alignments.size(); ++i) {
      EXPECT_EQ(got.results[q].alignments[i].subject,
                expect[q].alignments[i].subject);
      EXPECT_EQ(got.results[q].alignments[i].score,
                expect[q].alignments[i].score);
      EXPECT_EQ(got.results[q].alignments[i].ops,
                expect[q].alignments[i].ops);
    }
  }
}

TEST_F(Incremental, ChainTelemetryIsOnePassOverEveryMembersBlocks) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(40000), 7);
  Rng rng(8);
  const SequenceStore queries = synth::sample_queries(db, 3, 64, rng);
  const std::vector<SequenceStore> batches = split_batches(db, 2);
  DbIndexConfig config;
  config.block_bytes = 16 * 1024;  // several blocks per member
  save_db_index_file_durable(base_, DbIndex::build(batches[0], config));
  (void)append_generation(base_, batches[1]);

  SequenceStore combined;
  concat_into(combined, batches[0]);
  concat_into(combined, batches[1]);
  const DbIndex full = DbIndex::build(combined, config);
  stats::PipelineStats single;
  const std::vector<QueryResult> expect =
      MuBlastpEngine{DbIndexView(full)}.search_batch(queries, 2, &single);

  const cluster::MemberSet chain = cluster::MemberSet::open_index(
      base_, {{}, {}, /*strict=*/true}, nullptr);
  ASSERT_EQ(chain.member_count(), 2u);
  std::size_t member_blocks = 0;
  for (std::uint32_t k = 0; k < chain.member_count(); ++k) {
    member_blocks += DbIndex(chain.member_path(k)).blocks().size();
  }
  EXPECT_GT(member_blocks, 2u);

  stats::PipelineStats ps;
  const cluster::MemberSearchResult got =
      chain.search(queries, 2, cluster::WorkerMode::kThread, nullptr, &ps);
  ASSERT_EQ(got.results.size(), expect.size());
  for (SeqId q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(got.results[q].stats == expect[q].stats) << "query " << q;
    EXPECT_EQ(got.results[q].alignments.size(), expect[q].alignments.size());
  }
  const stats::PipelineSnapshot snap = ps.snapshot();
  EXPECT_TRUE(snap.totals == single.snapshot().totals);
  ASSERT_EQ(snap.per_block.size(), member_blocks);
  for (std::size_t b = 0; b < snap.per_block.size(); ++b) {
    EXPECT_EQ(snap.per_block[b].block, b);
  }
  std::uint64_t member_hits = 0;
  for (const stats::ShardStats& s : got.shards.per_shard) {
    member_hits += s.hits;
  }
  EXPECT_EQ(member_hits, snap.totals.hits);
}

// --- manifest fail-closed sweeps --------------------------------------------

TEST_F(Incremental, ManifestTruncationSweepFailsClosed) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(20000), 3);
  const std::vector<SequenceStore> batches = split_batches(db, 2);
  save_db_index_file_durable(base_, DbIndex::build(batches[0], {}));
  const AppendResult appended = append_generation(base_, batches[1]);

  std::string image;
  {
    std::ifstream in(appended.manifest_path, std::ios::binary);
    image.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(image.size(), 64u);

  // Every prefix-truncation must be kCorrupt — header, section table and
  // payload cuts alike. Resolution fails closed: a damaged NEWEST manifest
  // must never silently fall back to a stale generation.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{11}, std::size_t{63}, std::size_t{64},
        image.size() / 2, image.size() - 1}) {
    {
      std::ofstream out(appended.manifest_path,
                        std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(cut));
    }
    try {
      (void)resolve_generations(base_);
      ADD_FAILURE() << "truncation at " << cut << " bytes was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << "cut=" << cut;
    }
  }
}

TEST_F(Incremental, ManifestBitRotSweepFailsClosedNamingTheSection) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(20000), 4);
  const std::vector<SequenceStore> batches = split_batches(db, 2);
  save_db_index_file_durable(base_, DbIndex::build(batches[0], {}));
  const AppendResult appended = append_generation(base_, batches[1]);

  std::string image;
  {
    std::ifstream in(appended.manifest_path, std::ios::binary);
    image.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }

  // One flipped byte every 16 across the whole image: all damage is
  // detected (kCorrupt), and at least one payload flip names its section.
  bool named_section = false;
  for (std::size_t at = 0; at < image.size(); at += 16) {
    std::string rotten = image;
    rotten[at] = static_cast<char>(rotten[at] ^ 0x40);
    {
      std::ofstream out(appended.manifest_path,
                        std::ios::binary | std::ios::trunc);
      out.write(rotten.data(), static_cast<std::streamsize>(rotten.size()));
    }
    try {
      (void)resolve_generations(base_);
      ADD_FAILURE() << "bit rot at offset " << at << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << "offset " << at;
      if (std::string(e.what()).find("section '") != std::string::npos) {
        named_section = true;
      }
    }
  }
  EXPECT_TRUE(named_section)
      << "no corruption was localized to a named section";
}

TEST_F(Incremental, RottenChainMemberQuarantinesDegradedFailsClosedStrict) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(30000), 5);
  Rng rng(6);
  const SequenceStore queries = synth::sample_queries(db, 2, 64, rng);
  const std::vector<SequenceStore> batches = split_batches(db, 2);
  save_db_index_file_durable(base_, DbIndex::build(batches[0], {}));
  const AppendResult appended = append_generation(base_, batches[1]);

  // Rot the delta member's whole tail (not the manifest).
  {
    std::fstream f(appended.delta_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-64, std::ios::end);
    const char junk[64] = {};
    f.write(junk, sizeof(junk));
  }

  // Strict: the whole-file CRC against the manifest names the member.
  try {
    (void)cluster::MemberSet::open_index(base_, {{}, {}, /*strict=*/true},
                                         nullptr);
    ADD_FAILURE() << "rotten member was accepted strictly";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("chain member 1"),
              std::string::npos)
        << e.what();
  }

  // Degraded: the member (or its rotten blocks) is quarantined, the search
  // completes over the survivors and is marked partial.
  stats::DegradedStats degraded;
  const cluster::MemberSet chain =
      cluster::MemberSet::open_index(base_, {{}, {}, /*strict=*/false},
                                     &degraded);
  EXPECT_TRUE(degraded.partial);
  EXPECT_TRUE(!degraded.quarantined.empty() ||
              !degraded.quarantined_shards.empty());
  const cluster::MemberSearchResult res = chain.search(queries, 1);
  EXPECT_EQ(res.results.size(), queries.size());
}

// --- the kill-anywhere invariant (in-process arm) ---------------------------

TEST_F(Incremental, EveryBuildSiteFailureLeavesAnAdjacentGeneration) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(40000), 21);
  Rng rng(22);
  const SequenceStore queries = synth::sample_queries(db, 2, 64, rng);
  const std::vector<SequenceStore> batches = split_batches(db, 2);

  save_db_index_file_durable(base_, DbIndex::build(batches[0], {}));
  const std::string before = chain_report(queries);

  SequenceStore combined;
  concat_into(combined, batches[0]);
  concat_into(combined, batches[1]);
  const std::string after = rebuild_report(combined, queries);

  // Arm each build site in turn (both rename evaluations for the publish
  // site). After the injected failure the database must resolve to the
  // PREVIOUS generation and search exactly as before; the retry (disarmed,
  // after orphan cleanup) must publish the NEXT generation exactly.
  for (const char* spec :
       {"build.block_write:1", "build.fsync:1", "build.fsync:2",
        "build.manifest_write:1", "build.publish_rename:1",
        "build.publish_rename:2", "build.gc_unlink:1"}) {
    SCOPED_TRACE(spec);
    fi::reset();
    fi::arm_from_spec(spec);
    bool fired = false;
    try {
      (void)append_generation(base_, batches[1]);
    } catch (const Error& e) {
      fired = true;
      EXPECT_EQ(e.kind(), ErrorKind::kIo) << e.what();
    }
    fi::reset();
    if (!fired) {
      // A site that this append never evaluates (e.g. gc_unlink with no
      // orphans) must at least be a clean success; undo it for the next arm.
      const ResolvedGeneration res = resolve_generations(base_);
      ASSERT_TRUE(res.manifest.has_value());
      fs::remove(res.manifest_path);
      fs::remove(res.member_paths.back());
      continue;
    }

    // The failed append is invisible: still the bare generation 0, same
    // report bytes. Orphan temps are allowed — and cleaned on retry.
    const ResolvedGeneration res = resolve_generations(base_);
    EXPECT_EQ(res.generation, 0u) << "partially published!";
    EXPECT_EQ(chain_report(queries), before);

    // Retry heals: orphans removed, generation 1 published, report equals
    // the from-scratch rebuild of the combined database.
    const AppendResult retry = append_generation(base_, batches[1]);
    EXPECT_EQ(retry.generation, 1u);
    EXPECT_EQ(chain_report(queries), after);

    // Roll back to the bare base for the next site.
    fs::remove(retry.delta_path);
    fs::remove(retry.manifest_path);
  }
}

// --- compact + GC -----------------------------------------------------------

TEST_F(Incremental, CompactCollapsesToOneCanonicalMemberAndGcs) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(45000), 31);
  Rng rng(32);
  const SequenceStore queries = synth::sample_queries(db, 2, 64, rng);
  const std::vector<SequenceStore> batches = split_batches(db, 3);

  save_db_index_file_durable(base_, DbIndex::build(batches[0], {}));
  (void)append_generation(base_, batches[1]);
  (void)append_generation(base_, batches[2]);
  const std::string before = chain_report(queries);

  const CompactResult compacted = compact_generations(base_);
  EXPECT_EQ(compacted.generation, 3u);

  // One canonical member, same totals, same report bytes.
  const ResolvedGeneration res = resolve_generations(base_);
  ASSERT_TRUE(res.manifest.has_value());
  EXPECT_EQ(res.generation, 3u);
  ASSERT_EQ(res.member_paths.size(), 1u);
  EXPECT_EQ(res.member_paths[0], compacted.compact_path);
  EXPECT_EQ(chain_report(queries), before);

  // GC: the old base, both deltas and both stale manifests are gone; only
  // the canonical member and its manifest remain.
  EXPECT_EQ(compacted.removed.size(), 5u);
  const std::vector<std::string> names = dir_listing();
  EXPECT_EQ(names, (std::vector<std::string>{"db.mbi.c000003",
                                             "db.mbi.gen000003"}));

  // The canonical member is a plain single index: loadable directly, with
  // the combined counts.
  const DbIndex canonical(compacted.compact_path);
  EXPECT_EQ(canonical.num_sequences(), db.size());
  EXPECT_EQ(canonical.total_residues(), db.total_residues());
}

TEST_F(Incremental, GcFailureAfterCompactLeavesValidNewGeneration) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(25000), 41);
  Rng rng(42);
  const SequenceStore queries = synth::sample_queries(db, 2, 64, rng);
  const std::vector<SequenceStore> batches = split_batches(db, 2);

  save_db_index_file_durable(base_, DbIndex::build(batches[0], {}));
  (void)append_generation(base_, batches[1]);
  const std::string before = chain_report(queries);

  // The new generation publishes BEFORE GC starts, so an unlink failure
  // mid-GC leaves extra (stale) files but a fully valid database.
  fi::arm("build.gc_unlink", 1);
  try {
    (void)compact_generations(base_);
    ADD_FAILURE() << "armed build.gc_unlink did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
  fi::reset();

  const ResolvedGeneration res = resolve_generations(base_);
  ASSERT_TRUE(res.manifest.has_value());
  EXPECT_EQ(res.generation, 2u);
  EXPECT_EQ(res.member_paths.size(), 1u);
  EXPECT_EQ(chain_report(queries), before);

  // A second compact finishes the GC (compacting the compacted chain).
  const CompactResult again = compact_generations(base_);
  EXPECT_EQ(again.generation, 3u);
  EXPECT_EQ(chain_report(queries), before);
}

// --- orphan temps -----------------------------------------------------------

TEST_F(Incremental, OrphanTempsAreDetectedAndCleaned) {
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(20000), 51);
  const std::vector<SequenceStore> batches = split_batches(db, 2);
  save_db_index_file_durable(base_, DbIndex::build(batches[0], {}));

  // Fake the debris of a crashed publish.
  for (const char* name : {"db.mbi.d000001.tmp", "db.mbi.gen000001.tmp"}) {
    std::ofstream(dir_ + "/" + name) << "leftover";
  }
  const ResolvedGeneration res = resolve_generations(base_);
  EXPECT_EQ(res.generation, 0u);  // temps never resolve
  EXPECT_EQ(res.orphan_temps.size(), 2u);

  // The next build operation removes them.
  const AppendResult appended = append_generation(base_, batches[1]);
  EXPECT_EQ(appended.orphans_removed, 2u);
  EXPECT_TRUE(resolve_generations(base_).orphan_temps.empty());
}

}  // namespace
}  // namespace mublastp
