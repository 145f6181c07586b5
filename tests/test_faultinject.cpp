// Fault-injection battery: the arming/counting semantics of the framework
// itself, then a recovery test per registered site — every site either
// fails with the documented typed Error (clean-failure path) or degrades
// with the documented quarantine/retry recovery, and degraded runs are
// reflected in the stats-v1 "degraded" object.
#include "common/faultinject.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <functional>
#include <string>
#include <vector>

#include "cluster/member_set.hpp"
#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "core/mublastp_engine.hpp"
#include "index/db_index_io.hpp"
#include "stats/stats.hpp"
#include "synth/synth.hpp"
#include "temp_path.hpp"

namespace mublastp {
namespace {

// Every test starts and ends disarmed so the battery can run in any order.
class FaultInject : public ::testing::Test {
 protected:
  void SetUp() override { fi::reset(); }
  void TearDown() override { fi::reset(); }

  // Runs `fn` expecting a mublastp::Error of kind `kind`; returns what().
  template <typename Fn>
  static std::string expect_kind(Fn&& fn, ErrorKind kind,
                                 const std::string& context) {
    try {
      fn();
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), kind)
          << context << ": kind was " << error_kind_name(e.kind())
          << " for \"" << e.what() << "\"";
      return e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << context << ": non-mublastp exception: " << e.what();
      return {};
    }
    ADD_FAILURE() << context << ": armed fault did not surface";
    return {};
  }
};

// --- framework semantics ---------------------------------------------------

TEST_F(FaultInject, RegistryIsSortedAndSelfConsistent) {
  const auto sites = fi::registered_sites();
  ASSERT_GE(sites.size(), 10u);
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end(),
                             [](const char* a, const char* b) {
                               return std::string_view(a) < b;
                             }));
  for (const char* s : sites) {
    EXPECT_TRUE(fi::is_registered(s)) << s;
  }
  for (const char* s : {"index.crc", "index.mmap", "index.open",
                        "index.prefault", "io.read", "alloc.workspace",
                        "stage.ungapped", "checkpoint.write",
                        "checkpoint.dirsync", "shard.manifest",
                        "shard.worker", "build.block_write", "build.fsync",
                        "build.manifest_write", "build.publish_rename",
                        "build.gc_unlink"}) {
    EXPECT_TRUE(fi::is_registered(s)) << s;
  }
  EXPECT_FALSE(fi::is_registered("no.such.site"));
}

TEST_F(FaultInject, ArmRejectsUnknownSitesAndZeroNth) {
  expect_kind([] { fi::arm("no.such.site", 1); }, ErrorKind::kInvalid,
              "unknown site");
  expect_kind([] { fi::arm("io.read", 0); }, ErrorKind::kInvalid, "nth=0");
  EXPECT_FALSE(fi::any_armed());
}

TEST_F(FaultInject, SpecParsing) {
  fi::arm_from_spec("index.crc:2,io.read:1:5");
  EXPECT_TRUE(fi::any_armed());
  fi::reset();
  expect_kind([] { fi::arm_from_spec("io.read"); }, ErrorKind::kInvalid,
              "missing nth");
  expect_kind([] { fi::arm_from_spec("io.read:x"); }, ErrorKind::kInvalid,
              "non-numeric nth");
  expect_kind([] { fi::arm_from_spec("bogus.site:1"); }, ErrorKind::kInvalid,
              "unknown site in spec");
  EXPECT_FALSE(fi::any_armed());
}

TEST_F(FaultInject, FiresExactlyOnNthAndIsSingleShot) {
  fi::arm("io.read", 3);
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) fired.push_back(fi::should_fail("io.read"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(fi::call_count("io.read"), 5u);
}

TEST_F(FaultInject, ConsecutiveArmsDriveRetryPaths) {
  fi::arm_from_spec("io.read:1,io.read:2");
  EXPECT_TRUE(fi::should_fail("io.read"));
  EXPECT_TRUE(fi::should_fail("io.read"));
  EXPECT_FALSE(fi::should_fail("io.read"));
}

TEST_F(FaultInject, FiringSetsRequestedErrno) {
  fi::arm("index.mmap", 1, ENOMEM);
  errno = 0;
  EXPECT_TRUE(fi::should_fail("index.mmap"));
  EXPECT_EQ(errno, ENOMEM);
}

TEST_F(FaultInject, ShardSitesCountAndFireIndependently) {
  // The sharded-execution sites obey the same arm/count semantics as the
  // rest of the registry; their recovery paths (quarantine vs strict
  // fail-closed, both worker modes) are proven end-to-end in
  // tests/test_shards.cpp.
  fi::arm_from_spec("shard.manifest:1,shard.worker:2");
  EXPECT_TRUE(fi::should_fail("shard.manifest"));
  EXPECT_FALSE(fi::should_fail("shard.worker"));
  EXPECT_TRUE(fi::should_fail("shard.worker"));
  EXPECT_FALSE(fi::should_fail("shard.worker"));  // single-shot
  EXPECT_EQ(fi::call_count("shard.manifest"), 1u);
  EXPECT_EQ(fi::call_count("shard.worker"), 3u);
}

TEST_F(FaultInject, BuildSitesCountAndFireIndependently) {
  // The incremental-build sites share the registry semantics; their
  // recovery paths (kill-anywhere publish, orphan cleanup, GC) are proven
  // end-to-end in tests/test_incremental.cpp and
  // scripts/kill_during_append.sh.
  fi::arm_from_spec("build.fsync:1,build.publish_rename:2");
  EXPECT_TRUE(fi::should_fail("build.fsync"));
  EXPECT_FALSE(fi::should_fail("build.publish_rename"));  // data rename
  EXPECT_TRUE(fi::should_fail("build.publish_rename"));   // manifest rename
  EXPECT_EQ(fi::call_count("build.fsync"), 1u);
  EXPECT_EQ(fi::call_count("build.publish_rename"), 2u);
}

TEST_F(FaultInject, DisarmedSitesAreNoops) {
  EXPECT_FALSE(fi::any_armed());
  EXPECT_FALSE(fi::should_fail("io.read"));
  EXPECT_FALSE(MUBLASTP_FI_FAIL("io.read"));
}

// A failed check ends in " at <file>:<line>", the file named without its
// directory, so the message (and a stats-v1 reason that quotes it) is the
// same from every checkout. Checked on a check in this file and on one in
// the library.
TEST(CheckFailure, MessageNamesTheFileWithoutItsDirectory) {
  const auto location = [](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const Error& e) {
      const std::string what = e.what();
      const std::size_t at = what.rfind(" at ");
      return at == std::string::npos ? std::string() : what.substr(at + 4);
    }
    return std::string("(no throw)");
  };
  const int line = __LINE__ + 1;
  const auto here = [] { MUBLASTP_CHECK(false, "always fails"); };
  EXPECT_EQ(location(here), "test_faultinject.cpp:" + std::to_string(line));

  const std::string lib =
      location([] { (void)DbIndex::optimal_block_bytes(1, 0); });
  const std::size_t colon = lib.rfind(':');
  ASSERT_NE(colon, std::string::npos) << lib;
  EXPECT_EQ(lib.substr(0, colon), "db_index.cpp");
  EXPECT_EQ(lib.find('/'), std::string::npos) << lib;
  EXPECT_GT(std::stoi(lib.substr(colon + 1)), 0) << lib;
}

// --- per-site recovery matrix ----------------------------------------------
//
// One fixture owning a small multi-block index on disk plus a query batch,
// so each site can be driven through the real load/search pipeline.

class FaultInjectPipeline : public FaultInject {
 protected:
  static void SetUpTestSuite() {
    const SequenceStore db =
        synth::generate_database(synth::sprot_like(30000), 77);
    DbIndexConfig cfg;
    cfg.block_bytes = 8 * 1024;
    index_ = new DbIndex(DbIndex::build(db, cfg));
    path_ = new std::string(test_temp_path("index.mbi"));
    save_db_index_file(*path_, *index_);

    queries_ = new SequenceStore();
    const SequenceStore qsrc =
        synth::generate_database(synth::sprot_like(1500), 4242);
    for (SeqId q = 0; q < 3 && q < qsrc.size(); ++q) {
      queries_->add(qsrc.sequence(q), qsrc.name(q));
    }
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete index_;
    delete path_;
    delete queries_;
    index_ = nullptr;
    path_ = nullptr;
    queries_ = nullptr;
  }

  static const DbIndex& index() { return *index_; }
  static DbIndexOpenOptions read_options() {
    DbIndexOpenOptions o;
    o.mmap = false;
    return o;
  }
  static const std::string& path() { return *path_; }
  static const SequenceStore& queries() { return *queries_; }

  static std::size_t num_blocks() { return index_->blocks().size(); }

  static DbIndex* index_;
  static std::string* path_;
  static SequenceStore* queries_;
};

DbIndex* FaultInjectPipeline::index_ = nullptr;
std::string* FaultInjectPipeline::path_ = nullptr;
SequenceStore* FaultInjectPipeline::queries_ = nullptr;

// Site "alloc.workspace": strict mode fails the batch with kResource.
TEST_F(FaultInjectPipeline, AllocWorkspaceStrictFailsResource) {
  const MuBlastpEngine engine{DbIndexView(index())};
  fi::arm("alloc.workspace", 1);
  expect_kind([&] { (void)engine.search_batch(queries(), 1); },
              ErrorKind::kResource, "alloc.workspace strict");
}

// Site "alloc.workspace": degraded mode quarantines the failing block and
// finishes the search over the survivors.
TEST_F(FaultInjectPipeline, AllocWorkspaceDegradedQuarantines) {
  ASSERT_GE(num_blocks(), 2u);
  const MuBlastpEngine engine{DbIndexView(index())};
  fi::arm("alloc.workspace", 1);
  stats::DegradedStats degraded;
  const auto results = engine.search_batch(queries(), 1, nullptr, &degraded);
  EXPECT_EQ(results.size(), queries().size());
  ASSERT_EQ(degraded.quarantined.size(), 1u);
  EXPECT_EQ(degraded.quarantined[0].block, 0u);  // first round is block 0
  EXPECT_NE(degraded.quarantined[0].reason.find("alloc.workspace"),
            std::string::npos)
      << degraded.quarantined[0].reason;
  EXPECT_TRUE(degraded.partial);
}

// Site "stage.ungapped", Nth-call arming: entry 1 fires in block 0 (and
// aborts its remaining rounds), so entry 2 fires in block 1 — two blocks
// quarantined, the rest searched.
TEST_F(FaultInjectPipeline, StageUngappedNthCallQuarantinesLaterBlock) {
  ASSERT_GE(num_blocks(), 3u);
  const MuBlastpEngine engine{DbIndexView(index())};
  fi::arm_from_spec("stage.ungapped:1,stage.ungapped:2");
  stats::DegradedStats degraded;
  const auto results = engine.search_batch(queries(), 1, nullptr, &degraded);
  EXPECT_EQ(results.size(), queries().size());
  ASSERT_EQ(degraded.quarantined.size(), 2u);
  EXPECT_EQ(degraded.quarantined[0].block, 0u);
  EXPECT_EQ(degraded.quarantined[1].block, 1u);
  EXPECT_TRUE(degraded.partial);
}

TEST_F(FaultInjectPipeline, StageUngappedStrictFailsTyped) {
  const MuBlastpEngine engine{DbIndexView(index())};
  fi::arm("stage.ungapped", 2);
  try {
    (void)engine.search_batch(queries(), 1);
    ADD_FAILURE() << "armed stage.ungapped did not surface";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stage.ungapped"),
              std::string::npos);
  }
}

// Site "index.crc": an injected checksum mismatch is kCorrupt in strict
// mode; in tolerant mode the localization walk finds no rotten block (the
// bytes are actually fine), which must fail closed too — for EVERY section.
TEST_F(FaultInjectPipeline, IndexCrcFailsClosedAtEverySection) {
  const DbIndexFileInfo info = describe_db_index_file(path());
  ASSERT_FALSE(info.sections.empty());
  bool saw_unlocalized = false;
  for (std::size_t nth = 1; nth <= info.sections.size(); ++nth) {
    fi::reset();
    fi::arm("index.crc", nth);
    expect_kind([&] { DbIndex strict(path(), read_options()); },
                ErrorKind::kCorrupt,
                "index.crc strict nth=" + std::to_string(nth));

    fi::reset();
    fi::arm("index.crc", nth);
    std::vector<BlockQuarantine> quarantined;
    DbIndexOpenOptions opts = read_options();
    opts.tolerate_block_corruption = true;
    const std::string what = expect_kind(
        [&] { quarantined = DbIndex(path(), opts).quarantined(); },
        ErrorKind::kCorrupt, "index.crc tolerant nth=" + std::to_string(nth));
    EXPECT_TRUE(quarantined.empty());
    if (what.find("no per-block checksum") != std::string::npos) {
      saw_unlocalized = true;
    }
  }
  EXPECT_TRUE(saw_unlocalized)
      << "no section exercised the cannot-localize tolerant path";
}

// Site "index.open": both opens fail with kIo; Nth-call arming fails the
// Nth open only.
TEST_F(FaultInjectPipeline, IndexOpenFailsIo) {
  fi::arm("index.open", 1);
  expect_kind([&] { DbIndex m(path(), read_options()); }, ErrorKind::kIo,
              "index.open read");
  fi::reset();
  fi::arm("index.open", 1);
  expect_kind([&] { DbIndex m(path()); }, ErrorKind::kIo, "index.open mmap");
  fi::reset();
  fi::arm("index.open", 2);
  EXPECT_NO_THROW(DbIndex first(path(), read_options()));  // 1st open fine
  expect_kind([&] { DbIndex m(path(), read_options()); }, ErrorKind::kIo,
              "index.open second open");
}

// Site "index.mmap": the map call fails with kResource; an immediate retry
// succeeds (single-shot), which is the tool's retry recovery.
TEST_F(FaultInjectPipeline, IndexMmapFailsResourceThenRetrySucceeds) {
  fi::arm("index.mmap", 1);
  expect_kind([&] { DbIndex m(path()); }, ErrorKind::kResource,
              "index.mmap");
  EXPECT_NO_THROW(DbIndex retry(path()));
}

// Site "index.mmap" on two calls in a row: a degraded open maps, retries
// once, then reads the file, and the member searches exactly like a clean
// open. A strict open fails with the map's kResource instead.
TEST_F(FaultInjectPipeline, IndexMmapTwiceFallsBackToReadingTheFile) {
  const cluster::MemberSetOptions degraded_opts;
  stats::DegradedStats clean_degraded;
  const cluster::MemberSet clean =
      cluster::MemberSet::open_index(path(), degraded_opts, &clean_degraded);
  EXPECT_EQ(clean.load_stats(0).mode, "mmap");
  const cluster::MemberSearchResult want = clean.search(queries(), 1);

  fi::arm_from_spec("index.mmap:1,index.mmap:2");
  stats::DegradedStats degraded;
  const cluster::MemberSet set =
      cluster::MemberSet::open_index(path(), degraded_opts, &degraded);
  EXPECT_EQ(set.load_stats(0).mode, "copy");
  EXPECT_EQ(degraded.load_retries, 2u);
  EXPECT_EQ(fi::call_count("index.mmap"), 2u);
  const cluster::MemberSearchResult got = set.search(queries(), 1);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t q = 0; q < got.results.size(); ++q) {
    const QueryResult& a = want.results[q];
    const QueryResult& b = got.results[q];
    EXPECT_EQ(a.ungapped, b.ungapped) << "query " << q;
    EXPECT_TRUE(a.stats == b.stats) << "query " << q;
    ASSERT_EQ(a.alignments.size(), b.alignments.size()) << "query " << q;
    for (std::size_t i = 0; i < a.alignments.size(); ++i) {
      EXPECT_EQ(a.alignments[i].subject, b.alignments[i].subject);
      EXPECT_EQ(a.alignments[i].score, b.alignments[i].score);
      EXPECT_EQ(a.alignments[i].ops, b.alignments[i].ops);
      EXPECT_EQ(a.alignments[i].evalue, b.alignments[i].evalue);
    }
  }

  fi::reset();
  fi::arm_from_spec("index.mmap:1,index.mmap:2");
  cluster::MemberSetOptions strict;
  strict.strict = true;
  expect_kind(
      [&] { (void)cluster::MemberSet::open_index(path(), strict, nullptr); },
      ErrorKind::kResource, "index.mmap strict");
}

// Site "index.prefault": a SIGBUS-shaped fault during prefault is kIo; the
// retry succeeds.
TEST_F(FaultInjectPipeline, IndexPrefaultFailsIoThenRetrySucceeds) {
  DbIndexOpenOptions opts;
  opts.prefault = true;
  fi::arm("index.prefault", 1);
  expect_kind([&] { DbIndex m(path(), opts); }, ErrorKind::kIo,
              "index.prefault");
  EXPECT_NO_THROW(DbIndex retry(path(), opts));
}

// Site "io.read": a failed read of the index file (the --no-mmap open) is
// kIo.
TEST_F(FaultInjectPipeline, IoReadOnIndexStreamFailsIo) {
  fi::arm("io.read", 1);
  expect_kind([&] { DbIndex m(path(), read_options()); }, ErrorKind::kIo,
              "io.read index read");
}

// Degraded runs surface in the stats-v1 snapshot: the "degraded" object
// carries the quarantined block, its reason and the partial flag.
TEST_F(FaultInjectPipeline, DegradedStatsReflectedInJson) {
  const MuBlastpEngine engine{DbIndexView(index())};
  fi::arm("stage.ungapped", 1);
  stats::PipelineStats ps;
  stats::DegradedStats degraded;
  (void)engine.search_batch(queries(), 1, &ps, &degraded);
  ASSERT_FALSE(degraded.quarantined.empty());

  // As mublastp_search does: the run's degradation goes into the snapshot.
  stats::PipelineSnapshot snap = ps.snapshot();
  snap.degraded = degraded;
  const std::string json = stats::to_json(snap);
  // The reason quotes the failed check's source text, quotes included;
  // stats-v1 carries it escaped, not altered.
  const stats::QuarantinedBlock& q = degraded.quarantined[0];
  EXPECT_NE(q.reason.find('"'), std::string::npos);
  std::string row =
      "{\"block\": " + std::to_string(q.block) + ", \"reason\": ";
  jsonw::append_string(row, q.reason);
  EXPECT_NE(json.find("\n  \"degraded\": {\"partial\": true,"
                      " \"load_retries\": 0, \"time_budget_trips\": 0,"
                      " \"mem_budget_trips\": 0, \"quarantined\": [" +
                      row + "}]}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("quarantined_shards"), std::string::npos);
}

// A clean run's snapshot has no "degraded" object at all — degraded-mode
// plumbing must not perturb clean output.
TEST_F(FaultInjectPipeline, CleanRunOmitsDegradedFromJson) {
  const MuBlastpEngine engine{DbIndexView(index())};
  stats::PipelineStats ps;
  stats::DegradedStats degraded;
  (void)engine.search_batch(queries(), 1, &ps, &degraded);
  EXPECT_FALSE(degraded.any());
  const std::string json = stats::to_json(ps.snapshot());
  EXPECT_EQ(json.find("\"degraded\""), std::string::npos);
}

// Budgets: an absurdly small time budget trips queries (degraded) or fails
// kCanceled (strict); a tiny memory budget trips but never changes results.
TEST_F(FaultInjectPipeline, TimeBudgetTripsDegradedOrCancelsStrict) {
  MuBlastpOptions opts;
  opts.time_budget_seconds = 1e-12;  // everything exceeds this
  const MuBlastpEngine engine(DbIndexView(index()), SearchParams{}, opts);
  stats::DegradedStats degraded;
  const auto results = engine.search_batch(queries(), 1, nullptr, &degraded);
  EXPECT_EQ(results.size(), queries().size());
  EXPECT_GT(degraded.time_budget_trips, 0u);
  EXPECT_TRUE(degraded.partial);

  expect_kind([&] { (void)engine.search_batch(queries(), 1); },
              ErrorKind::kCanceled, "time budget strict");
}

TEST_F(FaultInjectPipeline, MemBudgetTripsWithoutChangingResults) {
  const MuBlastpEngine plain{DbIndexView(index())};
  const auto expected = plain.search_batch(queries(), 1);

  MuBlastpOptions opts;
  opts.mem_budget_bytes = 1;  // every round trips
  const MuBlastpEngine tight(DbIndexView(index()), SearchParams{}, opts);
  stats::DegradedStats degraded;
  const auto results = tight.search_batch(queries(), 1, nullptr, &degraded);
  EXPECT_GT(degraded.mem_budget_trips, 0u);
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t q = 0; q < results.size(); ++q) {
    EXPECT_EQ(results[q].ungapped, expected[q].ungapped) << "query " << q;
    EXPECT_EQ(results[q].alignments.size(), expected[q].alignments.size());
  }
}

}  // namespace
}  // namespace mublastp
