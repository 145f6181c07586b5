// Checkpoint-journal battery: replay, torn-tail truncation, fingerprint
// binding and the checkpoint.write injection site. The journal's contract
// is what makes kill-and-resume bit-identical (the CI job proves the
// end-to-end property; these tests pin the file-format mechanics).
#include "common/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "temp_path.hpp"

namespace mublastp {
namespace {

class Checkpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    fi::reset();
    path_ = test_temp_path("journal.ckpt");
    std::remove(path_.c_str());
  }
  void TearDown() override {
    fi::reset();
    std::remove(path_.c_str());
  }

  std::uint64_t file_size() const {
    return std::filesystem::file_size(path_);
  }

  void append_raw(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

constexpr std::uint32_t kFp = 0xC0FFEE42;
constexpr std::uint64_t kHeader = 16;
constexpr std::uint64_t kRecord = 24;

TEST_F(Checkpoint, FreshJournalIsEmptyAndDurable) {
  CheckpointJournal journal(path_, kFp);
  EXPECT_EQ(journal.num_completed(), 0u);
  EXPECT_EQ(journal.resume_offset(), 0u);
  EXPECT_FALSE(journal.completed(0));
  EXPECT_EQ(file_size(), kHeader);
}

TEST_F(Checkpoint, AppendThenReplay) {
  {
    CheckpointJournal journal(path_, kFp);
    journal.append(0, 100);
    journal.append(1, 250);
    journal.append(2, 260);
    EXPECT_TRUE(journal.completed(1));
    EXPECT_EQ(journal.resume_offset(), 260u);
  }
  CheckpointJournal replay(path_, kFp);
  EXPECT_EQ(replay.num_completed(), 3u);
  EXPECT_TRUE(replay.completed(0));
  EXPECT_TRUE(replay.completed(2));
  EXPECT_FALSE(replay.completed(3));
  EXPECT_EQ(replay.resume_offset(), 260u);
  // Resumes appending where it left off.
  replay.append(3, 400);
  EXPECT_EQ(replay.resume_offset(), 400u);
}

TEST_F(Checkpoint, TornTailIsTruncatedOnReplay) {
  {
    CheckpointJournal journal(path_, kFp);
    journal.append(0, 100);
    journal.append(1, 200);
  }
  // A kill -9 mid-append leaves a short record: replay must drop it.
  append_raw(std::string(11, '\x5A'));
  ASSERT_EQ(file_size(), kHeader + 2 * kRecord + 11);
  CheckpointJournal replay(path_, kFp);
  EXPECT_EQ(replay.num_completed(), 2u);
  EXPECT_EQ(replay.resume_offset(), 200u);
  EXPECT_EQ(file_size(), kHeader + 2 * kRecord);
}

TEST_F(Checkpoint, GarbageFullRecordTailIsDroppedByCrc) {
  {
    CheckpointJournal journal(path_, kFp);
    journal.append(0, 100);
  }
  // A full-size but CRC-invalid record (power loss scrambling the tail).
  append_raw(std::string(kRecord, '\x5A'));
  CheckpointJournal replay(path_, kFp);
  EXPECT_EQ(replay.num_completed(), 1u);
  EXPECT_EQ(replay.resume_offset(), 100u);
  EXPECT_EQ(file_size(), kHeader + kRecord);
  // And valid records AFTER garbage are also discarded: the journal is a
  // prefix log, not a scavenger.
  replay.append(1, 180);
  EXPECT_EQ(replay.num_completed(), 2u);
}

TEST_F(Checkpoint, CorruptedMidRecordCutsTheLogThere) {
  {
    CheckpointJournal journal(path_, kFp);
    journal.append(0, 100);
    journal.append(1, 200);
    journal.append(2, 300);
  }
  {
    // Flip a byte inside record 1: replay keeps only record 0.
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(kHeader + kRecord + 3));
    const char x = '\x7F';
    f.write(&x, 1);
  }
  CheckpointJournal replay(path_, kFp);
  EXPECT_EQ(replay.num_completed(), 1u);
  EXPECT_TRUE(replay.completed(0));
  EXPECT_FALSE(replay.completed(2));
  EXPECT_EQ(replay.resume_offset(), 100u);
}

TEST_F(Checkpoint, FingerprintMismatchIsRejected) {
  { CheckpointJournal journal(path_, kFp); }
  try {
    CheckpointJournal other(path_, kFp + 1);
    ADD_FAILURE() << "fingerprint mismatch was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("different run configuration"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(Checkpoint, NonCheckpointFileIsCorrupt) {
  append_raw("this is not a checkpoint journal, it is prose");
  try {
    CheckpointJournal journal(path_, kFp);
    ADD_FAILURE() << "garbage header was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  }
}

TEST_F(Checkpoint, DirectoryPathIsIo) {
  const std::string dir = test_temp_path("dir");
  std::filesystem::create_directory(dir);
  try {
    CheckpointJournal journal(dir, kFp);
    ADD_FAILURE() << "directory path was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
  std::filesystem::remove(dir);
}

// Site "checkpoint.write": the Nth append fails kIo; the record is NOT
// journaled (so the batch will be re-searched after resume — safe), and the
// journal stays usable for subsequent appends.
TEST_F(Checkpoint, InjectedWriteFailureLosesOnlyThatRecord) {
  CheckpointJournal journal(path_, kFp);
  journal.append(0, 100);
  fi::arm("checkpoint.write", 1);
  try {
    journal.append(1, 200);
    ADD_FAILURE() << "armed checkpoint.write did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
  EXPECT_FALSE(journal.completed(1));
  EXPECT_EQ(journal.resume_offset(), 100u);
  journal.append(1, 200);  // disarmed: works again
  EXPECT_TRUE(journal.completed(1));
  EXPECT_EQ(journal.resume_offset(), 200u);
}

// Site "checkpoint.dirsync": a fresh journal is only durable once its NAME
// is — the parent-directory fsync after creation. An injected failure there
// is kIo, and a clean retry produces a valid empty journal.
TEST_F(Checkpoint, InjectedDirsyncFailureIsIoAndRetryable) {
  fi::arm("checkpoint.dirsync", 1);
  try {
    CheckpointJournal journal(path_, kFp);
    ADD_FAILURE() << "armed checkpoint.dirsync did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_NE(std::string(e.what()).find("checkpoint.dirsync"),
              std::string::npos)
        << e.what();
  }
  // Retry from scratch: the half-created file (header already written and
  // fsynced) replays as a valid empty journal.
  CheckpointJournal retry(path_, kFp);
  EXPECT_EQ(retry.num_completed(), 0u);
  EXPECT_EQ(retry.resume_offset(), 0u);
}

}  // namespace
}  // namespace mublastp
