// Per-test temp paths. ctest runs every discovered test as its own
// process, in parallel, so two tests writing one fixed name clobber each
// other's files (or rewrite a file under a sibling's live mapping). Every
// test temp path comes from test_temp_path(); the lint_test_tempdir ctest
// fails when a test source calls ::testing::TempDir() itself.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

namespace mublastp {

/// TempDir()/mublastp_<suite>_<test>_<pid>_<tag>, unique to the running
/// test and process. Inside SetUpTestSuite no test is running yet, so the
/// path names the suite only. '/' in parameterized names becomes '_'.
inline std::string test_temp_path(const std::string& tag) {
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  std::string name = "mublastp_";
  if (const ::testing::TestInfo* test = unit.current_test_info()) {
    name += std::string(test->test_suite_name()) + "_" + test->name();
  } else if (const ::testing::TestSuite* suite = unit.current_test_suite()) {
    name += suite->name();
  }
  name += "_" + std::to_string(::getpid()) + "_" + tag;
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Writes `bytes` to test_temp_path(tag) and returns that path.
inline std::string write_temp_file(const std::string& tag,
                                   std::string_view bytes) {
  const std::string path = test_temp_path(tag);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

}  // namespace mublastp
