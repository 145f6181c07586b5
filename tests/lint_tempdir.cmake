# Fails when a test source calls ::testing::TempDir() directly. Every test
# temp path comes from test_temp_path() (temp_path.hpp), which makes it
# unique per test and process, so parallel ctest runs never share a file.
#
#   cmake -DTESTS_DIR=<tests source dir> -P lint_tempdir.cmake
file(GLOB sources "${TESTS_DIR}/*.cpp")
set(offenders "")
foreach(src IN LISTS sources)
  file(STRINGS "${src}" calls REGEX "testing::TempDir[ \t]*\\(")
  if(calls)
    list(APPEND offenders "${src}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR "call test_temp_path() (tests/temp_path.hpp) instead"
          " of ::testing::TempDir() in:\n  ${listing}")
endif()
list(LENGTH sources count)
message(STATUS "lint_tempdir: ${count} test sources, no direct TempDir()")
