# One tool command line that must be refused as a usage error (see
# tools/CMakeLists.txt): exit 2, with the offending flag named on stderr.
# TOOL is the binary, ARGS its base command line (one space-separated
# string) and BAD the bad --flag=value appended to it.
string(REGEX REPLACE "=.*" "" flag "${BAD}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${TOOL} ${args} ${BAD}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BAD}: exited ${rc}, not 2:\n${err}")
endif()
string(FIND "${err}" "${flag}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BAD}: stderr does not name ${flag}:\n${err}")
endif()
message(STATUS "${BAD}: exit 2, ${err}")
