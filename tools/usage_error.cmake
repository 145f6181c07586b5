# One mublastp_search command line that must be refused as a usage error
# (see tools/CMakeLists.txt): exit 2, with the offending flag named on
# stderr. BAD is the bad --flag=value; it rides on a checkpointed search so
# --batch-size reaches the batch runner it sizes.
string(REGEX REPLACE "=.*" "" flag "${BAD}")
execute_process(
  COMMAND ${SEARCH} --index=${INDEX} --query=${QUERY} --outfmt=tabular
          --checkpoint=${WORKDIR}/usage_error.ckpt
          --out=${WORKDIR}/usage_error.tab ${BAD}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BAD}: exited ${rc}, not 2:\n${err}")
endif()
string(FIND "${err}" "${flag}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BAD}: stderr does not name ${flag}:\n${err}")
endif()
message(STATUS "${BAD}: exit 2, ${err}")
