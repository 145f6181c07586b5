# Checkpoint batch spans, run as a ctest script (tool_search_traced_batches
# in tools/CMakeLists.txt): a traced `--checkpoint --batch-size=7` search
# over 16 queries must write one "batch" span per batch, ceil(16 / 7) = 3,
# into its mublastp-trace-v1 file WORKDIR/batch_spans_trace.json, which the
# tool_trace_report_batches test then validates against the schema. Its
# stats-v1 goes to WORKDIR/batch_spans_stats.json for the same check.
foreach(var SEARCH SYNTHGEN INDEX WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "batch_spans.cmake: missing -D${var}=")
  endif()
endforeach()

# Runs a command that must exit 0 and leaves its stdout in `out`.
macro(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN}\nfailed (exit ${rc}):\n${err}")
  endif()
endmacro()

set(stem ${WORKDIR}/batch_spans)
file(REMOVE ${stem}.ckpt ${stem}.tab ${stem}_trace.json ${stem}_stats.json)
run(${SYNTHGEN} --preset=envnr --residues=65536 --out=${stem}_db.fasta
    --queries=16 --qlen=64 --qout=${stem}_q.fasta)
run(${SEARCH} --index=${INDEX} --query=${stem}_q.fasta --outfmt=tabular
    --checkpoint=${stem}.ckpt --out=${stem}.tab --batch-size=7
    --trace=${stem}_trace.json --stats=json)
file(WRITE ${stem}_stats.json "${out}")
file(READ ${stem}_trace.json trace)
string(REGEX MATCHALL "\"name\": \"batch\"" spans "${trace}")
list(LENGTH spans n)
if(NOT n EQUAL 3)
  message(FATAL_ERROR "${n} batch spans for 16 queries in batches of 7,"
                      " not 3")
endif()
message(STATUS "3 batch spans for 3 checkpoint batches")
