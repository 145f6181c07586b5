# Database-layout end-to-end checks, run as ctest scripts (see
# tools/CMakeLists.txt). Each run builds its own base + --append generation
# chain from DB_FASTA (the first half of the records as the base, the rest
# as one appended delta), next to the single index INDEX and the 3-shard
# manifest MANIFEST that ctest built from the same sequences.
#
#   CHECK=equal  (tool_search_sharded_matches_unsharded): the tabular report
#     of the single index, of the shards under both --shard-mode values and
#     of the chain must be byte-identical. Two query sets run at 4 threads:
#     QUERY (one query, fewer than the threads) and 8 queries drawn with
#     SYNTHGEN.
#   CHECK=budget (tool_search_time_budget_every_layout): --time-budget=
#     0.000001 must trip on the single index, the thread-mode shards and the
#     chain: exit 3 with time_budget_trips > 0 in stats-v1.
#   CHECK=stats  (tool_search_stats_every_layout): the thread-mode shards
#     and the chain run one engine pass over every member's blocks, so
#     their --stats=json must print the single index's counters, nonzero
#     stage seconds, and a "blocks" count above 0 with that many per_block
#     rows.
# The chain's --append build and both checks' searches write their stats-v1
# to WORKDIR/e2e_<CHECK>_<makedb|layout>.json for the tool_stats_schema_*
# tests, which validate them against docs/mublastp-stats-v1.schema.json.
foreach(var CHECK SEARCH MAKEDB SYNTHGEN DB_FASTA INDEX MANIFEST QUERY
            WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "shard_e2e.cmake: missing -D${var}=")
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

# A fresh chain per check, so concurrent checks and re-runs never append to
# an earlier one, and no stats-v1 file left by an earlier run.
set(stem ${WORKDIR}/e2e_${CHECK})
file(GLOB stale ${stem}_chain.mbi* ${stem}_*.json)
if(stale)
  file(REMOVE ${stale})
endif()
file(READ ${DB_FASTA} fasta)
string(LENGTH "${fasta}" size)
math(EXPR half "${size} / 2")
string(SUBSTRING "${fasta}" ${half} -1 tail)
string(FIND "${tail}" "\n>" cut)
if(cut EQUAL -1)
  message(FATAL_ERROR "${DB_FASTA} has too few records to split")
endif()
math(EXPR cut "${half} + ${cut} + 1")
string(SUBSTRING "${fasta}" 0 ${cut} base)
string(SUBSTRING "${fasta}" ${cut} -1 delta)
file(WRITE ${stem}_base.fasta "${base}")
file(WRITE ${stem}_delta.fasta "${delta}")
run(${MAKEDB} --in=${stem}_base.fasta --out=${stem}_chain.mbi --block-kb=64)
run(${MAKEDB} --append=${stem}_delta.fasta --out=${stem}_chain.mbi
    --stats=json)
file(WRITE ${stem}_makedb.json "${out}")

set(layouts single shards_thread shards_process chain)
set(single_args --index=${INDEX})
set(shards_thread_args --shards-manifest=${MANIFEST} --shard-mode=thread)
set(shards_process_args --shards-manifest=${MANIFEST} --shard-mode=process)
set(chain_args --index=${stem}_chain.mbi)

if(CHECK STREQUAL "equal")
  run(${SYNTHGEN} --preset=envnr --residues=65536 --out=${stem}_q_db.fasta
      --queries=8 --qlen=64 --qout=${stem}_q8.fasta)
  foreach(queries ${QUERY} ${stem}_q8.fasta)
    foreach(layout ${layouts})
      run(${SEARCH} ${${layout}_args} --query=${queries} --threads=4
          --outfmt=tabular --out=${stem}_${layout}.tab)
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${stem}_single.tab
                ${stem}_${layout}.tab
        RESULT_VARIABLE diff)
      if(NOT diff EQUAL 0)
        message(FATAL_ERROR "${layout} tabular output for ${queries}"
                            " differs from the single index")
      endif()
    endforeach()
  endforeach()
  message(STATUS "single, shards (thread, process) and chain output"
                 " byte-identical for both query sets")
elseif(CHECK STREQUAL "budget" OR CHECK STREQUAL "stats")
  # Fork-mode shard children run the plain per-query search, without
  # budgets or per-block telemetry; the in-process layouts are checked.
  set(extra "")
  set(want_rc 0)
  if(CHECK STREQUAL "budget")
    set(extra --time-budget=0.000001)
    set(want_rc 3)
  endif()
  foreach(layout single shards_thread chain)
    execute_process(
      COMMAND ${SEARCH} ${${layout}_args} --query=${QUERY} --outfmt=none
              --stats=json ${extra}
      RESULT_VARIABLE rc OUTPUT_VARIABLE stats ERROR_VARIABLE err)
    if(NOT rc EQUAL want_rc)
      message(FATAL_ERROR "${layout}: exited ${rc}, not ${want_rc}:\n${err}")
    endif()
    file(WRITE ${stem}_${layout}.json "${stats}")
    if(CHECK STREQUAL "budget")
      if(NOT stats MATCHES "\"time_budget_trips\": [1-9]")
        message(FATAL_ERROR "${layout}: no time_budget_trips in:\n${stats}")
      endif()
      continue()
    endif()
    # The first "counters" object is the run's; per_block rows follow it.
    string(REGEX MATCH "\"counters\": {[^}]*}" counters "${stats}")
    string(REGEX MATCH "\"blocks\": ([0-9]+)" unused "${stats}")
    set(blocks "${CMAKE_MATCH_1}")
    string(REGEX MATCHALL "{\"block\": [0-9]+" rows "${stats}")
    list(LENGTH rows nrows)
    if(layout STREQUAL "single")
      set(want "${counters}")
    elseif(NOT counters STREQUAL want)
      message(FATAL_ERROR "${layout}: counters differ from the single"
                          " index:\n${counters}\nvs\n${want}")
    endif()
    if(NOT blocks GREATER 0 OR NOT nrows EQUAL blocks OR
       stats MATCHES "\"stage_seconds\": {\"hit_detect\": 0,")
      message(FATAL_ERROR "${layout}: ${blocks} blocks, ${nrows} per_block"
                          " rows, or no stage seconds:\n${stats}")
    endif()
  endforeach()
  message(STATUS "CHECK=${CHECK} holds on every in-process layout")
else()
  message(FATAL_ERROR "shard_e2e.cmake: unknown CHECK=${CHECK}")
endif()
