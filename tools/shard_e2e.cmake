# Database-layout end-to-end checks, run as ctest scripts (see
# tools/CMakeLists.txt). Each run builds its own base + --append generation
# chain from DB_FASTA (the first half of the records as the base, the rest
# as one appended delta), next to the single index INDEX and the 3-shard
# manifest MANIFEST that ctest built from the same sequences.
#
#   CHECK=equal  (tool_search_sharded_matches_unsharded): the tabular report
#     of the single index, of the shards under both --shard-mode values and
#     of the chain must be byte-identical. Two query sets run at 4 threads:
#     QUERY (one query, fewer than the threads, so in-process members run
#     at once) and 8 queries drawn with SYNTHGEN (members run in turn).
#   CHECK=budget (tool_search_time_budget_every_layout): --time-budget=
#     0.000001 must trip on the single index, the thread-mode shards and the
#     chain: exit 3 with time_budget_trips > 0 in stats-v1.
foreach(var CHECK SEARCH MAKEDB SYNTHGEN DB_FASTA INDEX MANIFEST QUERY
            WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "shard_e2e.cmake: missing -D${var}=")
  endif()
endforeach()

function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN}\nfailed (exit ${rc}):\n${err}")
  endif()
endfunction()

# A fresh chain per check, so concurrent checks and re-runs never append to
# an earlier one.
set(stem ${WORKDIR}/e2e_${CHECK})
file(GLOB stale ${stem}_chain.mbi*)
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
run(${MAKEDB} --append=${stem}_delta.fasta --out=${stem}_chain.mbi)

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
elseif(CHECK STREQUAL "budget")
  # Fork-mode shard children run the plain per-query search, without
  # budgets; the in-process layouts must all trip.
  foreach(layout single shards_thread chain)
    execute_process(
      COMMAND ${SEARCH} ${${layout}_args} --query=${QUERY} --outfmt=none
              --stats=json --time-budget=0.000001
      RESULT_VARIABLE rc OUTPUT_VARIABLE stats ERROR_VARIABLE err)
    if(NOT rc EQUAL 3)
      message(FATAL_ERROR "${layout}: --time-budget exited ${rc}, not 3:\n"
                          "${err}")
    endif()
    if(NOT stats MATCHES "\"time_budget_trips\": [1-9]")
      message(FATAL_ERROR "${layout}: no time_budget_trips in:\n${stats}")
    endif()
  endforeach()
  message(STATUS "--time-budget trips and exits 3 on every layout")
else()
  message(FATAL_ERROR "shard_e2e.cmake: unknown CHECK=${CHECK}")
endif()
