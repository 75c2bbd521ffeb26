# Determinism guard for bench_scale across shard counts.
#
# Runs BINARY at smoke size at --shards 1 and --shards 2 and fails unless
# stdout is byte-identical: simulation output may not depend on the PDES
# shard count.
# Host metrics (wall-clock, RSS) go to the binary's stderr, which this guard
# deliberately ignores.
#
# Usage: cmake -DBINARY=<path to bench_scale> -DOUT_DIR=<dir>
#              [-DOUT_NAME=<stem>]    # default "scale"
#              -P compare_scale_output.cmake
foreach(required BINARY OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "compare_scale_output.cmake: -D${required}=... is required")
  endif()
endforeach()
if(NOT DEFINED OUT_NAME)
  set(OUT_NAME scale)
endif()

set(args --ranks 64,128 --scale 0.02 --seed 3 --csv)

function(run_once tag)
  execute_process(COMMAND ${BINARY} ${args} ${ARGN}
                  OUTPUT_FILE ${OUT_DIR}/${OUT_NAME}_${tag}.out
                  ERROR_VARIABLE ignored_stderr RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${args} ${ARGN} failed with exit code ${rc}")
  endif()
endfunction()

run_once(shards1 --shards 1)
run_once(shards2 --shards 2)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${OUT_DIR}/${OUT_NAME}_shards1.out ${OUT_DIR}/${OUT_NAME}_shards2.out
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "output differs between --shards 1 and --shards 2 "
                      "(${OUT_DIR}/${OUT_NAME}_shards1.out vs ${OUT_DIR}/${OUT_NAME}_shards2.out)")
endif()
