# Determinism guard for bench_service across job and shard counts.
#
# Runs BINARY at smoke size twice — serial vs. jobs 4 / shards 2 — with
# --record-out, and fails unless both the stdout SLO tables and the
# event-order recordings are byte-identical; BISECT (tools/hcs_bisect) must
# additionally report the recordings as identical runs.  This is the
# end-to-end churn determinism gate: the soak includes the default
# leave/rejoin plan, so membership markers, view-stamped messages and
# re-admission sub-phases are all on the record.
#
# Usage: cmake -DBINARY=<path to bench_service> -DBISECT=<path to hcs_bisect>
#              -DOUT_DIR=<dir> -P compare_service_output.cmake
foreach(required BINARY BISECT OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "compare_service_output.cmake: -D${required}=... is required")
  endif()
endforeach()

set(args --duration 120 --qps 2 --interval 20 --seed 3 --csv)

function(run_once tag)
  execute_process(COMMAND ${BINARY} ${args} --record-out ${OUT_DIR}/service_${tag}.hcsr ${ARGN}
                  OUTPUT_FILE ${OUT_DIR}/service_${tag}.out
                  ERROR_VARIABLE ignored_stderr RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${args} ${ARGN} failed with exit code ${rc}")
  endif()
endfunction()

run_once(serial --shards 1 --jobs 1)
run_once(parallel --shards 2 --jobs 4)

# The stdout tables must match modulo the "wrote recording: <path>" line,
# which embeds the (deliberately different) recording filename.
foreach(tag serial parallel)
  file(READ ${OUT_DIR}/service_${tag}.out ${tag}_out)
  string(REGEX REPLACE "wrote recording [^\n]*\n" "" ${tag}_out "${${tag}_out}")
endforeach()
if(NOT serial_out STREQUAL parallel_out)
  message(FATAL_ERROR "bench_service stdout differs between serial and "
                      "jobs4-shards2 (${OUT_DIR}/service_serial.out vs "
                      "${OUT_DIR}/service_parallel.out)")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${OUT_DIR}/service_serial.hcsr ${OUT_DIR}/service_parallel.hcsr
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "bench_service recording differs between serial and "
                      "jobs4-shards2 (${OUT_DIR}/service_serial.hcsr vs "
                      "${OUT_DIR}/service_parallel.hcsr)")
endif()

execute_process(COMMAND ${BISECT} ${OUT_DIR}/service_serial.hcsr ${OUT_DIR}/service_parallel.hcsr
                RESULT_VARIABLE bisect_rc OUTPUT_VARIABLE bisect_out ERROR_VARIABLE bisect_err)
if(NOT bisect_rc EQUAL 0)
  message(FATAL_ERROR "hcs_bisect found a divergence between the bench_service recordings: "
                      "${bisect_out}${bisect_err}")
endif()
