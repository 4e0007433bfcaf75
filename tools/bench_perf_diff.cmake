# CTest script: measure the scan with hardware-counter collection off and
# on (bench_perf_overhead modes) and gate the instrumented run's wall time
# at 3% over the uninstrumented baseline via omega_metrics_diff. The modes
# run in ABBA order (off, on, on, off) and each side keeps the better
# best_wall_seconds of its two runs, so a steady drift in host speed lands
# on both sides instead of always on the later one. Invoked as:
#   cmake -DBENCH_BIN=... -DDIFF_BIN=... -DWORK_DIR=... -P bench_perf_diff.cmake

foreach(var BENCH_BIN DIFF_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_perf_diff: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")

foreach(run off1 on1 on2 off2)
  string(REGEX REPLACE "[0-9]$" "" mode "${run}")
  file(MAKE_DIRECTORY "${WORK_DIR}/${run}")
  execute_process(
    COMMAND "${BENCH_BIN}" ${mode}
    WORKING_DIRECTORY "${WORK_DIR}/${run}"
    RESULT_VARIABLE bench_result
    OUTPUT_VARIABLE bench_output
    ERROR_VARIABLE bench_output)
  if(NOT bench_result EQUAL 0 OR NOT EXISTS "${WORK_DIR}/${run}/BENCH_PERF.json")
    message(FATAL_ERROR
      "bench_perf_diff: mode '${mode}' produced no BENCH_PERF.json "
      "(exit ${bench_result})\n${bench_output}")
  endif()
endforeach()

# Each side's better run of its two.
foreach(mode off on)
  set(best_seconds "")
  foreach(run ${mode}1 ${mode}2)
    file(READ "${WORK_DIR}/${run}/BENCH_PERF.json" bench_text)
    string(JSON seconds GET "${bench_text}" results scan best_wall_seconds)
    message(STATUS "${run}: best_wall_seconds ${seconds}")
    if(best_seconds STREQUAL "" OR seconds LESS best_seconds)
      set(best_seconds "${seconds}")
      set(${mode}_json "${WORK_DIR}/${run}/BENCH_PERF.json")
    endif()
  endforeach()
endforeach()

# The 3% acceptance gate: only the headline best-of-N wall time is watched —
# the embedded profiles differ by construction (the on-run carries the perf
# block) and must stay informational. The 50 ms floor keeps sub-resolution
# stages from gating on relative noise.
execute_process(
  COMMAND "${DIFF_BIN}"
    "${off_json}" "${on_json}"
    --threshold 0.03 --min-seconds 0.05 --watch best_wall_seconds
  RESULT_VARIABLE diff_result
  OUTPUT_VARIABLE diff_output
  ERROR_VARIABLE diff_output)
message(STATUS "omega_metrics_diff output:\n${diff_output}")
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR
    "bench_perf_diff: counter overhead exceeded 3% (exit ${diff_result})")
endif()

# Identical inputs must be a clean pass (exit 0), and the --json rendering
# must agree with the exit code so automation can consume the verdict.
execute_process(
  COMMAND "${DIFF_BIN}"
    "${off_json}" "${off_json}"
    --json
  RESULT_VARIABLE identical_result
  OUTPUT_VARIABLE identical_output)
if(NOT identical_result EQUAL 0)
  message(FATAL_ERROR
    "bench_perf_diff: identical inputs reported exit ${identical_result}")
endif()
string(FIND "${identical_output}" "\"exit_reason\": \"ok\"" reason_pos)
if(reason_pos EQUAL -1)
  message(FATAL_ERROR
    "bench_perf_diff: --json verdict missing exit_reason ok:\n${identical_output}")
endif()
