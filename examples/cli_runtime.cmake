# CTest script for the crash-safe runtime CLI surface:
#   * bad flag combinations are rejected up front (exit 2);
#   * a deadline-expired streaming scan drains cleanly (exit 11), leaves a
#     valid checkpoint and a metrics document with the schema-v8 runtime
#     block, and never leaks a .ckpt.tmp temp file;
#   * --resume completes the scan (exit 0) and the final report is
#     byte-identical to an uninterrupted run;
#   * resuming with a changed chunk decomposition, or from a checkpoint of
#     another schema_version, is a usage error (exit 2).
# Invoked as:
#   cmake -DSCAN_BIN=... -DWORK_DIR=... -P cli_runtime.cmake

foreach(var SCAN_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_runtime: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Small but multi-chunk simulated workload, identical for every invocation.
set(scan_args
  --simulate-snps 800 --simulate-samples 32 --seed 7
  --grid 120 --minwin 10000 --maxwin 200000
  --stream --chunk-sites 200 --reports-dir "${WORK_DIR}")

# --- 1. up-front flag validation ------------------------------------------

execute_process(
  COMMAND "${SCAN_BIN}" --name badflags --resume --reports-dir "${WORK_DIR}"
  RESULT_VARIABLE result OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "cli_runtime: --resume without --stream exited ${result}, want 2\n${output}")
endif()

execute_process(
  COMMAND "${SCAN_BIN}" --name badflags --deadline-seconds 0
    --reports-dir "${WORK_DIR}"
  RESULT_VARIABLE result OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "cli_runtime: --deadline-seconds 0 exited ${result}, want 2\n${output}")
endif()

# --- 2. uninterrupted reference run ---------------------------------------

execute_process(
  COMMAND "${SCAN_BIN}" --name ref ${scan_args}
  RESULT_VARIABLE result OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "cli_runtime: reference run failed (${result})\n${output}")
endif()

# --- 3. deadline expiry: clean drain, checkpoint, exit 11 -----------------

set(metrics_file "${WORK_DIR}/deadline_metrics.json")
execute_process(
  COMMAND "${SCAN_BIN}" --name run ${scan_args}
    --checkpoint --deadline-seconds 0.000001
    --metrics-json "${metrics_file}"
  RESULT_VARIABLE result OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT result EQUAL 11)
  message(FATAL_ERROR
    "cli_runtime: deadline-expired scan exited ${result}, want 11\n${output}")
endif()
if(NOT EXISTS "${WORK_DIR}/run.ckpt")
  message(FATAL_ERROR
    "cli_runtime: interrupted scan left no checkpoint\n${output}")
endif()
if(NOT EXISTS "${metrics_file}")
  message(FATAL_ERROR
    "cli_runtime: interrupted scan wrote no metrics document\n${output}")
endif()
file(READ "${metrics_file}" metrics_text)
if(NOT metrics_text MATCHES "\"cancelled\": true")
  message(FATAL_ERROR
    "cli_runtime: metrics lack \"cancelled\": true:\n${metrics_text}")
endif()
if(NOT metrics_text MATCHES "\"deadline_outcome\": \"expired\"")
  message(FATAL_ERROR
    "cli_runtime: metrics lack the expired deadline outcome:\n${metrics_text}")
endif()

# --- 4. resume to completion: exit 0, byte-identical report ---------------

execute_process(
  COMMAND "${SCAN_BIN}" --name run ${scan_args} --checkpoint --resume
  RESULT_VARIABLE result OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "cli_runtime: resume run exited ${result}, want 0\n${output}")
endif()

file(READ "${WORK_DIR}/OmegaPlus_Report.ref" ref_report)
file(READ "${WORK_DIR}/OmegaPlus_Report.run" run_report)
if(NOT ref_report STREQUAL run_report)
  message(FATAL_ERROR
    "cli_runtime: resumed report differs from the uninterrupted reference")
endif()

# --- 5. resume with a changed chunk decomposition is a usage error --------

execute_process(
  COMMAND "${SCAN_BIN}" --name run
    --simulate-snps 800 --simulate-samples 32 --seed 7
    --grid 120 --minwin 10000 --maxwin 200000
    --stream --chunk-sites 400 --reports-dir "${WORK_DIR}"
    --checkpoint --resume
  RESULT_VARIABLE result OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "cli_runtime: resume with changed --chunk-sites exited ${result}, want 2\n"
    "${output}")
endif()

# --- 6. a checkpoint of another schema_version is a usage error ----------

file(READ "${WORK_DIR}/run.ckpt" ckpt_text)
string(REGEX MATCH "\"schema_version\": ?([0-9]+)" version_field "${ckpt_text}")
set(current_version "${CMAKE_MATCH_1}")
math(EXPR old_version "${current_version} - 1")
string(REPLACE "${version_field}" "\"schema_version\": ${old_version}"
  old_ckpt_text "${ckpt_text}")
file(WRITE "${WORK_DIR}/old.ckpt" "${old_ckpt_text}")
execute_process(
  COMMAND "${SCAN_BIN}" --name run ${scan_args}
    "--checkpoint=${WORK_DIR}/old.ckpt" --resume
  RESULT_VARIABLE result OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
    "cli_runtime: resume from a version ${old_version} checkpoint exited "
    "${result}, want 2\n${output}")
endif()
if(NOT output MATCHES "version ${old_version} is not the supported version ${current_version}")
  message(FATAL_ERROR
    "cli_runtime: version mismatch error names neither version:\n${output}")
endif()

# --- 7. no leaked checkpoint temp files -----------------------------------

file(GLOB leaked_tmp "${WORK_DIR}/*.ckpt.tmp")
if(leaked_tmp)
  message(FATAL_ERROR "cli_runtime: leaked checkpoint temp files: ${leaked_tmp}")
endif()

message(STATUS "cli_runtime: flag validation, deadline drain, resume identity, version refusal OK")
