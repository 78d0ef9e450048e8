# CTest driver for the drim CLI: exercises the full gen -> build -> info ->
# gt -> search pipeline and asserts a sane recall is reported.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
  execute_process(COMMAND ${ARGV}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
  set(STEP_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

# Expect the command to FAIL with exit code 2 and an error message matching
# `pattern` (the parse-time numeric-knob validation contract).
function(run_step_expect_usage_error pattern)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "error output missing '${pattern}': ${err}")
  endif()
endfunction()

run_step(${DRIM_BIN} gen --out-base base.bvecs --out-queries q.fvecs
         --out-learn learn.fvecs --n 6000 --queries 40 --components 16)
run_step(${DRIM_BIN} build --base base.bvecs --learn learn.fvecs
         --out test.idx --nlist 32 --m 16 --cb 64)
run_step(${DRIM_BIN} info --index test.idx)
if(NOT STEP_OUTPUT MATCHES "nlist      : 32")
  message(FATAL_ERROR "info output missing nlist: ${STEP_OUTPUT}")
endif()

run_step(${DRIM_BIN} gt --base base.bvecs --queries q.fvecs --out gt.ivecs --k 10)

# CPU search with ground truth.
run_step(${DRIM_BIN} search --index test.idx --queries q.fvecs
         --k 10 --nprobe 8 --gt gt.ivecs)
string(REGEX MATCH "recall@10 = ([0-9.]+)" _ "${STEP_OUTPUT}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 LESS 0.4)
  message(FATAL_ERROR "CPU recall too low or missing: ${STEP_OUTPUT}")
endif()

# Simulated-PIM search with re-ranking (legacy --pim alias for --backend drim).
run_step(${DRIM_BIN} search --index test.idx --queries q.fvecs --base base.bvecs
         --k 10 --nprobe 8 --gt gt.ivecs --pim --dpus 8 --rerank 50)
string(REGEX MATCH "recall@10 = ([0-9.]+)" _ "${STEP_OUTPUT}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 LESS 0.5)
  message(FATAL_ERROR "PIM+rerank recall too low or missing: ${STEP_OUTPUT}")
endif()
set(pim_recall ${CMAKE_MATCH_1})

# Analytic platform must report the same recall as the simulator.
run_step(${DRIM_BIN} search --index test.idx --queries q.fvecs --base base.bvecs
         --k 10 --nprobe 8 --gt gt.ivecs --backend drim --platform analytic
         --dpus 8 --rerank 50)
string(REGEX MATCH "recall@10 = ([0-9.]+)" _ "${STEP_OUTPUT}")
if(NOT CMAKE_MATCH_1 STREQUAL pim_recall)
  message(FATAL_ERROR "analytic recall ${CMAKE_MATCH_1} != sim recall ${pim_recall}")
endif()

# Serve smoke on both backends.
run_step(${DRIM_BIN} serve --index test.idx --queries q.fvecs --qps 500
         --requests 64 --dpus 8 --platform analytic)
if(NOT STEP_OUTPUT MATCHES "backend drim-analytic")
  message(FATAL_ERROR "serve did not report the analytic backend: ${STEP_OUTPUT}")
endif()
run_step(${DRIM_BIN} serve --index test.idx --queries q.fvecs --qps 500
         --requests 64 --backend cpu)
if(NOT STEP_OUTPUT MATCHES "backend cpu")
  message(FATAL_ERROR "serve did not report the cpu backend: ${STEP_OUTPUT}")
endif()

# Numeric-knob validation: 0/negative/garbage values must fail at parse time
# (exit 2) with an error naming the flag and the legal range, not deep inside
# the engine.
run_step_expect_usage_error("invalid --pipeline-depth value '0'.*\\[1, 64\\]"
    ${DRIM_BIN} search --index test.idx --queries q.fvecs --backend drim
    --dpus 8 --pipeline-depth 0)
run_step_expect_usage_error("invalid --shards value '-2'"
    ${DRIM_BIN} serve --index test.idx --queries q.fvecs --requests 8
    --dpus 8 --shards -2)
run_step_expect_usage_error("invalid --batch-size value 'lots'"
    ${DRIM_BIN} search --index test.idx --queries q.fvecs --backend drim
    --dpus 8 --batch-size lots)
run_step_expect_usage_error("invalid --shard-replication value '1.5'.*\\[0, 1\\]"
    ${DRIM_BIN} serve --index test.idx --queries q.fvecs --requests 8
    --dpus 8 --shards 2 --shard-replication 1.5)

# A flag the subcommand does not read is rejected by name, never ignored.
run_step_expect_usage_error("unknown flag --npobe for drim search"
    ${DRIM_BIN} search --index test.idx --queries q.fvecs --k 10 --npobe 8)
run_step_expect_usage_error("unknown flag --flush-every for drim serve"
    ${DRIM_BIN} serve --index test.idx --queries q.fvecs --requests 8
    --dpus 8 --flush-every 4)
run_step_expect_usage_error("unknown flag --nprobe for drim build"
    ${DRIM_BIN} build --base base.bvecs --learn learn.fvecs --out unused.idx
    --nprobe 8)

# --trace must emit a Chrome-trace JSON that actually parses and carries the
# documented schema (displayTimeUnit, traceEvents with ph/pid/tid/ts).
# string(JSON) needs CMake >= 3.19; older CMakes still check the file exists
# and is non-trivial.
function(check_chrome_trace path)
  if(NOT EXISTS ${WORK_DIR}/${path})
    message(FATAL_ERROR "--trace did not write ${path}")
  endif()
  file(READ ${WORK_DIR}/${path} trace_json)
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    string(JSON unit ERROR_VARIABLE json_err GET "${trace_json}" displayTimeUnit)
    if(json_err)
      message(FATAL_ERROR "${path} is not valid JSON: ${json_err}")
    endif()
    if(NOT unit STREQUAL "ms")
      message(FATAL_ERROR "${path} displayTimeUnit is '${unit}', want 'ms'")
    endif()
    string(JSON n_events ERROR_VARIABLE json_err LENGTH "${trace_json}" traceEvents)
    if(json_err OR n_events LESS 2)
      message(FATAL_ERROR "${path} traceEvents missing or empty: ${json_err}")
    endif()
    # Every event carries the Chrome-trace required keys; spot-check the
    # first (a metadata record, no timestamp) and last (a timed event).
    math(EXPR last "${n_events} - 1")
    foreach(idx 0 ${last})
      string(JSON ph ERROR_VARIABLE json_err GET "${trace_json}" traceEvents ${idx} ph)
      if(json_err)
        message(FATAL_ERROR "${path} event ${idx} missing 'ph': ${json_err}")
      endif()
      set(keys pid tid)
      if(NOT ph STREQUAL "M")
        list(APPEND keys ts)
      endif()
      foreach(key ${keys})
        string(JSON v ERROR_VARIABLE json_err GET "${trace_json}" traceEvents ${idx} ${key})
        if(json_err)
          message(FATAL_ERROR "${path} event ${idx} missing '${key}': ${json_err}")
        endif()
      endforeach()
    endforeach()
  elseif(NOT trace_json MATCHES "traceEvents")
    message(FATAL_ERROR "${path} does not look like a Chrome trace")
  endif()
endfunction()

run_step(${DRIM_BIN} search --index test.idx --queries q.fvecs
         --k 10 --nprobe 8 --backend drim --dpus 8 --trace search_trace.json)
if(NOT STEP_OUTPUT MATCHES "wrote [0-9]+ trace events")
  message(FATAL_ERROR "search --trace did not report events: ${STEP_OUTPUT}")
endif()
check_chrome_trace(search_trace.json)

run_step(${DRIM_BIN} serve --index test.idx --queries q.fvecs --qps 500
         --requests 64 --dpus 8 --platform analytic
         --trace serve_trace.json --metrics serve_metrics.csv)
check_chrome_trace(serve_trace.json)
if(NOT EXISTS ${WORK_DIR}/serve_metrics.csv)
  message(FATAL_ERROR "--metrics did not write serve_metrics.csv")
endif()
file(READ ${WORK_DIR}/serve_metrics.csv metrics_csv)
if(NOT metrics_csv MATCHES "t_s,queue_depth,inflight,deferred_tasks")
  message(FATAL_ERROR "metrics CSV missing header: ${metrics_csv}")
endif()

message(STATUS "cli smoke ok")
