# Runs every bench executable on a reduced workload with
# DP_BENCH_METRICS_DIR pointed at OUT_DIR (each bench names its own
# BENCH_<id>.json), validates the emitted dp.metrics.v1 documents,
# aggregates them into BENCH_summary.json, diffs BENCH_bdd_ops.json
# against the checked-in perf baseline, checks the span/profiler trace
# perf_hybrid emits (validate_metrics + dptrace coverage assertion),
# runs the dpfuzz differential fuzz corpus (DP_FUZZ_BUDGET env var
# scales the case count), runs the bdd/store/verify test binaries plus a
# reduced fuzz corpus under the `asan` preset, and finally reruns the
# concurrent surfaces (serving layer, parallel engine, artifact store)
# under the `tsan` preset. Driven by the `bench_smoke` custom target:
#
#   cmake -DBENCH_DIR=<bindir>/bench -DOUT_DIR=<bindir>/bench_smoke \
#         -DVALIDATOR=<bindir>/bench/validate_metrics \
#         -DBENCHES="fig1_sa_histograms;..." \
#         [-DBASELINE=<srcdir>/bench/baselines/BENCH_bdd_ops.json] \
#         [-DTOLERANCE=3.0] [-DSTRICT=ON] [-DSOURCE_DIR=<srcdir>] \
#         -P smoke.cmake
#
# DP_BENCH_BF_COUNT=50 keeps the bridging-fault samples small; the
# google-benchmark benches are filtered to one cheap case each so the
# smoke pass checks the telemetry plumbing, not steady-state performance.
# The perf-regression guard warns by default (smoke runs share the
# machine with the build); configure with -DDP_BENCH_STRICT=ON -- or set
# the DP_BENCH_STRICT=ON environment variable -- to make guard
# violations fail the target.
if(NOT BENCH_DIR OR NOT OUT_DIR OR NOT VALIDATOR OR NOT BENCHES)
  message(FATAL_ERROR "smoke.cmake needs BENCH_DIR, OUT_DIR, VALIDATOR, BENCHES")
endif()
# BENCHES arrives comma-separated (see bench/CMakeLists.txt).
string(REPLACE "," ";" BENCHES "${BENCHES}")
if(DEFINED ENV{DP_BENCH_STRICT} AND "$ENV{DP_BENCH_STRICT}" STREQUAL "ON")
  set(STRICT ON)
endif()
if(NOT TOLERANCE)
  set(TOLERANCE 3.0)
endif()
# Node-count gauges (peak_live_nodes and friends) are load-independent,
# so they get a tighter band than throughput numbers.
if(NOT NODE_TOLERANCE)
  set(NODE_TOLERANCE 1.5)
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
# Stale documents from an earlier pass would otherwise survive into the
# glob below and be re-validated as if fresh.
file(GLOB _stale "${OUT_DIR}/BENCH_*.json")
if(_stale)
  file(REMOVE ${_stale})
endif()

foreach(bench IN LISTS BENCHES)
  set(extra "")
  if(bench STREQUAL "perf_bdd_ops")
    set(extra "--benchmark_filter=BM_Negate/16$")
  elseif(bench STREQUAL "perf_dp_vs_exhaustive")
    set(extra "--benchmark_filter=BM_DifferencePropagation/1$")
  elseif(bench STREQUAL "perf_hybrid")
    # Reduced workload: the headline resolution/speedup shape checks are
    # self-skipped off the default c1908/4096 configuration. This bench
    # also exercises the span/profiler pipeline end to end: the trace it
    # writes is validated and analyzed below.
    set(extra --circuit c432 --patterns 512
        --trace-out "${OUT_DIR}/TRACE_hybrid.json")
  elseif(bench STREQUAL "fig_ndetect")
    # Reduced workload: one mid-size circuit to a low n -- the exact
    # recount cross-check and the dp.metrics.v1 document shape are what
    # the smoke pass gates, not the full four-circuit curve.
    set(extra --circuits c432 --max-n 2)
  endif()
  message(STATUS "bench_smoke: ${bench}")
  execute_process(
      COMMAND "${CMAKE_COMMAND}" -E env DP_BENCH_BF_COUNT=50
              "DP_BENCH_METRICS_DIR=${OUT_DIR}"
              "${BENCH_DIR}/${bench}" ${extra}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${bench} exited ${rc}:\n${out}")
  endif()
endforeach()

file(GLOB json_files "${OUT_DIR}/BENCH_*.json")
list(REMOVE_ITEM json_files "${OUT_DIR}/BENCH_summary.json")
if(NOT json_files)
  message(FATAL_ERROR "bench_smoke: no BENCH_*.json documents were emitted")
endif()

# --strict is independent of the baseline guard: it also hard-fails the
# run on dropped trace events/spans (ring wrap = partial attribution).
set(guard_args "")
if(BASELINE)
  if(NOT EXISTS "${BASELINE}")
    message(FATAL_ERROR "bench_smoke: baseline ${BASELINE} does not exist")
  endif()
  set(guard_args --baseline "${BASELINE}" --tolerance "${TOLERANCE}")
endif()
if(STRICT)
  list(APPEND guard_args --strict)
endif()

execute_process(
    COMMAND "${VALIDATOR}" --summary "${OUT_DIR}/BENCH_summary.json"
            ${guard_args} ${json_files}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: metrics validation failed (${rc})")
endif()
message(STATUS "bench_smoke: all documents valid; summary at "
               "${OUT_DIR}/BENCH_summary.json")

# Second guard pass: the parallel-sweep baseline carries the shared-forest
# node-footprint gauges (dp.peak_live_nodes, dp.frozen_nodes, ...), which
# are deterministic for a fixed workload -- the tighter NODE_TOLERANCE
# band applies to those keys, TOLERANCE to the rest.
if(BASELINE_PARALLEL)
  if(NOT EXISTS "${BASELINE_PARALLEL}")
    message(FATAL_ERROR
            "bench_smoke: baseline ${BASELINE_PARALLEL} does not exist")
  endif()
  set(par_guard --baseline "${BASELINE_PARALLEL}" --tolerance "${TOLERANCE}"
      --node-tolerance "${NODE_TOLERANCE}")
  if(STRICT)
    list(APPEND par_guard --strict)
  endif()
  execute_process(
      COMMAND "${VALIDATOR}" ${par_guard} ${json_files}
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "bench_smoke: parallel-sweep node guard failed (${rc})")
  endif()
  message(STATUS "bench_smoke: shared-forest node guard clean "
                 "(node tolerance ${NODE_TOLERANCE}x)")
endif()

# ---- Trace pipeline ------------------------------------------------------
# perf_hybrid wrote a dp.trace.v1 span/profile document above; it must
# validate (dropped spans fail under STRICT) and dptrace's root-span
# attribution must cover at least half the run's wall clock.
if(NOT EXISTS "${OUT_DIR}/TRACE_hybrid.json")
  message(FATAL_ERROR "bench_smoke: perf_hybrid emitted no trace document")
endif()
set(trace_strict "")
if(STRICT)
  set(trace_strict --strict)
endif()
execute_process(
    COMMAND "${VALIDATOR}" ${trace_strict} "${OUT_DIR}/TRACE_hybrid.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: trace validation failed (${rc})")
endif()
if(DPTRACE)
  execute_process(
      COMMAND "${DPTRACE}" "${OUT_DIR}/TRACE_hybrid.json"
              --assert-coverage 0.5
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: dptrace analysis failed (${rc}):\n${out}")
  endif()
  message(STATUS "bench_smoke: trace pipeline clean (TRACE_hybrid.json)")
endif()

# ---- Differential fuzz corpus -------------------------------------------
# The dpfuzz oracle matrix over a fixed-seed corpus, at --jobs 1 and
# --jobs 4, plus the mutation self-test. Set the DP_FUZZ_BUDGET
# environment variable to a case count to turn the default 50-case smoke
# corpus into a long campaign (e.g. DP_FUZZ_BUDGET=10000).
if(DPFUZZ)
  set(fuzz_cases 50)
  if(DEFINED ENV{DP_FUZZ_BUDGET} AND NOT "$ENV{DP_FUZZ_BUDGET}" STREQUAL "")
    set(fuzz_cases "$ENV{DP_FUZZ_BUDGET}")
  endif()
  message(STATUS "bench_smoke: dpfuzz mutation self-test")
  execute_process(
      COMMAND "${DPFUZZ}" --seed 1 --cases 2 --max-inputs 6 --max-gates 20
              --jobs 2 --no-store --self-test --quiet
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: dpfuzz self-test failed (${rc}):\n${out}")
  endif()
  foreach(jobs IN ITEMS 1 4)
    message(STATUS
            "bench_smoke: dpfuzz corpus (${fuzz_cases} cases, jobs ${jobs})")
    execute_process(
        COMMAND "${DPFUZZ}" --seed 42 --cases ${fuzz_cases} --jobs ${jobs}
                --quiet --scratch-dir "${OUT_DIR}/fuzz_scratch_j${jobs}"
                --repro-dir "${OUT_DIR}/fuzz_repro_j${jobs}"
                --metrics-json "${OUT_DIR}/FUZZ_jobs${jobs}.json"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
              "bench_smoke: dpfuzz --jobs ${jobs} failed (${rc}):\n${out}")
    endif()
    execute_process(
        COMMAND "${VALIDATOR}" "${OUT_DIR}/FUZZ_jobs${jobs}.json"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
              "bench_smoke: fuzz report validation failed (${rc})")
    endif()
  endforeach()
  message(STATUS "bench_smoke: fuzz corpus clean (${fuzz_cases} cases)")
endif()

# ---- ASan pass over the kernel/store test binaries ----------------------
# The complement-edge kernel and the v2 forest loader are the two places
# where an off-by-one on the complement bit corrupts memory instead of
# failing a test, so the smoke target reruns their suites under the
# `asan` preset (ASan+UBSan, build-asan/). ops_test joins them because the
# option validator reads JSON that arrives from dpserved's socket.
if(SOURCE_DIR)
  set(asan_tests bdd_test bdd_reorder_test gc_stress_test frozen_forest_test
      store_test verify_test sim_test hybrid_test ndetect_test ops_test)
  message(STATUS "bench_smoke: configuring asan preset")
  execute_process(
      COMMAND "${CMAKE_COMMAND}" --preset asan
      WORKING_DIRECTORY "${SOURCE_DIR}"
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: asan configure failed (${rc}):\n${out}")
  endif()
  execute_process(
      COMMAND "${CMAKE_COMMAND}" --build "${SOURCE_DIR}/build-asan"
              --parallel --target ${asan_tests} dpfuzz
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: asan build failed (${rc}):\n${out}")
  endif()
  foreach(test IN LISTS asan_tests)
    message(STATUS "bench_smoke: asan ${test}")
    execute_process(
        COMMAND "${SOURCE_DIR}/build-asan/tests/${test}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "bench_smoke: asan ${test} failed (${rc}):\n${out}")
    endif()
  endforeach()
  # The fixed-seed fuzz corpus again, instrumented: the oracle matrix
  # stresses the engines with adversarial shapes, so a clean functional
  # pass can still hide latent memory errors ASan would catch. A reduced
  # case count keeps the (roughly 10x slower) instrumented run bounded.
  message(STATUS "bench_smoke: asan dpfuzz corpus")
  execute_process(
      COMMAND "${SOURCE_DIR}/build-asan/examples/dpfuzz"
              --seed 42 --cases 25 --jobs 2 --quiet
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: asan dpfuzz failed (${rc}):\n${out}")
  endif()
  message(STATUS "bench_smoke: asan pass clean (${asan_tests} dpfuzz)")

  # ---- TSan pass over the concurrent surfaces ---------------------------
  # The serving layer (worker pool, bounded admission queue, reader
  # threads, drain) and the parallel sweep engine are the two places a
  # data race survives functional testing; rerun their suites under the
  # `tsan` preset (build-tsan/). The c432 identity case is excluded: it
  # is a single-threaded determinism check and dominates instrumented
  # runtime without adding thread coverage.
  set(tsan_tests serve_test parallel_engine_test frozen_forest_test
      store_test ndetect_test)
  message(STATUS "bench_smoke: configuring tsan preset")
  execute_process(
      COMMAND "${CMAKE_COMMAND}" --preset tsan
      WORKING_DIRECTORY "${SOURCE_DIR}"
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: tsan configure failed (${rc}):\n${out}")
  endif()
  execute_process(
      COMMAND "${CMAKE_COMMAND}" --build "${SOURCE_DIR}/build-tsan"
              --parallel --target ${tsan_tests}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: tsan build failed (${rc}):\n${out}")
  endif()
  foreach(test IN LISTS tsan_tests)
    set(tsan_filter "")
    if(test STREQUAL "serve_test")
      set(tsan_filter
          "--gtest_filter=-Suite/FieldIdentityTest.ServedEqualsInProcessAtWorkers1And4/2")
    endif()
    message(STATUS "bench_smoke: tsan ${test}")
    execute_process(
        COMMAND "${SOURCE_DIR}/build-tsan/tests/${test}" ${tsan_filter}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "bench_smoke: tsan ${test} failed (${rc}):\n${out}")
    endif()
  endforeach()
  message(STATUS "bench_smoke: tsan pass clean (${tsan_tests})")
endif()
