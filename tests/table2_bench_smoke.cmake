# Smoke check for the Table 2 benchmark: runs bench/table2_computation in
# --quick mode without the Google Benchmark sweep, then validates the
# BENCH_table2.json it emits — the host it ran on (nproc, build type, git
# sha), every row (FUNNEL every window, CUSUM, MRLS, exact improved SST,
# FUNNEL + cascade) with a positive median, ordered quartiles and a core
# count, and the CUSUM/FUNNEL and MRLS/FUNNEL speed ratios. It sets no
# timing bar: the record is what backs the Table 2 numbers in
# EXPERIMENTS.md.
#
# Invoked by ctest as:
#   cmake -DBENCH=<table2_computation> -DWORK_DIR=<scratch dir> -P table2_bench_smoke.cmake

foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(json_path "${WORK_DIR}/BENCH_table2.json")
file(REMOVE "${json_path}")

execute_process(
  COMMAND "${BENCH}" --quick --json "${json_path}" --benchmark_filter=NONE
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "table2_computation failed (${rc}): ${err}")
endif()
if(NOT EXISTS "${json_path}")
  message(FATAL_ERROR "table2_bench_smoke: ${json_path} was not written")
endif()
file(READ "${json_path}" json)

# Host block: a speed number is only comparable with where it was taken.
string(JSON nproc ERROR_VARIABLE jerr GET "${json}" host nproc)
if(jerr OR nproc LESS 1)
  message(FATAL_ERROR "table2_bench_smoke: host.nproc missing or < 1: "
                      "${jerr}${nproc}")
endif()
foreach(key build_type git_sha)
  string(JSON v ERROR_VARIABLE jerr GET "${json}" host ${key})
  if(jerr OR v STREQUAL "")
    message(FATAL_ERROR
      "table2_bench_smoke: host.${key} missing or empty: ${jerr}")
  endif()
endforeach()

string(JSON quick ERROR_VARIABLE jerr GET "${json}" workload quick)
if(jerr OR NOT quick)
  message(FATAL_ERROR "table2_bench_smoke: workload.quick missing or false: "
                      "${jerr}${quick}")
endif()

# Every row: positive windows, q1 <= median <= q3 with q1 > 0, and at least
# one core for 1M KPIs.
foreach(row funnel cusum mrls improved_sst funnel_cascaded)
  string(JSON windows ERROR_VARIABLE jerr GET "${json}" rows ${row} windows)
  if(jerr OR windows LESS 1)
    message(FATAL_ERROR
      "table2_bench_smoke: rows.${row}.windows missing or < 1: ${jerr}")
  endif()
  foreach(q q1 median q3)
    string(JSON ${q} ERROR_VARIABLE jerr
           GET "${json}" rows ${row} us_per_window ${q})
    if(jerr)
      message(FATAL_ERROR
        "table2_bench_smoke: rows.${row}.us_per_window.${q} missing: ${jerr}")
    endif()
  endforeach()
  # if(LESS/GREATER) compare the values as doubles.
  if(NOT q1 GREATER 0)
    message(FATAL_ERROR "table2_bench_smoke: rows.${row} q1 ${q1} is not "
                        "positive")
  endif()
  if(q1 GREATER median OR median GREATER q3)
    message(FATAL_ERROR "table2_bench_smoke: rows.${row} quartiles out of "
                        "order: ${q1} ${median} ${q3}")
  endif()
  string(JSON cores ERROR_VARIABLE jerr GET "${json}" rows ${row}
         cores_for_1m_kpis)
  if(jerr OR cores LESS 1)
    message(FATAL_ERROR
      "table2_bench_smoke: rows.${row}.cores_for_1m_kpis missing or < 1: "
      "${jerr}${cores}")
  endif()
endforeach()

foreach(key cusum_over_funnel mrls_over_funnel)
  string(JSON r ERROR_VARIABLE jerr GET "${json}" speed_ratios ${key})
  if(jerr OR NOT r GREATER 0)
    message(FATAL_ERROR
      "table2_bench_smoke: speed_ratios.${key} missing or zero: ${jerr}${r}")
  endif()
endforeach()

string(JSON funnel_us GET "${json}" rows funnel us_per_window median)
string(JSON cusum_ratio GET "${json}" speed_ratios cusum_over_funnel)
message(STATUS "table2_bench_smoke OK: FUNNEL ${funnel_us} us/window, "
               "${cusum_ratio}x faster than CUSUM")
