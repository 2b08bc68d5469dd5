# Service-plane benchmark smoke: run bench/service_throughput --quick and
# validate the BENCH_service.json shape — the host it ran on (nproc, build
# type, git sha), every grid point sustained a positive samples/s through
# the live HTTP path, and every watch cycle produced its verdict (the bench
# exits 1 if a verdict goes missing).
# Usage:
#   cmake -DBENCH=<service_throughput> -DWORK_DIR=<dir> -P service_bench_smoke.cmake

foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "service_bench_smoke: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(json_path "${WORK_DIR}/BENCH_service.json")

execute_process(
  COMMAND "${BENCH}" --quick --json "${json_path}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "service_bench_smoke: bench exited with ${rc}")
endif()

if(NOT EXISTS "${json_path}")
  message(FATAL_ERROR "service_bench_smoke: ${json_path} was not written")
endif()
file(READ "${json_path}" json)

# Host block: a speed number is only comparable with where it was taken.
string(JSON nproc ERROR_VARIABLE jerr GET "${json}" host nproc)
if(jerr OR nproc LESS 1)
  message(FATAL_ERROR "service_bench_smoke: host.nproc missing or < 1: "
                      "${jerr}${nproc}")
endif()
foreach(key build_type git_sha)
  string(JSON v ERROR_VARIABLE jerr GET "${json}" host ${key})
  if(jerr OR v STREQUAL "")
    message(FATAL_ERROR
      "service_bench_smoke: host.${key} missing or empty: ${jerr}")
  endif()
endforeach()

# Shape: workload block, a non-empty grid, and the verdict block.
string(JSON quick ERROR_VARIABLE jerr GET "${json}" workload quick)
if(jerr)
  message(FATAL_ERROR "service_bench_smoke: missing workload.quick: ${jerr}")
endif()

string(JSON grid_len ERROR_VARIABLE jerr LENGTH "${json}" grid)
if(jerr OR grid_len LESS 1)
  message(FATAL_ERROR "service_bench_smoke: empty or missing grid: ${jerr}")
endif()
math(EXPR last "${grid_len} - 1")
foreach(i RANGE ${last})
  foreach(key tenants producers samples_per_s p95_request_ms)
    string(JSON v ERROR_VARIABLE jerr GET "${json}" grid ${i} ${key})
    if(jerr)
      message(FATAL_ERROR
        "service_bench_smoke: grid[${i}].${key} missing: ${jerr}")
    endif()
    if(v LESS_EQUAL 0)
      message(FATAL_ERROR
        "service_bench_smoke: grid[${i}].${key} = ${v} (expected > 0)")
    endif()
  endforeach()
endforeach()

foreach(key watches p95_ms max_ms)
  string(JSON v ERROR_VARIABLE jerr GET "${json}" verdict ${key})
  if(jerr)
    message(FATAL_ERROR "service_bench_smoke: verdict.${key} missing: ${jerr}")
  endif()
  if(v LESS_EQUAL 0)
    message(FATAL_ERROR
      "service_bench_smoke: verdict.${key} = ${v} (expected > 0)")
  endif()
endforeach()

string(JSON p95 GET "${json}" verdict p95_ms)
message(STATUS
  "service_bench_smoke: OK — ${grid_len} grid points, verdict p95 ${p95} ms")
