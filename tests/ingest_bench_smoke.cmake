# Smoke check for the store ingest benchmark: runs bench/ingest_throughput
# in --quick mode, then validates the BENCH_ingest.json it emits — the host
# it ran on (nproc, build type, git sha), the full grid of shards x
# producers x dispatch mode x entry point (per-sample append and one batch
# per minute per producer), and for every cell a positive rate with every
# appended sample delivered to the subscriber.
#
# Invoked by ctest as:
#   cmake -DBENCH=<ingest_throughput> -DWORK_DIR=<scratch dir> -P ingest_bench_smoke.cmake

foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(json_path "${WORK_DIR}/BENCH_ingest.json")
file(REMOVE "${json_path}")

execute_process(
  COMMAND "${BENCH}" --quick --json "${json_path}"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ingest_throughput failed (${rc}): ${err}")
endif()
if(NOT EXISTS "${json_path}")
  message(FATAL_ERROR "ingest_bench_smoke: ${json_path} was not written")
endif()
file(READ "${json_path}" json)

# Host block: a speed number is only comparable with where it was taken.
string(JSON nproc ERROR_VARIABLE jerr GET "${json}" host nproc)
if(jerr OR nproc LESS 1)
  message(FATAL_ERROR "ingest_bench_smoke: host.nproc missing or < 1: "
                      "${jerr}${nproc}")
endif()
foreach(key build_type git_sha)
  string(JSON v ERROR_VARIABLE jerr GET "${json}" host ${key})
  if(jerr OR v STREQUAL "")
    message(FATAL_ERROR
      "ingest_bench_smoke: host.${key} missing or empty: ${jerr}")
  endif()
endforeach()

string(JSON quick ERROR_VARIABLE jerr GET "${json}" workload quick)
if(jerr)
  message(FATAL_ERROR "ingest_bench_smoke: missing workload.quick: ${jerr}")
endif()

# The grid: 3 shard counts x 3 producer counts x 2 modes x 2 entry points.
string(JSON n ERROR_VARIABLE jerr LENGTH "${json}" cells)
if(jerr OR NOT n EQUAL 36)
  message(FATAL_ERROR "ingest_bench_smoke: expected 36 cells, got ${n} "
                      "${jerr}")
endif()
set(batch_cells 0)
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
  foreach(key shards producers samples delivered appends_per_s)
    string(JSON v ERROR_VARIABLE jerr GET "${json}" cells ${i} ${key})
    if(jerr)
      message(FATAL_ERROR
        "ingest_bench_smoke: cells[${i}].${key} missing: ${jerr}")
    endif()
    if(v LESS_EQUAL 0)
      message(FATAL_ERROR
        "ingest_bench_smoke: cells[${i}].${key} = ${v} (expected > 0)")
    endif()
  endforeach()
  string(JSON samples GET "${json}" cells ${i} samples)
  string(JSON delivered GET "${json}" cells ${i} delivered)
  if(NOT samples EQUAL delivered)
    message(FATAL_ERROR "ingest_bench_smoke: cells[${i}] delivered "
                        "${delivered} of ${samples} samples")
  endif()
  string(JSON append GET "${json}" cells ${i} append)
  if(append STREQUAL "batch")
    math(EXPR batch_cells "${batch_cells} + 1")
  elseif(NOT append STREQUAL "sample")
    message(FATAL_ERROR "ingest_bench_smoke: cells[${i}].append = ${append}")
  endif()
endforeach()
if(NOT batch_cells EQUAL 18)
  message(FATAL_ERROR "ingest_bench_smoke: expected 18 batch cells, got "
                      "${batch_cells}")
endif()

message(STATUS "ingest_bench_smoke OK: ${n} cells, every sample delivered")
