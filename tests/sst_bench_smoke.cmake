# Smoke check for the SST hot-path benchmark: runs bench/sst_hotpath in
# --quick mode, then validates the BENCH_sst.json it emits — the file must
# parse as JSON, name the host it ran on (nproc, build type, git sha), carry
# every tier (cold/warm/cascaded) with us_per_window + cores_for_1m_kpis,
# the speedup and fidelity blocks, and the headline acceptance number:
# cascaded (warm + cascade) vs cold speedup >= 5.
#
# Invoked by ctest as:
#   cmake -DBENCH=<sst_hotpath> -DWORK_DIR=<scratch dir> -P sst_bench_smoke.cmake

foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(json_path "${WORK_DIR}/BENCH_sst.json")

execute_process(
  COMMAND "${BENCH}" --quick --json "${json_path}"
  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sst_hotpath failed (${rc}): ${err}")
endif()

file(READ "${json_path}" json)

# Workload block: the bench must say what it measured.
string(JSON workload_class ERROR_VARIABLE jerr GET "${json}" workload class)
if(jerr)
  message(FATAL_ERROR "BENCH_sst.json did not parse: ${jerr}")
endif()

# Host block: a speed number is only comparable with where it was taken.
string(JSON nproc ERROR_VARIABLE jerr GET "${json}" host nproc)
if(jerr OR nproc LESS 1)
  message(FATAL_ERROR "host.nproc missing or < 1: ${jerr}${nproc}")
endif()
foreach(key build_type git_sha)
  string(JSON v ERROR_VARIABLE jerr GET "${json}" host ${key})
  if(jerr OR v STREQUAL "")
    message(FATAL_ERROR "host.${key} missing or empty: ${jerr}")
  endif()
endforeach()
string(JSON windows GET "${json}" workload windows)
if(windows LESS 1)
  message(FATAL_ERROR "workload.windows must be positive, got ${windows}")
endif()

# Every tier must report a positive us_per_window and a core count.
foreach(tier cold warm cascaded)
  string(JSON us ERROR_VARIABLE jerr GET "${json}" tiers ${tier} us_per_window)
  if(jerr)
    message(FATAL_ERROR "tiers.${tier}.us_per_window missing: ${jerr}")
  endif()
  if(us LESS_EQUAL 0)
    message(FATAL_ERROR "tiers.${tier}.us_per_window must be > 0, got ${us}")
  endif()
  string(JSON cores ERROR_VARIABLE jerr GET "${json}" tiers ${tier} cores_for_1m_kpis)
  if(jerr)
    message(FATAL_ERROR "tiers.${tier}.cores_for_1m_kpis missing: ${jerr}")
  endif()
endforeach()

# Speedup + fidelity blocks.
foreach(key warm_vs_cold cascaded_vs_cold)
  string(JSON s ERROR_VARIABLE jerr GET "${json}" speedup ${key})
  if(jerr)
    message(FATAL_ERROR "speedup.${key} missing: ${jerr}")
  endif()
endforeach()
string(JSON corr ERROR_VARIABLE jerr GET "${json}" fidelity warm_vs_exact_corr)
if(jerr)
  message(FATAL_ERROR "fidelity.warm_vs_exact_corr missing: ${jerr}")
endif()

# The acceptance bar: the cascaded hot path (warm scorer + cascade) is at
# least 5x cheaper per window than cold restarts on the Table 2 workload.
string(JSON cascaded_speedup GET "${json}" speedup cascaded_vs_cold)
if(cascaded_speedup LESS 5)
  message(FATAL_ERROR
    "cascaded_vs_cold speedup ${cascaded_speedup} < 5 — hot path regressed")
endif()

message(STATUS "sst_bench_smoke OK: cascaded_vs_cold=${cascaded_speedup}x, "
               "warm_vs_exact_corr=${corr}")
