# Smoke check for the journal-overhead benchmark: runs bench/journal_overhead
# in --quick mode, validates the BENCH_journal.json shape, and enforces the
# acceptance bar from docs/TRIAGE.md — attaching the verdict journal costs
# < 2% on assess_window (overhead_ratio < 1.02) and every verdict the runs
# returned is in the file (dropped == 0).
#
# Invoked by ctest as:
#   cmake -DBENCH=<journal_overhead> -DWORK_DIR=<scratch dir>
#         -P journal_bench_smoke.cmake

foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(json_path "${WORK_DIR}/BENCH_journal.json")

# A CI machine under load can push even the median pair ratio past the
# bar; a couple of retries keep the gate meaningful without making it flaky.
foreach(attempt RANGE 1 3)
  execute_process(
    COMMAND "${BENCH}" --quick --json "${json_path}"
    OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "journal_overhead failed (${rc}): ${err}")
  endif()
  file(READ "${json_path}" json)
  string(JSON ratio ERROR_VARIABLE jerr GET "${json}" overhead_ratio)
  if(NOT jerr AND ratio LESS 1.02)
    break()
  endif()
  message(STATUS "attempt ${attempt}: overhead_ratio=${ratio}, retrying")
endforeach()

string(JSON verdicts ERROR_VARIABLE jerr GET "${json}" workload verdicts_per_run)
if(jerr)
  message(FATAL_ERROR "BENCH_journal.json did not parse: ${jerr}")
endif()
if(verdicts LESS 1)
  message(FATAL_ERROR "workload.verdicts_per_run must be positive, got ${verdicts}")
endif()

foreach(key off_us_per_verdict on_us_per_verdict overhead_ratio)
  string(JSON v ERROR_VARIABLE jerr GET "${json}" ${key})
  if(jerr)
    message(FATAL_ERROR "${key} missing: ${jerr}")
  endif()
  if(v LESS_EQUAL 0)
    message(FATAL_ERROR "${key} must be > 0, got ${v}")
  endif()
endforeach()

string(JSON dropped GET "${json}" journal dropped)
if(NOT dropped EQUAL 0)
  message(FATAL_ERROR "journal lacks ${dropped} of the verdicts the runs returned")
endif()

# The overhead bar only means something when events actually flowed.
string(JSON events GET "${json}" journal events_per_run)
if(events LESS 1)
  message(FATAL_ERROR "journal.events_per_run must be positive, got ${events}")
endif()
string(JSON ratio GET "${json}" overhead_ratio)
if(ratio GREATER_EQUAL 1.02)
  message(FATAL_ERROR
    "journal overhead ratio ${ratio} >= 1.02 — the hot path is paying for the journal")
endif()

message(STATUS "journal_bench_smoke OK: overhead_ratio=${ratio}, "
               "events_per_run=${events}")
