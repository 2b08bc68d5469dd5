# End-to-end triage smoke: generate a KPI with an injected shift, assess it
# through funnel_detect_csv --change-minute with --journal, then feed the
# journal to funnel_triage and validate the JSON + markdown reports. The
# whole surface in one pipe: journal write path, JSONL codec, replay,
# scorecards, blame, rules, both renderers.
#
# Invoked by ctest as:
#   cmake -DGEN=<funnel_generate> -DDET=<funnel_detect_csv>
#         -DTRIAGE=<funnel_triage> -DWORK_DIR=<scratch dir>
#         -P triage_smoke.cmake

foreach(var GEN DET TRIAGE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
cmake_policy(SET CMP0054 NEW)  # quoted if() operands stay literal
set(csv_file "${WORK_DIR}/kpi.csv")
set(journal "${WORK_DIR}/verdicts.jsonl")
set(triage_json "${WORK_DIR}/triage.json")
set(triage_md "${WORK_DIR}/triage.md")

execute_process(
  COMMAND "${GEN}" --class stationary --minutes 2880 --seed 7
          --shift 2000,8.0 --out "${csv_file}"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "funnel_generate failed (${rc}): ${err}")
endif()

execute_process(
  COMMAND "${DET}" "${csv_file}" --change-minute 2000 --journal "${journal}"
  OUTPUT_VARIABLE det_out RESULT_VARIABLE rc ERROR_VARIABLE det_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "funnel_detect_csv failed (${rc}): ${det_err}")
endif()
if(NOT det_err MATCHES "# wrote journal: ")
  message(FATAL_ERROR "missing journal notice on stderr: ${det_err}")
endif()
if(NOT EXISTS "${journal}")
  message(FATAL_ERROR "journal file was not created")
endif()

# --journal on an unopenable path exits 3, like --stats-json/--trace, and
# so does one that opens but cannot be written (/dev/full: every flush
# fails), where the events never reach the file.
set(bad_journals "${WORK_DIR}/no/such/dir/j.jsonl")
if(EXISTS "/dev/full")
  list(APPEND bad_journals "/dev/full")
endif()
foreach(bad ${bad_journals})
  execute_process(
    COMMAND "${DET}" "${csv_file}" --change-minute 2000 --journal "${bad}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 3 OR NOT err MATCHES "error: cannot write ${bad}")
    message(FATAL_ERROR "unwritable --journal ${bad} must exit 3 naming the "
                        "path, got ${rc}: ${err}")
  endif()
endforeach()

# Count journaled events: the run makes at least one determination.
file(STRINGS "${journal}" journal_lines)
list(LENGTH journal_lines n_events)
if(n_events LESS 1)
  message(FATAL_ERROR "journal holds no events")
endif()

execute_process(
  COMMAND "${TRIAGE}" "${journal}" --json "${triage_json}" --md "${triage_md}"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "funnel_triage failed (${rc}): ${err}")
endif()

file(READ "${triage_json}" json)
string(JSON events ERROR_VARIABLE jerr GET "${json}" events)
if(jerr)
  message(FATAL_ERROR "triage.json did not parse: ${jerr}")
endif()
if(NOT events EQUAL n_events)
  message(FATAL_ERROR
    "triage consumed ${events} events but the journal holds ${n_events}")
endif()

string(JSON total_events GET "${json}" totals events)
if(NOT total_events EQUAL n_events)
  message(FATAL_ERROR "totals.events ${total_events} != ${n_events}")
endif()

# The single-KPI run yields one determination: one service card, one KPI
# card, one blame cluster.
string(JSON svc_key GET "${json}" by_service 0 key)
if(NOT svc_key STREQUAL "csv")
  message(FATAL_ERROR "expected service card 'csv', got '${svc_key}'")
endif()
string(JSON n_clusters LENGTH "${json}" blame)
if(n_clusters LESS 1)
  message(FATAL_ERROR "expected at least one blame cluster")
endif()
string(JSON det GET "${json}" totals detected)
if(det LESS 1)
  message(FATAL_ERROR "the 8-sigma shift must be detected, got ${det}")
endif()

file(READ "${triage_md}" md)
if(NOT md MATCHES "# Triage report")
  message(FATAL_ERROR "markdown report missing its header")
endif()

# funnel_triage on a missing journal exits 1.
execute_process(
  COMMAND "${TRIAGE}" "${WORK_DIR}/absent.jsonl"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "missing journal must exit 1, got ${rc}")
endif()

# A numeric flag must parse whole and in range (exit 2), where atoll/atof
# used to read junk as 0 and wrap a sign on a count.
foreach(flag "--min-support;abc" "--min-support;-2" "--max-rules;-1"
             "--max-rules;5x" "--min-confidence;xyz"
             "--min-confidence;1.5" "--min-confidence;-0.1"
             "--overlap-window;-7" "--overlap-window;60m")
  execute_process(COMMAND "${TRIAGE}" "${journal}" ${flag}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "error: malformed value")
    message(FATAL_ERROR "funnel_triage '${flag}' must exit 2, got ${rc}: "
                        "${err}")
  endif()
endforeach()
execute_process(
  COMMAND "${TRIAGE}" "${journal}" --min-support 1 --max-rules 3
          --min-confidence 1 --overlap-window 0
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "well-formed funnel_triage flags must exit 0, got ${rc}")
endif()

message(STATUS "triage_smoke OK: ${n_events} events journaled and triaged")
