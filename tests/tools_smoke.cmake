# End-to-end smoke check for the tools + telemetry path:
#   funnel_generate -> funnel_detect_csv --change-minute --stats-json --trace
# The generated KPI carries 3 days of history and a level shift at the
# change minute, so the online pipeline must attribute it via the
# historical DiD (quorum 2), the stats snapshot must parse as JSON with
# the core telemetry keys, and the Chrome trace must parse with a
# traceEvents array. Also asserts: a dirty CSV (funnel_generate --faults)
# still assesses without crashing; a malformed or duplicate-timestamp CSV
# makes the tool exit non-zero (no silent skips); an unwritable --trace
# path exits 3. The --data-dir block covers the storage contract
# (docs/STORAGE.md): a fresh persistent run matches the in-memory stdout
# byte for byte, a second run recovers the store, so does a run on the
# store funnel_generate --data-dir wrote, a corrupted checkpoint exits 3,
# and --data-dir outside pipeline mode is bad usage (exit 2). A
# malformed numeric flag of either tool is bad usage too.
#
# Invoked by ctest as:
#   cmake -DGEN=<funnel_generate> -DDET=<funnel_detect_csv>
#         -DWORK_DIR=<scratch dir> -P tools_smoke.cmake

foreach(var GEN DET WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(csv "${WORK_DIR}/smoke_series.csv")
set(stats "${WORK_DIR}/smoke_stats.json")
set(trace "${WORK_DIR}/smoke_trace.json")

# 3 days of history before the change minute: the full-launch path runs
# the seasonality-exclusion DiD against real baseline days (quorum 2)
# instead of degrading to an inconclusive verdict.
set(change_minute 4380)
execute_process(
  COMMAND "${GEN}" --class stationary --minutes 4500 --seed 7
          --shift ${change_minute},8 --out "${csv}"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "funnel_generate failed (${rc}): ${err}")
endif()

execute_process(
  COMMAND "${DET}" "${csv}" --change-minute ${change_minute}
          --stats-json "${stats}" --trace "${trace}"
  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "funnel_detect_csv failed (${rc}): ${err}")
endif()
if(NOT out MATCHES "verdict: change has impact")
  message(FATAL_ERROR "expected an impact verdict, stdout was: ${out}")
endif()

file(READ "${stats}" json)
string(JSON enabled ERROR_VARIABLE jerr GET "${json}" enabled)
if(jerr)
  message(FATAL_ERROR "stats JSON did not parse: ${jerr}")
endif()
if(NOT enabled)
  message(FATAL_ERROR "stats JSON must report \"enabled\":true, got ${enabled}")
endif()
foreach(key
    "tsdb.store.appends"
    "funnel.online.samples_ingested"
    "funnel.online.verdicts_confirmed"
    "pool.tasks_executed")
  string(JSON val ERROR_VARIABLE jerr GET "${json}" counters "${key}")
  if(jerr)
    message(FATAL_ERROR "stats JSON missing counter '${key}'")
  endif()
endforeach()
string(JSON confirmed GET "${json}" counters "funnel.online.verdicts_confirmed")
if(confirmed LESS 1)
  message(FATAL_ERROR "pipeline confirmed no verdict (counter=${confirmed})")
endif()
string(JSON ttv ERROR_VARIABLE jerr GET "${json}"
       histograms "funnel.online.time_to_verdict_min" count)
if(jerr OR ttv LESS 1)
  message(FATAL_ERROR "time_to_verdict histogram empty or missing (${jerr})")
endif()

# The tool must announce where it wrote the side-channel outputs.
if(NOT err MATCHES "# wrote stats:" OR NOT err MATCHES "# wrote trace:")
  message(FATAL_ERROR "expected output-path notes on stderr, got: ${err}")
endif()

# The Chrome trace must be valid JSON with a traceEvents array; the
# assessment must have recorded spans, and every event needs the fields the
# trace viewer keys on.
file(READ "${trace}" tjson)
string(JSON nevents ERROR_VARIABLE jerr LENGTH "${tjson}" traceEvents)
if(jerr)
  message(FATAL_ERROR "trace JSON did not parse: ${jerr}")
endif()
if(nevents LESS 2)
  message(FATAL_ERROR "trace has ${nevents} events; expected spans")
endif()
math(EXPR last "${nevents} - 1")
string(JSON ph GET "${tjson}" traceEvents ${last} ph)
string(JSON name GET "${tjson}" traceEvents ${last} name)
string(JSON dur ERROR_VARIABLE jerr GET "${tjson}" traceEvents ${last} dur)
if(NOT ph STREQUAL "X" OR name STREQUAL "" OR jerr)
  message(FATAL_ERROR "trace event malformed: ph=${ph} name=${name} ${jerr}")
endif()
string(JSON recorded GET "${tjson}" otherData recorded)
if(recorded LESS 1)
  message(FATAL_ERROR "trace otherData.recorded=${recorded}")
endif()

# An unwritable --trace destination is a distinct failure (exit 3), after
# the assessment itself already ran.
execute_process(
  COMMAND "${DET}" "${csv}" --change-minute ${change_minute}
          --trace "${WORK_DIR}/no_such_dir/t.json"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "unwritable --trace path must exit 3, got ${rc}")
endif()

# Dirty telemetry must not crash the pipeline: the same KPI through the
# deterministic fault injector (drops, NaN bursts, duplicate + late
# delivery) still assesses end to end and prints a verdict line — either
# the clean attribution or an explicit inconclusive degradation.
set(dirty "${WORK_DIR}/smoke_dirty.csv")
execute_process(
  COMMAND "${GEN}" --class stationary --minutes 4500 --seed 7
          --shift ${change_minute},8
          --faults "drop=0.02,nan=0.01x4,dup=0.03,late=0.02x5"
          --fault-seed 11 --out "${dirty}"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "funnel_generate --faults failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "injected faults")
  message(FATAL_ERROR "expected an injected-faults note on stderr: ${err}")
endif()
execute_process(
  COMMAND "${DET}" "${dirty}" --change-minute ${change_minute}
  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dirty CSV must still assess, got (${rc}): ${err}")
endif()
if(NOT out MATCHES "verdict: ")
  message(FATAL_ERROR "dirty run printed no verdict, stdout was: ${out}")
endif()

# Non-monotonic timestamps are a corrupt export, not a gap: the reader
# rejects them with a line-numbered diagnostic and the tool exits non-zero.
set(dup "${WORK_DIR}/smoke_dup.csv")
file(WRITE "${dup}" "0,1.0\n1,1.5\n1,2.0\n2,2.5\n")
execute_process(COMMAND "${DET}" "${dup}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "duplicate-timestamp CSV must exit non-zero")
endif()
if(NOT err MATCHES "line 3")
  message(FATAL_ERROR "expected a line-numbered diagnostic, got: ${err}")
endif()

# A CSV that does not parse must fail the run, not be skipped silently.
set(bad "${WORK_DIR}/smoke_bad.csv")
file(WRITE "${bad}" "garbage,not,a,csv\nrow2\n")
execute_process(COMMAND "${DET}" "${bad}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "malformed CSV must exit non-zero")
endif()

# --data-dir (docs/STORAGE.md): a fresh persistent run must reproduce the
# in-memory verdict byte for byte on stdout, and leave a recoverable store
# (checkpoint + WAL + segment) behind.
set(data_dir "${WORK_DIR}/smoke_store")
file(REMOVE_RECURSE "${data_dir}")
execute_process(
  COMMAND "${DET}" "${csv}" --change-minute ${change_minute}
          --data-dir "${data_dir}"
  OUTPUT_VARIABLE pout RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--data-dir run failed (${rc}): ${err}")
endif()
execute_process(
  COMMAND "${DET}" "${csv}" --change-minute ${change_minute}
  OUTPUT_VARIABLE mout RESULT_VARIABLE rc ERROR_QUIET)
if(NOT pout STREQUAL mout)
  message(FATAL_ERROR
    "--data-dir stdout differs from the in-memory run:\n${pout}\nvs\n${mout}")
endif()
if(NOT EXISTS "${data_dir}/checkpoint")
  message(FATAL_ERROR "--data-dir run left no checkpoint in ${data_dir}")
endif()

# A second run recovers the store instead of re-inserting the CSV history
# and must still reach an impact verdict.
execute_process(
  COMMAND "${DET}" "${csv}" --change-minute ${change_minute}
          --data-dir "${data_dir}"
  OUTPUT_VARIABLE rout RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "recovered --data-dir run failed (${rc}): ${err}")
endif()
if(NOT rout MATCHES "verdict: change has impact")
  message(FATAL_ERROR "recovered run lost the verdict, stdout was: ${rout}")
endif()

# funnel_generate --data-dir writes the series as one batch and
# checkpoints; funnel_detect_csv recovers that store and must reach the
# impact verdict too.
set(gen_dir "${WORK_DIR}/smoke_gen_store")
file(REMOVE_RECURSE "${gen_dir}")
execute_process(
  COMMAND "${GEN}" --class stationary --minutes 4500 --seed 7
          --shift ${change_minute},8 --out "${WORK_DIR}/smoke_gen.csv"
          --data-dir "${gen_dir}"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "funnel_generate --data-dir failed (${rc}): ${err}")
endif()
if(NOT EXISTS "${gen_dir}/checkpoint")
  message(FATAL_ERROR "funnel_generate --data-dir left no checkpoint")
endif()
execute_process(
  COMMAND "${DET}" "${csv}" --change-minute ${change_minute}
          --data-dir "${gen_dir}"
  OUTPUT_VARIABLE gout RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run on the generated store failed (${rc}): ${err}")
endif()
if(NOT gout MATCHES "verdict: change has impact")
  message(FATAL_ERROR "generated store lost the verdict, stdout was: ${gout}")
endif()

# Corruption beyond what WAL-tail truncation repairs (a damaged checkpoint)
# is the storage contract's distinct failure: exit 3, like an unopenable
# output file.
file(WRITE "${data_dir}/checkpoint" "garbage, not a checkpoint")
execute_process(
  COMMAND "${DET}" "${csv}" --change-minute ${change_minute}
          --data-dir "${data_dir}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "corrupt --data-dir must exit 3, got ${rc}: ${err}")
endif()

# --data-dir outside pipeline mode (or with several CSVs) is bad usage.
execute_process(
  COMMAND "${DET}" "${csv}" --data-dir "${WORK_DIR}/smoke_store2"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--data-dir without --change-minute must exit 2, got ${rc}")
endif()

# Persistence counters surface uniformly (docs/OBSERVABILITY.md): a
# --data-dir run's --stats-json must carry the wal.* counters, the WAL
# commit-latency histogram, and the segment-count gauge.
set(wal_stats "${WORK_DIR}/smoke_wal_stats.json")
set(wal_dir "${WORK_DIR}/smoke_wal_store")
file(REMOVE_RECURSE "${wal_dir}")
execute_process(
  COMMAND "${DET}" "${csv}" --change-minute ${change_minute}
          --data-dir "${wal_dir}" --stats-json "${wal_stats}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--data-dir --stats-json run failed (${rc}): ${err}")
endif()
file(READ "${wal_stats}" wjson)
foreach(key "funnel.wal.records" "funnel.wal.batches" "funnel.wal.bytes")
  string(JSON val ERROR_VARIABLE jerr GET "${wjson}" counters "${key}")
  if(jerr OR val LESS 1)
    message(FATAL_ERROR "stats JSON counter '${key}' missing or zero (${jerr})")
  endif()
endforeach()
string(JSON commits ERROR_VARIABLE jerr GET "${wjson}"
       histograms "funnel.wal.commit_us" count)
if(jerr OR commits LESS 1)
  message(FATAL_ERROR "funnel.wal.commit_us histogram empty or missing (${jerr})")
endif()
foreach(key "funnel.persist.segments")
  string(JSON val ERROR_VARIABLE jerr GET "${wjson}" gauges "${key}")
  if(jerr)
    message(FATAL_ERROR "stats JSON gauge '${key}' missing (${jerr})")
  endif()
endforeach()
# The run logs two WAL batches: the watch marker, then the post-change
# samples appended as one batch (not one commit per sample).
string(JSON batches GET "${wjson}" counters "funnel.wal.batches")
if(NOT batches EQUAL 2)
  message(FATAL_ERROR "funnel.wal.batches must be 2 (watch marker + one "
                      "sample batch), got ${batches}")
endif()

# A numeric flag must parse whole (exit 2, never a silent 0, a wrapped
# count or an abort): junk values, a sign on a count, and a value that
# parses but the detector rejects.
foreach(flag "--omega;abc" "--threshold;0.3x" "--change-minute;12abc"
             "--threads;many")
  execute_process(COMMAND "${DET}" "${csv}" ${flag}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "malformed '${flag}' must exit 2, got ${rc}")
  endif()
endforeach()
foreach(flag "--persistence;-1" "--threads;-1")
  execute_process(COMMAND "${DET}" "${csv}" ${flag}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT rc EQUAL 2 OR out MATCHES "no behavior changes")
    message(FATAL_ERROR "signed count '${flag}' must exit 2, got ${rc}: ${out}")
  endif()
endforeach()
execute_process(COMMAND "${DET}" "${csv}" --omega 1
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "error: ")
  message(FATAL_ERROR "--omega 1 must exit 2 with the detector's message, "
                      "got ${rc}: ${err}")
endif()

# funnel_generate's numeric flags too, each comma field included: exit 2
# and no CSV, where the tool used to write 0 samples (--minutes abc), abort
# (--minutes -5) or run with a truncated value (--seed 12x).
set(gen_csv "${WORK_DIR}/malformed_flag.csv")
foreach(flag "--minutes;abc" "--minutes;-5" "--minutes;0" "--seed;-3"
             "--seed;12x" "--fault-seed;x" "--shift;30x,2y" "--shift;300"
             "--ramp;10,20" "--ramp;10,20,1,2" "--spike;10,-2,3.0")
  file(REMOVE "${gen_csv}")
  execute_process(COMMAND "${GEN}" --class stationary ${flag}
                          --out "${gen_csv}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2 OR EXISTS "${gen_csv}")
    message(FATAL_ERROR "funnel_generate '${flag}' must exit 2 and write "
                        "nothing, got ${rc}")
  endif()
endforeach()
execute_process(COMMAND "${GEN}" --class stationary --minutes 60 --seed 3
                        --shift 30,2.5 --spike 40,2,-1e1 --out "${gen_csv}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
file(STRINGS "${gen_csv}" gen_lines)
list(LENGTH gen_lines n_gen)
if(NOT rc EQUAL 0 OR NOT n_gen EQUAL 61)
  message(FATAL_ERROR "well-formed funnel_generate flags must write 60 "
                      "samples, got exit ${rc} and ${n_gen} lines")
endif()

message(STATUS "tools smoke OK")
