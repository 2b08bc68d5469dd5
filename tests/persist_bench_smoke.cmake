# Smoke check for the persistent-store benchmark: runs bench/wal_throughput
# in --quick mode, then validates the BENCH_persist.json it emits — the
# file must parse as JSON and carry the three cost blocks docs/STORAGE.md
# budgets for (WAL append rate per sample and per minute batch, segment
# flush latency, window reads from memory), with sane values: positive
# throughput, every appended record of both rows accounted for by the WAL,
# at least one segment, and a positive read cost.
#
# Invoked by ctest as:
#   cmake -DBENCH=<wal_throughput> -DWORK_DIR=<scratch dir> -P persist_bench_smoke.cmake

foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(json_path "${WORK_DIR}/BENCH_persist.json")

execute_process(
  COMMAND "${BENCH}" --quick --json "${json_path}" --dir "${WORK_DIR}/store"
  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "wal_throughput failed (${rc}): ${err}")
endif()

file(READ "${json_path}" json)

# Workload block: the bench must say what it measured.
string(JSON records ERROR_VARIABLE jerr GET "${json}" workload records)
if(jerr)
  message(FATAL_ERROR "BENCH_persist.json did not parse: ${jerr}")
endif()
if(records LESS 1)
  message(FATAL_ERROR "workload.records must be positive, got ${records}")
endif()

# WAL blocks, one per row (per-sample appends, one batch per minute): every
# appended record hit the log, at a positive rate.
foreach(row wal wal_batch)
  string(JSON wal_records ERROR_VARIABLE jerr GET "${json}" ${row}
         records_written)
  if(jerr)
    message(FATAL_ERROR "${row}.records_written missing: ${jerr}")
  endif()
  if(NOT wal_records EQUAL records)
    message(FATAL_ERROR
      "${row} lost records: appended ${records}, logged ${wal_records}")
  endif()
  foreach(key records_per_s mb_per_s bytes)
    string(JSON v ERROR_VARIABLE jerr GET "${json}" ${row} ${key})
    if(jerr)
      message(FATAL_ERROR "${row}.${key} missing: ${jerr}")
    endif()
    if(v LESS_EQUAL 0)
      message(FATAL_ERROR "${row}.${key} must be > 0, got ${v}")
    endif()
  endforeach()
endforeach()
# Both rows log the same records, so they write the same number of bytes.
string(JSON bytes GET "${json}" wal bytes)
string(JSON batch_bytes GET "${json}" wal_batch bytes)
if(NOT bytes EQUAL batch_bytes)
  message(FATAL_ERROR
    "batch row wrote ${batch_bytes} WAL bytes, per-sample row ${bytes}")
endif()

# Segment block: the checkpoint produced at least one segment.
string(JSON segs ERROR_VARIABLE jerr GET "${json}" segment segments)
if(jerr)
  message(FATAL_ERROR "segment.segments missing: ${jerr}")
endif()
if(segs LESS 1)
  message(FATAL_ERROR "checkpoint wrote no segment (got ${segs})")
endif()
string(JSON flush_ms ERROR_VARIABLE jerr GET "${json}" segment flush_ms)
if(jerr)
  message(FATAL_ERROR "segment.flush_ms missing: ${jerr}")
endif()

# Read block: the window reads reported a cost.
string(JSON ram_us ERROR_VARIABLE jerr GET "${json}" read ram_us_per_window)
if(jerr)
  message(FATAL_ERROR "read.ram_us_per_window missing: ${jerr}")
endif()
if(ram_us LESS_EQUAL 0)
  message(FATAL_ERROR "read.ram_us_per_window must be > 0, got ${ram_us}")
endif()

string(JSON rate GET "${json}" wal records_per_s)
string(JSON batch_rate GET "${json}" wal_batch records_per_s)
message(STATUS "persist_bench_smoke OK: ${rate} records/s "
               "(batched ${batch_rate}), "
               "flush ${flush_ms} ms, read ${ram_us} us/window")
