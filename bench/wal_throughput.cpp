// Persistent-store benchmark — the three costs docs/STORAGE.md asks a
// deployment to budget for:
//
//   1. WAL append throughput: records/s and MB/s through the WAL, which
//      commits (fwrite + fflush) once per append() call on the appending
//      thread: the per-sample tax every persistent ingest pays, in two
//      rows: one append() per sample, and one batch append() per minute
//      (the shape of a /v1/ingest POST). Both rows write the same bytes.
//   2. Segment flush latency: one checkpoint() freezing the whole hot set
//      into an immutable columnar segment (the pause at a natural barrier).
//   3. Historical read cost: day-long window queries against the in-memory
//      series, the one place a store's history is read from (a reopened
//      store hydrates its segments into memory).
//
// The workload is synthetic but shaped like the assessor's: N server
// metrics, one sample per minute, appended in minute-major order (all
// metrics advance together, as a push feed delivers). Values are a
// deterministic function of (metric, minute) so runs are comparable.
//
// Writes BENCH_persist.json (--json FILE to relocate; --dir DIR for the
// scratch store) with the host it ran on (hardware threads, build type, git
// commit). tests/persist_bench_smoke.cmake runs --quick and validates the
// JSON shape plus sanity bars (positive rates and read cost, every WAL
// record of both rows accounted for).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "tsdb/store.h"

using namespace funnel;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double value_at(std::size_t metric, MinuteTime t) {
  return 50.0 + static_cast<double>(metric) +
         8.0 * std::sin(static_cast<double>(t) * 0.013);
}

struct WalRow {
  double append_us = 0.0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
};

// The batch row: every minute's samples go to the store as one batch, into
// a fresh store under `dir`, timed until the last append() returns with its
// records in the file.
WalRow append_minute_batches(const std::string& dir,
                             const std::vector<tsdb::MetricId>& metrics,
                             MinuteTime minutes) {
  std::filesystem::remove_all(dir);
  WalRow row;
  {
    tsdb::StoreOptions options;
    options.data_dir = dir;
    tsdb::MetricStore store(options);
    std::vector<tsdb::Sample> batch(metrics.size());
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      batch[m].ref = store.intern(metrics[m]);
    }
    const double t0 = now_us();
    for (MinuteTime t = 0; t < minutes; ++t) {
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        batch[m].t = t;
        batch[m].value = value_at(m, t);
      }
      store.append(batch);
    }
    row.append_us = now_us() - t0;
    row.records = store.wal_records_written();
    row.bytes = store.wal_bytes_written();
  }
  std::filesystem::remove_all(dir);
  return row;
}

/// Keeps the window reads from being optimized away.
volatile double g_read_sink = 0.0;

// Day-long window queries at deterministic offsets, round-robin over the
// metrics — the shape of a baseline-window read during determination.
// Returns microseconds per window.
double read_windows(const tsdb::MetricStore& store,
                    const std::vector<tsdb::MetricId>& metrics,
                    MinuteTime minutes, std::size_t windows,
                    MinuteTime window_minutes) {
  Rng rng(914);
  double checksum = 0.0;
  const double start = now_us();
  for (std::size_t w = 0; w < windows; ++w) {
    const tsdb::MetricId& id = metrics[w % metrics.size()];
    const MinuteTime t0 = rng.uniform_int(0, minutes - window_minutes - 1);
    const std::vector<double> win = store.query(id, t0, t0 + window_minutes);
    for (std::size_t i = 0; i < win.size(); i += 97) checksum += win[i];
  }
  const double us = (now_us() - start) / static_cast<double>(windows);
  g_read_sink = checksum;
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* json_path = "BENCH_persist.json";
  std::string dir = "wal_bench.scratch";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[i + 1];
    }
  }

  const std::size_t n_metrics = quick ? 8 : 32;
  const MinuteTime minutes = quick ? 10'000 : 60'000;  // ~7 / ~42 days
  const std::size_t windows = quick ? 64 : 256;
  const MinuteTime window_minutes = kMinutesPerDay;

  std::vector<tsdb::MetricId> metrics;
  for (std::size_t m = 0; m < n_metrics; ++m) {
    std::string server = "s";
    server += std::to_string(m);
    metrics.push_back(tsdb::server_metric(server, "kpi"));
  }
  const std::size_t records = n_metrics * static_cast<std::size_t>(minutes);

  std::printf("\n================================================================\n");
  std::printf("Persistent segment store: WAL, flush, window reads\n");
  std::printf("================================================================\n");
  std::printf("workload            %zu metrics x %lld minutes = %zu records\n",
              n_metrics, static_cast<long long>(minutes), records);

  std::filesystem::remove_all(dir);
  double append_us = 0.0, flush_ms = 0.0;
  std::uint64_t wal_records = 0, wal_bytes = 0;
  std::size_t segments = 0;
  double ram_us = 0.0;
  {
    tsdb::StoreOptions options;
    options.data_dir = dir;
    tsdb::MetricStore store(options);

    const double t0 = now_us();
    for (MinuteTime t = 0; t < minutes; ++t) {
      for (std::size_t m = 0; m < n_metrics; ++m) {
        store.append(metrics[m], t, value_at(m, t));
      }
    }
    append_us = now_us() - t0;
    wal_records = store.wal_records_written();
    wal_bytes = store.wal_bytes_written();

    const double t1 = now_us();
    store.checkpoint();
    flush_ms = (now_us() - t1) / 1000.0;
    segments = store.segment_count();

    ram_us = read_windows(store, metrics, minutes, windows, window_minutes);
  }
  std::filesystem::remove_all(dir);

  const WalRow batched = append_minute_batches(dir + "-batch", metrics,
                                               minutes);

  const double secs = append_us / 1e6;
  const double records_per_s = static_cast<double>(records) / secs;
  const double mb_per_s =
      static_cast<double>(wal_bytes) / (1024.0 * 1024.0) / secs;
  const double batch_secs = batched.append_us / 1e6;
  const double batch_records_per_s = static_cast<double>(records) / batch_secs;
  const double batch_mb_per_s =
      static_cast<double>(batched.bytes) / (1024.0 * 1024.0) / batch_secs;
  std::printf("wal append          %.0f records/s, %.1f MB/s (%llu bytes)\n",
              records_per_s, mb_per_s,
              static_cast<unsigned long long>(wal_bytes));
  std::printf("wal append, batch   %.0f records/s, %.1f MB/s (%llu bytes, "
              "one batch of %zu per minute)\n",
              batch_records_per_s, batch_mb_per_s,
              static_cast<unsigned long long>(batched.bytes), n_metrics);
  std::printf("segment flush       %.1f ms (%zu segment(s))\n", flush_ms,
              segments);
  std::printf("historical read     RAM %.1f us/window (%zu windows of %lld "
              "min)\n",
              ram_us, windows, static_cast<long long>(window_minutes));

  const bench::Provenance host = bench::provenance();
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return 1;
  }
  out << "{\"host\":{\"nproc\":" << host.nproc << ",\"build_type\":\""
      << host.build_type << "\",\"git_sha\":\"" << host.git_sha
      << "\"},\"workload\":{\"quick\":" << (quick ? "true" : "false")
      << ",\"metrics\":" << n_metrics << ",\"minutes\":" << minutes
      << ",\"records\":" << records << "},\"wal\":{\"records_written\":"
      << wal_records << ",\"bytes\":" << wal_bytes
      << ",\"records_per_s\":" << records_per_s
      << ",\"mb_per_s\":" << mb_per_s
      << "},\"wal_batch\":{\"records_written\":" << batched.records
      << ",\"bytes\":" << batched.bytes
      << ",\"records_per_s\":" << batch_records_per_s
      << ",\"mb_per_s\":" << batch_mb_per_s << "},\"segment\":{\"flush_ms\":"
      << flush_ms << ",\"segments\":" << segments
      << "},\"read\":{\"windows\":" << windows
      << ",\"window_minutes\":" << window_minutes
      << ",\"ram_us_per_window\":" << ram_us << "}}\n";
  out.close();
  std::fprintf(stderr, "# wrote %s\n", json_path);
  return 0;
}
