// Ingest throughput of the sharded metric store — the Table 2 companion for
// the storage layer. Table 2 times the assessment computation; this bench
// times the path in front of it: agents appending 1-minute samples into the
// store while a subscriber (the online FUNNEL stand-in) consumes the push
// feed.
//
// Grid: shards {1, 4, 16} x producer threads {1, 2, 4} x dispatch mode
// {sync, async/kBlock} x entry point {per-sample append(id, t, v), one
// append(span<Sample>) per minute per producer — the batch a /v1/ingest
// POST submits}. Each cell appends the same total number of samples over
// disjoint per-producer metrics (the production layout: one agent owns its
// server's KPIs) and reports wall-clock appends/second including the
// flush() barrier, so async runs pay for their queue drain.
//
// Results go to EXPERIMENTS.md ("Ingest throughput") and to
// BENCH_ingest.json (--json FILE to relocate), with the host block
// (hardware threads, build type, commit). The sync cells show the overhead
// story: sharding costs nothing when uncontended; the async queue trades a
// small per-sample cost for never running consumer code on the producer
// thread.
//
// Usage: ingest_throughput [--quick] [--json FILE]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "tsdb/store.h"

namespace funnel::bench {
namespace {

struct Cell {
  std::size_t shards = 1;
  std::size_t producers = 1;
  std::size_t queue = 0;  // 0 = sync
  bool batch = false;     // one append(span) per minute per producer
  double seconds = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t delivered = 0;

  double rate() const { return seconds > 0 ? samples / seconds : 0.0; }
};

Cell run_cell(std::size_t shards, std::size_t producers, std::size_t queue,
              bool batch, MinuteTime minutes_per_metric,
              std::size_t metrics_per_producer) {
  Cell cell{shards, producers, queue, batch};
  tsdb::MetricStore store({.num_shards = shards,
                           .ingest_queue_capacity = queue,
                           .backpressure = common::Backpressure::kBlock});
  // One always-on subscriber, like the deployed online assessor: the sync
  // path pays the callback inline, the async path pays queue + dispatcher.
  std::atomic<std::uint64_t> consumed{0};
  store.subscribe({}, [&](const tsdb::MetricId&, MinuteTime, double) {
    consumed.fetch_add(1, std::memory_order_relaxed);
  });

  // Disjoint metric sets per producer: the single-writer-per-metric layout
  // the ordering guarantee assumes, and the one that lets shards pay off.
  std::vector<std::vector<tsdb::MetricId>> ids(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    for (std::size_t m = 0; m < metrics_per_producer; ++m) {
      ids[p].push_back(tsdb::server_metric(
          "srv" + std::to_string(p) + "_" + std::to_string(m), "kpi"));
    }
  }

  // The batch rows resolve names once, as Tenant::ingest does for a known
  // series.
  std::vector<std::vector<tsdb::Sample>> batches(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    for (const auto& id : ids[p]) {
      batches[p].push_back(tsdb::Sample{store.intern(id), 0, 1.0, {}, {}});
    }
  }

  const auto start = std::chrono::steady_clock::now();
  auto produce = [&](std::size_t p) {
    for (MinuteTime t = 0; t < minutes_per_metric; ++t) {
      if (batch) {
        for (tsdb::Sample& s : batches[p]) s.t = t;
        store.append(batches[p]);
      } else {
        for (const auto& id : ids[p]) store.append(id, t, 1.0);
      }
    }
  };
  if (producers == 1) {
    produce(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back(produce, p);
    }
    for (auto& t : threads) t.join();
  }
  store.flush();  // async cells pay the drain; sync cells no-op
  cell.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  cell.samples = static_cast<std::uint64_t>(minutes_per_metric) *
                 metrics_per_producer * producers;
  cell.delivered = consumed.load();
  if (cell.delivered != cell.samples) {
    std::fprintf(stderr, "warning: consumed %llu of %llu samples\n",
                 static_cast<unsigned long long>(cell.delivered),
                 static_cast<unsigned long long>(cell.samples));
  }
  return cell;
}

}  // namespace
}  // namespace funnel::bench

int main(int argc, char** argv) {
  using namespace funnel;
  using namespace funnel::bench;

  const bool quick = quick_mode(argc, argv);
  const char* json_path = "BENCH_ingest.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  const MinuteTime minutes = quick ? 2000 : 20000;
  const std::size_t metrics_per_producer = 8;
  constexpr std::size_t kQueueCapacity = 1024;

  print_header("Ingest throughput: shards x producers x dispatch mode");
  std::printf("%zu metrics/producer, %lld minutes/metric, queue=%zu (async)\n",
              metrics_per_producer, static_cast<long long>(minutes),
              kQueueCapacity);
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-8s %-10s %-8s %-8s %12s %12s\n", "shards", "producers",
              "mode", "append", "samples", "appends/s");

  std::vector<Cell> cells;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    for (const std::size_t producers : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
      for (const std::size_t queue : {std::size_t{0}, kQueueCapacity}) {
        for (const bool batch : {false, true}) {
          const Cell c = run_cell(shards, producers, queue, batch, minutes,
                                  metrics_per_producer);
          std::printf("%-8zu %-10zu %-8s %-8s %12llu %12.0f\n", c.shards,
                      c.producers, queue == 0 ? "sync" : "async",
                      batch ? "batch" : "sample",
                      static_cast<unsigned long long>(c.samples), c.rate());
          cells.push_back(c);
        }
      }
    }
  }

  const Provenance host = provenance();
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return 1;
  }
  out << "{\"host\":{\"nproc\":" << host.nproc << ",\"build_type\":\""
      << host.build_type << "\",\"git_sha\":\"" << host.git_sha
      << "\"},\"workload\":{\"quick\":" << (quick ? "true" : "false")
      << ",\"metrics_per_producer\":" << metrics_per_producer
      << ",\"minutes\":" << minutes << ",\"queue\":" << kQueueCapacity
      << "},\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << (i == 0 ? "" : ",") << "{\"shards\":" << c.shards
        << ",\"producers\":" << c.producers << ",\"mode\":\""
        << (c.queue == 0 ? "sync" : "async") << "\",\"append\":\""
        << (c.batch ? "batch" : "sample") << "\",\"samples\":" << c.samples
        << ",\"delivered\":" << c.delivered
        << ",\"appends_per_s\":" << c.rate() << "}";
  }
  out << "]}\n";
  out.close();
  std::fprintf(stderr, "# wrote %s\n", json_path);
  return 0;
}
