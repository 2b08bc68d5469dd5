// Ingest throughput of the sharded metric store — the Table 2 companion for
// the storage layer. Table 2 times the assessment computation; this bench
// times the path in front of it: agents appending 1-minute samples into the
// store while a subscriber (the online FUNNEL stand-in) consumes the push
// feed.
//
// Grid: shards {1, 4, 16} x producer threads {1, 2, 4} x dispatch mode
// {sync, async/kBlock}. Each cell appends the same total number of samples
// over disjoint per-producer metrics (the production layout: one agent owns
// its server's KPIs) and reports wall-clock appends/second including the
// flush() barrier, so async runs pay for their queue drain.
//
// Results go to EXPERIMENTS.md ("Ingest throughput"). On a single-hardware-
// thread container the producer counts can't show parallel speedup — what
// the table still shows is the overhead story: sharding costs nothing when
// uncontended, and the async queue trades a small per-sample cost for never
// running consumer code on the producer thread.
//
// Usage: ingest_throughput [--quick]
#include <chrono>
#include <cstdio>
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
  double seconds = 0.0;
  std::uint64_t samples = 0;

  double rate() const { return seconds > 0 ? samples / seconds : 0.0; }
};

Cell run_cell(std::size_t shards, std::size_t producers, std::size_t queue,
              MinuteTime minutes_per_metric, std::size_t metrics_per_producer) {
  Cell cell{shards, producers, queue};
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

  const auto start = std::chrono::steady_clock::now();
  auto produce = [&](std::size_t p) {
    for (MinuteTime t = 0; t < minutes_per_metric; ++t) {
      for (const auto& id : ids[p]) store.append(id, t, 1.0);
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
  if (consumed.load() != cell.samples) {
    std::fprintf(stderr, "warning: consumed %llu of %llu samples\n",
                 static_cast<unsigned long long>(consumed.load()),
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
  const MinuteTime minutes = quick ? 2000 : 20000;
  const std::size_t metrics_per_producer = 8;
  constexpr std::size_t kQueueCapacity = 1024;

  print_header("Ingest throughput: shards x producers x dispatch mode");
  std::printf("%zu metrics/producer, %lld minutes/metric, queue=%zu (async)\n",
              metrics_per_producer, static_cast<long long>(minutes),
              kQueueCapacity);
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-8s %-10s %-8s %12s %12s\n", "shards", "producers", "mode",
              "samples", "appends/s");

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    for (const std::size_t producers : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
      for (const std::size_t queue : {std::size_t{0}, kQueueCapacity}) {
        const Cell c = run_cell(shards, producers, queue, minutes,
                                metrics_per_producer);
        std::printf("%-8zu %-10zu %-8s %12llu %12.0f\n", c.shards,
                    c.producers, queue == 0 ? "sync" : "async",
                    static_cast<unsigned long long>(c.samples), c.rate());
      }
    }
  }
  return 0;
}
