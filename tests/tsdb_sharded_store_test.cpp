// Tests for the sharded metric store and its async ingest path: the
// byte-equivalence claim (reports identical for every shard count and for
// sync vs async dispatch), the flush() barrier, both backpressure policies,
// per-metric delivery order, the unsubscribe guarantee, the append/insert
// contract, the batch append's equivalence to per-sample appends, and the
// series table (interning creates no series; producers intern new names
// while the dispatcher reads refs and their WAL commits encode names). The
// stress tests here are the ones the FUNNEL_SANITIZE=thread job
// (scripts/tsan_concurrency.sh) runs under ThreadSanitizer; see
// docs/CONCURRENCY.md for the model they pin down.
#include "tsdb/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "funnel/online.h"
#include "funnel/report_json.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::tsdb {
namespace {

constexpr MinuteTime kDay = kMinutesPerDay;

MetricId test_metric(const std::string& server, const std::string& kpi) {
  return server_metric(server, kpi);
}

// ---------------------------------------------------------------------------
// Byte-equivalence: the tentpole invariant. One dark-launch scenario run
// through the full online pipeline on stores configured with 1 shard
// synchronous (the legacy reference), and 1/4/16 shards asynchronous; every
// run must produce the exact same report JSON.

struct ScenarioResult {
  std::string online_json;
  std::string batch_json;
};

ScenarioResult run_scenario(const StoreOptions& options) {
  topology::ServiceTopology topo;
  changes::ChangeLog log;
  MetricStore store(options);
  const MinuteTime tc = 4 * kDay + 300;

  const std::vector<std::string> servers{"s1", "s2", "s3", "s4"};
  for (const auto& s : servers) topo.add_server("svc", s);
  changes::SoftwareChange ch;
  ch.service = "svc";
  ch.time = tc;
  ch.mode = changes::LaunchMode::kDark;
  ch.servers = {"s1", "s2"};
  const changes::ChangeId cid = log.record(ch, topo);

  Rng rng(7);
  std::vector<std::pair<MetricId, std::unique_ptr<workload::KpiStream>>>
      streams;
  for (const auto& s : servers) {
    workload::StationaryParams p;
    p.level = 50.0;
    auto stream = std::make_unique<workload::KpiStream>(
        workload::make_stationary(p, rng.split()));
    if (s == "s1" || s == "s2") {
      stream->add_effect(workload::LevelShift{tc, 8.0});
    }
    const MetricId id = test_metric(s, "mem");
    workload::materialize(*stream, store, id, 0, tc);
    streams.emplace_back(id, std::move(stream));
  }

  core::FunnelConfig cfg;
  cfg.baseline_days = 3;
  ScenarioResult result;
  {
    core::FunnelOnline online(cfg, topo, log, store);
    // The report callback runs on the dispatcher thread in async mode; the
    // flush() below is the barrier that makes reading `report` safe (and
    // guarantees the watch has finalized).
    core::AssessmentReport report;
    online.on_report([&](const core::AssessmentReport& r) { report = r; });
    online.watch(cid);
    for (MinuteTime t = tc; t < tc + 61; ++t) {
      for (auto& [id, stream] : streams) {
        store.append(id, t, stream->sample(t));
      }
    }
    store.flush();
    result.online_json = core::to_json(report);
  }
  const core::Funnel funnel(cfg, topo, log, store);
  result.batch_json = core::to_json(funnel.assess(cid));
  return result;
}

TEST(ShardedStore, ReportsByteIdenticalAcrossShardsAndDispatchModes) {
  const ScenarioResult reference =
      run_scenario({.num_shards = 1, .ingest_queue_capacity = 0});
  ASSERT_FALSE(reference.online_json.empty());
  EXPECT_NE(reference.online_json.find("\"items\""), std::string::npos);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    const ScenarioResult async_run = run_scenario(
        {.num_shards = shards, .ingest_queue_capacity = 64,
         .backpressure = common::Backpressure::kBlock});
    EXPECT_EQ(async_run.online_json, reference.online_json)
        << "online report diverged at num_shards=" << shards;
    EXPECT_EQ(async_run.batch_json, reference.batch_json)
        << "batch report diverged at num_shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Dispatcher semantics.

TEST(ShardedStore, FlushDeliversEverySampleSubmittedBeforeIt) {
  MetricStore store({.num_shards = 4, .ingest_queue_capacity = 8});
  std::atomic<int> delivered{0};
  store.subscribe({}, [&](const MetricId&, MinuteTime, double) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  const MetricId id = test_metric("s1", "kpi");
  for (MinuteTime t = 0; t < 200; ++t) store.append(id, t, 1.0);
  store.flush();
  EXPECT_EQ(delivered.load(), 200);
  EXPECT_EQ(store.dropped_samples(), 0u);
}

TEST(ShardedStore, BlockPolicyIsLosslessUnderConcurrentProducers) {
  // Tiny queue + several producers: every append must still be delivered.
  MetricStore store({.num_shards = 4, .ingest_queue_capacity = 2,
                     .backpressure = common::Backpressure::kBlock});
  std::atomic<int> delivered{0};
  store.subscribe({}, [&](const MetricId&, MinuteTime, double) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      const MetricId id = test_metric("s" + std::to_string(p), "kpi");
      for (MinuteTime t = 0; t < kPerProducer; ++t) store.append(id, t, 1.0);
    });
  }
  for (auto& th : producers) th.join();
  store.flush();
  EXPECT_EQ(delivered.load(), 4 * kPerProducer);
  EXPECT_EQ(store.dropped_samples(), 0u);
}

TEST(ShardedStore, DropOldestShedsExactlyTheOldestQueuedSamples) {
  // Deterministic shed sequence: stall the dispatcher inside the first
  // callback, fill the queue, then overflow it and check which minutes
  // survived. Capacity 4, one in flight (minute 0), minutes 1..4 queued,
  // minutes 5..7 each shed the oldest queued sample (1, 2, 3).
  MetricStore store({.num_shards = 1, .ingest_queue_capacity = 4,
                     .backpressure = common::Backpressure::kDropOldest});
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  std::atomic<bool> first{true};
  std::vector<MinuteTime> received;  // dispatcher thread only
  store.subscribe({}, [&](const MetricId&, MinuteTime t, double) {
    received.push_back(t);
    if (first.exchange(false)) {
      entered.set_value();
      release_f.wait();
    }
  });
  const MetricId id = test_metric("s1", "kpi");
  store.append(id, 0, 1.0);
  entered.get_future().wait();  // minute 0 is in the sink, queue is empty
  for (MinuteTime t = 1; t <= 7; ++t) store.append(id, t, 1.0);
  release.set_value();
  store.flush();
  EXPECT_EQ(store.dropped_samples(), 3u);
  EXPECT_EQ(received, (std::vector<MinuteTime>{0, 4, 5, 6, 7}));
  // The store itself is lossless either way — only notifications shed.
  EXPECT_EQ(store.query(id, 0, 8).size(), 8u);
}

TEST(ShardedStore, DropOldestAccountsEveryShedExactlyUnderConcurrentLoad) {
  // The service plane runs one store per tenant; a tenant configured with
  // kDropOldest must (a) account every shed sample in its own
  // dropped_samples() counter — delivered + dropped == submitted, exactly,
  // no matter how producers interleave — and (b) never leak drops into a
  // neighbouring store. Three "tenants": two overloaded kDropOldest stores
  // with deliberately stalled sinks and tiny queues, one kBlock store that
  // must stay lossless through the same storm.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  struct TenantSim {
    std::unique_ptr<MetricStore> store;
    std::atomic<int> delivered{0};
  };
  TenantSim drop_a, drop_b, block;
  const auto make = [](common::Backpressure policy, std::size_t capacity) {
    return std::make_unique<MetricStore>(
        StoreOptions{.num_shards = 2, .ingest_queue_capacity = capacity,
                     .backpressure = policy});
  };
  drop_a.store = make(common::Backpressure::kDropOldest, 8);
  drop_b.store = make(common::Backpressure::kDropOldest, 4);
  block.store = make(common::Backpressure::kBlock, 8);
  for (TenantSim* t : {&drop_a, &drop_b, &block}) {
    const bool stall = t != &block;
    t->store->subscribe({}, [t, stall](const MetricId&, MinuteTime, double) {
      t->delivered.fetch_add(1, std::memory_order_relaxed);
      // A slow sink (not a stuck one): keeps the queues brimming so the
      // overflow path runs constantly without serializing the producers.
      if (stall) std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
  }

  std::vector<std::thread> producers;
  for (TenantSim* t : {&drop_a, &drop_b, &block}) {
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([t, p] {
        const MetricId id = test_metric("s" + std::to_string(p), "kpi");
        for (MinuteTime m = 0; m < kPerProducer; ++m) {
          t->store->append(id, m, 1.0);
        }
      });
    }
  }
  for (auto& th : producers) th.join();
  drop_a.store->flush();
  drop_b.store->flush();
  block.store->flush();

  constexpr int kTotal = kProducers * kPerProducer;
  // Exact conservation per tenant: nothing double-counted, nothing lost
  // without being counted.
  EXPECT_EQ(drop_a.delivered.load() +
                static_cast<int>(drop_a.store->dropped_samples()),
            kTotal);
  EXPECT_EQ(drop_b.delivered.load() +
                static_cast<int>(drop_b.store->dropped_samples()),
            kTotal);
  // The stalled sinks really did overflow (the test exercised the path)...
  EXPECT_GT(drop_a.store->dropped_samples(), 0u);
  EXPECT_GT(drop_b.store->dropped_samples(), 0u);
  // ...and none of it bled into the kBlock neighbour.
  EXPECT_EQ(block.delivered.load(), kTotal);
  EXPECT_EQ(block.store->dropped_samples(), 0u);
  // Shedding covers notifications only — every store stays lossless at rest.
  for (TenantSim* t : {&drop_a, &drop_b, &block}) {
    for (int p = 0; p < kProducers; ++p) {
      const MetricId id = test_metric("s" + std::to_string(p), "kpi");
      EXPECT_EQ(t->store->query(id, 0, kPerProducer).size(),
                static_cast<std::size_t>(kPerProducer));
    }
  }
}

TEST(ShardedStore, DeliveryIsInOrderPerMetric) {
  // Single dispatcher thread => FIFO delivery; with one writer per metric
  // that means strictly increasing minutes per metric, regardless of how
  // the producers interleave. Regression test for the ordering guarantee
  // FunnelOnline's detectors depend on.
  MetricStore store({.num_shards = 4, .ingest_queue_capacity = 64});
  std::map<std::string, std::vector<MinuteTime>> seen;  // dispatcher only
  store.subscribe({}, [&](const MetricId& id, MinuteTime t, double) {
    seen[id.entity].push_back(t);
  });
  constexpr MinuteTime kMinutes = 400;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      const MetricId id = test_metric("s" + std::to_string(p), "kpi");
      for (MinuteTime t = 0; t < kMinutes; ++t) store.append(id, t, 1.0);
    });
  }
  for (auto& th : producers) th.join();
  store.flush();
  ASSERT_EQ(seen.size(), 3u);
  for (const auto& [entity, minutes] : seen) {
    ASSERT_EQ(minutes.size(), static_cast<std::size_t>(kMinutes)) << entity;
    for (std::size_t i = 0; i < minutes.size(); ++i) {
      ASSERT_EQ(minutes[i], static_cast<MinuteTime>(i))
          << entity << " out of order at " << i;
    }
  }
}

TEST(ShardedStore, DestructorDeliversQueuedSamplesWithTelemetryAttached) {
  // No flush(): the destructor drains the queue, and the dispatcher's
  // per-batch telemetry still runs while it does.
  obs::Registry reg;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  std::atomic<bool> first{true};
  std::atomic<int> delivered{0};
  {
    MetricStore store({.num_shards = 1, .ingest_queue_capacity = 64});
    store.set_stats(&reg);
    store.subscribe({}, [&](const MetricId&, MinuteTime, double) {
      if (first.exchange(false)) {
        entered.set_value();
        release_f.wait();
      }
      delivered.fetch_add(1, std::memory_order_relaxed);
    });
    const MetricId id = test_metric("s1", "kpi");
    store.append(id, 0, 1.0);
    entered.get_future().wait();
    for (MinuteTime t = 1; t < 20; ++t) store.append(id, t, 1.0);
    release.set_value();
  }
  EXPECT_EQ(delivered.load(), 20);
}

TEST(ShardedStore, FlushFromInsideCallbackDoesNotDeadlock) {
  MetricStore store({.num_shards = 1, .ingest_queue_capacity = 4});
  std::atomic<int> delivered{0};
  store.subscribe({}, [&](const MetricId&, MinuteTime, double) {
    store.flush();  // no-op on the dispatcher thread, must not self-wait
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  const MetricId id = test_metric("s1", "kpi");
  for (MinuteTime t = 0; t < 10; ++t) store.append(id, t, 1.0);
  store.flush();
  EXPECT_EQ(delivered.load(), 10);
}

TEST(ShardedStore, UnsubscribeWaitsForInFlightCallback) {
  MetricStore store({.num_shards = 1, .ingest_queue_capacity = 4});
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  std::atomic<bool> first{true};
  std::atomic<int> delivered{0};
  const SubscriptionId sub =
      store.subscribe({}, [&](const MetricId&, MinuteTime, double) {
        if (first.exchange(false)) {
          entered.set_value();
          release_f.wait();
        }
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
  const MetricId id = test_metric("s1", "kpi");
  store.append(id, 0, 1.0);
  entered.get_future().wait();  // callback is now stalled in flight

  std::atomic<bool> unsubscribed{false};
  std::thread t([&] {
    store.unsubscribe(sub);  // must block until the callback completes
    unsubscribed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unsubscribed.load(std::memory_order_acquire));
  release.set_value();
  t.join();
  EXPECT_TRUE(unsubscribed.load());
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(store.subscriber_count(), 0u);

  // After unsubscribe() returned the callback never runs again.
  for (MinuteTime t2 = 1; t2 < 10; ++t2) store.append(id, t2, 1.0);
  store.flush();
  EXPECT_EQ(delivered.load(), 1);
}

TEST(ShardedStore, UnsubscribeWaitsForInFlightCallbackUnderDropOldest) {
  // A shed settles a queued sample, not the callback in flight: it must not
  // release unsubscribe() early. A second subscriber keeps appends queued
  // after the first one is gone.
  MetricStore store({.num_shards = 1, .ingest_queue_capacity = 2,
                     .backpressure = common::Backpressure::kDropOldest});
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  std::atomic<bool> first{true};
  std::atomic<int> delivered{0};
  const SubscriptionId sub =
      store.subscribe({}, [&](const MetricId&, MinuteTime, double) {
        if (first.exchange(false)) {
          entered.set_value();
          release_f.wait();
        }
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
  store.subscribe({}, [](const MetricId&, MinuteTime, double) {});
  const MetricId id = test_metric("s1", "kpi");
  store.append(id, 0, 1.0);
  entered.get_future().wait();  // callback is now stalled in flight

  std::atomic<bool> unsubscribed{false};
  std::thread t([&] {
    store.unsubscribe(sub);  // must block until the callback completes
    unsubscribed.store(true, std::memory_order_release);
  });
  while (store.subscriber_count() != 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Overflow the queue while unsubscribe() waits: minutes 1..8 shed six.
  for (MinuteTime m = 1; m <= 8; ++m) store.append(id, m, 1.0);
  EXPECT_EQ(store.dropped_samples(), 6u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unsubscribed.load(std::memory_order_acquire));
  release.set_value();
  t.join();
  EXPECT_TRUE(unsubscribed.load());
  store.flush();
  EXPECT_EQ(delivered.load(), 1);
}

// ---------------------------------------------------------------------------
// Concurrent readers against concurrent writers — the TSan workhorse.

TEST(ShardedStore, ConcurrentAppendAndQueryStress) {
  MetricStore store({.num_shards = 16, .ingest_queue_capacity = 256});
  std::atomic<int> delivered{0};
  store.subscribe({}, [&](const MetricId&, MinuteTime, double) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });

  constexpr int kWriters = 4;
  constexpr MinuteTime kMinutes = 500;
  std::atomic<bool> done{false};
  std::vector<MetricId> ids;
  for (int w = 0; w < kWriters; ++w) {
    ids.push_back(test_metric("w" + std::to_string(w), "kpi"));
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (MinuteTime t = 0; t < kMinutes; ++t) {
        store.append(ids[w], t, static_cast<double>(t));
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        (void)store.metric_count();
        (void)store.metrics();
        (void)store.subscriber_count();
        for (const auto& id : ids) {
          if (!store.has(id)) continue;
          store.read_if(id, [](const TimeSeries& s) {
            // Taking a bounded snapshot under the shard lock is the
            // supported concurrent-read idiom.
            if (!s.empty()) (void)s.slice(s.start_time(), s.end_time());
          });
        }
        (void)store.aggregate(ids, 0, kMinutes);
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  store.flush();

  EXPECT_EQ(store.metric_count(), static_cast<std::size_t>(kWriters));
  EXPECT_EQ(delivered.load(), kWriters * kMinutes);
  for (const auto& id : ids) {
    EXPECT_EQ(store.query(id, 0, kMinutes).size(),
              static_cast<std::size_t>(kMinutes));
  }
}

// ---------------------------------------------------------------------------
// Store contract details that the sharding must preserve.

TEST(ShardedStore, MetricsAreGloballySortedAcrossShards) {
  MetricStore store({.num_shards = 16});
  const std::vector<std::string> names{"zeta", "alpha", "mu", "beta", "nu",
                                       "kappa", "omega", "eta"};
  for (const auto& n : names) store.append(test_metric(n, "kpi"), 0, 1.0);
  const std::vector<MetricId> got = store.metrics();
  ASSERT_EQ(got.size(), names.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(store.metrics_of(EntityKind::kServer, "mu").size(), 1u);
}

TEST(ShardedStore, AppendAutoCreatesButCreateAndInsertThrowOnExisting) {
  // The documented asymmetry (store.h header): append is the agent hot path
  // and auto-creates; create/insert serve builder code and refuse to write
  // over an existing series.
  MetricStore store({.num_shards = 16});
  const MetricId id = test_metric("srv", "kpi");
  store.append(id, 100, 1.0);  // auto-created
  EXPECT_TRUE(store.has(id));
  EXPECT_THROW(store.create(id, 0), InvalidArgument);
  EXPECT_THROW(store.insert(id, TimeSeries(0)), InvalidArgument);
  store.append(id, 101, 2.0);  // appending to an existing series is fine
  EXPECT_EQ(store.query(id, 100, 102).size(), 2u);
}

TEST(ShardedStore, SubscriberCountIsSafeFromAnyThread) {
  MetricStore store({.num_shards = 4, .ingest_queue_capacity = 16});
  std::vector<SubscriptionId> subs;
  for (int i = 0; i < 8; ++i) {
    subs.push_back(
        store.subscribe({}, [](const MetricId&, MinuteTime, double) {}));
  }
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t n = store.subscriber_count();
      ASSERT_LE(n, 8u);
    }
  });
  for (const SubscriptionId s : subs) store.unsubscribe(s);
  done.store(true, std::memory_order_release);
  watcher.join();
  EXPECT_EQ(store.subscriber_count(), 0u);
}

TEST(ShardedStore, FilteredSubscriptionOnlySeesItsMetrics) {
  MetricStore store({.num_shards = 16, .ingest_queue_capacity = 16});
  const MetricId wanted = test_metric("s1", "mem");
  const MetricId other = test_metric("s2", "cpu");
  std::vector<MinuteTime> seen;  // dispatcher thread only
  store.subscribe({wanted},
                  [&](const MetricId& id, MinuteTime t, double) {
                    EXPECT_EQ(id, wanted);
                    seen.push_back(t);
                  });
  for (MinuteTime t = 0; t < 5; ++t) {
    store.append(wanted, t, 1.0);
    store.append(other, t, 2.0);
  }
  store.flush();
  EXPECT_EQ(seen.size(), 5u);
}

TEST(ShardedStore, SyncModeKeepsLegacySemantics) {
  // ingest_queue_capacity = 0: callbacks run inside append on the producer
  // thread, flush() is a no-op, nothing is ever dropped.
  MetricStore store({.num_shards = 4});
  EXPECT_FALSE(store.async());
  std::thread::id cb_thread;
  int delivered = 0;
  store.subscribe({}, [&](const MetricId&, MinuteTime, double) {
    cb_thread = std::this_thread::get_id();
    ++delivered;
  });
  store.append(test_metric("s1", "kpi"), 0, 1.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(cb_thread, std::this_thread::get_id());
  store.flush();  // no-op, must not hang
  EXPECT_EQ(store.dropped_samples(), 0u);
}

// ---------------------------------------------------------------------------
// Batch append: append(span<Sample>) leaves every series, every
// subscriber's delivery sequence and the tsdb.store.* counters exactly as
// per-sample appends in batch order do, for every shard count and both
// dispatch modes.

struct Delivery {
  MetricId id;
  MinuteTime t = 0;
  std::uint64_t bits = 0;  ///< NaN-safe value identity
  bool operator==(const Delivery&) const = default;
};

// One sample of a feed, by name.
struct FeedSample {
  MetricId id;
  MinuteTime t = 0;
  double value = 0.0;
};

// A feed as a batch of `store`'s refs.
std::vector<Sample> as_batch(MetricStore& store,
                             const std::vector<FeedSample>& feed) {
  std::vector<Sample> batch;
  for (const FeedSample& s : feed) {
    batch.push_back(Sample{store.intern(s.id), s.t, s.value, {}, {}});
  }
  return batch;
}

// Six metrics minute-major over [100, 130), with a hole filled late, a
// duplicate, a NaN and a sample before its series start (too old).
std::vector<FeedSample> dirty_feed() {
  std::vector<FeedSample> feed;
  const auto add = [&](const MetricId& id, MinuteTime t, double v) {
    feed.push_back(FeedSample{id, t, v});
  };
  const auto metric = [](int m) {
    return test_metric("s" + std::to_string(m),
                       m % 2 == 1 ? "cpu_context_switch" : "mem");
  };
  for (MinuteTime t = 100; t < 130; ++t) {
    for (int m = 0; m < 6; ++m) {
      if (m == 2 && t == 105) continue;  // a hole...
      add(metric(m), t,
          m == 3 && t == 110 ? std::numeric_limits<double>::quiet_NaN()
                             : 10.0 * m + 0.25 * static_cast<double>(t));
    }
    if (t == 112) add(metric(2), 105, 7.5);   // ...filled late
    if (t == 115) add(metric(0), 110, -1.0);  // a duplicate
    if (t == 120) add(metric(1), 50, 3.0);    // before the start: too old
  }
  return feed;
}

struct FeedResult {
  std::map<MetricId, std::pair<MinuteTime, std::vector<std::uint64_t>>>
      series;
  std::vector<Delivery> all;       ///< catch-all subscriber
  std::vector<Delivery> filtered;  ///< two-metric subscriber
  std::map<std::string, std::uint64_t> counters;
};

FeedResult run_feed(const StoreOptions& options,
                    const std::vector<FeedSample>& feed, bool batched) {
  FeedResult r;
  obs::Registry registry;  // outlives the store
  {
    MetricStore store(options);
    store.set_stats(&registry);
    const auto record = [](std::vector<Delivery>& out) {
      return [&out](const MetricId& id, MinuteTime t, double v) {
        out.push_back(Delivery{id, t, std::bit_cast<std::uint64_t>(v)});
      };
    };
    store.subscribe({}, record(r.all));
    store.subscribe({test_metric("s2", "mem"),
                     test_metric("s1", "cpu_context_switch")},
                    record(r.filtered));
    if (batched) {
      // Batches of 1, 7, 64 and 13 samples: the 64 exceed the async
      // queue's capacity, so the notification push waits in chunks.
      constexpr std::size_t kSizes[] = {1, 7, 64, 13};
      std::vector<Sample> batch = as_batch(store, feed);
      const std::span<Sample> all(batch);
      for (std::size_t at = 0, k = 0; at < all.size(); ++k) {
        const std::size_t n = std::min(kSizes[k % 4], all.size() - at);
        store.append(all.subspan(at, n));
        at += n;
      }
    } else {
      for (const FeedSample& s : feed) store.append(s.id, s.t, s.value);
    }
    store.flush();
    for (const MetricId& id : store.metrics()) {
      store.read(id, [&](const TimeSeries& s) {
        auto& [start, bits] = r.series[id];
        start = s.start_time();
        for (const double v : s.values()) {
          bits.push_back(std::bit_cast<std::uint64_t>(v));
        }
      });
    }
  }
  r.counters = registry.snapshot().counters;
  return r;
}

TEST(ShardedStore, BatchAppendMatchesPerSampleAppends) {
  const std::vector<FeedSample> feed = dirty_feed();
  for (const std::size_t shards : {1, 4, 16}) {
    for (const std::size_t capacity : {0, 8}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", queue " +
                   std::to_string(capacity));
      const StoreOptions options{.num_shards = shards,
                                 .ingest_queue_capacity = capacity};
      const FeedResult single = run_feed(options, feed, false);
      const FeedResult batched = run_feed(options, feed, true);
      EXPECT_EQ(batched.series, single.series);
      EXPECT_EQ(batched.all, single.all);
      EXPECT_EQ(batched.filtered, single.filtered);
      EXPECT_EQ(batched.counters, single.counters);
      // Everything but the too-old sample was notified, once.
      EXPECT_EQ(batched.all.size(), feed.size() - 1);
      for (const Delivery& d : batched.all) EXPECT_GE(d.t, 100);
      EXPECT_EQ(batched.series.size(), 6u);
      EXPECT_EQ(batched.counters.at("tsdb.store.appends"), feed.size());
      EXPECT_EQ(batched.counters.at("tsdb.store.late_fills"), 1u);
      EXPECT_EQ(batched.counters.at("tsdb.store.duplicates_ignored"), 1u);
      EXPECT_EQ(batched.counters.at("tsdb.store.too_old_dropped"), 1u);
    }
  }
}

TEST(ShardedStore, BatchAppendWithoutSubscribersOnlyApplies) {
  MetricStore store({.num_shards = 4, .ingest_queue_capacity = 4});
  std::vector<Sample> feed = as_batch(store, dirty_feed());
  store.append(feed);
  store.flush();
  EXPECT_EQ(store.metric_count(), 6u);
  EXPECT_EQ(store.series(test_metric("s2", "mem")).at(105), 7.5);
  EXPECT_EQ(store.dropped_samples(), 0u);
  store.append(std::span<Sample>{});  // an empty batch is a no-op
  EXPECT_EQ(store.metric_count(), 6u);
}

// ---------------------------------------------------------------------------
// Series table: interning hands out dense, stable refs and creates nothing
// a reader can see; a filter resolved before its series exists still
// matches it.

TEST(ShardedStore, InterningCreatesNoSeries) {
  MetricStore store({.num_shards = 4});
  const MetricId a = test_metric("s1", "cpu_context_switch");
  const MetricId b = test_metric("s2", "mem");
  const SeriesRef ra = store.intern(a);
  const SeriesRef rb = store.intern(b);
  EXPECT_EQ(ra, 0u);
  EXPECT_EQ(rb, 1u);
  EXPECT_EQ(store.intern(a), ra);
  EXPECT_EQ(store.intern(EntityKind::kServer, "s2", "mem"), rb);
  EXPECT_NE(store.intern(EntityKind::kInstance, "s2", "mem"), rb);

  EXPECT_FALSE(store.has(a));
  EXPECT_EQ(store.metric_count(), 0u);
  EXPECT_TRUE(store.metrics().empty());
  EXPECT_TRUE(store.metrics_of(EntityKind::kServer, "s1").empty());
  EXPECT_THROW(store.read(a, [](const TimeSeries&) { return 0; }), NotFound);
  EXPECT_THROW((void)store.series(a), NotFound);
  EXPECT_FALSE(store.read_if(a, [](const TimeSeries&) {}));

  // Names past the first index and entry chunk keep their refs.
  for (int i = 0; i < 1000; ++i) {
    const MetricId id = test_metric("x" + std::to_string(i), "kpi");
    ASSERT_EQ(store.intern(id), static_cast<SeriesRef>(i + 3));
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(store.intern(test_metric("x" + std::to_string(i), "kpi")),
              static_cast<SeriesRef>(i + 3));
  }
  EXPECT_EQ(store.intern(a), ra);

  Sample s{rb, 5, 2.5, {}, {}};
  store.append(std::span<Sample>(&s, 1));
  EXPECT_TRUE(store.has(b));
  EXPECT_FALSE(store.has(a));
  EXPECT_EQ(store.metrics(), std::vector<MetricId>{b});
  EXPECT_EQ(store.series(b).start_time(), 5);
}

TEST(ShardedStore, FilterResolvedBeforeItsSeriesExistsStillMatches) {
  for (const std::size_t capacity : {0, 8}) {
    MetricStore store({.num_shards = 4, .ingest_queue_capacity = capacity});
    const MetricId later = test_metric("s9", "mem");
    std::vector<MinuteTime> seen;  // dispatcher thread in async mode
    store.subscribe({later}, [&](const MetricId& id, MinuteTime t, double) {
      EXPECT_EQ(id, later);
      seen.push_back(t);
    });
    EXPECT_FALSE(store.has(later));
    for (MinuteTime t = 0; t < 3; ++t) {
      store.append(test_metric("s1", "mem"), t, 1.0);
      store.append(later, t, 2.0);
    }
    store.flush();
    EXPECT_EQ(seen, (std::vector<MinuteTime>{0, 1, 2})) << capacity;
  }
}

// Several producers intern new names and append them in batches while the
// dispatcher delivers the interned names and each producer's WAL commit
// encodes them:
// every sample is delivered once under its own name, and the WAL recovers
// every series. Run under ThreadSanitizer by scripts/tsan_concurrency.sh.
TEST(ShardedStore, ProducersInternNewNamesWhileDispatcherAndWalReadRefs) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "funnel_store_interning";
  std::filesystem::remove_all(dir);
  constexpr int kProducers = 4;
  constexpr int kNamesPerProducer = 150;
  constexpr MinuteTime kMinutes = 4;
  StoreOptions options{.num_shards = 4, .ingest_queue_capacity = 64};
  options.data_dir = dir.string();
  std::atomic<std::size_t> delivered{0};
  std::atomic<std::size_t> mismatched{0};
  std::map<SeriesRef, const MetricId*> names;  // dispatcher thread only
  {
    MetricStore store(options);
    store.subscribe({}, [&](SeriesRef ref, const MetricId& id, MinuteTime,
                            double v) {
      // The value encodes the producer and name index; the delivered name
      // must be the one that sample was appended under, and each ref's
      // name the one interned object.
      const int code = static_cast<int>(v);
      const MetricId want =
          test_metric("p" + std::to_string(code / kNamesPerProducer) + "-" +
                          std::to_string(code % kNamesPerProducer),
                      "kpi");
      const MetricId*& interned = names[ref];
      if (interned == nullptr) interned = &id;
      if (id != want || &id != interned) ++mismatched;
      ++delivered;
    });
    std::atomic<bool> done{false};
    std::thread reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        (void)store.metric_count();
        (void)store.has(test_metric("p0-0", "kpi"));
        store.read_if(test_metric("p1-1", "kpi"),
                      [](const TimeSeries& s) { (void)s.size(); });
      }
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (MinuteTime t = 0; t < kMinutes; ++t) {
          std::vector<Sample> batch;
          for (int n = 0; n < kNamesPerProducer; ++n) {
            const std::string server =
                "p" + std::to_string(p) + "-" + std::to_string(n);
            batch.push_back(
                Sample{store.intern(EntityKind::kServer, server, "kpi"), t,
                       static_cast<double>(p * kNamesPerProducer + n),
                       {},
                       {}});
          }
          store.append(batch);
        }
      });
    }
    for (auto& th : producers) th.join();
    done.store(true, std::memory_order_release);
    reader.join();
    store.flush();
    EXPECT_EQ(store.metric_count(),
              static_cast<std::size_t>(kProducers * kNamesPerProducer));
    EXPECT_EQ(store.wal_records_written(),
              static_cast<std::uint64_t>(kProducers * kNamesPerProducer *
                                         kMinutes));
  }
  EXPECT_EQ(delivered.load(),
            static_cast<std::size_t>(kProducers * kNamesPerProducer *
                                     kMinutes));
  EXPECT_EQ(mismatched.load(), 0u);

  const MetricStore recovered(options);
  EXPECT_EQ(recovered.metric_count(),
            static_cast<std::size_t>(kProducers * kNamesPerProducer));
  EXPECT_EQ(recovered.query(test_metric("p3-149", "kpi"), 0, kMinutes),
            std::vector<double>(kMinutes, 3.0 * kNamesPerProducer + 149));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace funnel::tsdb
