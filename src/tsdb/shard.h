// One hash-shard of the MetricStore (see docs/CONCURRENCY.md, "Metric
// store").
//
// The store partitions its series by MetricId hash so that writers on
// different shards never contend: each shard pairs its own slice of the
// series map with a reader-writer lock, and carries the subscription list
// relevant to its metrics so dispatch scans stay shard-local. This header is
// an implementation detail of store.h — user code never names StoreShard.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/minute_time.h"
#include "tsdb/metric.h"
#include "tsdb/series.h"

namespace funnel::tsdb {

/// One push subscription. Shared between the store's id index and every
/// shard whose metrics the filter touches; `active` is cleared by
/// unsubscribe() so a dispatch snapshot taken just before never invokes a
/// dead callback (the in-flight-callback barrier is the ingest queue's
/// await_inflight(), see common/group_commit_queue.h).
struct Subscription {
  std::vector<MetricId> filter;  ///< sorted, deduplicated; empty = all
  std::function<void(const MetricId&, MinuteTime, double)> callback;
  std::atomic<bool> active{true};
};

/// One partition: its series, their lock, and the subscriptions that can
/// match its metrics.
struct StoreShard {
  /// Guards `series` (map structure and every TimeSeries payload). Readers
  /// take it shared, create/append/insert take it exclusive. Never held
  /// while a subscriber callback runs.
  mutable std::shared_mutex data_mutex;
  std::map<MetricId, TimeSeries> series;

  /// Guards `subs`. Separate from data_mutex so dispatch (which snapshots
  /// the list, then invokes callbacks lock-free) never serializes against
  /// appends into the shard.
  mutable std::mutex subs_mutex;
  std::vector<std::shared_ptr<Subscription>> subs;
};

}  // namespace funnel::tsdb
