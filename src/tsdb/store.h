// Sharded in-memory metric store with push subscriptions.
//
// Stand-in for the paper's centralized Hadoop-based KPI database (§2.2):
// agents append 1-minute samples per MetricId; consumers either query ranges
// (batch assessment) or subscribe and get samples pushed as they arrive
// (online FUNNEL). Service KPIs can be stored directly or derived by
// aggregating instance KPIs.
//
// Identity: the store interns each series name (MetricId) into a dense
// SeriesRef the first time it sees it (intern()). From there on a sample is
// its ref: a batch append, its WAL entries, the dispatcher queue and
// subscription filters carry the ref, and subscribers get the interned
// name back by reference. Names stay the API at the edges (CSV, /v1,
// reports, the journal, WAL frames); interning never creates a series.
//
// Scaling model: the series are partitioned over N shards
// (StoreOptions::num_shards) by ref, each behind its own reader-writer
// lock, so concurrent writers on different shards never contend and
// readers never block each other. Subscriber notification can run
// synchronously inside append() (the legacy single-threaded mode) or
// asynchronously on a common::GroupCommitQueue whose consumer thread is
// the dispatcher (StoreOptions::ingest_queue_capacity > 0) so a slow
// consumer can never stall a producing agent. A batch append (one
// /v1/ingest POST) pays one WAL commit, one lock per shard touched and one
// dispatcher push for the whole batch. Reports derived from this store are
// byte-identical for every shard count and for sync vs async dispatch
// (with a flush() barrier) — verified by tsdb_sharded_store_test.
//
// Thread-safety contract — the full repo-wide model lives in
// docs/CONCURRENCY.md ("Metric store"); summary:
//   * has/query/aggregate/metrics/metrics_of/metric_count/read/read_if are
//     internally locked and safe against concurrent append/create/insert.
//   * series() returns a reference whose *identity* is stable for the
//     store's lifetime (table entries are never moved) but whose samples
//     are NOT safe to read while a writer appends to that same metric — use
//     read()/read_if/query for concurrent access, or quiesce writers first.
//   * append() auto-creates the series; create()/insert() throw on an
//     existing metric. This asymmetry is deliberate: append is the agent
//     hot path (millions of agents must not need a registration handshake),
//     while create/insert serve builder and backfill code where writing
//     over an existing series indicates a bug.
//   * subscribe/unsubscribe/subscriber_count are safe from any thread; in
//     async mode, once unsubscribe() returns the callback is guaranteed to
//     not be running and to never run again.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/group_commit_queue.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tsdb/metric.h"
#include "tsdb/persist/wal.h"
#include "tsdb/series.h"
#include "tsdb/shard.h"

namespace funnel::tsdb {

namespace persist {
class PersistBackend;
}

using SubscriptionId = std::uint64_t;

/// One sample of a batch append, and one queued notification (async mode).
/// A batch append reads ref, t and value; the store stamps the rest. The
/// ref comes from this store's intern().
/// `enqueued` is stamped only while a telemetry registry is attached (the
/// uninstrumented path never reads the clock). `trace_ctx` is the
/// producer's ambient trace context at append()
/// time (obs/trace.h): the dispatcher re-installs it around the callbacks,
/// so spans opened inside them attach under the producing append's span.
/// Empty (and costless) when no span was open.
struct Sample {
  SeriesRef ref = 0;
  MinuteTime t = 0;
  double value = 0.0;
  std::chrono::steady_clock::time_point enqueued{};
  obs::SpanContext trace_ctx{};
};

/// Construction knobs. The defaults reproduce the legacy store exactly: one
/// shard, synchronous subscriber dispatch on the producer thread.
struct StoreOptions {
  /// Hash-shard count (>= 1). More shards let concurrent writers and the
  /// parallel assessment engine scale past one lock; reports are
  /// byte-identical for every value.
  std::size_t num_shards = 1;

  /// 0 = synchronous dispatch (subscriber callbacks run inside append on
  /// the producer thread). > 0 = async: samples are queued (this capacity)
  /// and a dispatcher thread runs the callbacks; pair with flush() when a
  /// batch consumer needs every notification delivered.
  std::size_t ingest_queue_capacity = 0;

  /// Full-queue policy in async mode (ignored when synchronous).
  common::Backpressure backpressure = common::Backpressure::kBlock;

  // --- Persistence (docs/STORAGE.md). Empty data_dir = the legacy fully
  // in-memory store; every knob below is then ignored. ---

  /// Directory for the WAL + segment files. Set to make the store durable:
  /// construction recovers whatever a previous process left there (hydrates
  /// every segment-resident series into memory, then replays the WAL tail),
  /// append() write-ahead-logs every sample, and checkpoint() freezes
  /// flushed history into columnar segments.
  /// Construction throws persist::StorageError when the directory cannot be
  /// opened or holds damage beyond the WAL's torn-tail tolerance.
  std::string data_dir = {};

  /// WAL durability (fflush vs + fsync per commit).
  persist::WalDurability durability = persist::WalDurability::kFlush;

  /// true: recovery does NOT auto-apply the recovered WAL tail; the caller
  /// replays it via recovered_tail() + replay() so it can interleave its
  /// own bookkeeping (FunnelOnline re-registers watches at kWatch markers)
  /// in original arrival order.
  bool hand_off_tail = false;
};

class MetricStore {
 public:
  MetricStore() : MetricStore(StoreOptions{}) {}
  explicit MetricStore(const StoreOptions& options);
  ~MetricStore();

  MetricStore(const MetricStore&) = delete;
  MetricStore& operator=(const MetricStore&) = delete;

  /// Create an empty series starting at `start`. Creating an existing metric
  /// throws (see the append/insert contract in the header comment).
  void create(const MetricId& id, MinuteTime start);

  bool has(const MetricId& id) const;

  /// The ref of a series name, interning the name on first sight. Allocates
  /// only then: a known name is found without a lock, from views. The
  /// ref stays valid for the store's lifetime. Interning creates no series:
  /// has(), metric_count(), metrics() and read() ignore a name until a
  /// sample, create() or insert() lands under it. Any thread.
  SeriesRef intern(EntityKind kind, std::string_view entity,
                   std::string_view kpi) {
    return table_.intern(kind, entity, kpi);
  }
  SeriesRef intern(const MetricId& id) {
    return intern(id.kind, id.entity, id.kpi);
  }

  /// Append a sample; creates the series (starting at t) when absent — the
  /// agent hot path never needs a registration handshake. Interns the
  /// name, then appends it as a batch of one. Matching subscribers are
  /// notified synchronously (sync mode) or via the ingest queue (async
  /// mode) — the paper's sub-second push from database to FUNNEL.
  ///
  /// Dirty feeds are tolerated deterministically (TimeSeries::upsert_at):
  /// late samples fill their NaN hole, duplicates are ignored first-write-
  /// wins, samples before the series start are dropped — so any delivery
  /// order converges to the same series. Dropped samples are not notified;
  /// the rest are (telemetry: tsdb.store.late_fills / duplicates_ignored /
  /// too_old_dropped).
  void append(const MetricId& id, MinuteTime t, double value);

  /// Append a batch, moving from its samples; the store is left as the
  /// same per-sample appends in batch order would leave it, and subscribers
  /// see the same sequence. The whole batch is write-ahead-logged in one
  /// WAL commit before any sample is applied; when that commit throws
  /// persist::StorageError, no sample is applied. Async mode then upserts under one exclusive lock per shard
  /// touched, adds the tsdb.store.* counters once, and queues the
  /// notifications in batch order with one push; sync mode applies and
  /// delivers sample by sample.
  void append(std::span<Sample> batch);

  /// Bulk-insert a prebuilt series (no subscriber notification) — the bulk
  /// backfill path scenario builders use. Throws when the metric exists.
  void insert(const MetricId& id, TimeSeries series);

  /// Series lookup; throws NotFound when absent. The reference stays valid
  /// for the store's lifetime, but reading it concurrently with appends to
  /// the same metric is a data race — quiescent callers only (batch
  /// pipelines after ingestion stops, or after flush() with no writers).
  /// Concurrent readers should use read()/read_if/query instead.
  const TimeSeries& series(const MetricId& id) const;

  /// Run `fn(series)` under the owning shard's reader lock — the safe way
  /// to take windowed views while producers keep appending. Returns fn's
  /// result; throws NotFound when the metric is absent. `fn` must not call
  /// back into this store (the shard lock is held; see docs/CONCURRENCY.md).
  template <typename Fn>
  auto read(const MetricId& id, Fn&& fn) const {
    if (const auto ref = table_.find(id.kind, id.entity, id.kpi)) {
      std::shared_lock<std::shared_mutex> lock(shard(*ref).data_mutex);
      const SeriesTable::Entry& e = table_.entry(*ref);
      if (e.live) return std::forward<Fn>(fn)(std::as_const(e.series));
    }
    throw NotFound("no such metric: " + id.to_string());
  }

  /// read() for optional metrics: returns false (without invoking `fn`)
  /// when the metric is absent. Same reentrancy rule as read().
  template <typename Fn>
  bool read_if(const MetricId& id, Fn&& fn) const {
    const auto ref = table_.find(id.kind, id.entity, id.kpi);
    if (!ref) return false;
    std::shared_lock<std::shared_mutex> lock(shard(*ref).data_mutex);
    const SeriesTable::Entry& e = table_.entry(*ref);
    if (!e.live) return false;
    std::forward<Fn>(fn)(std::as_const(e.series));
    return true;
  }

  std::size_t metric_count() const;

  /// All metric ids, ordered.
  std::vector<MetricId> metrics() const;

  /// Metric ids of one entity kind whose entity name matches exactly,
  /// ordered.
  std::vector<MetricId> metrics_of(EntityKind kind,
                                   const std::string& entity) const;

  /// Copy of [t0, t1) for one metric (throws when not covered), taken under
  /// the shard lock.
  std::vector<double> query(const MetricId& id, MinuteTime t0,
                            MinuteTime t1) const;

  /// Pointwise mean across the given metrics over [t0, t1) (skips metrics /
  /// minutes that are missing). This is how a service KPI is derived from
  /// its instance KPIs and how DiD builds group averages. Each input series
  /// is copied under its shard lock (per-shard snapshot; the set is not a
  /// single cross-shard atomic view — see docs/CONCURRENCY.md).
  TimeSeries aggregate(std::span<const MetricId> ids, MinuteTime t0,
                       MinuteTime t1) const;

  /// Subscribe to samples of the given metrics. An empty filter subscribes
  /// to everything. The filter is resolved to refs here, interning names
  /// that have no series yet, so the subscription also sees a series
  /// created after it. Sync mode runs the callback inside append(); async
  /// mode runs it on the dispatcher thread, in per-metric enqueue order.
  /// The callback gets the interned name (and, as a RefCallback, the ref);
  /// a Callback is adapted to a RefCallback once, here.
  using Callback =
      std::function<void(const MetricId&, MinuteTime, double)>;
  using RefCallback =
      std::function<void(SeriesRef, const MetricId&, MinuteTime, double)>;
  SubscriptionId subscribe(std::vector<MetricId> filter, Callback cb);
  SubscriptionId subscribe(std::vector<MetricId> filter, RefCallback cb);

  /// Remove a subscription (unknown ids are ignored). Async mode: blocks
  /// until any in-flight delivery to this subscription has completed, so
  /// after return the callback never runs again (calling unsubscribe from
  /// inside the callback itself skips the wait and is allowed).
  void unsubscribe(SubscriptionId id);

  std::size_t subscriber_count() const {
    return sub_count_.load(std::memory_order_acquire);
  }

  /// Async mode: barrier — returns once every sample appended before the
  /// call has been delivered (or shed). Sync mode: no-op. Batch tests use
  /// this to make async runs byte-identical to synchronous ones.
  void flush();

  /// True when notification runs on the dispatcher thread.
  bool async() const { return queue_ != nullptr; }

  std::size_t num_shards() const { return shards_.size(); }

  /// Samples shed by the kDropOldest policy so far (0 in sync/kBlock mode).
  std::uint64_t dropped_samples() const {
    return queue_ ? queue_->dropped() : 0;
  }

  /// Async mode: samples currently queued for the dispatcher thread (0 in
  /// sync mode). Racy by nature — an admission-control input, not a
  /// barrier.
  std::size_t queue_depth() const {
    return queue_ ? queue_->depth() : 0;
  }

  /// Async mode: the ingest queue's configured capacity (0 in sync mode) —
  /// the denominator for queue-share admission caps (src/service).
  std::size_t queue_capacity() const {
    return queue_ ? queue_->capacity() : 0;
  }

  /// Attach a telemetry registry (null detaches): append() counts samples
  /// (`tsdb.store.appends`), delivery counts callbacks
  /// (`tsdb.store.notifications`) and times the dispatch loop
  /// (`tsdb.store.dispatch_us`); async mode adds `tsdb.store.queue_depth` /
  /// `tsdb.store.queue_capacity` (the pair the /healthz dispatcher check
  /// divides), the enqueue-to-dispatch lag
  /// histogram `tsdb.store.dispatch_lag_us` and the
  /// `tsdb.store.dropped_samples` / `tsdb.store.callback_exceptions`
  /// counters; a persistent store adds the funnel.wal.* / funnel.persist.*
  /// family.
  /// The registry must outlive the store.
  void set_stats(const obs::Registry* stats);

  // --- Persistence (active only when StoreOptions::data_dir is set; every
  // method below is a cheap no-op / empty answer otherwise). The on-disk
  // contract lives in docs/STORAGE.md. ---

  /// True when this store write-ahead-logs to a data_dir.
  bool persistent() const { return backend_ != nullptr; }

  /// WAL records recovered after the last checkpoint, in arrival order
  /// (samples + watch markers). Already applied to memory unless the store
  /// was built with hand_off_tail.
  const std::vector<persist::WalRecord>& recovered_tail() const;

  /// Highest WAL seq recovered (checkpoint-covered or tail); the replay
  /// harness resumes its input stream right after this point.
  std::uint64_t recovered_seq() const;

  /// FunnelOnline snapshot stored by the last checkpoint (empty if none) —
  /// feed to FunnelOnline::restore_state before replaying the tail.
  const std::string& recovered_watch_state() const;

  /// Verdict-journal event count at the last checkpoint — feed to
  /// obs::repair_journal so the journal rewinds to the same point.
  std::uint64_t recovered_journal_events() const;

  /// Torn-tail bytes truncated off the WAL during recovery.
  std::uint64_t recovered_wal_skipped_bytes() const;

  /// Apply one recovered record without re-logging it (it is already in the
  /// WAL file). Samples go through the normal upsert + notify path, so
  /// subscribers attached before the replay see the stream exactly as the
  /// original arrival order produced it; watch markers are ignored here
  /// (FunnelOnline handles them). Only meaningful with hand_off_tail.
  void replay(const persist::WalRecord& record);

  /// Log a FunnelOnline watch-registration marker; returns its WAL seq
  /// (0 when not persistent).
  std::uint64_t log_watch_marker(std::uint64_t change_id);

  /// No-op: every append() returns with its records in the WAL. Kept for
  /// funnelbench/, which calls it.
  void wal_flush() {}

  /// Freeze flushed history into a new segment and commit a checkpoint
  /// carrying `watch_state` (a FunnelOnline::snapshot_state blob) and the
  /// verdict-journal event count. Producers must be quiesced (no concurrent
  /// append) — callers checkpoint at natural barriers: end of a CSV run,
  /// after flush() in the online loop. No-op when not persistent.
  void checkpoint(std::string watch_state = {},
                  std::uint64_t journal_events = 0);

  /// Simulate a kill: close the WAL and stop persisting. The store stays
  /// usable in memory; the replay-determinism test recovers a
  /// fresh store from the same data_dir afterwards.
  void crash_for_testing();

  /// Bench/test introspection; all zero when not persistent.
  std::uint64_t wal_records_written() const;
  std::uint64_t wal_bytes_written() const;
  std::size_t segment_count() const;
  std::uint64_t compactions() const;

 private:
  /// A ref's shard, fixed by the ref.
  std::size_t shard_index(SeriesRef ref) const {
    return ref % static_cast<std::uint32_t>(shards_.size());
  }
  StoreShard& shard(SeriesRef ref) { return *shards_[shard_index(ref)]; }
  const StoreShard& shard(SeriesRef ref) const {
    return *shards_[shard_index(ref)];
  }

  using SubscriptionList = std::vector<std::shared_ptr<Subscription>>;

  /// create()/insert()/hydration: give `id` the series `series`; throws when
  /// it already has one.
  void adopt(const MetricId& id, TimeSeries series);

  /// Dirty tracking for a late fill that may land below the flush frontier.
  void mark_dirty(SeriesRef ref, MinuteTime t, TimeSeries::Upsert outcome);

  /// The append()/replay() body: upsert + counters + notification. Sync
  /// mode applies and delivers sample by sample; async mode upserts under
  /// one lock per shard touched and queues the notifications in one push.
  /// The WAL record is append()'s job; replay's records are already on
  /// disk.
  void apply(std::span<Sample> batch);

  /// Async mode: stamp the producer's trace context (and, with a registry,
  /// the enqueue time) on `samples` and queue them in one push.
  void enqueue(std::span<Sample> samples, const obs::Registry* stats);

  /// Snapshot the matching subscriptions for one sample into `hit` (a
  /// buffer the caller reuses across samples) and run their callbacks with
  /// no locks held. Runs on the producer thread (sync) or the dispatcher
  /// thread (async).
  void deliver(SeriesRef ref, MinuteTime t, double value,
               SubscriptionList& hit) const;

  /// The ingest queue's consumer: delivers one drained batch in order,
  /// each sample under its producer's trace context. A throwing callback
  /// never kills the dispatcher: async consumers have no frame to propagate
  /// to, so the exception is swallowed and counted.
  void dispatch(const std::vector<Sample>& batch) const;

  SeriesTable table_;
  std::vector<std::unique_ptr<StoreShard>> shards_;

  mutable std::mutex sub_index_mutex_;  ///< guards sub_index_ and next_sub_
  std::map<SubscriptionId, std::shared_ptr<Subscription>> sub_index_;
  SubscriptionId next_sub_ = 1;
  std::atomic<std::size_t> sub_count_{0};

  std::atomic<const obs::Registry*> stats_{nullptr};
  /// Async mode's ingest queue; its consumer thread is the dispatcher.
  /// Null in sync mode.
  std::unique_ptr<common::GroupCommitQueue<Sample>> queue_;

  std::unique_ptr<persist::PersistBackend> backend_;  ///< null = in-memory
};

}  // namespace funnel::tsdb
