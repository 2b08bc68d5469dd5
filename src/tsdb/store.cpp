#include "tsdb/store.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/error.h"
#include "obs/timer.h"
#include "tsdb/persist/backend.h"

namespace funnel::tsdb {

MetricStore::MetricStore(const StoreOptions& options) {
  FUNNEL_REQUIRE(options.num_shards >= 1, "store needs at least one shard");
  shards_.reserve(options.num_shards);
  for (std::size_t i = 0; i < options.num_shards; ++i) {
    shards_.push_back(std::make_unique<StoreShard>());
  }
  if (options.ingest_queue_capacity > 0) {
    queue_ = std::make_unique<common::GroupCommitQueue<Sample>>(
        options.ingest_queue_capacity, options.backpressure,
        [this](std::vector<Sample>& batch) { dispatch(batch); });
  }
  if (!options.data_dir.empty()) {
    persist::BackendOptions bopts;
    bopts.dir = options.data_dir;
    bopts.wal_queue_capacity = options.wal_queue_capacity;
    bopts.durability = options.durability;
    bopts.compact_threshold = options.compact_threshold;
    backend_ = std::make_unique<persist::PersistBackend>(bopts);
    cold_ = options.cold_reads;
    if (!cold_) {
      // Full hydration: rebuild every series from the segments so the store
      // is indistinguishable from one that never restarted. No locks: the
      // constructor is single-threaded by definition.
      for (const MetricId& id : backend_->cold_metrics()) {
        shard(id).series.emplace(id, backend_->materialize(id, nullptr));
      }
    }
    if (!options.hand_off_tail) {
      // Replay the WAL tail in arrival order. No subscriber can exist yet,
      // so this is pure state reconstruction; hand_off_tail callers replay
      // explicitly after attaching their subscribers instead.
      for (const persist::WalRecord& rec : backend_->recovered_tail()) {
        replay(rec);
      }
    }
  }
}

MetricStore::~MetricStore() {
  // Drain and stop delivering before the shards (and their subscription
  // lists) die. Flush first: dispatch() reads queue_ after each batch, and
  // reset() nulls queue_ before the queue's own drain would run.
  if (queue_ != nullptr) queue_->flush();
  queue_.reset();
}

std::size_t MetricStore::shard_index(const MetricId& id) const {
  if (shards_.size() == 1) return 0;
  std::size_t h = std::hash<std::string>{}(id.entity);
  h ^= std::hash<std::string>{}(id.kpi) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  h ^= static_cast<std::size_t>(id.kind) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  return h % shards_.size();
}

void MetricStore::create(const MetricId& id, MinuteTime start) {
  // In cold mode a segment-resident metric has no shard entry; creating it
  // "again" would fork a hot series that shadows flushed history.
  FUNNEL_REQUIRE(!cold_ || !backend_->has_cold(id),
                 "metric already exists: " + id.to_string());
  StoreShard& sh = shard(id);
  const std::unique_lock<std::shared_mutex> lock(sh.data_mutex);
  const auto [it, inserted] = sh.series.emplace(id, TimeSeries(start));
  FUNNEL_REQUIRE(inserted, "metric already exists: " + id.to_string());
  (void)it;
}

bool MetricStore::has(const MetricId& id) const {
  {
    const StoreShard& sh = shard(id);
    const std::shared_lock<std::shared_mutex> lock(sh.data_mutex);
    if (sh.series.contains(id)) return true;
  }
  return cold_ && backend_->has_cold(id);
}

namespace {

// Upsert one sample into its shard; the caller holds the shard's exclusive
// lock. The one upsert behind append(), the batch append and replay().
TimeSeries::Upsert upsert_locked(StoreShard& sh, const MetricId& id,
                                 MinuteTime t, double value) {
  auto it = sh.series.find(id);
  if (it == sh.series.end()) it = sh.series.emplace(id, TimeSeries(t)).first;
  return it->second.upsert_at(t, value);
}

persist::WalRecord sample_record(const MetricId& id, MinuteTime t,
                                 double value) {
  persist::WalRecord record;
  record.metric = id;
  record.minute = t;
  record.value = value;
  return record;
}

// A too-old sample never landed in the store; notifying subscribers about
// data they can't read back would break the visibility guarantee.
bool notifiable(TimeSeries::Upsert outcome) {
  return outcome != TimeSeries::Upsert::kTooOld;
}

// Upsert outcomes of one append call, added to the tsdb.store.* counters
// once per call.
struct AppendTally {
  std::uint64_t appends = 0;
  std::uint64_t late_fills = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t too_old = 0;

  void count(TimeSeries::Upsert outcome) {
    ++appends;
    switch (outcome) {
      case TimeSeries::Upsert::kAppended:
        break;
      case TimeSeries::Upsert::kFilled:
        ++late_fills;
        break;
      case TimeSeries::Upsert::kDuplicate:
        ++duplicates;
        break;
      case TimeSeries::Upsert::kTooOld:
        ++too_old;
        break;
    }
  }

  void report(const obs::Registry* stats) const {
    if (stats == nullptr || appends == 0) return;
    stats->add("tsdb.store.appends", appends);
    if (late_fills > 0) stats->add("tsdb.store.late_fills", late_fills);
    if (duplicates > 0) {
      stats->add("tsdb.store.duplicates_ignored", duplicates);
    }
    if (too_old > 0) stats->add("tsdb.store.too_old_dropped", too_old);
  }
};

}  // namespace

void MetricStore::append(const MetricId& id, MinuteTime t, double value) {
  // Write-ahead: the record is queued for the WAL before the in-memory
  // apply, so any state a crash preserves is replayable from disk.
  if (backend_ != nullptr) {
    persist::WalRecord record = sample_record(id, t, value);
    backend_->log_records(std::span<persist::WalRecord>(&record, 1));
  }
  apply(id, t, value);
}

void MetricStore::append(std::span<Sample> batch) {
  if (batch.empty()) return;
  if (backend_ != nullptr) {
    // Write-ahead, one group-commit push for the whole batch.
    std::vector<persist::WalRecord> records;
    records.reserve(batch.size());
    for (const Sample& s : batch) {
      records.push_back(sample_record(s.id, s.t, s.value));
    }
    backend_->log_records(records);
  }
  if (queue_ == nullptr) {
    // Synchronous dispatch applies and delivers sample by sample, so a
    // callback sees exactly the store a per-sample append would show it.
    for (const Sample& s : batch) apply(s.id, s.t, s.value);
    return;
  }

  // Async: one exclusive lock per shard touched, in batch order within
  // each shard, so every sample is visible before its notification queues.
  struct Slot {
    std::size_t shard = 0;
    TimeSeries::Upsert outcome = TimeSeries::Upsert::kAppended;
  };
  std::vector<Slot> slots(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    slots[i].shard = shard_index(batch[i].id);
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    StoreShard& sh = *shards_[k];
    std::unique_lock<std::shared_mutex> lock(sh.data_mutex, std::defer_lock);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (slots[i].shard != k) continue;
      if (!lock.owns_lock()) lock.lock();
      slots[i].outcome =
          upsert_locked(sh, batch[i].id, batch[i].t, batch[i].value);
    }
  }
  AppendTally tally;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    mark_dirty(batch[i].id, batch[i].t, slots[i].outcome);
    tally.count(slots[i].outcome);
  }
  const obs::Registry* stats = stats_.load(std::memory_order_relaxed);
  tally.report(stats);
  if (sub_count_.load(std::memory_order_acquire) == 0) return;
  // Keep the notifiable samples, in batch order, and queue them at once.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!notifiable(slots[i].outcome)) continue;
    if (kept != i) batch[kept] = std::move(batch[i]);
    ++kept;
  }
  enqueue(batch.first(kept), stats);
}

void MetricStore::replay(const persist::WalRecord& record) {
  if (record.type != persist::WalRecordType::kSample) return;
  apply(record.metric, record.minute, record.value);
}

void MetricStore::mark_dirty(const MetricId& id, MinuteTime t,
                             TimeSeries::Upsert outcome) {
  // A late fill may land below the flush frontier; mark it so the next
  // checkpoint re-flushes from there (the source of overlapping segments).
  if (backend_ != nullptr && outcome == TimeSeries::Upsert::kFilled) {
    backend_->note_dirty(id, t);
  }
}

void MetricStore::apply(const MetricId& id, MinuteTime t, double value) {
  StoreShard& sh = shard(id);
  TimeSeries::Upsert outcome = TimeSeries::Upsert::kAppended;
  {
    const std::unique_lock<std::shared_mutex> lock(sh.data_mutex);
    outcome = upsert_locked(sh, id, t, value);
  }
  mark_dirty(id, t, outcome);
  const obs::Registry* stats = stats_.load(std::memory_order_relaxed);
  AppendTally tally;
  tally.count(outcome);
  tally.report(stats);
  // The sample is visible in the shard before any notification is queued or
  // delivered, so a callback reading the store always sees its sample.
  if (!notifiable(outcome)) return;
  if (sub_count_.load(std::memory_order_acquire) == 0) return;
  if (queue_ == nullptr) {
    SubscriptionList hit;
    deliver(id, t, value, hit);
    return;
  }
  Sample s{id, t, value, {}, {}};
  enqueue(std::span<Sample>(&s, 1), stats);
}

void MetricStore::enqueue(std::span<Sample> samples,
                          const obs::Registry* stats) {
  // The producer's trace context and the enqueue stamp, read once per call.
  const obs::SpanContext trace_ctx = obs::current_context();
  const auto enqueued = stats != nullptr
                            ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
  for (Sample& s : samples) {
    s.enqueued = enqueued;
    s.trace_ctx = trace_ctx;
  }
  const auto admitted = queue_->push_all(samples);
  if (stats != nullptr && admitted.accepted) {
    if (admitted.shed > 0) {
      stats->add("tsdb.store.dropped_samples", admitted.shed);
    }
    stats->set("tsdb.store.queue_depth", static_cast<double>(admitted.depth));
  }
}

void MetricStore::insert(const MetricId& id, TimeSeries series) {
  FUNNEL_REQUIRE(!cold_ || !backend_->has_cold(id),
                 "metric already exists: " + id.to_string());
  StoreShard& sh = shard(id);
  const std::unique_lock<std::shared_mutex> lock(sh.data_mutex);
  const auto [it, inserted] = sh.series.emplace(id, std::move(series));
  FUNNEL_REQUIRE(inserted, "metric already exists: " + id.to_string());
  (void)it;
  // Inserted history is not WAL-logged (it can be huge); it becomes durable
  // at the next checkpoint, which flushes from the series start because no
  // flush frontier exists for a brand-new metric.
}

const TimeSeries& MetricStore::series(const MetricId& id) const {
  const StoreShard& sh = shard(id);
  const std::shared_lock<std::shared_mutex> lock(sh.data_mutex);
  const auto it = sh.series.find(id);
  if (it == sh.series.end()) {
    throw NotFound("no such metric: " + id.to_string());
  }
  return it->second;
}

std::size_t MetricStore::metric_count() const {
  if (cold_) return metrics().size();
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    const std::shared_lock<std::shared_mutex> lock(sh->data_mutex);
    n += sh->series.size();
  }
  return n;
}

std::vector<MetricId> MetricStore::metrics() const {
  std::vector<MetricId> out;
  for (const auto& sh : shards_) {
    const std::shared_lock<std::shared_mutex> lock(sh->data_mutex);
    for (const auto& [id, s] : sh->series) {
      (void)s;
      out.push_back(id);
    }
  }
  if (cold_) {
    // Segment-resident metrics may have no hot entry yet.
    const std::vector<MetricId> cold = backend_->cold_metrics();
    out.insert(out.end(), cold.begin(), cold.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  // Each shard map is ordered; the concatenation is not. Global order keeps
  // downstream iteration (impact_metrics, report items) shard-count
  // independent.
  if (shards_.size() > 1) std::sort(out.begin(), out.end());
  return out;
}

std::vector<MetricId> MetricStore::metrics_of(EntityKind kind,
                                              const std::string& entity) const {
  if (cold_) {
    std::vector<MetricId> out;
    for (const MetricId& id : metrics()) {
      if (id.kind == kind && id.entity == entity) out.push_back(id);
    }
    return out;
  }
  std::vector<MetricId> out;
  for (const auto& sh : shards_) {
    const std::shared_lock<std::shared_mutex> lock(sh->data_mutex);
    for (const auto& [id, s] : sh->series) {
      (void)s;
      if (id.kind == kind && id.entity == entity) out.push_back(id);
    }
  }
  if (shards_.size() > 1) std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> MetricStore::query(const MetricId& id, MinuteTime t0,
                                       MinuteTime t1) const {
  if (cold_) {
    // Out-of-core window read: only the segment pages holding [t0, t1) plus
    // the hot tail's intersection are touched — no full materialization.
    const auto seg = backend_->cold_bounds(id);
    bool found = false;
    MinuteTime h0 = 0, h1 = 0;
    std::vector<double> hot_win;
    MinuteTime hot_win_start = 0;
    {
      const StoreShard& sh = shard(id);
      const std::shared_lock<std::shared_mutex> lock(sh.data_mutex);
      const auto it = sh.series.find(id);
      if (it != sh.series.end() && !it->second.empty()) {
        found = true;
        h0 = it->second.start_time();
        h1 = it->second.end_time();
        const MinuteTime a = std::max(t0, h0);
        const MinuteTime b = std::min(t1, h1);
        if (a < b) {
          hot_win_start = a;
          hot_win = it->second.slice(a, b);
        }
      }
    }
    if (!seg.has_value() && !found) {
      throw NotFound("no such metric: " + id.to_string());
    }
    MinuteTime lo = seg.has_value() ? seg->first : h0;
    MinuteTime hi = seg.has_value() ? seg->second : h1;
    if (found) {
      lo = std::min(lo, h0);
      hi = std::max(hi, h1);
    }
    FUNNEL_REQUIRE(t0 >= lo && t1 <= hi && t0 <= t1,
                   "TimeSeries::view range not covered");
    std::vector<double> out(static_cast<std::size_t>(t1 - t0),
                            std::numeric_limits<double>::quiet_NaN());
    if (seg.has_value()) backend_->fill_window(id, t0, t1, out);
    for (std::size_t i = 0; i < hot_win.size(); ++i) {
      if (!std::isnan(hot_win[i])) {
        out[static_cast<std::size_t>(hot_win_start - t0) + i] = hot_win[i];
      }
    }
    return out;
  }
  return read(id,
              [&](const TimeSeries& s) { return s.slice(t0, t1); });
}

TimeSeries MetricStore::aggregate(std::span<const MetricId> ids, MinuteTime t0,
                                  MinuteTime t1) const {
  // Copy each covering window under its shard lock, then aggregate the
  // local snapshots — aggregate_mean drops non-covering series anyway, so
  // trimming to [t0, t1) here changes nothing in the result.
  std::vector<TimeSeries> local;
  local.reserve(ids.size());
  for (const MetricId& id : ids) {
    read_if(id, [&](const TimeSeries& s) {
      if (s.covers(t0, t1)) local.emplace_back(t0, s.slice(t0, t1));
    });
  }
  std::vector<const TimeSeries*> ptrs;
  ptrs.reserve(local.size());
  for (const TimeSeries& s : local) ptrs.push_back(&s);
  return aggregate_mean(ptrs, t0, t1);
}

SubscriptionId MetricStore::subscribe(std::vector<MetricId> filter,
                                      Callback cb) {
  FUNNEL_REQUIRE(static_cast<bool>(cb), "subscription needs a callback");
  std::sort(filter.begin(), filter.end());
  filter.erase(std::unique(filter.begin(), filter.end()), filter.end());

  auto sub = std::make_shared<Subscription>();
  sub->filter = std::move(filter);
  sub->callback = std::move(cb);

  // Register on every shard that can own a matching metric, so dispatch
  // scans only the owning shard's list.
  std::vector<std::size_t> targets;
  if (sub->filter.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) targets.push_back(i);
  } else {
    for (const MetricId& id : sub->filter) {
      targets.push_back(shard_index(id));
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  }
  for (const std::size_t i : targets) {
    const std::lock_guard<std::mutex> lock(shards_[i]->subs_mutex);
    shards_[i]->subs.push_back(sub);
  }

  SubscriptionId id = 0;
  {
    const std::lock_guard<std::mutex> lock(sub_index_mutex_);
    id = next_sub_++;
    sub_index_.emplace(id, std::move(sub));
  }
  sub_count_.fetch_add(1, std::memory_order_release);
  return id;
}

void MetricStore::unsubscribe(SubscriptionId id) {
  std::shared_ptr<Subscription> sub;
  {
    const std::lock_guard<std::mutex> lock(sub_index_mutex_);
    const auto it = sub_index_.find(id);
    if (it == sub_index_.end()) return;
    sub = std::move(it->second);
    sub_index_.erase(it);
  }
  sub->active.store(false, std::memory_order_release);
  for (const auto& sh : shards_) {
    const std::lock_guard<std::mutex> lock(sh->subs_mutex);
    std::erase(sh->subs, sub);
  }
  sub_count_.fetch_sub(1, std::memory_order_release);
  // A delivery snapshot taken before the removal may still hold this
  // subscription; wait out the batch in flight so that after return the
  // callback is guaranteed dead (FunnelOnline's destructor relies on this).
  if (queue_ != nullptr) queue_->await_inflight();
}

void MetricStore::flush() {
  if (queue_ != nullptr) queue_->flush();
}

void MetricStore::set_stats(const obs::Registry* stats) {
  stats_.store(stats, std::memory_order_relaxed);
  if (stats != nullptr && queue_ != nullptr) {
    stats->set("tsdb.store.queue_capacity",
               static_cast<double>(queue_->capacity()));
    stats->declare_gauge("tsdb.store.queue_depth");
    stats->declare_histogram("tsdb.store.dispatch_lag_us");
    stats->declare_counter("tsdb.store.dropped_samples");
  }
  if (backend_ != nullptr) backend_->set_stats(stats);
}

// ---------------------------------------------------------------------------
// Persistence.

const std::vector<persist::WalRecord>& MetricStore::recovered_tail() const {
  static const std::vector<persist::WalRecord> kEmpty;
  return backend_ != nullptr ? backend_->recovered_tail() : kEmpty;
}

std::uint64_t MetricStore::recovered_seq() const {
  if (backend_ == nullptr) return 0;
  std::uint64_t seq = backend_->checkpoint_seq();
  if (!backend_->recovered_tail().empty()) {
    seq = std::max(seq, backend_->recovered_tail().back().seq);
  }
  return seq;
}

const std::string& MetricStore::recovered_watch_state() const {
  static const std::string kEmpty;
  return backend_ != nullptr ? backend_->recovered_watch_state() : kEmpty;
}

std::uint64_t MetricStore::recovered_journal_events() const {
  return backend_ != nullptr ? backend_->recovered_journal_events() : 0;
}

std::uint64_t MetricStore::recovered_wal_skipped_bytes() const {
  return backend_ != nullptr ? backend_->recovered_wal_skipped_bytes() : 0;
}

std::uint64_t MetricStore::log_watch_marker(std::uint64_t change_id) {
  return backend_ != nullptr ? backend_->log_watch(change_id) : 0;
}

void MetricStore::wal_flush() {
  if (backend_ != nullptr) backend_->flush_wal();
}

void MetricStore::checkpoint(std::string watch_state,
                             std::uint64_t journal_events) {
  if (backend_ == nullptr) return;
  // Cut every series at its flush frontier (lowered by dirty marks) and
  // sparsify: finite samples only, the [lo, hi) range carries the gaps.
  std::vector<persist::SegmentColumn> columns;
  for (const auto& sh : shards_) {
    const std::shared_lock<std::shared_mutex> lock(sh->data_mutex);
    for (const auto& [id, s] : sh->series) {
      const MinuteTime lo = backend_->flush_cut(id, s.start_time());
      const MinuteTime hi = s.end_time();
      if (lo >= hi) continue;
      persist::SegmentColumn col;
      col.metric = id;
      col.lo = lo;
      col.hi = hi;
      const std::span<const double> values = s.values();
      for (MinuteTime t = lo; t < hi; ++t) {
        const double v = values[static_cast<std::size_t>(t - s.start_time())];
        if (!std::isnan(v)) {
          col.minutes.push_back(t);
          col.values.push_back(v);
        }
      }
      columns.push_back(std::move(col));
    }
  }
  // Shard concatenation is not globally ordered; the segment footer (and
  // its binary search) requires metric order.
  std::sort(columns.begin(), columns.end(),
            [](const persist::SegmentColumn& a,
               const persist::SegmentColumn& b) { return a.metric < b.metric; });
  backend_->commit_checkpoint(std::move(columns), std::move(watch_state),
                              journal_events);
}

void MetricStore::crash_for_testing() {
  if (backend_ != nullptr) backend_->crash_for_testing();
}

std::uint64_t MetricStore::wal_records_written() const {
  return backend_ != nullptr ? backend_->wal_records_written() : 0;
}

std::uint64_t MetricStore::wal_bytes_written() const {
  return backend_ != nullptr ? backend_->wal_bytes_written() : 0;
}

std::size_t MetricStore::segment_count() const {
  return backend_ != nullptr ? backend_->segment_count() : 0;
}

std::uint64_t MetricStore::compactions() const {
  return backend_ != nullptr ? backend_->compactions() : 0;
}

bool MetricStore::materialize_cold(const MetricId& id, TimeSeries& out) const {
  TimeSeries hot;
  bool found = false;
  {
    const StoreShard& sh = shard(id);
    const std::shared_lock<std::shared_mutex> lock(sh.data_mutex);
    const auto it = sh.series.find(id);
    if (it != sh.series.end()) {
      found = true;
      hot = it->second;  // copy; the stitch runs without the lock
    }
  }
  TimeSeries stitched =
      backend_->materialize(id, found && !hot.empty() ? &hot : nullptr);
  if (found) {
    // A created-but-empty hot series keeps its start_time semantics.
    out = stitched.empty() ? std::move(hot) : std::move(stitched);
    return true;
  }
  if (stitched.empty()) return false;
  out = std::move(stitched);
  return true;
}

void MetricStore::deliver(const MetricId& id, MinuteTime t, double value,
                          SubscriptionList& hit) const {
  const StoreShard& sh = shard(id);
  hit.clear();
  {
    const std::lock_guard<std::mutex> lock(sh.subs_mutex);
    for (const auto& sub : sh.subs) {
      if (!sub->active.load(std::memory_order_acquire)) continue;
      if (sub->filter.empty() ||
          std::binary_search(sub->filter.begin(), sub->filter.end(), id)) {
        hit.push_back(sub);
      }
    }
  }
  if (hit.empty()) return;
  const obs::Registry* stats = stats_.load(std::memory_order_relaxed);
  // Time the dispatch as one span per sample: synchronously this is the
  // latency a producing agent pays for slow consumers; on the dispatcher
  // thread it is the per-sample consumer cost the queue absorbs.
  const obs::ScopedTimer dispatch(stats, "tsdb.store.dispatch_us");
  std::uint64_t notified = 0;
  for (const auto& sub : hit) {
    if (!sub->active.load(std::memory_order_acquire)) continue;
    sub->callback(id, t, value);
    ++notified;
  }
  if (stats != nullptr && notified > 0) {
    stats->add("tsdb.store.notifications", notified);
  }
}

void MetricStore::dispatch(const std::vector<Sample>& batch) const {
  const obs::Registry* stats = stats_.load(std::memory_order_relaxed);
  SubscriptionList hit;  // one snapshot buffer for the whole batch
  for (const Sample& s : batch) {
    if (stats != nullptr &&
        s.enqueued != std::chrono::steady_clock::time_point{}) {
      stats->observe("tsdb.store.dispatch_lag_us",
                     std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - s.enqueued)
                         .count());
    }
    try {
      // Callbacks run under the producer's trace context: their spans link
      // into the submitting append's tree across the thread hop.
      const obs::ScopedContext trace_ctx(s.trace_ctx);
      deliver(s.id, s.t, s.value, hit);
    } catch (...) {
      if (stats != nullptr) stats->add("tsdb.store.callback_exceptions");
    }
  }
  if (stats != nullptr) {
    stats->set("tsdb.store.queue_depth",
               static_cast<double>(queue_->depth()));
  }
}

}  // namespace funnel::tsdb
