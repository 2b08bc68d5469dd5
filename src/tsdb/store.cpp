#include "tsdb/store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "common/error.h"
#include "obs/timer.h"
#include "tsdb/persist/backend.h"

namespace funnel::tsdb {

// ---------------------------------------------------------------------------
// Series table.

namespace {

// Fold `s` into `h` eight bytes at a time, one multiply-xorshift per word;
// the length goes into the last word, so the entity/KPI boundary counts.
// Series names are short, and this runs once per /v1 line.
std::uint64_t fold(std::uint64_t h, std::string_view s) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const char* p = s.data();
  std::size_t n = s.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  std::uint64_t tail = std::uint64_t{s.size()} << 56;
  for (std::size_t i = 0; i < n; ++i) {
    tail |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  h = (h ^ tail) * kMul;
  return h ^ (h >> 32);
}

std::uint32_t name_hash(EntityKind kind, std::string_view entity,
                        std::string_view kpi) {
  std::uint64_t h = fold(static_cast<std::uint64_t>(kind) + 1, entity);
  h = fold(h, kpi) * 0xff51afd7ed558ccdULL;
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

SeriesTable::SeriesTable() {
  indexes_.push_back(std::make_unique<Index>(64));
  index_.store(indexes_.back().get(), std::memory_order_release);
}

SeriesTable::~SeriesTable() {
  for (std::atomic<Entry*>& chunk : chunks_) delete[] chunk.load();
}

std::optional<SeriesRef> SeriesTable::find(EntityKind kind,
                                           std::string_view entity,
                                           std::string_view kpi) const {
  return find(name_hash(kind, entity, kpi), kind, entity, kpi);
}

std::optional<SeriesRef> SeriesTable::find(std::uint32_t hash,
                                           EntityKind kind,
                                           std::string_view entity,
                                           std::string_view kpi) const {
  const Index* index = index_.load(std::memory_order_acquire);
  const std::size_t mask = index->size - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint64_t slot =
        index->slots[i].load(std::memory_order_acquire);
    if (slot == 0) return std::nullopt;
    if (static_cast<std::uint32_t>(slot >> 32) != hash) continue;
    const auto ref = static_cast<SeriesRef>(slot - 1);
    const MetricId& id = entry(ref).id;
    if (id.kind == kind && id.entity == entity && id.kpi == kpi) return ref;
  }
}

void SeriesTable::place(Index& index, std::uint64_t slot) {
  const std::size_t mask = index.size - 1;
  std::size_t i = static_cast<std::uint32_t>(slot >> 32) & mask;
  while (index.slots[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & mask;
  }
  index.slots[i].store(slot, std::memory_order_release);
}

SeriesRef SeriesTable::intern(EntityKind kind, std::string_view entity,
                              std::string_view kpi) {
  const std::uint32_t hash = name_hash(kind, entity, kpi);
  if (const auto ref = find(hash, kind, entity, kpi)) return *ref;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto ref = find(hash, kind, entity, kpi)) return *ref;  // raced in
  FUNNEL_REQUIRE(size_ < 0xffffffffu - kFirstChunk, "series table is full");
  Index* index = indexes_.back().get();
  if (2 * (std::size_t{size_} + 1) > index->size) {
    // Outgrown: place every slot again in an index twice the size and
    // publish it. Readers still probing the old one find what it holds.
    auto grown = std::make_unique<Index>(index->size * 2);
    for (std::size_t i = 0; i < index->size; ++i) {
      const std::uint64_t slot =
          index->slots[i].load(std::memory_order_relaxed);
      if (slot != 0) place(*grown, slot);
    }
    index = grown.get();
    indexes_.push_back(std::move(grown));
    index_.store(index, std::memory_order_release);
  }
  const SeriesRef ref = size_++;
  const std::uint64_t v = std::uint64_t{ref} + kFirstChunk;
  const int top = std::bit_width(v) - 1;
  std::atomic<Entry*>& chunk = chunks_[top - kFirstChunkBits];
  if (chunk.load(std::memory_order_relaxed) == nullptr) {
    chunk.store(new Entry[std::size_t{1} << top], std::memory_order_release);
  }
  MetricId& id = entry(ref).id;
  id.kind = kind;
  id.entity.assign(entity);
  id.kpi.assign(kpi);
  // The release store publishes the name written above.
  place(*index, (std::uint64_t{hash} << 32) | (std::uint64_t{ref} + 1));
  return ref;
}

// ---------------------------------------------------------------------------
// Store.

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
    bopts.durability = options.durability;
    backend_ = std::make_unique<persist::PersistBackend>(bopts);
    // Hydration: adopt every series recovery rebuilt from the segments, so
    // the store is indistinguishable from one that never restarted.
    for (auto& [id, series] : backend_->take_history()) {
      adopt(id, std::move(series));
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

void MetricStore::adopt(const MetricId& id, TimeSeries series) {
  const SeriesRef ref = intern(id);
  StoreShard& sh = shard(ref);
  const std::unique_lock<std::shared_mutex> lock(sh.data_mutex);
  SeriesTable::Entry& e = table_.entry(ref);
  FUNNEL_REQUIRE(!e.live, "metric already exists: " + id.to_string());
  e.series = std::move(series);
  e.live = true;
  sh.refs.push_back(ref);
}

void MetricStore::create(const MetricId& id, MinuteTime start) {
  adopt(id, TimeSeries(start));
}

bool MetricStore::has(const MetricId& id) const {
  return read_if(id, [](const TimeSeries&) {});
}

namespace {

// Upsert one sample into its shard; the caller holds the shard's exclusive
// lock. The one upsert behind append(), the batch append and replay().
TimeSeries::Upsert upsert_locked(StoreShard& sh, SeriesTable::Entry& e,
                                 SeriesRef ref, MinuteTime t, double value) {
  if (!e.live) {
    e.series = TimeSeries(t);
    e.live = true;
    sh.refs.push_back(ref);
  }
  return e.series.upsert_at(t, value);
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
  Sample s{intern(id), t, value, {}, {}};
  append(std::span<Sample>(&s, 1));
}

void MetricStore::append(std::span<Sample> batch) {
  if (batch.empty()) return;
  if (backend_ != nullptr) {
    // Write-ahead, one commit for the whole batch: the records are in the
    // file before the in-memory apply, so any state a crash preserves is
    // replayable from disk, and a failed commit throws before any sample
    // is applied. The entries borrow the interned names for the call; the
    // scratch is this thread's, reused.
    thread_local std::vector<persist::WalEntry> entries;
    entries.clear();
    for (const Sample& s : batch) {
      persist::WalEntry& e = entries.emplace_back();
      e.metric = &table_.entry(s.ref).id;
      e.minute = s.t;
      e.value = s.value;
    }
    backend_->log_records(entries);
  }
  apply(batch);
}

void MetricStore::replay(const persist::WalRecord& record) {
  if (record.type != persist::WalRecordType::kSample) return;
  Sample s{intern(record.metric), record.minute, record.value, {}, {}};
  apply(std::span<Sample>(&s, 1));
}

void MetricStore::mark_dirty(SeriesRef ref, MinuteTime t,
                             TimeSeries::Upsert outcome) {
  // A late fill may land below the flush frontier; mark it so the next
  // checkpoint re-flushes from there (the source of overlapping segments).
  if (backend_ != nullptr && outcome == TimeSeries::Upsert::kFilled) {
    backend_->note_dirty(table_.entry(ref).id, t);
  }
}

void MetricStore::apply(std::span<Sample> batch) {
  const obs::Registry* stats = stats_.load(std::memory_order_relaxed);
  AppendTally tally;
  if (queue_ == nullptr) {
    // Synchronous dispatch applies and delivers sample by sample, so a
    // callback sees exactly the store a per-sample append would show it:
    // the sample is visible in its shard before any callback runs.
    SubscriptionList hit;
    for (const Sample& s : batch) {
      StoreShard& sh = shard(s.ref);
      TimeSeries::Upsert outcome = TimeSeries::Upsert::kAppended;
      {
        const std::unique_lock<std::shared_mutex> lock(sh.data_mutex);
        outcome = upsert_locked(sh, table_.entry(s.ref), s.ref, s.t, s.value);
      }
      mark_dirty(s.ref, s.t, outcome);
      tally.count(outcome);
      if (notifiable(outcome) &&
          sub_count_.load(std::memory_order_acquire) > 0) {
        deliver(s.ref, s.t, s.value, hit);
      }
    }
    tally.report(stats);
    return;
  }

  // Async: one exclusive lock per shard touched, taken in the order the
  // shards first appear in the batch, upserting that shard's samples in
  // batch order; so every sample is visible before its notification
  // queues. `state` is this thread's scratch, reused like the WAL entries:
  // 0 = not upserted yet, then kLanded or kTooOld (never notified).
  constexpr std::uint8_t kLanded = 1;
  constexpr std::uint8_t kTooOld = 2;
  thread_local std::vector<std::uint8_t> state;
  state.assign(batch.size(), 0);
  for (std::size_t first = 0; first < batch.size(); ++first) {
    if (state[first] != 0) continue;
    const std::size_t k = shard_index(batch[first].ref);
    StoreShard& sh = *shards_[k];
    const std::unique_lock<std::shared_mutex> lock(sh.data_mutex);
    for (std::size_t i = first; i < batch.size(); ++i) {
      const Sample& s = batch[i];
      if (state[i] != 0 || shard_index(s.ref) != k) continue;
      const TimeSeries::Upsert outcome =
          upsert_locked(sh, table_.entry(s.ref), s.ref, s.t, s.value);
      mark_dirty(s.ref, s.t, outcome);
      tally.count(outcome);
      state[i] = notifiable(outcome) ? kLanded : kTooOld;
    }
  }
  tally.report(stats);
  if (sub_count_.load(std::memory_order_acquire) == 0) return;
  // Keep the notifiable samples, in batch order, and queue them at once.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (state[i] != kLanded) continue;
    if (kept != i) batch[kept] = std::move(batch[i]);
    ++kept;
  }
  enqueue(batch.first(kept), stats);
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
  if (stats != nullptr) {
    if (admitted.shed > 0) {
      stats->add("tsdb.store.dropped_samples", admitted.shed);
    }
    stats->set("tsdb.store.queue_depth", static_cast<double>(admitted.depth));
  }
}

void MetricStore::insert(const MetricId& id, TimeSeries series) {
  adopt(id, std::move(series));
  // Inserted history is not WAL-logged (it can be huge); it becomes durable
  // at the next checkpoint, which flushes from the series start because no
  // flush frontier exists for a brand-new metric.
}

const TimeSeries& MetricStore::series(const MetricId& id) const {
  const TimeSeries* found = nullptr;
  if (!read_if(id, [&](const TimeSeries& s) { found = &s; })) {
    throw NotFound("no such metric: " + id.to_string());
  }
  return *found;
}

std::size_t MetricStore::metric_count() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    const std::shared_lock<std::shared_mutex> lock(sh->data_mutex);
    n += sh->refs.size();
  }
  return n;
}

std::vector<MetricId> MetricStore::metrics() const {
  std::vector<MetricId> out;
  for (const auto& sh : shards_) {
    const std::shared_lock<std::shared_mutex> lock(sh->data_mutex);
    for (const SeriesRef ref : sh->refs) out.push_back(table_.entry(ref).id);
  }
  // Refs are in creation order. Name order keeps downstream iteration
  // (impact_metrics, report items) independent of arrival and shard count.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<MetricId> MetricStore::metrics_of(EntityKind kind,
                                              const std::string& entity) const {
  std::vector<MetricId> out;
  for (const auto& sh : shards_) {
    const std::shared_lock<std::shared_mutex> lock(sh->data_mutex);
    for (const SeriesRef ref : sh->refs) {
      const MetricId& id = table_.entry(ref).id;
      if (id.kind == kind && id.entity == entity) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> MetricStore::query(const MetricId& id, MinuteTime t0,
                                       MinuteTime t1) const {
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
  return subscribe(std::move(filter),
                   RefCallback([cb = std::move(cb)](SeriesRef,
                                                    const MetricId& id,
                                                    MinuteTime t, double v) {
                     cb(id, t, v);
                   }));
}

SubscriptionId MetricStore::subscribe(std::vector<MetricId> filter,
                                      RefCallback cb) {
  FUNNEL_REQUIRE(static_cast<bool>(cb), "subscription needs a callback");
  auto sub = std::make_shared<Subscription>();
  for (const MetricId& id : filter) sub->filter.push_back(intern(id));
  std::sort(sub->filter.begin(), sub->filter.end());
  sub->filter.erase(std::unique(sub->filter.begin(), sub->filter.end()),
                    sub->filter.end());
  sub->callback = std::move(cb);

  // Register on every shard that can own a matching ref, so dispatch scans
  // only the owning shard's list.
  std::vector<std::size_t> targets;
  if (sub->filter.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) targets.push_back(i);
  } else {
    for (const SeriesRef ref : sub->filter) {
      targets.push_back(shard_index(ref));
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

void MetricStore::checkpoint(std::string watch_state,
                             std::uint64_t journal_events) {
  if (backend_ == nullptr) return;
  // Cut every series at its flush frontier (lowered by dirty marks) and
  // sparsify: finite samples only, the [lo, hi) range carries the gaps.
  std::vector<persist::SegmentColumn> columns;
  for (const auto& sh : shards_) {
    const std::shared_lock<std::shared_mutex> lock(sh->data_mutex);
    for (const SeriesRef ref : sh->refs) {
      const SeriesTable::Entry& e = table_.entry(ref);
      const MetricId& id = e.id;
      const TimeSeries& s = e.series;
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
  // Refs are in creation order; the segment footer (and its binary search)
  // requires metric order.
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

void MetricStore::deliver(SeriesRef ref, MinuteTime t, double value,
                          SubscriptionList& hit) const {
  const StoreShard& sh = shard(ref);
  hit.clear();
  {
    const std::lock_guard<std::mutex> lock(sh.subs_mutex);
    for (const auto& sub : sh.subs) {
      if (!sub->active.load(std::memory_order_acquire)) continue;
      if (sub->filter.empty() ||
          std::binary_search(sub->filter.begin(), sub->filter.end(), ref)) {
        hit.push_back(sub);
      }
    }
  }
  if (hit.empty()) return;
  const MetricId& id = table_.entry(ref).id;
  const obs::Registry* stats = stats_.load(std::memory_order_relaxed);
  // Time the dispatch as one span per sample: synchronously this is the
  // latency a producing agent pays for slow consumers; on the dispatcher
  // thread it is the per-sample consumer cost the queue absorbs.
  const obs::ScopedTimer dispatch(stats, "tsdb.store.dispatch_us");
  std::uint64_t notified = 0;
  for (const auto& sub : hit) {
    if (!sub->active.load(std::memory_order_acquire)) continue;
    sub->callback(ref, id, t, value);
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
      deliver(s.ref, s.t, s.value, hit);
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
