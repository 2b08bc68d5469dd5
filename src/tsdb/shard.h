// The MetricStore's series table and shards (see docs/CONCURRENCY.md,
// "Metric store").
//
// The table interns every series name into a dense SeriesRef on first
// sight and holds that series' entry at a fixed address for the store's
// lifetime. Each ref belongs to one shard, fixed by the ref itself, and each
// shard pairs a reader-writer lock over its entries' series with the
// subscription list relevant to its refs, so writers on different shards
// never contend and dispatch scans stay shard-local. This header is an
// implementation detail of store.h — user code never names StoreShard or
// SeriesTable.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "common/minute_time.h"
#include "tsdb/metric.h"
#include "tsdb/series.h"

namespace funnel::tsdb {

/// Interned series identities: name -> SeriesRef through an open-addressing
/// index, ref -> entry by arithmetic. Entries live in chunks of doubling
/// size (64, 128, 256, ...) that are never moved or freed before the table,
/// so a ref's entry keeps its address while other names are interned.
/// Lookups take no lock: the index's slots are atomics, an entry's name is
/// written before the release store that publishes its slot, and an index
/// outgrown by interning stays alive (for readers still probing it) until
/// the table dies. Interning serializes on one mutex.
class SeriesTable {
 public:
  struct Entry {
    MetricId id;  ///< written once, when the ref is interned
    /// Guarded by the owning shard's data_mutex. Interning never creates a
    /// series: `live` turns true at the first append, create or insert.
    bool live = false;
    TimeSeries series;
  };

  SeriesTable();
  ~SeriesTable();
  SeriesTable(const SeriesTable&) = delete;
  SeriesTable& operator=(const SeriesTable&) = delete;

  /// The ref of an interned name; nullopt when the name is new. Lock-free;
  /// never allocates.
  std::optional<SeriesRef> find(EntityKind kind, std::string_view entity,
                                std::string_view kpi) const;

  /// The ref of a name, interning it on first sight.
  SeriesRef intern(EntityKind kind, std::string_view entity,
                   std::string_view kpi);

  /// The entry of a ref this table issued. Lock-free: the ref reached the
  /// caller through a lock or a queue after its entry was written, and the
  /// entry never moves.
  Entry& entry(SeriesRef ref) const {
    const std::uint64_t v = std::uint64_t{ref} + kFirstChunk;
    const int top = std::bit_width(v) - 1;
    Entry* chunk =
        chunks_[top - kFirstChunkBits].load(std::memory_order_acquire);
    return chunk[v - (std::uint64_t{1} << top)];
  }

 private:
  static constexpr int kFirstChunkBits = 6;
  static constexpr std::uint64_t kFirstChunk = 1u << kFirstChunkBits;
  static constexpr std::size_t kChunks = 32 - kFirstChunkBits;

  /// Open addressing with linear probing, load <= 1/2. A slot packs the
  /// name's 32-bit hash over ref + 1; 0 is empty.
  struct Index {
    explicit Index(std::size_t n)
        : size(n), slots(new std::atomic<std::uint64_t>[n]()) {}
    std::size_t size;
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  };

  std::optional<SeriesRef> find(std::uint32_t hash, EntityKind kind,
                                std::string_view entity,
                                std::string_view kpi) const;

  /// Place a packed slot in the first empty slot of its probe. mutex_ held.
  static void place(Index& index, std::uint64_t slot);

  std::mutex mutex_;  ///< serializes intern()
  /// Every index built, the current one last; mutex_ guards the vector.
  std::vector<std::unique_ptr<Index>> indexes_;
  std::atomic<const Index*> index_;  ///< the current index
  std::uint32_t size_ = 0;  ///< refs issued; mutex_
  std::array<std::atomic<Entry*>, kChunks> chunks_{};
};

/// One push subscription. Shared between the store's id index and every
/// shard whose refs the filter touches; `active` is cleared by
/// unsubscribe() so a dispatch snapshot taken just before never invokes a
/// dead callback (the in-flight-callback barrier is the ingest queue's
/// await_inflight(), see common/group_commit_queue.h).
struct Subscription {
  std::vector<SeriesRef> filter;  ///< sorted, deduplicated; empty = all
  std::function<void(SeriesRef, const MetricId&, MinuteTime, double)>
      callback;
  std::atomic<bool> active{true};
};

/// One partition: the lock over its refs' series, the refs that have a
/// series, and the subscriptions that can match them.
struct StoreShard {
  /// Guards `refs` and the `live` flag and TimeSeries of every table entry
  /// whose ref maps here. Readers take it shared, create/append/insert take
  /// it exclusive. Never held while a subscriber callback runs.
  mutable std::shared_mutex data_mutex;
  std::vector<SeriesRef> refs;  ///< refs with a series, in creation order

  /// Guards `subs`. Separate from data_mutex so dispatch (which snapshots
  /// the list, then invokes callbacks lock-free) never serializes against
  /// appends into the shard.
  mutable std::mutex subs_mutex;
  std::vector<std::shared_ptr<Subscription>> subs;
};

}  // namespace funnel::tsdb
