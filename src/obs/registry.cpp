#include "obs/registry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <unordered_map>

namespace funnel::obs {
namespace {

// 1-2-5 ladder from 1 to 1e7: wide enough for sub-microsecond stage timings
// and for minute-valued series (time-to-verdict) without per-histogram
// configuration.
constexpr std::array<double, 22> kBounds = {
    1.0,   2.0,   5.0,   1e1, 2e1, 5e1, 1e2, 2e2, 5e2, 1e3, 2e3,
    5e3,   1e4,   2e4,   5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7};
constexpr std::size_t kBucketCount = kBounds.size() + 1;  // + overflow

}  // namespace

std::span<const double> bucket_bounds() {
  return {kBounds.data(), kBounds.size()};
}

// Shard cells are written only by the owning thread and read by snapshot();
// owner-only writes mean plain load-modify-store on relaxed atomics is
// race-free and exact — no CAS loops, no contention.
namespace {

std::size_t bucket_index(double v) {
  // First bound >= v: Prometheus le-semantics, a value on a bound belongs
  // to that bound's bucket.
  const auto it = std::lower_bound(kBounds.begin(), kBounds.end(), v);
  return static_cast<std::size_t>(it - kBounds.begin());
}

// Gauge writes across shards are ordered by this sequence so the merge can
// pick the newest value; sharing one sequence across registries is harmless
// (only relative order within a registry matters).
std::atomic<std::uint64_t> g_gauge_seq{1};

std::atomic<std::uint64_t> g_next_uid{1};

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct GaugeCell {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<double> value{0.0};
};

struct HistCell {
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

}  // namespace

/// One thread's private slice of the registry. Only the owning thread
/// inserts into the maps (under the shard mutex, because snapshot() iterates
/// them from another thread); std::map nodes are stable, so the owner's
/// lock-free find() handing out cell references stays valid forever.
struct Registry::Shard {
  std::mutex mutex;  ///< guards map *structure*: insert vs snapshot iterate
  std::map<std::string, CounterCell, std::less<>> counters;
  std::map<std::string, GaugeCell, std::less<>> gauges;
  std::map<std::string, HistCell, std::less<>> histograms;
};

namespace {

// Registry* -> shard cache, keyed by a never-reused uid so a dead
// registry's entry can never be confused with a later registry that happens
// to reuse the address.
thread_local std::unordered_map<std::uint64_t, Registry::Shard*> tls_shards;

template <typename Map>
auto& cell_for(Registry::Shard& shard, Map& map, std::string_view name) {
  // Owner-only structure mutation: the unlocked find is safe because no
  // other thread ever inserts into this shard, and snapshot() only reads.
  const auto it = map.find(name);
  if (it != map.end()) return it->second;
  // try_emplace constructs the cell in place: the cells hold atomics and
  // are neither copyable nor movable.
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return map.try_emplace(std::string(name)).first->second;
}

}  // namespace

Registry::Registry()
    : uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry::Shard& Registry::local_shard() const {
  const auto it = tls_shards.find(uid_);
  if (it != tls_shards.end()) return *it->second;
  const std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  tls_shards.emplace(uid_, shard);
  return *shard;
}

void Registry::add(std::string_view name, std::uint64_t delta) const {
  Shard& shard = local_shard();
  CounterCell& cell = cell_for(shard, shard.counters, name);
  cell.value.store(cell.value.load(std::memory_order_relaxed) + delta,
                   std::memory_order_relaxed);
}

void Registry::set(std::string_view name, double value) const {
  Shard& shard = local_shard();
  GaugeCell& cell = cell_for(shard, shard.gauges, name);
  cell.value.store(value, std::memory_order_relaxed);
  cell.seq.store(g_gauge_seq.fetch_add(1, std::memory_order_relaxed),
                 std::memory_order_release);
}

void Registry::observe(std::string_view name, double value) const {
  Shard& shard = local_shard();
  HistCell& cell = cell_for(shard, shard.histograms, name);
  auto& bucket = cell.buckets[bucket_index(value)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  cell.count.store(cell.count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  cell.sum.store(cell.sum.load(std::memory_order_relaxed) + value,
                 std::memory_order_relaxed);
  if (value < cell.min.load(std::memory_order_relaxed)) {
    cell.min.store(value, std::memory_order_relaxed);
  }
  if (value > cell.max.load(std::memory_order_relaxed)) {
    cell.max.store(value, std::memory_order_relaxed);
  }
}

void Registry::declare_counter(std::string_view name) const {
  Shard& shard = local_shard();
  cell_for(shard, shard.counters, name);
}

void Registry::declare_gauge(std::string_view name) const {
  Shard& shard = local_shard();
  cell_for(shard, shard.gauges, name);
}

void Registry::declare_histogram(std::string_view name) const {
  Shard& shard = local_shard();
  cell_for(shard, shard.histograms, name);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.enabled = true;
  const std::lock_guard<std::mutex> registry_lock(mutex_);
  struct GaugeMerge {
    std::uint64_t seq = 0;
    double value = 0.0;
  };
  std::map<std::string, GaugeMerge> gauges;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> shard_lock(shard->mutex);
    for (const auto& [name, cell] : shard->counters) {
      snap.counters[name] += cell.value.load(std::memory_order_relaxed);
    }
    for (const auto& [name, cell] : shard->gauges) {
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      GaugeMerge& merge = gauges[name];
      if (seq >= merge.seq) {
        merge.seq = seq;
        merge.value = cell.value.load(std::memory_order_relaxed);
      }
    }
    for (const auto& [name, cell] : shard->histograms) {
      HistogramSnapshot& h = snap.histograms[name];
      if (h.buckets.empty()) h.buckets.assign(kBucketCount, 0);
      for (std::size_t b = 0; b < kBucketCount; ++b) {
        h.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
      }
      const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
      if (count > 0) {
        const double mn = cell.min.load(std::memory_order_relaxed);
        const double mx = cell.max.load(std::memory_order_relaxed);
        if (h.count == 0 || mn < h.min) h.min = mn;
        if (h.count == 0 || mx > h.max) h.max = mx;
      }
      h.count += count;
      h.sum += cell.sum.load(std::memory_order_relaxed);
    }
  }
  for (const auto& [name, merge] : gauges) {
    snap.gauges[name] = merge.value;
  }
  return snap;
}

}  // namespace funnel::obs
