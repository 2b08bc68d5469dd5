// Self-telemetry registry — FUNNEL measuring FUNNEL.
//
// The paper's headline claim is *rapid* assessment (§5.2: ~10 minutes to a
// confirmed verdict instead of 1.5 hours of manual work). This subsystem is
// how the reproduction measures its own rapidity: named counters, gauges and
// fixed-bucket latency histograms that the pipeline stages write into and
// the exporters (obs/export.h) dump as JSON or Prometheus text.
//
// Design:
//   * The hot path is lock-free. Each thread gets its own shard of cells on
//     first touch; steady-state recording is a transparent map lookup plus a
//     relaxed atomic store on a cell only that thread writes. The only locks
//     are taken when a thread inserts a brand-new stat name into its shard
//     and when snapshot() merges all shards — never per sample.
//   * Consumers hold a `const Registry*`; null means telemetry off, and
//     every helper (and ScopedTimer) checks the pointer first, so the
//     disabled path costs one branch. Recording through a const pointer is
//     deliberate: a registry is a sink, like a logger — it never feeds back
//     into assessment results, which stay byte-identical with telemetry on
//     or off.
//   * Histograms use one fixed 1-2-5 bucket ladder spanning 1..1e7 (plus an
//     overflow bucket). That covers microsecond stage durations and
//     minute-valued time-to-verdict alike; exact mean/min/max are tracked
//     alongside, so the buckets only need to localize the distribution.
//
// Key naming convention (see DESIGN.md "Self-observability"):
//   <subsystem>.<object>.<stat>[_<unit>]   e.g. funnel.assess.sst_us,
//   pool.queue_wait_us, tsdb.store.appends, funnel.online.time_to_verdict_min.
//
// The shard-merge model and the rest of the repo-wide threading contract
// are documented in docs/CONCURRENCY.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace funnel::obs {

/// Upper bounds of the fixed histogram buckets (ascending); every histogram
/// additionally has a +inf overflow bucket, so counts have size
/// bucket_bounds().size() + 1.
std::span<const double> bucket_bounds();

/// Merged view of one histogram at snapshot time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0
  std::vector<std::uint64_t> buckets;  ///< per-bucket (non-cumulative)

  double mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// Point-in-time merge of every shard. `enabled` is true for a registry's
/// snapshot and false for a default-constructed one (no registry attached).
struct Snapshot {
  bool enabled = false;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

// Telemetry is always compiled in; funnelbench/main.cpp reads this.
inline constexpr bool kEnabled = true;

class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Increment counter `name` by `delta`.
  void add(std::string_view name, std::uint64_t delta = 1) const;

  /// Set gauge `name`. Last write wins across threads (ordered by a
  /// registry-wide sequence, so a stale shard never shadows a newer value).
  void set(std::string_view name, double value) const;

  /// Record one observation into histogram `name`.
  void observe(std::string_view name, double value) const;

  /// Pre-create a zero-valued stat so exporters list it before the first
  /// event — dashboards and the stats smoke test want a stable key set.
  void declare_counter(std::string_view name) const;
  void declare_gauge(std::string_view name) const;
  void declare_histogram(std::string_view name) const;

  /// Merge every thread's shard into one consistent-enough view. Safe to
  /// call concurrently with recording (recorders are never blocked; a
  /// snapshot may miss increments that race with it).
  Snapshot snapshot() const;

  /// One thread's private slice (defined in registry.cpp; public only so
  /// file-local helpers there can name it).
  struct Shard;

 private:
  Shard& local_shard() const;

  const std::uint64_t uid_;  ///< never reused; keys the thread-local cache
  mutable std::mutex mutex_;  ///< guards shards_ (creation + snapshot)
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace funnel::obs
