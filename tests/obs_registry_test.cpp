// Tests for the self-telemetry registry (obs/): counter/gauge/histogram
// correctness, bucket placement on the 1-2-5 ladder, exact totals under a
// multithreaded ThreadPool workload (the per-thread shards must merge
// losslessly), the declare-before-first-event contract, the null-registry
// no-op path, and the two exporters.
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/timer.h"

namespace funnel::obs {
namespace {

TEST(ObsRegistry, CountersAccumulate) {
  Registry reg;
  reg.add("a.count");
  reg.add("a.count", 4);
  reg.add("b.count", 10);
  const Snapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.counters.at("a.count"), 5u);
  EXPECT_EQ(snap.counters.at("b.count"), 10u);
}

TEST(ObsRegistry, GaugeLastWriteWins) {
  Registry reg;
  reg.set("g.value", 1.0);
  reg.set("g.value", 7.5);
  reg.set("g.value", 3.25);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("g.value"), 3.25);
}

TEST(ObsRegistry, HistogramStatsAreExact) {
  Registry reg;
  for (const double v : {3.0, 12.0, 150.0, 0.5}) reg.observe("h.us", v);
  const HistogramSnapshot h = reg.snapshot().histograms.at("h.us");
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 165.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 150.0);
  EXPECT_DOUBLE_EQ(h.mean(), 165.5 / 4.0);
}

TEST(ObsRegistry, BucketPlacementOnLadder) {
  Registry reg;
  const auto bounds = bucket_bounds();
  ASSERT_GE(bounds.size(), 4u);
  reg.observe("h.us", 0.3);             // below the first bound -> bucket 0
  reg.observe("h.us", bounds[0]);       // exactly on a bound -> that bucket
  reg.observe("h.us", bounds[1] * 1.5); // between bounds[1] and bounds[2]
  reg.observe("h.us", bounds.back() * 2.0);  // beyond the ladder -> overflow
  const HistogramSnapshot h = reg.snapshot().histograms.at("h.us");
  ASSERT_EQ(h.buckets.size(), bounds.size() + 1);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 0u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets.back(), 1u);
  std::uint64_t total = 0;
  for (const std::uint64_t b : h.buckets) total += b;
  EXPECT_EQ(total, h.count);
}

TEST(ObsRegistry, DeclareCreatesZeroedStats) {
  Registry reg;
  reg.declare_counter("pre.count");
  reg.declare_gauge("pre.gauge");
  reg.declare_histogram("pre.hist");
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("pre.count"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("pre.gauge"), 0.0);
  EXPECT_EQ(snap.histograms.at("pre.hist").count, 0u);
}

// The load-bearing property: every worker thread writes into its own shard
// and the snapshot merge must reproduce the exact totals — no lost updates,
// no double counting.
TEST(ObsRegistry, ThreadPoolMergeIsExact) {
  Registry reg;
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kAddsPerTask = 500;
  ThreadPool pool(4);
  pool.parallel_for(0, kTasks, [&](std::size_t i, std::size_t) {
    for (std::uint64_t k = 0; k < kAddsPerTask; ++k) {
      reg.add("mt.count");
      reg.observe("mt.us", static_cast<double>(i % 7));
    }
    reg.set("mt.gauge", static_cast<double>(i));
  });
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("mt.count"), kTasks * kAddsPerTask);
  const HistogramSnapshot h = snap.histograms.at("mt.us");
  EXPECT_EQ(h.count, kTasks * kAddsPerTask);
  std::uint64_t total = 0;
  for (const std::uint64_t b : h.buckets) total += b;
  EXPECT_EQ(total, h.count);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 6.0);
  // Last write wins: some task's index, whatever the schedule was.
  EXPECT_GE(snap.gauges.at("mt.gauge"), 0.0);
  EXPECT_LT(snap.gauges.at("mt.gauge"), static_cast<double>(kTasks));
}

TEST(ObsRegistry, NullRegistryIsSafeEverywhere) {
  // The disabled path — a null pointer — must be usable from every call
  // site without checks beyond the one the helpers already do.
  const Registry* none = nullptr;
  { const ScopedTimer t(none, "never.recorded"); }
  SUCCEED();
}

TEST(ObsRegistry, ScopedTimerRecordsMicros) {
  Registry reg;
  { const ScopedTimer t(&reg, "span.us"); }
  const HistogramSnapshot h = reg.snapshot().histograms.at("span.us");
  EXPECT_EQ(h.count, 1u);
  EXPECT_GE(h.min, 0.0);
}

TEST(ObsRegistry, JsonExportShape) {
  Registry reg;
  reg.add("c.count", 3);
  reg.set("g.v", 1.5);
  reg.observe("h.us", 42.0);
  const std::string json = snapshot_json(reg.snapshot());
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"c.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"h.us\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
}

TEST(ObsRegistry, PrometheusExportIsCumulative) {
  Registry reg;
  reg.observe("h.us", 1.0);
  reg.observe("h.us", 3.0);
  const std::string text = prometheus_text(reg.snapshot());
  // Cumulative buckets: le="1" holds 1 observation, le="5" both, +Inf both.
  EXPECT_NE(text.find("h_us_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("h_us_bucket{le=\"5\"} 2"), std::string::npos);
  EXPECT_NE(text.find("h_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("h_us_count 2"), std::string::npos);
}

TEST(ObsRegistry, PrometheusNamesAreSanitized) {
  Registry reg;
  reg.add("funnel.assess.total", 3);   // dots: the registry's own convention
  reg.add("my-metric", 1);             // dash
  reg.set("metriqu\xc3\xa9", 2.0);     // UTF-8 'é': two non-ASCII bytes
  reg.observe("9lives.us", 7.0);       // leading digit
  const std::string text = prometheus_text(reg.snapshot());

  // Each byte outside [a-zA-Z0-9_:] becomes '_'; a leading digit gets a '_'
  // prefix so the series name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
  EXPECT_NE(text.find("funnel_assess_total 3"), std::string::npos);
  EXPECT_NE(text.find("my_metric 1"), std::string::npos);
  EXPECT_NE(text.find("metriqu__ 2"), std::string::npos);
  EXPECT_NE(text.find("_9lives_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("_9lives_us_bucket{le=\"+Inf\"} 1"), std::string::npos);

  // No raw illegal bytes survive anywhere in the exposition: every line
  // must start with '#' or a legal series-name first character, and names
  // run clean up to the first space or '{'.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of(" {");
    ASSERT_NE(name_end, std::string::npos) << line;
    for (std::size_t i = 0; i < name_end; ++i) {
      const char c = line[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      EXPECT_TRUE(ok) << "illegal byte in series name: " << line;
    }
    EXPECT_FALSE(line[0] >= '0' && line[0] <= '9')
        << "series name starts with a digit: " << line;
  }
}

TEST(ObsRegistry, RegistriesAreIndependent) {
  Registry a;
  Registry b;
  a.add("same.name", 1);
  b.add("same.name", 100);
  EXPECT_EQ(a.snapshot().counters.at("same.name"), 1u);
  EXPECT_EQ(b.snapshot().counters.at("same.name"), 100u);
}

}  // namespace
}  // namespace funnel::obs
