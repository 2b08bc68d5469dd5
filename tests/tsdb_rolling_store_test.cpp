// Tests for the MetricStore (including subscriptions).
#include <gtest/gtest.h>

#include "common/error.h"
#include "tsdb/store.h"

namespace funnel::tsdb {
namespace {

TEST(MetricStore, CreateAppendQuery) {
  MetricStore store;
  const MetricId id = server_metric("web-1", "cpu");
  store.create(id, 100);
  EXPECT_TRUE(store.has(id));
  EXPECT_THROW(store.create(id, 100), InvalidArgument);
  store.append(id, 100, 1.0);
  store.append(id, 101, 2.0);
  EXPECT_EQ(store.query(id, 100, 102), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(store.metric_count(), 1u);
}

TEST(MetricStore, AppendAutoCreates) {
  MetricStore store;
  const MetricId id = instance_metric("svc@web-1", "pvc");
  store.append(id, 50, 9.0);
  EXPECT_TRUE(store.has(id));
  EXPECT_EQ(store.series(id).start_time(), 50);
}

TEST(MetricStore, InsertBulkSeries) {
  MetricStore store;
  const MetricId id = service_metric("svc", "pvc");
  store.insert(id, TimeSeries(0, {1.0, 2.0, 3.0}));
  EXPECT_EQ(store.series(id).size(), 3u);
  EXPECT_THROW(store.insert(id, TimeSeries(0)), InvalidArgument);
}

TEST(MetricStore, LookupErrors) {
  const MetricStore store;
  EXPECT_THROW((void)store.series(server_metric("nope", "cpu")), NotFound);
}

TEST(MetricStore, MetricsOfFiltersByEntity) {
  MetricStore store;
  store.append(server_metric("a", "cpu"), 0, 1.0);
  store.append(server_metric("a", "mem"), 0, 1.0);
  store.append(server_metric("b", "cpu"), 0, 1.0);
  store.append(instance_metric("a", "cpu"), 0, 1.0);  // different kind
  const auto ms = store.metrics_of(EntityKind::kServer, "a");
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_EQ(ms[0].kpi, "cpu");
  EXPECT_EQ(ms[1].kpi, "mem");
  EXPECT_EQ(store.metrics().size(), 4u);
}

TEST(MetricStore, AggregateAcrossMetrics) {
  MetricStore store;
  store.insert(server_metric("a", "cpu"), TimeSeries(0, {1.0, 3.0}));
  store.insert(server_metric("b", "cpu"), TimeSeries(0, {3.0, 5.0}));
  const std::vector<MetricId> ids{server_metric("a", "cpu"),
                                  server_metric("b", "cpu"),
                                  server_metric("missing", "cpu")};
  const TimeSeries agg = store.aggregate(ids, 0, 2);
  EXPECT_DOUBLE_EQ(agg.at(0), 2.0);
  EXPECT_DOUBLE_EQ(agg.at(1), 4.0);
}

TEST(MetricStore, SubscriptionReceivesMatchingSamples) {
  MetricStore store;
  const MetricId watched = server_metric("a", "cpu");
  const MetricId other = server_metric("b", "cpu");
  std::vector<std::pair<MinuteTime, double>> got;
  const SubscriptionId sid = store.subscribe(
      {watched}, [&](const MetricId& id, MinuteTime t, double v) {
        EXPECT_EQ(id, watched);
        got.emplace_back(t, v);
      });
  store.append(watched, 0, 1.5);
  store.append(other, 0, 9.0);
  store.append(watched, 1, 2.5);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<MinuteTime, double>{0, 1.5}));
  EXPECT_EQ(got[1], (std::pair<MinuteTime, double>{1, 2.5}));
  store.unsubscribe(sid);
  store.append(watched, 2, 3.5);
  EXPECT_EQ(got.size(), 2u);
}

TEST(MetricStore, EmptyFilterSubscribesToEverything) {
  MetricStore store;
  int count = 0;
  store.subscribe({}, [&](const MetricId&, MinuteTime, double) { ++count; });
  store.append(server_metric("a", "cpu"), 0, 1.0);
  store.append(instance_metric("i", "pvc"), 0, 1.0);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(store.subscriber_count(), 1u);
}

TEST(MetricStore, SubscribeRequiresCallback) {
  MetricStore store;
  EXPECT_THROW((void)store.subscribe({}, MetricStore::Callback{}),
               InvalidArgument);
}

TEST(MetricId, OrderingAndToString) {
  const MetricId a = server_metric("x", "cpu");
  const MetricId b = server_metric("x", "mem");
  EXPECT_LT(a, b);
  EXPECT_EQ(a.to_string(), "server:x/cpu");
  EXPECT_EQ(instance_metric("s@h", "pvc").to_string(), "instance:s@h/pvc");
  EXPECT_EQ(service_metric("s", "pvc").to_string(), "service:s/pvc");
}

TEST(KpiClass, Names) {
  EXPECT_STREQ(to_string(KpiClass::kSeasonal), "seasonal");
  EXPECT_STREQ(to_string(KpiClass::kStationary), "stationary");
  EXPECT_STREQ(to_string(KpiClass::kVariable), "variable");
  EXPECT_STREQ(to_string(EntityKind::kServer), "server");
}

}  // namespace
}  // namespace funnel::tsdb
