// Tests for the 1-minute-binned TimeSeries and aggregation.
#include "tsdb/series.h"

#include <cmath>
#include <gtest/gtest.h>

#include "common/error.h"

namespace funnel::tsdb {
namespace {

TEST(TimeSeries, StartEndAndAppend) {
  TimeSeries s(100);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.start_time(), 100);
  EXPECT_EQ(s.end_time(), 100);
  s.append(1.0);
  s.append(2.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.end_time(), 102);
  EXPECT_DOUBLE_EQ(s.at(100), 1.0);
  EXPECT_DOUBLE_EQ(s.at(101), 2.0);
}

TEST(TimeSeries, AtValidatesRange) {
  TimeSeries s(10, {1.0, 2.0});
  EXPECT_THROW((void)s.at(9), InvalidArgument);
  EXPECT_THROW((void)s.at(12), InvalidArgument);
  EXPECT_TRUE(s.contains(11));
  EXPECT_FALSE(s.contains(12));
}

TEST(TimeSeries, UpsertToleratesDuplicatesAndLateArrivals) {
  // The dirty-feed ingest contract: a sample past the frontier extends the
  // series, NaN-filling skipped minutes; a late sample fills the NaN slot its gap left behind; a
  // duplicate of a stored value is ignored (first write wins); anything
  // before start_time is too old to place.
  TimeSeries s(0);
  EXPECT_EQ(s.upsert_at(0, 1.0), TimeSeries::Upsert::kAppended);
  EXPECT_EQ(s.upsert_at(3, 4.0), TimeSeries::Upsert::kAppended);
  EXPECT_TRUE(std::isnan(s.at(1)));
  EXPECT_EQ(s.upsert_at(1, 2.0), TimeSeries::Upsert::kFilled);  // late
  EXPECT_DOUBLE_EQ(s.at(1), 2.0);
  EXPECT_EQ(s.upsert_at(1, 7.0), TimeSeries::Upsert::kDuplicate);
  EXPECT_DOUBLE_EQ(s.at(1), 2.0);  // first write wins
  EXPECT_EQ(s.upsert_at(3, 9.0), TimeSeries::Upsert::kDuplicate);
  EXPECT_DOUBLE_EQ(s.at(3), 4.0);
  EXPECT_EQ(s.size(), 4u);
}

TEST(TimeSeries, UpsertRejectsPreStartSamples) {
  TimeSeries s(0);
  ASSERT_EQ(s.upsert_at(100, 1.0), TimeSeries::Upsert::kAppended);
  EXPECT_EQ(s.upsert_at(99, 2.0), TimeSeries::Upsert::kTooOld);
  EXPECT_EQ(s.start_time(), 100);
  EXPECT_EQ(s.size(), 1u);
}

TEST(TimeSeries, UpsertOnEmptySeriesDefinesStart) {
  TimeSeries s(0);
  EXPECT_EQ(s.upsert_at(50, 5.0), TimeSeries::Upsert::kAppended);
  EXPECT_EQ(s.start_time(), 50);
  EXPECT_EQ(s.end_time(), 51);
}

TEST(TimeSeries, UpsertIsDeliveryOrderInsensitive) {
  // Determinism under reordering: once the first sample anchors the start,
  // any delivery order of the rest yields the same series — the
  // chaos-harness invariant that makes dirty-feed runs reproducible.
  const std::vector<std::pair<MinuteTime, double>> samples{
      {0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}, {4, 5.0}};
  TimeSeries fwd(0), shuffled(0);
  for (const auto& [t, v] : samples) fwd.upsert_at(t, v);
  for (std::size_t i : {0u, 4u, 2u, 1u, 3u}) {
    shuffled.upsert_at(samples[i].first, samples[i].second);
  }
  ASSERT_EQ(fwd.size(), shuffled.size());
  for (MinuteTime t = 0; t < 5; ++t) {
    EXPECT_DOUBLE_EQ(fwd.at(t), shuffled.at(t)) << "minute " << t;
  }
}

TEST(TimeSeries, ViewAndSlice) {
  TimeSeries s(10, {1.0, 2.0, 3.0, 4.0});
  const auto v = s.view(11, 13);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
  EXPECT_DOUBLE_EQ(v[1], 3.0);
  EXPECT_EQ(s.slice(10, 14), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_THROW((void)s.view(9, 12), InvalidArgument);
  EXPECT_THROW((void)s.view(12, 15), InvalidArgument);
  EXPECT_TRUE(s.slice(12, 12).empty());
}

TEST(TimeSeries, CoversAndClean) {
  TimeSeries s(0, {1.0, std::nan(""), 3.0});
  EXPECT_TRUE(s.covers(0, 3));
  EXPECT_FALSE(s.covers(0, 4));
  EXPECT_TRUE(s.clean(0, 1));
  EXPECT_FALSE(s.clean(0, 2));
  EXPECT_TRUE(s.clean(2, 3));
  EXPECT_FALSE(s.clean(0, 4));  // not covered
}

TEST(AggregateMean, AveragesOverlappingSeries) {
  const TimeSeries a(0, {1.0, 2.0, 3.0});
  const TimeSeries b(0, {3.0, 4.0, 5.0});
  const std::vector<const TimeSeries*> parts{&a, &b};
  const TimeSeries m = aggregate_mean(parts, 0, 3);
  EXPECT_DOUBLE_EQ(m.at(0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(2), 4.0);
}

TEST(AggregateMean, SkipsMissingMinutesAndNan) {
  const TimeSeries a(0, {1.0, std::nan(""), 3.0});
  const TimeSeries b(1, {10.0, 20.0});  // covers minutes 1, 2
  const std::vector<const TimeSeries*> parts{&a, &b};
  const TimeSeries m = aggregate_mean(parts, 0, 4);
  EXPECT_DOUBLE_EQ(m.at(0), 1.0);    // only a
  EXPECT_DOUBLE_EQ(m.at(1), 10.0);   // a is NaN here
  EXPECT_DOUBLE_EQ(m.at(2), 11.5);   // both
  EXPECT_TRUE(std::isnan(m.at(3)));  // nobody
}

TEST(AggregateMean, NullPointersIgnored) {
  const TimeSeries a(0, {2.0});
  const std::vector<const TimeSeries*> parts{nullptr, &a};
  const TimeSeries m = aggregate_mean(parts, 0, 1);
  EXPECT_DOUBLE_EQ(m.at(0), 2.0);
}

TEST(AggregateMean, EmptyInputsProduceNan) {
  const std::vector<const TimeSeries*> parts;
  const TimeSeries m = aggregate_mean(parts, 5, 7);
  EXPECT_EQ(m.start_time(), 5);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(std::isnan(m.at(5)));
  EXPECT_THROW((void)aggregate_mean(parts, 7, 5), InvalidArgument);
}

}  // namespace
}  // namespace funnel::tsdb
