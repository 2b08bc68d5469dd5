#include "tsdb/series.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace funnel::tsdb {

TimeSeries::Upsert TimeSeries::upsert_at(MinuteTime t, double value) {
  if (values_.empty()) {
    start_ = t;
    values_.push_back(value);
    return Upsert::kAppended;
  }
  if (t >= end_time()) {
    while (end_time() < t) {
      values_.push_back(std::numeric_limits<double>::quiet_NaN());
    }
    values_.push_back(value);
    return Upsert::kAppended;
  }
  if (t < start_) return Upsert::kTooOld;
  double& slot = values_[static_cast<std::size_t>(t - start_)];
  if (std::isfinite(slot)) return Upsert::kDuplicate;
  slot = value;
  return Upsert::kFilled;
}

double TimeSeries::at(MinuteTime t) const {
  FUNNEL_REQUIRE(contains(t), "TimeSeries::at out of range");
  return values_[static_cast<std::size_t>(t - start_)];
}

std::span<const double> TimeSeries::view(MinuteTime t0, MinuteTime t1) const {
  FUNNEL_REQUIRE(covers(t0, t1), "TimeSeries::view range not covered");
  return {values_.data() + (t0 - start_), static_cast<std::size_t>(t1 - t0)};
}

std::vector<double> TimeSeries::slice(MinuteTime t0, MinuteTime t1) const {
  const auto v = view(t0, t1);
  return {v.begin(), v.end()};
}

bool TimeSeries::clean(MinuteTime t0, MinuteTime t1) const {
  if (!covers(t0, t1)) return false;
  for (double x : view(t0, t1)) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

TimeSeries aggregate_mean(std::span<const TimeSeries* const> series,
                          MinuteTime t0, MinuteTime t1) {
  FUNNEL_REQUIRE(t1 >= t0, "aggregate_mean over negative range");
  TimeSeries out(t0);
  for (MinuteTime t = t0; t < t1; ++t) {
    double acc = 0.0;
    int n = 0;
    for (const TimeSeries* s : series) {
      if (s == nullptr || !s->contains(t)) continue;
      const double v = s->at(t);
      if (!std::isfinite(v)) continue;
      acc += v;
      ++n;
    }
    out.append(n > 0 ? acc / n : std::numeric_limits<double>::quiet_NaN());
  }
  return out;
}

}  // namespace funnel::tsdb
