// A 1-minute-binned KPI time series.
//
// Time is an absolute minute index (MinuteTime); the series stores one
// sample per minute starting at `start_time()`. Missing samples (collection
// gaps) are stored as NaN — the detectors treat NaN-containing windows as
// not scoreable rather than producing bogus scores.
#pragma once

#include <span>
#include <vector>

#include "common/minute_time.h"

namespace funnel::tsdb {

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(MinuteTime start) : start_(start) {}
  TimeSeries(MinuteTime start, std::vector<double> values)
      : start_(start), values_(std::move(values)) {}

  /// First minute with a sample.
  MinuteTime start_time() const { return start_; }

  /// One past the last minute with a sample.
  MinuteTime end_time() const {
    return start_ + static_cast<MinuteTime>(values_.size());
  }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Append the sample for minute end_time().
  void append(double value) { values_.push_back(value); }

  /// What upsert_at did with a sample.
  enum class Upsert {
    kAppended,   ///< extended the series (possibly NaN-filling a gap first)
    kFilled,     ///< landed in a past NaN hole (late delivery)
    kDuplicate,  ///< past minute already held a finite sample; kept the old
    kTooOld,     ///< before start_time(); dropped
  };

  /// Order-tolerant append for dirty ingest feeds: the first sample of an
  /// empty series defines its start; at/after end_time() the series grows
  /// to t, NaN-filling any skipped minutes; inside the covered range it
  /// fills NaN holes first-write-wins (a duplicate or conflicting
  /// re-delivery never overwrites data, so any delivery order converges to
  /// the same series); before start_time() the sample is dropped. Never
  /// throws. NaN deliveries for an unseen minute are stored as the gap they
  /// are.
  Upsert upsert_at(MinuteTime t, double value);

  /// Sample at minute t. Throws InvalidArgument when t is out of range.
  double at(MinuteTime t) const;

  bool contains(MinuteTime t) const { return t >= start_ && t < end_time(); }

  /// True when [t0, t1) is fully inside the series.
  bool covers(MinuteTime t0, MinuteTime t1) const {
    return t0 >= start_ && t1 <= end_time() && t0 <= t1;
  }

  std::span<const double> values() const { return values_; }

  /// Zero-copy view of [t0, t1). Throws when not covered.
  std::span<const double> view(MinuteTime t0, MinuteTime t1) const;

  /// Copy of [t0, t1). Throws when not covered.
  std::vector<double> slice(MinuteTime t0, MinuteTime t1) const;

  /// True when [t0, t1) is covered and contains no NaN.
  bool clean(MinuteTime t0, MinuteTime t1) const;

 private:
  MinuteTime start_ = 0;
  std::vector<double> values_;
};

/// Pointwise mean of several series over [t0, t1); series that do not cover
/// the range or hold NaN at a minute are excluded from that minute's mean.
/// Minutes with no contributing series become NaN.
TimeSeries aggregate_mean(std::span<const TimeSeries* const> series,
                          MinuteTime t0, MinuteTime t1);

}  // namespace funnel::tsdb
