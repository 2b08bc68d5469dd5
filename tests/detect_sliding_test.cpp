// Tests for the sliding runner, alarm policy semantics and the online
// detector's parity with the batch path.
#include "detect/sliding.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "common/error.h"

#include "common/rng.h"
#include "detect/improved_sst.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::detect {
namespace {

// A deterministic scorer for policy tests: score = value at the window
// start (window size 3, offset 1).
class ProbeScorer final : public ChangeScorer {
 public:
  std::size_t window_size() const override { return 3; }
  std::size_t change_offset() const override { return 1; }
  double score(std::span<const double> window) override { return window[0]; }
  const char* name() const override { return "probe"; }
};

TEST(ScoreSeries, AlignmentAndLength) {
  ProbeScorer p;
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto scores = score_series(p, xs);
  EXPECT_EQ(scores, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(score_series(p, std::vector<double>{1.0, 2.0}).empty());
}

TEST(FirstAlarm, RequiresPersistenceRun) {
  // Scores: one lone exceedance, then a run of three.
  const std::vector<double> scores{0.0, 9.0, 0.0, 9.0, 9.0, 9.0, 0.0};
  const AlarmPolicy p1{.threshold = 1.0, .persistence = 1};
  const AlarmPolicy p3{.threshold = 1.0, .persistence = 3};
  const auto a1 = first_alarm(scores, 3, 100, p1);
  ASSERT_TRUE(a1.has_value());
  EXPECT_EQ(a1->first_window, 1u);
  // Alarm minute = series_start + index + window - 1.
  EXPECT_EQ(a1->minute, 100 + 1 + 3 - 1);
  const auto a3 = first_alarm(scores, 3, 100, p3);
  ASSERT_TRUE(a3.has_value());
  EXPECT_EQ(a3->first_window, 3u);
  EXPECT_EQ(a3->minute, 100 + 5 + 3 - 1);
  EXPECT_DOUBLE_EQ(a3->peak_score, 9.0);
}

TEST(FirstAlarm, NanBreaksRun) {
  const std::vector<double> scores{9.0, std::nan(""), 9.0, 9.0};
  const AlarmPolicy p{.threshold = 1.0, .persistence = 3};
  EXPECT_FALSE(first_alarm(scores, 3, 0, p).has_value());
  const AlarmPolicy p2{.threshold = 1.0, .persistence = 2};
  const auto a = first_alarm(scores, 3, 0, p2);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first_window, 2u);
}

TEST(FirstAlarm, NanConsumesPatienceSlackLikeADent) {
  // Persistence-in-patience semantics with gaps (sliding.h): persistence 3
  // within patience 4 tolerates exactly one interruption — and a NaN score
  // is an interruption, indistinguishable from a sub-threshold dip.
  const AlarmPolicy p{.threshold = 1.0, .persistence = 3, .patience = 4};
  const std::vector<double> one_nan{9.0, 9.0, std::nan(""), 9.0};
  const auto a = first_alarm(one_nan, 3, 0, p);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first_window, 0u);
  EXPECT_EQ(a->minute, 0 + 3 + 3 - 1);  // fires on the window at index 3

  // Two consecutive NaNs exceed the patience surplus: the run dies.
  const std::vector<double> two_nans{9.0, 9.0, std::nan(""), std::nan(""),
                                     9.0, 9.0};
  EXPECT_FALSE(first_alarm(two_nans, 3, 0, p).has_value());
}

TEST(FirstAlarm, AlarmReestablishesOnlyAfterGapClears) {
  // A gap longer than the patience surplus kills the run; the sustained
  // exceedance after it must rebuild the full persistence count from
  // scratch — the alarm is delayed, never resurrected mid-gap.
  const AlarmPolicy p{.threshold = 1.0, .persistence = 3, .patience = 4};
  const std::vector<double> scores{9.0, 9.0, std::nan(""), std::nan(""),
                                   9.0, 9.0, 9.0};
  const auto a = first_alarm(scores, 3, 0, p);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first_window, 4u);  // the pre-gap hits contribute nothing
  EXPECT_EQ(a->minute, 0 + 6 + 3 - 1);
}

TEST(FirstAlarm, NoExceedanceNoAlarm) {
  const std::vector<double> scores{0.1, 0.2, 0.3};
  EXPECT_FALSE(
      first_alarm(scores, 3, 0, AlarmPolicy{.threshold = 0.5, .persistence = 1})
          .has_value());
  EXPECT_FALSE(first_alarm({}, 3, 0, AlarmPolicy{}).has_value());
}

TEST(FirstAlarm, ThresholdIsStrict) {
  const std::vector<double> scores{0.5, 0.5};
  EXPECT_FALSE(
      first_alarm(scores, 1, 0, AlarmPolicy{.threshold = 0.5, .persistence = 1})
          .has_value());
}

TEST(FirstAlarm, ValidatesPersistence) {
  EXPECT_THROW((void)first_alarm(std::vector<double>{1.0}, 1, 0,
                                 AlarmPolicy{.threshold = 0.0,
                                             .persistence = 0}),
               InvalidArgument);
}

TEST(AllAlarms, RearmsAfterQuietGap) {
  const std::vector<double> scores{9.0, 9.0, 0.0, 0.0, 9.0, 9.0, 9.0};
  const AlarmPolicy p{.threshold = 1.0, .persistence = 2};
  const auto alarms = all_alarms(scores, 3, 0, p);
  ASSERT_EQ(alarms.size(), 2u);
  EXPECT_EQ(alarms[0].first_window, 0u);
  EXPECT_EQ(alarms[1].first_window, 4u);
}

TEST(AllAlarms, SustainedRunRefiresEveryPersistence) {
  const std::vector<double> scores(20, 9.0);
  const AlarmPolicy p{.threshold = 1.0, .persistence = 3};
  const auto alarms = all_alarms(scores, 3, 0, p);
  // Runs complete at indices 2, 5, 8, 11, 14, 17.
  ASSERT_EQ(alarms.size(), 6u);
  EXPECT_EQ(alarms[0].first_window, 0u);
  EXPECT_EQ(alarms[1].minute - alarms[0].minute, 3);
}

// The first alarm of a whole series, scored window by window.
std::optional<Alarm> first_scored_alarm(ChangeScorer& scorer,
                                        std::span<const double> series,
                                        const AlarmPolicy& policy) {
  std::vector<double> scores;
  return score_until_alarm(
      series, scorer.window_size(), 0, policy, 0,
      [&](std::span<const double> w) { return scorer.score(w); }, scores);
}

TEST(ScoreUntilAlarm, StopsAtFirstAlarmFromMinute) {
  // Probe scores (window 3, series start 100) 9 9 9 9 9 0 9: alarms of 2
  // exceedances in 3 windows complete at windows 1 (minute 103), 3 (105)
  // and 6 (108, first window 4). Without the re-arm after an alarm the
  // run's leftover exceedances would fire again at window 2 (minute 104).
  ProbeScorer p;
  const std::vector<double> xs{9.0, 9.0, 9.0, 9.0, 9.0, 0.0, 9.0, 0.0, 0.0};
  const AlarmPolicy policy{.threshold = 1.0, .persistence = 2, .patience = 3};
  const auto all = all_alarms(score_series(p, xs), 3, 100, policy);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].minute, 105);
  const auto score = [&](std::span<const double> w) { return p.score(w); };
  std::vector<double> scores;
  // Before the first alarm, between alarms, exactly at one, and inside the
  // last run: each pre-`from` alarm re-arms the scan as all_alarms does.
  for (const MinuteTime from : {MinuteTime{0}, MinuteTime{104},
                                MinuteTime{105}, MinuteTime{106}}) {
    const auto a = score_until_alarm(xs, 3, 100, policy, from, score, scores);
    const auto it = std::find_if(all.begin(), all.end(), [&](const Alarm& x) {
      return x.minute >= from;
    });
    ASSERT_TRUE(a.has_value()) << from;
    EXPECT_EQ(a->minute, it->minute);
    EXPECT_EQ(a->first_window, it->first_window);
    EXPECT_EQ(a->peak_score, it->peak_score);
    // The prefix up to and including the alarm's window, nothing past it.
    EXPECT_EQ(scores.size(), static_cast<std::size_t>(a->minute - 100 - 1));
  }
  // No alarm at or after `from`, but the last run stays live to the end,
  // so every window is scored.
  EXPECT_FALSE(
      score_until_alarm(xs, 3, 100, policy, 109, score, scores).has_value());
  EXPECT_EQ(scores, score_series(p, xs));
  // Shorter than one window: nothing to score.
  EXPECT_FALSE(score_until_alarm(std::vector<double>{9.0, 9.0}, 3, 100,
                                 policy, 0, score, scores)
                   .has_value());
  EXPECT_TRUE(scores.empty());
}

TEST(ScoreUntilAlarm, RunCompletingInTheLastWindowStillAlarms) {
  // 7-in-10 over 20 windows (window 3, series start 0): hits in windows
  // 11..12 and 15..19 complete a run of 7 exceedances among the last 10
  // windows only at window 19, the last one. The scan must keep scoring
  // while that run can still complete.
  ProbeScorer p;
  std::vector<double> xs(22, 0.0);
  for (const std::size_t i : {11, 12, 15, 16, 17, 18, 19}) xs[i] = 9.0;
  const AlarmPolicy policy{.threshold = 1.0, .persistence = 7, .patience = 10};
  const auto score = [&](std::span<const double> w) { return p.score(w); };
  std::vector<double> scores;
  const auto a = score_until_alarm(xs, 3, 0, policy, 0, score, scores);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->minute, 21);
  EXPECT_EQ(a->first_window, 11u);
  EXPECT_EQ(scores, score_series(p, xs));
  // One exceedance fewer, and the run can no longer complete: the scan
  // stops right after window 15, where the 2 held hits (11, 12) plus the
  // 4 windows still to come fall short of 7.
  xs[15] = 0.0;
  EXPECT_FALSE(score_until_alarm(xs, 3, 0, policy, 0, score, scores));
  EXPECT_EQ(scores.size(), 16u);
}

TEST(ScoreUntilAlarm, QuietSeriesStopsPersistenceMinusOneWindowsEarly) {
  // No window exceeds: once fewer than `persistence` windows remain, none
  // can complete a run, so the last persistence − 1 are never scored.
  ProbeScorer p;
  const std::vector<double> xs(42, 0.0);  // 40 windows
  const auto score = [&](std::span<const double> w) { return p.score(w); };
  std::vector<double> scores;
  for (const std::size_t persistence : {1, 2, 7}) {
    const AlarmPolicy policy{.threshold = 1.0, .persistence = persistence,
                             .patience = persistence + 3};
    EXPECT_FALSE(score_until_alarm(xs, 3, 0, policy, 0, score, scores));
    EXPECT_EQ(scores.size(), 40u - (persistence - 1)) << persistence;
  }
}

TEST(ScoreUntilAlarm, EndToEndOnSyntheticShift) {
  workload::StationaryParams params;
  workload::KpiStream s(workload::make_stationary(params, Rng(5)));
  s.add_effect(workload::LevelShift{120, 8.0});
  const auto series = workload::render(s, 0, 240);
  ImprovedSst scorer(SstGeometry{.omega = 9, .eta = 3});
  const auto alarm = first_scored_alarm(
      scorer, series, AlarmPolicy{.threshold = 0.4, .persistence = 7});
  ASSERT_TRUE(alarm.has_value());
  EXPECT_GE(alarm->minute, 120);
  EXPECT_LE(alarm->minute, 160);
}

TEST(ScoreUntilAlarm, GapStraddlingAlarmWindowSuppressesAlarm) {
  // The dirty-feed hazard documented in sliding.h: a feed outage that
  // swallows the change transition suppresses the alarm outright — every
  // window overlapping the gap scores NaN, and post-gap windows see only
  // the (stationary) new level. The silence is NOT a clean bill of health;
  // the assessment layer reports it as inconclusive via the window
  // QualityReport (funnel_assessor_test covers that half).
  workload::StationaryParams params;
  workload::KpiStream s(workload::make_stationary(params, Rng(5)));
  s.add_effect(workload::LevelShift{120, 8.0});
  auto series = workload::render(s, 0, 240);
  const AlarmPolicy policy{.threshold = 0.4, .persistence = 7,
                           .patience = 10};

  ImprovedSst clean_scorer(SstGeometry{.omega = 9, .eta = 3});
  ASSERT_TRUE(first_scored_alarm(clean_scorer, series, policy).has_value());

  // Gap from just before the shift until well past the would-be alarm
  // minute: the whole transition is invisible.
  for (std::size_t i = 115; i < 175; ++i) series[i] = std::nan("");
  ImprovedSst gapped_scorer(SstGeometry{.omega = 9, .eta = 3});
  EXPECT_FALSE(first_scored_alarm(gapped_scorer, series, policy).has_value());
}

TEST(ScoreUntilAlarm, GapBeforeChangeDoesNotSuppressLaterAlarm) {
  // A gap that heals before the change leaves the alarm intact (merely
  // consuming score positions): detection quality is about the window
  // around the change, not the whole history.
  workload::StationaryParams params;
  workload::KpiStream s(workload::make_stationary(params, Rng(5)));
  s.add_effect(workload::LevelShift{150, 8.0});
  auto series = workload::render(s, 0, 280);
  for (std::size_t i = 60; i < 80; ++i) series[i] = std::nan("");
  ImprovedSst scorer(SstGeometry{.omega = 9, .eta = 3});
  const auto alarm = first_scored_alarm(
      scorer, series,
      AlarmPolicy{.threshold = 0.4, .persistence = 7, .patience = 10});
  ASSERT_TRUE(alarm.has_value());
  EXPECT_GE(alarm->minute, 150);
  EXPECT_LE(alarm->minute, 190);
}

TEST(OnlineDetector, MatchesBatchAlarm) {
  workload::StationaryParams params;
  workload::KpiStream s(workload::make_stationary(params, Rng(6)));
  s.add_effect(workload::LevelShift{100, 8.0});
  const auto series = workload::render(s, 0, 200);
  const AlarmPolicy policy{.threshold = 0.4, .persistence = 7};

  ImprovedSst batch_scorer(SstGeometry{.omega = 9, .eta = 3});
  const auto batch = first_scored_alarm(batch_scorer, series, policy);

  ImprovedSst online_scorer(SstGeometry{.omega = 9, .eta = 3});
  OnlineDetector online(online_scorer, policy, 0);
  std::optional<Alarm> hit;
  for (double v : series) {
    const auto a = online.push(v);
    if (a && !hit) hit = a;
  }
  ASSERT_EQ(batch.has_value(), hit.has_value());
  if (batch) {
    EXPECT_EQ(batch->minute, hit->minute);
    EXPECT_NEAR(batch->peak_score, hit->peak_score, 1e-12);
  }
  EXPECT_TRUE(online.alarmed());
}

TEST(OnlineDetector, LatchesUntilRearmed) {
  ProbeScorer p;
  OnlineDetector d(p, AlarmPolicy{.threshold = 1.0, .persistence = 1}, 0);
  EXPECT_FALSE(d.push(5.0).has_value());  // buffer not full yet
  EXPECT_FALSE(d.push(5.0).has_value());
  const auto a = d.push(5.0).has_value();  // first full window scores 5
  EXPECT_TRUE(a);
  EXPECT_FALSE(d.push(5.0).has_value());  // latched
  d.rearm();
  EXPECT_TRUE(d.push(5.0).has_value());
}

TEST(OnlineDetector, TracksMinutes) {
  ProbeScorer p;
  OnlineDetector d(p, AlarmPolicy{.threshold = 100.0, .persistence = 1}, 50);
  EXPECT_EQ(d.next_minute(), 50);
  (void)d.push(0.0);
  EXPECT_EQ(d.next_minute(), 51);
}

TEST(OnlineDetector, AlarmMinuteMatchesPolicyArithmetic) {
  ProbeScorer p;  // window 3, score = first sample of window
  OnlineDetector d(p, AlarmPolicy{.threshold = 1.0, .persistence = 2}, 10);
  // Samples: minute 10 -> 9, 11 -> 9, 12 -> 0, 13 -> 0...
  // Window [10..12] scores 9 (run 1), window [11..13] scores 9 (run 2):
  // alarm fires when the sample of minute 13 arrives.
  (void)d.push(9.0);
  (void)d.push(9.0);
  EXPECT_FALSE(d.push(0.0).has_value());
  const auto a = d.push(0.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->minute, 13);
}

}  // namespace
}  // namespace funnel::detect
