// Sliding-window detection runner and alarm policy.
//
// The evaluation protocol of §4.1: a scorer consumes x(i..i+W-1), emits a
// score, and the window moves forward one minute. An alarm is raised when
// the score exceeds a threshold for `persistence` consecutive window
// positions — FUNNEL's 7-minute rule that separates level shifts and ramps
// from one-off events (CUSUM and MRLS in the paper run with persistence 1,
// trading false positives for occasional faster hits).
//
// NaN semantics (the dirty-telemetry contract, see docs/ROBUSTNESS.md):
// a gap minute is stored as NaN, every window containing a NaN scores NaN,
// and a NaN score is never an exceedance — `isfinite(score) &&
// score > threshold` is the only hit test. Consequences, asserted by
// detect_sliding_test:
//   * A NaN score inside a would-be persistence run consumes patience
//     slack exactly like a sub-threshold score: with persistence P and
//     patience Q, a run survives at most Q - P interruptions, NaN or not.
//   * A gap longer than the patience surplus kills the run; the alarm (if
//     the shift is still there) re-establishes only after the window
//     clears the gap — W - 1 + P clean minutes later. It is delayed, never
//     resurrected mid-gap.
//   * A gap straddling the would-be alarm minute therefore suppresses the
//     alarm entirely until the feed resumes; the assessment layer turns
//     that silence into Cause::kInconclusive via the window QualityReport
//     instead of reading it as a clean bill of health.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/minute_time.h"
#include "detect/scorer.h"

namespace funnel::detect {

/// Scores for every window position over `series`: out[i] is the score of
/// the window starting at sample i; size is series.size() - W + 1 (empty
/// when the series is shorter than one window).
std::vector<double> score_series(ChangeScorer& scorer,
                                 std::span<const double> series);

struct AlarmPolicy {
  double threshold = 0.5;
  /// Exceedances required before alarming (the 7-minute rule).
  std::size_t persistence = 7;
  /// Length of the sliding look-back the exceedances are counted in. 0 (the
  /// default) means `persistence` — i.e. strictly consecutive exceedances.
  /// FUNNEL runs with a small surplus (e.g. 10 for persistence 7) because
  /// the Eq. 11 damping factor passes through zero as a change edge crosses
  /// the window midpoint, briefly denting an otherwise sustained run.
  std::size_t patience = 0;

  std::size_t effective_patience() const {
    return patience == 0 ? persistence : patience;
  }
};

/// A raised alarm.
struct Alarm {
  /// Minute the alarm fires (wall clock): the arrival minute of the last
  /// sample of the final window of the persistence run. Online, this is the
  /// earliest minute the method could have raised it.
  MinuteTime minute = 0;
  /// Window start index (into the scored series) of the first exceedance.
  std::size_t first_window = 0;
  /// Largest score within the persistence run.
  double peak_score = 0.0;
};

/// The k-of-n exceedance rule every scan here runs on (first_alarm,
/// all_alarms, score_until_alarm, OnlineDetector): alarm when at least
/// `persistence` of the last `patience` windows exceeded the threshold AND
/// the current window does.
class ExceedanceRun {
 public:
  explicit ExceedanceRun(const AlarmPolicy& policy);

  /// Feed the score of window index `i`; true when the alarm condition is
  /// met at this window.
  bool push(std::size_t i, double score);

  /// The alarm the last push() completed, firing at wall-clock `minute`.
  Alarm alarm(MinuteTime minute) const;

  /// Whether a window after `i`, the last one pushed, and before `n` can
  /// still alarm. Window j ≤ n − 1 tallies the hits in [j − P + 1, j], P
  /// the patience: at most the n − 1 − j windows of that range before
  /// n − P, the hits already held in [n − P, i], and the j − i windows
  /// still to come. So no later window alarms once the held hits in
  /// [n − P, i] plus n − 1 − i fall short of the persistence.
  bool can_alarm_before(std::size_t i, std::size_t n) const;

  /// Forget every exceedance: the next alarm needs a full run again.
  void reset() { hits_.clear(); }

 private:
  struct Hit {
    std::size_t index;
    double score;
  };
  AlarmPolicy policy_;
  std::vector<Hit> hits_;  ///< at most `patience` entries
};

/// First alarm over precomputed scores. `series_start` is the minute of
/// sample 0; `window` the scorer's W. NaN scores break persistence runs.
std::optional<Alarm> first_alarm(std::span<const double> scores,
                                 std::size_t window, MinuteTime series_start,
                                 const AlarmPolicy& policy);

/// All alarms: after an alarm fires, scanning re-arms immediately, so a
/// sustained exceedance fires again every `persistence` windows while it
/// lasts. Consumers that want one alarm per episode should de-duplicate by
/// gap; evaluation code relies on the repetition so that an exceedance run
/// straddling the change minute still produces a post-change alarm.
std::vector<Alarm> all_alarms(std::span<const double> scores,
                              std::size_t window, MinuteTime series_start,
                              const AlarmPolicy& policy);

/// Collapse the repeated alarms of a sustained exceedance into episodes:
/// alarms closer than `gap` minutes to their predecessor are merged into
/// it (keeping the first minute and the maximum peak). Deployment
/// dashboards count episodes, not raw re-fires.
std::vector<Alarm> alarm_episodes(std::span<const Alarm> alarms,
                                  MinuteTime gap);

/// Score of one window (W samples), as ChangeScorer::score gives it.
using WindowScore = std::function<double(std::span<const double>)>;

/// Streaming detection: score the windows of `series` in order, window i
/// as `score(series.subspan(i, window))`, and stop at the first alarm that
/// fires at or after minute `from`. An earlier alarm re-arms the scan as
/// all_alarms does, so the result is the first alarm of
/// all_alarms(scores) with minute >= from. The scan also stops, with no
/// alarm, after the first window past which no window of the slice can
/// complete a run (ExceedanceRun::can_alarm_before): a quiet tail skips
/// its last persistence − 1 windows. `scores` receives what was scored:
/// the prefix of the full score series up to and including the window
/// the scan stopped at.
std::optional<Alarm> score_until_alarm(std::span<const double> series,
                                       std::size_t window,
                                       MinuteTime series_start,
                                       const AlarmPolicy& policy,
                                       MinuteTime from,
                                       const WindowScore& score,
                                       std::vector<double>& scores);

/// Online wrapper: feed samples one at a time; fires at most one alarm.
/// Mirrors exactly what the batch path computes, enabling the streaming
/// FUNNEL deployment (§5).
class OnlineDetector {
 public:
  OnlineDetector(ChangeScorer& scorer, AlarmPolicy policy,
                 MinuteTime start_minute);

  /// Feed the sample for the next minute; returns the alarm if this sample
  /// completes one.
  std::optional<Alarm> push(double value);

  bool alarmed() const { return alarmed_; }
  MinuteTime next_minute() const { return next_minute_; }

  /// Clear a latched alarm so detection continues (used when an alarm turns
  /// out to predate the software change and must be discarded).
  void rearm() {
    alarmed_ = false;
    run_.reset();
  }

 private:
  ChangeScorer& scorer_;
  ExceedanceRun run_;
  MinuteTime next_minute_;
  std::vector<double> buffer_;
  std::size_t windows_scored_ = 0;
  bool alarmed_ = false;
};

}  // namespace funnel::detect
