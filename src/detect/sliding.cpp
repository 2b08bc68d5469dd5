#include "detect/sliding.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace funnel::detect {

std::vector<double> score_series(ChangeScorer& scorer,
                                 std::span<const double> series) {
  const std::size_t w = scorer.window_size();
  std::vector<double> out;
  if (series.size() < w) return out;
  out.reserve(series.size() - w + 1);
  for (std::size_t i = 0; i + w <= series.size(); ++i) {
    out.push_back(scorer.score(series.subspan(i, w)));
  }
  return out;
}

ExceedanceRun::ExceedanceRun(const AlarmPolicy& policy) : policy_(policy) {
  FUNNEL_REQUIRE(policy.persistence >= 1, "persistence must be >= 1");
  FUNNEL_REQUIRE(policy.effective_patience() >= policy.persistence,
                 "patience must be >= persistence");
}

bool ExceedanceRun::push(std::size_t i, double score) {
  const bool hit = std::isfinite(score) && score > policy_.threshold;
  if (hit) hits_.push_back({i, score});
  const std::size_t n = policy_.effective_patience();
  while (!hits_.empty() && hits_.front().index + n <= i) {
    hits_.erase(hits_.begin());
  }
  return hit && hits_.size() >= policy_.persistence;
}

Alarm ExceedanceRun::alarm(MinuteTime minute) const {
  Alarm a;
  a.minute = minute;
  a.first_window = hits_.front().index;
  for (const Hit& h : hits_) a.peak_score = std::max(a.peak_score, h.score);
  return a;
}

namespace {

MinuteTime alarm_minute(MinuteTime series_start, std::size_t i,
                        std::size_t window) {
  return series_start + static_cast<MinuteTime>(i + window - 1);
}

}  // namespace

std::optional<Alarm> first_alarm(std::span<const double> scores,
                                 std::size_t window, MinuteTime series_start,
                                 const AlarmPolicy& policy) {
  ExceedanceRun run(policy);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (run.push(i, scores[i])) {
      return run.alarm(alarm_minute(series_start, i, window));
    }
  }
  return std::nullopt;
}

std::vector<Alarm> all_alarms(std::span<const double> scores,
                              std::size_t window, MinuteTime series_start,
                              const AlarmPolicy& policy) {
  std::vector<Alarm> out;
  if (scores.empty()) return out;
  ExceedanceRun run(policy);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (!run.push(i, scores[i])) continue;
    out.push_back(run.alarm(alarm_minute(series_start, i, window)));
    // Re-arm immediately: a sustained exceedance keeps firing every
    // `persistence` windows. This matters for attribution — a false-positive
    // run that merges into a genuine post-change response must not swallow
    // the post-change alarm.
    run.reset();
  }
  return out;
}

std::vector<Alarm> alarm_episodes(std::span<const Alarm> alarms,
                                  MinuteTime gap) {
  FUNNEL_REQUIRE(gap >= 1, "episode gap must be positive");
  std::vector<Alarm> out;
  MinuteTime episode_end = 0;
  for (const Alarm& a : alarms) {
    // Chain on the episode's most recent member: a sustained run re-fires
    // every `persistence` windows and must stay one episode however long
    // it lasts.
    if (!out.empty() && a.minute - episode_end < gap) {
      out.back().peak_score = std::max(out.back().peak_score, a.peak_score);
      episode_end = a.minute;
      continue;
    }
    out.push_back(a);
    episode_end = a.minute;
  }
  return out;
}

std::optional<Alarm> score_until_alarm(std::span<const double> series,
                                       std::size_t window,
                                       MinuteTime series_start,
                                       const AlarmPolicy& policy,
                                       MinuteTime from,
                                       const WindowScore& score,
                                       std::vector<double>& scores) {
  ExceedanceRun run(policy);
  scores.clear();
  if (series.size() < window) return std::nullopt;
  scores.reserve(series.size() - window + 1);
  for (std::size_t i = 0; i + window <= series.size(); ++i) {
    scores.push_back(score(series.subspan(i, window)));
    if (!run.push(i, scores.back())) continue;
    const MinuteTime minute = alarm_minute(series_start, i, window);
    if (minute >= from) return run.alarm(minute);
    // A pre-`from` alarm re-arms the scan, as all_alarms does after every
    // alarm, so a run straddling `from` still fires a post-`from` alarm.
    run.reset();
  }
  return std::nullopt;
}

OnlineDetector::OnlineDetector(ChangeScorer& scorer, AlarmPolicy policy,
                               MinuteTime start_minute)
    : scorer_(scorer), run_(policy), next_minute_(start_minute) {
  buffer_.reserve(scorer.window_size());
}

std::optional<Alarm> OnlineDetector::push(double value) {
  const std::size_t w = scorer_.window_size();
  ++next_minute_;
  buffer_.push_back(value);
  if (buffer_.size() > w) buffer_.erase(buffer_.begin());
  if (alarmed_ || buffer_.size() < w) return std::nullopt;
  if (!run_.push(windows_scored_++, scorer_.score(buffer_))) {
    return std::nullopt;
  }
  alarmed_ = true;
  return run_.alarm(next_minute_ - 1);
}

}  // namespace funnel::detect
