// Per-service / per-KPI triage scorecards over the verdict-event journal.
//
// At ~24k changes/day (§2.1) no operator reads individual verdicts; the
// aggregate view is what pages someone: which services keep shipping
// regressions, where the assessor keeps answering "inconclusive" (and for
// which telemetry defect), how often the DiD had to fall back to the
// seasonal control, and how fast verdicts actually land (the paper's
// rapidity claim, §5.2, as a p50/p95 instead of one anecdote). DeCaf
// (arXiv:1910.05339) builds the same per-service view from its verdict
// stream; the noise-aware per-service baselines of arXiv:2110.03229 are the
// reason the cards are keyed per service rather than fleet-wide only.
//
// A ScorecardBuilder consumes JournalEvents one at a time (a journal
// replay) and folds them into cards keyed by service and by KPI name. All
// derived numbers are computed from sorted state at read time, so the
// cards are a pure function of the event *set*, insensitive to arrival
// order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/minute_time.h"
#include "obs/journal.h"

namespace funnel::triage {

/// Aggregated verdict statistics for one key (a service, a KPI name, or
/// the whole stream).
struct Scorecard {
  std::string key;

  std::uint64_t events = 0;       ///< determinations folded in
  std::uint64_t detected = 0;     ///< KPI change detected (alarm fired)
  std::uint64_t regressions = 0;  ///< cause == software-change
  std::uint64_t inconclusive = 0;
  std::uint64_t fallback_control = 0;  ///< §3.2.5 fallback verdicts
  std::uint64_t did_runs = 0;          ///< events where a DiD fit landed
  /// kInconclusive verdicts by machine-readable reason — the telemetry
  /// repair queue, ranked.
  std::map<std::string, std::uint64_t> inconclusive_by_reason;
  /// Minutes from change to verdict, online events only. Kept sorted by
  /// the builder so percentiles and equality are order-insensitive.
  std::vector<MinuteTime> time_to_verdict;

  double regression_rate() const { return rate(regressions); }
  double inconclusive_rate() const { return rate(inconclusive); }
  double fallback_rate() const { return rate(fallback_control); }

  /// Nearest-rank percentile of time_to_verdict; 0 when untimed.
  /// p in [0, 1].
  MinuteTime ttv_percentile(double p) const;
  MinuteTime ttv_p50() const { return ttv_percentile(0.50); }
  MinuteTime ttv_p95() const { return ttv_percentile(0.95); }

  bool operator==(const Scorecard&) const = default;

 private:
  double rate(std::uint64_t n) const {
    return events == 0 ? 0.0
                       : static_cast<double>(n) / static_cast<double>(events);
  }
};

/// Streaming scorecard accumulator. observe() is cheap (a few map
/// upserts); snapshots are built on demand.
class ScorecardBuilder {
 public:
  /// Fold one journal event into the totals, its service card and its KPI
  /// card.
  void observe(const obs::JournalEvent& event);

  /// Whole-stream card (key "total").
  Scorecard totals() const;
  /// One card per service, sorted by service name.
  std::vector<Scorecard> by_service() const;
  /// One card per KPI name, sorted by KPI name.
  std::vector<Scorecard> by_kpi() const;

  std::uint64_t events() const { return totals_.events; }

 private:
  static void fold(Scorecard& card, const obs::JournalEvent& event);
  static Scorecard finish(const Scorecard& card);

  Scorecard totals_;
  std::map<std::string, Scorecard> service_;
  std::map<std::string, Scorecard> kpi_;
};

}  // namespace funnel::triage
