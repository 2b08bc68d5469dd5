// Method evaluation harness (§4.2-§4.4).
//
// Replicates the paper's protocol: for every item (S_i, c_i, k_i) the method
// examines the KPI around the change and declares whether a KPI change was
// induced by the software change. Detection-only methods (improved SST,
// CUSUM, MRLS) cannot exclude "other factors", so their declaration is
// simply "alarm at/after the change" — exactly why their precision collapses
// under confounders and seasonality in Table 1. FUNNEL's declaration is the
// full Fig. 3 verdict.
//
// Items belonging to no-effect changes can be up-weighted by
// `negative_scale` — the §4.2.1 x86 extrapolation of the 72 sampled
// unchanged changes to the 6194 in the population.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "detect/scorer.h"
#include "detect/sliding.h"
#include "evalkit/dataset.h"
#include "evalkit/metrics.h"
#include "funnel/assessor.h"

namespace funnel::evalkit {

/// Per-method evaluation outcome, split by KPI class as in Table 1.
struct MethodResult {
  std::string method;
  std::map<tsdb::KpiClass, ConfusionMatrix> by_class;
  /// Detection delays in minutes for correctly-flagged positive items
  /// (feeds the Fig. 5 CCDF).
  std::vector<double> delays;

  ConfusionMatrix total() const;
};

/// A detection-only method under evaluation: a scorer factory (fresh scorer
/// per item — scorers may be stateful) plus its tuned alarm policy.
struct DetectorSpec {
  std::string name;
  std::function<std::unique_ptr<detect::ChangeScorer>()> make_scorer;
  detect::AlarmPolicy policy;
};

/// Evaluate a detection-only method over every item of the dataset.
/// The method sees [change - lookback, change + horizon) of the KPI and
/// declares "induced" iff an alarm fires at/after the change minute.
MethodResult evaluate_detector(const EvalDataset& ds, const DetectorSpec& spec,
                               MinuteTime lookback = 60,
                               MinuteTime horizon = 60,
                               std::uint64_t negative_scale = 1);

/// Evaluate full FUNNEL (improved IKA-SST + DiD) over the dataset.
MethodResult evaluate_funnel(const EvalDataset& ds,
                             const core::FunnelConfig& config,
                             std::uint64_t negative_scale = 1);

/// CPU time of the calling thread in microseconds: a per-window cost that a
/// shared host's steal does not inflate.
double thread_cpu_micros();

/// Mean per-window scoring cost in microseconds of the calling thread's CPU
/// time, measured by sliding the scorer across `series` until at least
/// `min_total_scores` scores have been produced (Table 2's "run time per
/// time window").
double mean_score_micros(detect::ChangeScorer& scorer,
                         std::span<const double> series,
                         std::size_t min_total_scores = 2000);

/// Table 2's last row: cores needed to score `kpis` KPIs once per minute
/// when one score takes `micros_per_window` µs.
std::uint64_t cores_for_kpis(double micros_per_window,
                             std::uint64_t kpis = 1'000'000);

}  // namespace funnel::evalkit
