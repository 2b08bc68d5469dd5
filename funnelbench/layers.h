// The per-layer vocabulary of the traced mode and the replays that measure
// layers running on the program's own threads (README.md, "Traced run").
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "changes/change.h"
#include "funnel/config.h"
#include "harness.h"

namespace funnelbench {

/// Every per-layer metric the traced mode prints, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& per_layer_metrics();

/// Module layers whose self cost the trace attributes, as printed under
/// layer.<name>.us_per_op.
const std::vector<std::string>& layer_names();

/// Print a layer's self cost, the traced run's CPU and what the layers
/// leave unattributed of it, and `overhead_ratio` (traced over untraced CPU
/// per operation, both scaled to the reference host, minus 1); then fill
/// every per-layer metric the workload did not set with 0 — a bypassed
/// layer reads as zero work.
void finish_trace(Result& result, const std::map<std::string, double>& self_s,
                  double ops, double e2e_cpu_s, double overhead_ratio);

/// Standalone scorer replay: the detector the run's FunnelConfig builds
/// (IKA-SST, behind the cascade gate when sst_cascade), over one stream.
struct DetectReplay {
  std::uint64_t windows = 0;
  std::uint64_t scored = 0;
  std::uint64_t alarms = 0;
  double cpu_s = 0.0;
  void run(const funnel::core::FunnelConfig& cfg,
           std::span<const double> stream, funnel::MinuteTime stream_start,
           funnel::MinuteTime change_time);
  /// detect.windows, detect.alarms, detect.scored_ratio, detect.us_per_window.
  void report(Result& result) const;
};

/// Attribution quality against ground truth (change, metric) pairs.
struct Attribution {
  std::set<std::pair<funnel::changes::ChangeId, std::string>> truth;
  std::uint64_t judged = 0;   ///< items judged "caused by software change"
  std::uint64_t correct = 0;  ///< ... whose truth agrees
  void item(funnel::changes::ChangeId change, const std::string& metric,
            bool caused) {
    judged += caused;
    correct += caused && truth.count({change, metric}) > 0;
  }
  /// funnel.attribution_precision and funnel.attribution_recall.
  void report(Result& result) const;
};

}  // namespace funnelbench
