#include "layers.h"

#include <algorithm>

#include "detect/cascade.h"
#include "detect/ika_sst.h"
#include "detect/sliding.h"

namespace funnelbench {

namespace core = funnel::core;
namespace detect = funnel::detect;

const std::vector<LayerMetric>& per_layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      // obs HTTP server
      {"obs.http.requests", "count"},
      {"obs.http.errors", "count"},
      {"obs.http.round_trip_us_p50", "us"},
      {"obs.http.round_trip_us_p50_n", "count"},
      {"obs.http.server_us_p50", "us"},
      {"obs.http.server_us_p50_n", "count"},
      {"obs.http.self_us_per_sample", "us"},
      // service
      {"service.ingest_us_per_sample", "us"},
      {"service.register_ms_p50", "ms"},
      {"service.register_ms_p50_n", "count"},
      {"service.lines_malformed", "count"},
      {"service.refusals", "count"},
      {"service.recover_ms", "ms"},
      {"service.recovery_s", "s"},
      {"service.verdict_ms_p50", "ms"},
      {"service.verdict_ms_p50_n", "count"},
      {"service.verdict_ms_p90", "ms"},
      {"service.verdict_ms_p90_n", "count"},
      {"service.ingest_ms_p50", "ms"},
      {"service.ingest_ms_p50_n", "count"},
      {"service.samples_per_s", "1/s"},
      // tsdb
      {"tsdb.append_us_per_sample", "us"},
      {"tsdb.dispatch_us_per_sample", "us"},
      {"tsdb.dispatch_lag_us_p50", "us"},
      {"tsdb.dispatch_lag_us_p50_n", "count"},
      {"tsdb.queue_depth_max", "count"},
      {"tsdb.dropped_samples", "count"},
      {"tsdb.query_us_p50", "us"},
      {"tsdb.query_us_p50_n", "count"},
      // tsdb/persist
      {"tsdb.persist.wal_us_per_record", "us"},
      {"tsdb.persist.records_per_commit", "count"},
      {"tsdb.persist.commit_us_p50", "us"},
      {"tsdb.persist.commit_us_p50_n", "count"},
      {"tsdb.persist.checkpoint_ms_p50", "ms"},
      {"tsdb.persist.checkpoint_ms_p50_n", "count"},
      {"tsdb.persist.open_ms", "ms"},
      // funnel
      {"funnel.watches", "count"},
      {"funnel.watch_ms_p50", "ms"},
      {"funnel.watch_ms_p50_n", "count"},
      {"funnel.sample_us_p50", "us"},
      {"funnel.sample_us_p50_n", "count"},
      {"funnel.assess_ms_p50", "ms"},
      {"funnel.assess_ms_p50_n", "count"},
      {"funnel.impact_set_us_p50", "us"},
      {"funnel.impact_set_us_p50_n", "count"},
      {"funnel.changes_per_s", "1/s"},
      {"funnel.verdict_delay_min_p50", "min"},
      {"funnel.verdict_delay_min_p50_n", "count"},
      {"funnel.attribution_precision", "ratio"},
      {"funnel.attribution_recall", "ratio"},
      // detect (+linalg)
      {"detect.windows", "count"},
      {"detect.us_per_window", "us"},
      {"detect.alarms", "count"},
      {"detect.scored_ratio", "ratio"},
      // did
      {"did.determinations", "count"},
      {"did.determine_us_p50", "us"},
      {"did.determine_us_p50_n", "count"},
      {"did.attributed_ratio", "ratio"},
      // obs journal
      {"obs.journal.events", "count"},
      {"obs.journal.append_us_p50", "us"},
      {"obs.journal.append_us_p50_n", "count"},
      {"obs.journal.bytes_per_event", "B"},
      // common thread pool
      {"common.pool.tasks", "count"},
      {"common.pool.busy_ratio", "ratio"},
      {"common.pool.queue_wait_us_p50", "us"},
      {"common.pool.queue_wait_us_p50_n", "count"},
      // self cost of each layer per operation, and what they account for
      {"layer.obs.http.us_per_op", "us"},
      {"layer.service.us_per_op", "us"},
      {"layer.tsdb.us_per_op", "us"},
      {"layer.tsdb.persist.us_per_op", "us"},
      {"layer.funnel.us_per_op", "us"},
      {"layer.detect.us_per_op", "us"},
      {"layer.did.us_per_op", "us"},
      {"layer.obs.journal.us_per_op", "us"},
      {"layer.common.pool.us_per_op", "us"},
      {"trace.cpu_us_per_op", "us"},
      {"trace.unattributed_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      // the host: steal, and the costs before scaling to the reference host
      {"host.steal_s", "s"},
      {"host.ref_sst_ms", "ms"},
      {"host.ref_ingest_ms", "ms"},
      {"host.cpu_us_per_op_raw", "us"},
      {"host.setup_s_raw", "s"},
  };
  return kMetrics;
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> kLayers = {
      "obs.http", "service", "tsdb",        "tsdb.persist", "funnel",
      "detect",   "did",     "obs.journal", "common.pool"};
  return kLayers;
}

void finish_trace(Result& result, const std::map<std::string, double>& self_s,
                  double ops, double e2e_cpu_s, double overhead_ratio) {
  double attributed = 0.0;
  for (const std::string& layer : layer_names()) {
    const auto it = self_s.find(layer);
    const double s = it == self_s.end() ? 0.0 : it->second;
    attributed += s;
    result.metric("layer." + layer + ".us_per_op", ops > 0 ? 1e6 * s / ops : 0,
                  "us");
  }
  const double traced_per_op = ops > 0 ? e2e_cpu_s / ops : 0.0;
  result.metric("trace.cpu_us_per_op", 1e6 * traced_per_op, "us");
  result.metric("trace.unattributed_ratio",
                e2e_cpu_s > 0 ? (e2e_cpu_s - attributed) / e2e_cpu_s : 0.0,
                "ratio");
  result.metric("trace.overhead_ratio", overhead_ratio, "ratio");
  for (const LayerMetric& m : per_layer_metrics()) {
    if (!result.has(m.name) && std::string(m.name) != "host.steal_s") {
      result.metric(m.name, 0.0, m.unit);
    }
  }
}

void DetectReplay::run(const core::FunnelConfig& cfg,
                       std::span<const double> stream,
                       funnel::MinuteTime stream_start,
                       funnel::MinuteTime change_time) {
  detect::IkaSst scorer(cfg.geometry, core::sst_params(cfg));
  if (stream.size() < scorer.window_size()) return;
  const double c0 = thread_cpu_s();
  std::vector<double> scores;
  if (cfg.sst_cascade) {
    detect::CascadeConfig cc = cfg.cascade;
    cc.sst_threshold = cfg.alarm.threshold;
    detect::CascadeCounters counters;
    scores = detect::cascade_score_series(scorer, stream, cc, &counters,
                                          nullptr);
    windows += counters.windows;
    scored += counters.scored;
  } else {
    scores = detect::score_series(scorer, stream);
    windows += scores.size();
    scored += scores.size();
  }
  const auto all = detect::all_alarms(scores, scorer.window_size(),
                                      stream_start, cfg.alarm);
  cpu_s += thread_cpu_s() - c0;
  alarms += static_cast<std::uint64_t>(
      std::count_if(all.begin(), all.end(), [&](const detect::Alarm& a) {
        return a.minute >= change_time;
      }));
}

void DetectReplay::report(Result& result) const {
  result.metric("detect.windows", static_cast<double>(windows), "count");
  result.metric("detect.alarms", static_cast<double>(alarms), "count");
  result.metric("detect.scored_ratio",
                ratio(static_cast<double>(scored), static_cast<double>(windows)),
                "ratio");
  result.metric("detect.us_per_window",
                ratio(1e6 * cpu_s, static_cast<double>(scored)), "us");
}

void Attribution::report(Result& result) const {
  // Every truth item is one the change caused: the ones judged so and
  // correct are exactly the ones found.
  result.metric("funnel.attribution_precision",
                judged == 0 ? 1.0
                            : static_cast<double>(correct) /
                                  static_cast<double>(judged),
                "ratio");
  result.metric("funnel.attribution_recall",
                truth.empty() ? 1.0
                              : static_cast<double>(correct) /
                                    static_cast<double>(truth.size()),
                "ratio");
}

}  // namespace funnelbench
