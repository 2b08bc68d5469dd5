#include "evalkit/evaluate.h"

#include <time.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace funnel::evalkit {

ConfusionMatrix MethodResult::total() const {
  ConfusionMatrix out;
  for (const auto& [cls, cm] : by_class) {
    (void)cls;
    out += cm;
  }
  return out;
}

double thread_cpu_micros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

namespace {

std::uint64_t item_weight(const EvalDataset& ds, const ItemTruth& item,
                          std::uint64_t negative_scale) {
  return ds.is_positive_change(item.change_id) ? 1 : negative_scale;
}

}  // namespace

MethodResult evaluate_detector(const EvalDataset& ds, const DetectorSpec& spec,
                               MinuteTime lookback, MinuteTime horizon,
                               std::uint64_t negative_scale) {
  MethodResult result;
  result.method = spec.name;

  for (const ItemTruth& item : ds.items) {
    const changes::SoftwareChange& ch = ds.log.get(item.change_id);
    const tsdb::TimeSeries& series = ds.store.series(item.metric);
    const MinuteTime t0 = std::max(series.start_time(), ch.time - lookback);
    const MinuteTime t1 = std::min(series.end_time(), ch.time + horizon);

    const std::unique_ptr<detect::ChangeScorer> scorer = spec.make_scorer();
    bool predicted = false;
    std::optional<detect::Alarm> hit;
    if (t1 - t0 >= static_cast<MinuteTime>(scorer->window_size())) {
      const std::vector<double> slice = series.slice(t0, t1);
      const std::vector<double> scores = detect::score_series(*scorer, slice);
      for (const detect::Alarm& a : detect::all_alarms(
               scores, scorer->window_size(), t0, spec.policy)) {
        if (a.minute >= ch.time) {
          predicted = true;
          hit = a;
          break;
        }
      }
    }

    result.by_class[item.kpi_class].add(
        item.change_induced, predicted,
        item_weight(ds, item, negative_scale));
    if (item.change_induced && predicted) {
      result.delays.push_back(
          static_cast<double>(hit->minute - item.effect_start));
    }
  }
  return result;
}

MethodResult evaluate_funnel(const EvalDataset& ds,
                             const core::FunnelConfig& config,
                             std::uint64_t negative_scale) {
  MethodResult result;
  result.method = "funnel";

  const core::Funnel funnel(config, ds.topo, ds.log, ds.store);

  // Assess once per change; index verdicts by metric.
  std::map<changes::ChangeId, std::map<tsdb::MetricId, core::ItemVerdict>>
      verdicts;
  for (const changes::SoftwareChange& ch : ds.log.all()) {
    auto& per_metric = verdicts[ch.id];
    for (core::ItemVerdict& v : funnel.assess(ch.id).items) {
      tsdb::MetricId key = v.metric;
      per_metric.emplace(std::move(key), std::move(v));
    }
  }

  for (const ItemTruth& item : ds.items) {
    const auto cit = verdicts.find(item.change_id);
    FUNNEL_REQUIRE(cit != verdicts.end(), "missing assessment for change");
    const auto vit = cit->second.find(item.metric);
    FUNNEL_REQUIRE(vit != cit->second.end(), "missing verdict for item");
    const core::ItemVerdict& v = vit->second;

    const bool predicted = v.caused_by_software_change();
    result.by_class[item.kpi_class].add(
        item.change_induced, predicted,
        item_weight(ds, item, negative_scale));
    if (item.change_induced && predicted && v.alarm) {
      result.delays.push_back(
          static_cast<double>(v.alarm->minute - item.effect_start));
    }
  }
  return result;
}

double mean_score_micros(detect::ChangeScorer& scorer,
                         std::span<const double> series,
                         std::size_t min_total_scores) {
  const std::size_t w = scorer.window_size();
  FUNNEL_REQUIRE(series.size() >= w, "series shorter than one window");
  const std::size_t positions = series.size() - w + 1;

  volatile double sink = 0.0;  // keep the optimizer honest
  std::size_t produced = 0;
  const double start_us = thread_cpu_micros();
  while (produced < min_total_scores) {
    for (std::size_t i = 0; i < positions && produced < min_total_scores;
         ++i) {
      sink = sink + scorer.score(series.subspan(i, w));
      ++produced;
    }
  }
  const double total_us = thread_cpu_micros() - start_us;
  return total_us / static_cast<double>(produced);
}

std::uint64_t cores_for_kpis(double micros_per_window, std::uint64_t kpis) {
  // Each KPI must be scored once per minute: a core offers 60e6 µs of work
  // per minute.
  const double needed =
      micros_per_window * static_cast<double>(kpis) / 60'000'000.0;
  return static_cast<std::uint64_t>(std::ceil(needed));
}

}  // namespace funnel::evalkit
