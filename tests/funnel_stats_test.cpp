// Integration tests for pipeline self-telemetry: the counters the assessor
// and the online engine record must agree with the reports they produce,
// the cascade counters must count only the windows a verdict reads,
// reports must stay byte-identical with telemetry on or off (and for every
// thread count), the online engine must stamp `determined_at` and record
// time-to-verdict, and the default-on registry must cost < 2% on
// assess_window versus running with a null registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "detect/cascade.h"
#include "detect/sliding.h"
#include "evalkit/dataset.h"
#include "funnel/assessor.h"
#include "funnel/online.h"
#include "funnel/report_json.h"
#include "obs/registry.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::core {
namespace {

class FunnelStats : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    evalkit::DatasetParams p;
    p.seed = 424242;
    p.services = 2;
    p.servers_per_service = 4;
    p.treated_servers = 2;
    p.positive_changes = 2;
    p.negative_changes = 3;
    p.history_days = 4;
    p.confounder_probability = 0.4;
    ds_ = evalkit::build_dataset(p).release();
  }

  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }

  static FunnelConfig config(std::size_t threads, const obs::Registry* reg) {
    FunnelConfig cfg;
    cfg.baseline_days = 3;  // the short history has no 30-day baseline
    cfg.num_threads = threads;
    cfg.stats = reg;
    return cfg;
  }

  static MinuteTime window_end() {
    MinuteTime last = 0;
    for (const auto& ch : ds_->log.all()) last = std::max(last, ch.time);
    return last + 1;
  }

  static std::vector<AssessmentReport> run_window(std::size_t threads,
                                                  const obs::Registry* reg) {
    const Funnel funnel(config(threads, reg), ds_->topo, ds_->log,
                        ds_->store);
    return funnel.assess_window(0, window_end());
  }

  static std::string rendered(const std::vector<AssessmentReport>& reports) {
    std::string out;
    for (const AssessmentReport& r : reports) {
      out += to_json(r);
      out += '\n';
    }
    return out;
  }

  static evalkit::EvalDataset* ds_;
};

evalkit::EvalDataset* FunnelStats::ds_ = nullptr;

TEST_F(FunnelStats, BatchCountersMatchReportAggregates) {
  obs::Registry reg;
  const std::vector<AssessmentReport> reports = run_window(1, &reg);
  ASSERT_FALSE(reports.empty());

  std::uint64_t kpis = 0, detected = 0;
  std::map<std::string, std::uint64_t> by_cause;
  for (const AssessmentReport& r : reports) {
    kpis += r.kpis_examined();
    detected += r.kpi_changes_detected();
    for (const ItemVerdict& v : r.items) ++by_cause[to_string(v.cause)];
  }

  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("funnel.assess.changes_assessed"),
            reports.size());
  EXPECT_EQ(snap.counters.at("funnel.assess.kpis_scored"), kpis);
  EXPECT_EQ(snap.counters.at("funnel.assess.alarms_raised"), detected);
  EXPECT_EQ(snap.counters.at("funnel.assess_window.batches"), 1u);
  for (const auto& [cause, count] : by_cause) {
    EXPECT_EQ(snap.counters.at("funnel.assess.verdicts." + cause), count)
        << cause;
  }
  // One SST span per KPI scored; DiD runs exactly for the detected ones.
  EXPECT_EQ(snap.histograms.at("funnel.assess.sst_us").count, kpis);
  EXPECT_EQ(snap.histograms.at("funnel.assess.did_us").count, detected);
  EXPECT_EQ(snap.histograms.at("funnel.assess.total_us").count,
            reports.size());
}

TEST_F(FunnelStats, CascadeCountsOnlyTheWindowsAVerdictReads) {
  // The assessor scores a KPI's windows in order and stops at the verdict's
  // alarm, the first at or after the change, or, without one, once no
  // later window can complete a run. Recompute each item's full cascade
  // score series and alarm scan: funnel.cascade.windows must count the
  // windows up to and including that alarm's, or up to that stop.
  obs::Registry reg;
  const std::vector<AssessmentReport> reports = run_window(1, &reg);
  const FunnelConfig cfg = config(1, nullptr);
  detect::CascadeConfig cc = cfg.cascade;
  cc.sst_threshold = cfg.alarm.threshold;
  std::uint64_t read = 0;
  std::uint64_t all = 0;
  std::uint64_t quiet_skipped = 0;
  for (const AssessmentReport& r : reports) {
    const MinuteTime tc = ds_->log.get(r.change_id).time;
    for (const ItemVerdict& v : r.items) {
      detect::IkaSst scorer(cfg.geometry, sst_params(cfg));
      const auto w = static_cast<MinuteTime>(scorer.window_size());
      MinuteTime t0 = 0;
      std::vector<double> slice;
      ds_->store.read(v.metric, [&](const tsdb::TimeSeries& series) {
        t0 = std::max(series.start_time(), tc - cfg.lookback);
        const MinuteTime t1 =
            std::min(series.end_time(), tc + cfg.horizon);
        if (t1 - t0 >= w) slice = series.slice(t0, t1);
      });
      const std::vector<double> scores =
          detect::cascade_score_series(scorer, slice, cc, nullptr, nullptr);
      const std::vector<detect::Alarm> alarms =
          detect::all_alarms(scores, scorer.window_size(), t0, cfg.alarm);
      const auto it = std::find_if(
          alarms.begin(), alarms.end(),
          [tc](const detect::Alarm& a) { return a.minute >= tc; });
      ASSERT_EQ(v.alarm.has_value(), it != alarms.end()) << v.metric.to_string();
      all += scores.size();
      if (it != alarms.end()) {
        read += static_cast<std::uint64_t>(it->minute - t0 - w + 2);
      } else {
        // The scan's tail stop, replayed over the full series' scores;
        // EarlyStopExactness pins its stop index against an independent
        // restatement of the rule.
        std::size_t next = 0;
        std::vector<double> prefix;
        EXPECT_FALSE(detect::score_until_alarm(
            slice, scorer.window_size(), t0, cfg.alarm, tc,
            [&](std::span<const double>) { return scores[next++]; },
            prefix));
        read += prefix.size();
        quiet_skipped += scores.size() - prefix.size();
      }
    }
  }
  const obs::Snapshot snap = reg.snapshot();
  const auto counter = [&](const char* name) {
    return snap.counters.at(std::string("funnel.cascade.") + name);
  };
  EXPECT_EQ(counter("windows"), read);
  EXPECT_LT(read, all) << "no verdict's alarm came before its window's end";
  EXPECT_GT(quiet_skipped, 0u) << "no quiet item stopped before its end";
  // Every window counted lands in exactly one decision, the past side's
  // bound exit among them.
  EXPECT_EQ(counter("windows"), counter("scored") +
                                    counter("suppressed_variance") +
                                    counter("suppressed_bound") +
                                    counter("dirty"));
  EXPECT_GT(counter("suppressed_bound"), 0u);
}

TEST_F(FunnelStats, ReportsByteIdenticalWithTelemetryOnOrOff) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const std::string without = rendered(run_window(threads, nullptr));
    obs::Registry reg;
    const std::string with = rendered(run_window(threads, &reg));
    EXPECT_EQ(without, with) << "telemetry leaked into reports at threads="
                             << threads;
  }
}

// Online scenario: dark launch on 2 of 4 servers, level shift on the
// treated KPIs at the change minute (mirrors funnel_online_test).
struct OnlineScenario {
  topology::ServiceTopology topo;
  changes::ChangeLog log;
  tsdb::MetricStore store;
  MinuteTime tc = 4 * kMinutesPerDay + 300;
  changes::ChangeId change_id = 0;
  std::vector<std::pair<tsdb::MetricId, std::unique_ptr<workload::KpiStream>>>
      streams;

  OnlineScenario() {
    const std::vector<std::string> servers{"s1", "s2", "s3", "s4"};
    for (const auto& s : servers) topo.add_server("svc", s);
    changes::SoftwareChange ch;
    ch.service = "svc";
    ch.time = tc;
    ch.mode = changes::LaunchMode::kDark;
    ch.servers = {"s1", "s2"};
    change_id = log.record(ch, topo);

    Rng rng(7);
    for (const auto& s : servers) {
      workload::StationaryParams p;
      p.level = 50.0;
      auto stream = std::make_unique<workload::KpiStream>(
          workload::make_stationary(p, rng.split()));
      if (s == "s1" || s == "s2") {
        stream->add_effect(workload::LevelShift{tc, 8.0});
      }
      const tsdb::MetricId id = tsdb::server_metric(s, "mem");
      workload::materialize(*stream, store, id, 0, tc);
      streams.emplace_back(id, std::move(stream));
    }
  }

  AssessmentReport run(const obs::Registry* reg) {
    FunnelConfig cfg;
    cfg.baseline_days = 3;
    cfg.stats = reg;
    FunnelOnline online(cfg, topo, log, store);
    AssessmentReport report;
    online.on_report([&](const AssessmentReport& r) { report = r; });
    online.watch(change_id);
    for (MinuteTime t = tc; t < tc + 61; ++t) {
      for (auto& [id, stream] : streams) store.append(id, t, stream->sample(t));
    }
    return report;
  }
};

TEST(FunnelStatsOnline, DeterminedAtStampedIndependentOfTelemetry) {
  // The confirming minute is part of the report, not of telemetry: it must
  // be present with a null registry.
  OnlineScenario sc;
  const AssessmentReport report = sc.run(nullptr);
  ASSERT_GE(report.kpi_changes_caused(), 2u);
  for (const ItemVerdict& v : report.items) {
    if (!v.caused_by_software_change()) continue;
    ASSERT_TRUE(v.determined_at.has_value()) << v.metric.to_string();
    const MinuteTime ttv = *v.time_to_verdict(report.change_time);
    EXPECT_GE(ttv, 9);   // min_did_window gates the earliest verdict
    EXPECT_LE(ttv, 60);  // and the horizon bounds it
  }
}

TEST(FunnelStatsOnline, TimeToVerdictHistogramMatchesReport) {
  OnlineScenario sc;
  obs::Registry reg;
  const AssessmentReport report = sc.run(&reg);
  ASSERT_GE(report.kpi_changes_caused(), 2u);

  MinuteTime ttv_sum = 0;
  for (const ItemVerdict& v : report.items) {
    if (v.caused_by_software_change()) {
      ttv_sum += *v.time_to_verdict(report.change_time);
    }
  }
  const obs::Snapshot snap = reg.snapshot();
  const obs::HistogramSnapshot& ttv =
      snap.histograms.at("funnel.online.time_to_verdict_min");
  EXPECT_EQ(ttv.count, report.kpi_changes_caused());
  EXPECT_DOUBLE_EQ(ttv.sum, static_cast<double>(ttv_sum));
  EXPECT_EQ(snap.counters.at("funnel.online.verdicts_confirmed"),
            report.kpi_changes_caused());
  EXPECT_EQ(snap.counters.at("funnel.online.reports_finalized"), 1u);
  EXPECT_GT(snap.counters.at("funnel.online.samples_ingested"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("funnel.online.active_watches"), 0.0);
}

TEST_F(FunnelStats, DefaultOnOverheadUnderTwoPercent) {
  // Satellite requirement: attaching the registry must cost < 2% on
  // assess_window versus the null-registry no-op path. The true per-event
  // cost is a map lookup + relaxed store (~tens of ns), far under the
  // bound; min-of-N with retries absorbs scheduler noise on busy CI boxes.
  using clock = std::chrono::steady_clock;
  const auto min_of = [&](const obs::Registry* reg, int n) {
    double best = 1e300;
    for (int i = 0; i < n; ++i) {
      const auto start = clock::now();
      const std::size_t count = run_window(1, reg).size();
      const double ms = std::chrono::duration<double, std::milli>(
                            clock::now() - start)
                            .count();
      EXPECT_GT(count, 0u);  // keep the work honest
      best = std::min(best, ms);
    }
    return best;
  };
  run_window(1, nullptr);  // warm caches once

  bool ok = false;
  double worst_ratio = 0.0;
  for (int round = 0; round < 4 && !ok; ++round) {
    const double base = min_of(nullptr, 3);
    obs::Registry reg;
    const double with = min_of(&reg, 3);
    const double ratio = with / base;
    worst_ratio = std::max(worst_ratio, ratio);
    ok = ratio < 1.02;
  }
  EXPECT_TRUE(ok) << "telemetry overhead exceeded 2% in every round "
                     "(last ratios up to "
                  << worst_ratio << "x)";
}

}  // namespace
}  // namespace funnel::core
