// Table 3 — deployment statistics for a simulated operating period.
//
// The paper reports one week of production operation: ~24k software changes
// per day over dozens of services, ~2.3M KPIs, ~10k KPI changes flagged per
// day, verified precision 98.21%. We simulate a scaled-down period with the
// same structure (most changes are no-ops, a small fraction have impact,
// confounders abound) and report the same row.
#include <chrono>
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/thread_pool.h"

using namespace funnel;

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const std::size_t threads = bench::threads_arg(argc, argv);
  const bool stats = bench::stats_arg(argc, argv);
  const char* stats_json = bench::stats_json_arg(argc, argv);
  bench::print_header("Table 3: simulated deployment statistics");

  evalkit::DatasetParams p;
  p.seed = 777;
  p.services = quick ? 6 : 19;
  p.servers_per_service = 6;
  p.treated_servers = 2;
  p.positive_changes = quick ? 4 : 16;
  p.negative_changes = quick ? 28 : 124;  // ~11% of changes have impact
  p.history_days = 31;
  p.confounder_probability = 0.3;

  std::printf("simulating the deployment period (%s)...\n",
              quick ? "quick" : "full");
  const auto ds = evalkit::build_dataset(p);

  // Deployment setting: most of the simulated services are not
  // change-sensitive, so the DiD threshold is the larger production value
  // (§3.2.4: "Otherwise, the threshold can be set larger").
  core::FunnelConfig cfg = bench::funnel_config();
  cfg.did.alpha_threshold = 1.0;
  cfg.num_threads = threads;
  const obs::Registry reg;
  if (stats || stats_json != nullptr) cfg.stats = &reg;
  const core::Funnel funnel(cfg, ds->topo, ds->log, ds->store);

  std::uint64_t tp = 0, fp = 0;
  std::size_t kpi_changes_detected = 0;
  std::size_t changes_with_impact = 0;

  // Ground truth per (change, metric).
  std::map<std::pair<changes::ChangeId, tsdb::MetricId>, bool> truth;
  for (const evalkit::ItemTruth& item : ds->items) {
    truth[{item.change_id, item.metric}] = item.change_induced;
  }

  // The whole period in one batch — the daily-review workload the parallel
  // engine distributes across the pool (whole changes, then KPIs within
  // each change).
  MinuteTime last_change = 0;
  for (const changes::SoftwareChange& ch : ds->log.all()) {
    last_change = std::max(last_change, ch.time);
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<core::AssessmentReport> reports =
      funnel.assess_window(0, last_change + 1);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();

  for (const core::AssessmentReport& report : reports) {
    kpi_changes_detected += report.kpi_changes_detected();
    if (report.change_has_impact()) ++changes_with_impact;
    for (const core::ItemVerdict& v : report.items) {
      if (!v.caused_by_software_change()) continue;
      // The operations team verifies each flagged KPI change (§5): compare
      // against the injected ground truth.
      if (truth[{report.change_id, v.metric}]) {
        ++tp;
      } else {
        ++fp;
      }
    }
  }

  const double precision =
      tp + fp == 0 ? 1.0
                   : static_cast<double>(tp) / static_cast<double>(tp + fp);
  const MinuteTime days =
      (ds->store.series(ds->items.front().metric).end_time() -
       ds->change_day_start + kMinutesPerDay - 1) /
      kMinutesPerDay;

  Table t({"statistic", "ours", "paper (daily, production scale)"});
  t.add_row({"#software changes", std::to_string(ds->log.size()),
             "24119"});
  t.add_row({"#changes with impact", std::to_string(changes_with_impact),
             "268"});
  t.add_row({"#KPIs monitored", std::to_string(ds->store.metric_count()),
             "2256390"});
  t.add_row({"#KPI changes flagged", std::to_string(kpi_changes_detected),
             "10249"});
  t.add_row({"precision of attributions", format_percent(precision),
             "98.21%"});
  t.add_row({"simulated change days", std::to_string(days), "7"});
  std::printf("\n%s\n", t.to_string().c_str());

  std::printf("assessed %zu changes in %.0f ms wall clock "
              "(num_threads=%zu -> %zu workers)\n",
              reports.size(), wall_ms, threads,
              ThreadPool::resolve_threads(threads));
  std::printf("attributed KPI changes: %llu correct, %llu spurious\n",
              static_cast<unsigned long long>(tp),
              static_cast<unsigned long long>(fp));
  std::printf("(absolute counts are scaled down ~170x from production; the "
              "row to compare is precision)\n");
  if (cfg.stats != nullptr) {
    const obs::Snapshot snap = reg.snapshot();
    const auto sst = snap.histograms.find("funnel.assess.sst_us");
    const auto wait = snap.histograms.find("pool.queue_wait_us");
    if (sst != snap.histograms.end() && sst->second.count > 0) {
      std::printf("stage timing: SST scoring mean %.1f us over %llu KPI "
                  "series\n",
                  sst->second.mean(),
                  static_cast<unsigned long long>(sst->second.count));
    }
    if (wait != snap.histograms.end() && wait->second.count > 0) {
      std::printf("pool queue wait: mean %.1f us over %llu tasks\n",
                  wait->second.mean(),
                  static_cast<unsigned long long>(wait->second.count));
    }
  }
  bench::dump_stats(reg, stats, stats_json);
  return 0;
}
