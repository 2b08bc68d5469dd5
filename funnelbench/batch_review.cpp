// batch_review — the paper's daily review (Table 3), read-only.
//
// Why this workload: Funnel::assess_window over a week of changes is where
// batch SST, the 30-day historical DiD, store range reads and the common
// thread pool do all the work, while HTTP, dispatch, WAL and journal do
// none. It is the workload on which detector and DiD changes show in
// norm_cpu_us_per_op (CPU per assessed (change, KPI) item), and the control
// every ingest or WAL change must leave unmoved.
//
// Set-up builds the table3_deployment_week dataset (19 services x 6 servers,
// 31 days of history, 16 changes with impact + 124 no-op changes, dark and
// full launches, 30% confounder chance) from --seed; the program sees only
// the generated topology, change log and store. Every timed round assesses
// every change with the production FunnelConfig (default thread count).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/thread_pool.h"
#include "evalkit/dataset.h"
#include "funnel/assessor.h"
#include "funnel/impact_set.h"
#include "funnel/report_json.h"
#include "harness.h"
#include "layers.h"
#include "obs/registry.h"
#include "reference.h"

namespace funnelbench {

namespace core = funnel::core;
namespace evalkit = funnel::evalkit;
namespace obs = funnel::obs;
using funnel::MinuteTime;

namespace {

evalkit::DatasetParams dataset_params(const Args& args) {
  evalkit::DatasetParams p;
  p.seed = args.seed;
  p.services = args.quick ? 6 : 19;
  p.servers_per_service = 6;
  p.treated_servers = 2;
  p.positive_changes = args.quick ? 4 : 16;
  p.negative_changes = args.quick ? 28 : 124;
  p.history_days = 31;
  p.confounder_probability = 0.3;
  return p;
}

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double cpu_norm_s = 0.0;  ///< cpu_s scaled to the reference host
  std::size_t items = 0;  ///< (change, KPI) items assessed
  std::uint64_t hash = 0;
  double rss_mb = 0.0;
};

Round assess_round(const core::Funnel& funnel, MinuteTime end,
                   std::size_t changes, Result& result,
                   std::vector<core::AssessmentReport>* keep) {
  Round r;
  const double w0 = wall_s();
  const double c0 = process_cpu_s();
  std::vector<core::AssessmentReport> reports = funnel.assess_window(0, end);
  r.cpu_s = process_cpu_s() - c0;
  r.wall_s = wall_s() - w0;
  for (std::size_t i = 0; i < changes; ++i) {
    result.operation(i < reports.size() && reports[i].change_id == i);
  }
  result.check(reports.size() == changes, "one report per change");
  r.hash = 1469598103934665603ULL;
  for (const core::AssessmentReport& report : reports) {
    r.hash = fnv1a(core::to_json(report), r.hash);
    r.items += report.items.size();
  }
  r.rss_mb = rss_mb();
  if (keep != nullptr) *keep = std::move(reports);
  return r;
}

}  // namespace

void run_batch_review(const Args& args, Result& result) {
  const evalkit::DatasetParams params = dataset_params(args);
  const core::FunnelConfig cfg;  // production defaults

  // Set-up is repeated and its median reported, so work moved into it
  // shows; it is timed on the process CPU clock, because its wall time also
  // counts steal. The reference sampler runs beside every set-up and round.
  HostSpeed speed(scratch_dir(args, "reference"));
  Costs costs;
  const int setups = args.quick ? 1 : 3;
  std::unique_ptr<core::Funnel> assessor;
  std::unique_ptr<evalkit::EvalDataset> ds;
  double rss_base = 0.0;  // resident before the state the rounds hold
  speed.begin();
  for (int i = 0; i < setups; ++i) {
    assessor.reset();
    ds.reset();
    rss_base = rss_mb();
    const double c0 = process_cpu_s();
    const double t0 = wall_s();
    ds = evalkit::build_dataset(params);
    assessor =
        std::make_unique<core::Funnel>(cfg, ds->topo, ds->log, ds->store);
    const double setup_wall = wall_s() - t0;
    costs.setup_s.push_back(process_cpu_s() - c0);
    std::fprintf(stderr, "# set-up %d: %.4f s CPU, %.4f s wall\n", i,
                 costs.setup_s.back(), setup_wall);
  }
  // Scaled once, by the host's speed over the whole set-up phase, which
  // gives the sampler more chunks than one set-up does.
  costs.setup_norm_s = speed.scale(median(costs.setup_s));

  MinuteTime end = 0;
  for (const auto& ch : ds->log.all()) end = std::max(end, ch.time + 1);
  const std::size_t changes = ds->log.size();

  // Timed rounds until --seconds is spent (the first always completes);
  // every round must reproduce the first one's report bytes.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<core::AssessmentReport> reports;
  std::vector<Round> rounds;
  const double start = wall_s();
  do {
    speed.begin();
    rounds.push_back(assess_round(*assessor, end, changes, result,
                                  rounds.empty() ? &reports : nullptr));
    rounds.back().cpu_norm_s = speed.scale(rounds.back().cpu_s, Mix::kSstHalf);
    result.check(rounds.back().hash == rounds.front().hash,
                 "report bytes identical across rounds");
  } while (wall_s() - start < budget);
  std::fprintf(stderr, "# batch_review: %zu changes, %zu rounds, report hash "
               "%016llx\n", changes, rounds.size(),
               static_cast<unsigned long long>(rounds.front().hash));

  // An operation is one (change, KPI) item: per-change cost moves with how
  // many KPIs a seed's impact sets hold, per-item cost with the code.
  const auto items = static_cast<double>(rounds.front().items);
  std::vector<double> changes_per_s;
  for (const Round& r : rounds) {
    changes_per_s.push_back(static_cast<double>(changes) / r.wall_s);
    std::fprintf(stderr, "# round: %.4f us/item (%.4f scaled), %.2f "
                 "changes/s, %.1f MB\n", 1e6 * r.cpu_s / items,
                 1e6 * r.cpu_norm_s / items, changes_per_s.back(),
                 r.rss_mb - rss_base);
    costs.op_s.push_back(r.cpu_s / items);
    costs.op_norm_s.push_back(r.cpu_norm_s / items);
  }
  costs.report(args.trace, speed, result);
  if (!args.trace) {
    // Memory of the first round: later rounds start from what the earlier
    // ones left in the allocator.
    result.metric("rss_mb", rounds.front().rss_mb - rss_base, "MB");
    return;
  }

  // ---- traced run: the registry on the same Funnel shape, once. ----
  Attribution attribution;
  for (const evalkit::ItemTruth& item : ds->items) {
    if (item.change_induced) {
      attribution.truth.emplace(item.change_id, item.metric.to_string());
    }
  }
  for (const core::AssessmentReport& report : reports) {
    for (const core::ItemVerdict& v : report.items) {
      attribution.item(report.change_id, v.metric.to_string(),
                       v.caused_by_software_change());
    }
  }
  attribution.report(result);
  result.metric("funnel.changes_per_s", median(changes_per_s), "1/s");

  obs::Tracer tracer(kTraceSpans);
  LayerClock clock(&tracer);
  const obs::Registry reg;
  core::FunnelConfig traced_cfg = cfg;
  traced_cfg.stats = &reg;
  double traced_cpu_s = 0.0, traced_norm_s = 0.0;
  {
    const core::Funnel traced(traced_cfg, ds->topo, ds->log, ds->store);
    obs::Span span(&tracer, "bench.assess_window");
    speed.begin();
    const Round r = assess_round(traced, end, changes, result, nullptr);
    traced_norm_s = speed.scale(r.cpu_s, Mix::kSstHalf);
    result.check(r.hash == rounds.front().hash,
                 "traced report bytes identical to untraced");
    traced_cpu_s = r.cpu_s;
  }
  const obs::Snapshot snap = reg.snapshot();
  result.metric("common.pool.tasks", counter(snap, "pool.tasks_executed"),
                "count");
  result.metric("common.pool.busy_ratio",
                ratio(static_cast<double>(counter(snap, "pool.busy_us")),
                      static_cast<double>(counter(snap, "pool.busy_us") +
                                          counter(snap, "pool.idle_us"))),
                "ratio");
  result.timing("common.pool.queue_wait_us_p50",
                histogram(snap, "pool.queue_wait_us"), "us");

  // The pool alone: assess_window's nesting (changes, then each change's
  // KPIs) over bodies that do nothing.
  Cpu pool_cpu;
  {
    funnel::ThreadPool pool(cfg.num_threads);
    obs::Span span(&tracer, "bench.replay.pool");
    pool_cpu = measure([&] {
      pool.parallel_for(0, reports.size(), [&](std::size_t i, std::size_t) {
        pool.parallel_for(0, reports[i].items.size(),
                          [](std::size_t, std::size_t) {});
      });
    });
  }

  // Serial replays: Funnel::assess without the pool, and the layers inside
  // it called directly.
  const obs::Registry serial_reg;
  core::FunnelConfig serial_cfg = cfg;
  serial_cfg.num_threads = 1;
  serial_cfg.stats = &serial_reg;
  const core::Funnel serial(serial_cfg, ds->topo, ds->log, ds->store);
  DetectReplay detect;
  std::uint64_t determinations = 0, attributed = 0;
  for (const core::AssessmentReport& report : reports) {
    const auto& change = ds->log.get(report.change_id);
    core::ImpactSet set;
    clock.time("funnel.impact_set",
               [&] { set = core::identify_impact_set(change, ds->topo); });
    clock.time("funnel.assess", [&] { (void)serial.assess(change.id); });
    for (const core::ItemVerdict& v : report.items) {
      // Range reads and the standalone scorer over the same window the
      // assessor scores.
      const MinuteTime lo = change.time - cfg.lookback;
      const MinuteTime hi = change.time + cfg.horizon;
      std::vector<double> slice;
      clock.time("tsdb.query", [&] {
        ds->store.read(v.metric, [&](const funnel::tsdb::TimeSeries& s) {
          const MinuteTime a = std::max(s.start_time(), lo);
          const MinuteTime b = std::min(s.end_time(), hi);
          if (b > a) slice = s.slice(a, b);
        });
      });
      detect.run(cfg, slice, std::max<MinuteTime>(lo, 0), change.time);
      if (!v.kpi_change_detected) continue;
      ++determinations;
      if (v.caused_by_software_change()) ++attributed;
      core::ItemVerdict replay = v;
      clock.time("did.determine", [&] {
        serial.determine_cause(change, report.impact_set, v.metric,
                               cfg.did_window, replay);
      });
    }
  }
  result.timing("funnel.assess_ms_p50", scaled(clock.samples("funnel.assess"), 1e3),
                0.5, "ms");
  result.timing("funnel.impact_set_us_p50",
                scaled(clock.samples("funnel.impact_set"), 1e6), 0.5, "us");
  result.timing("did.determine_us_p50",
                scaled(clock.samples("did.determine"), 1e6), 0.5, "us");
  result.timing("tsdb.query_us_p50", scaled(clock.samples("tsdb.query"), 1e6),
                0.5, "us");
  result.metric("did.determinations", static_cast<double>(determinations),
                "count");
  result.metric("did.attributed_ratio",
                ratio(static_cast<double>(attributed),
                      static_cast<double>(determinations)),
                "ratio");
  detect.report(result);

  // Self time per layer, split on the serial replay where one thread does
  // all the work: Funnel's own stage timers give SST scoring (detect) and
  // the determination (did); the window reads and the pool come from their
  // replays, and funnel keeps the rest of Funnel::assess. The stage timers
  // of the parallel run are wall time on workers that share the cores, so
  // they over-count.
  const obs::Snapshot s = serial_reg.snapshot();
  const double sst = 1e-6 * histogram(s, "funnel.assess.sst_us").sum;
  const double did = 1e-6 * histogram(s, "funnel.assess.did_us").sum;
  const double query = clock.total("tsdb.query");
  std::map<std::string, double> self;
  self["detect"] = sst;
  self["did"] = did;
  self["tsdb"] = query;
  // The remainder mixes the stage timers' wall time with CPU time and comes
  // out below zero when the thread was descheduled inside a stage; the
  // impact-set identification it contains is timed directly, and is a floor.
  self["funnel"] = std::max(clock.total("funnel.impact_set"),
                            clock.total("funnel.assess") - sst - did - query);
  self["common.pool"] = pool_cpu.self_s + pool_cpu.others_s;
  finish_trace(result, self, items, traced_cpu_s,
               traced_norm_s / items / median(costs.op_norm_s) - 1.0);
  write_chrome_trace(tracer, trace_path(args));
}

}  // namespace funnelbench
