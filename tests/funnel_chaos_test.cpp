// Chaos harness: every fault kind the collection layer can exhibit is
// streamed through the FULL batch and online pipelines, and the robustness
// contract of docs/ROBUSTNESS.md is asserted cell by cell:
//
//   1. No fault plan crashes or throws out of the assessor.
//   2. An empty fault plan is a perfect pass-through: reports are
//      byte-identical to a run without the injector plumbing.
//   3. A faulted verdict either matches the clean run's cause or degrades
//      to Cause::kInconclusive with a machine-readable reason — never a
//      silently *different* conclusive verdict.
//   4. The quality report and the inconclusive reason survive every export
//      surface: to_json, to_json_explained and the trace span attributes.
//
// Every cell runs a fixed (spec, seed) pair, so the grid is deterministic:
// the same binary produces the same verdicts forever, and a failure names
// the exact plan that caused it.
#include <cmath>
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "funnel/assessor.h"
#include "funnel/online.h"
#include "funnel/report_json.h"
#include "obs/trace.h"
#include "workload/faults.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::core {
namespace {

using workload::FaultDelivery;
using workload::FaultInjector;
using workload::FaultSpec;
using workload::parse_fault_spec;

// ---------------------------------------------------------------------------
// FaultInjector unit tests: the determinism the whole grid rests on.
// ---------------------------------------------------------------------------

std::vector<FaultDelivery> run_plan(const FaultSpec& spec, std::uint64_t seed,
                                    std::size_t n) {
  FaultInjector inj(spec, seed);
  std::vector<FaultDelivery> out;
  for (std::size_t t = 0; t < n; ++t) {
    for (const auto& d : inj.push(static_cast<MinuteTime>(t), 100.0 + t)) {
      out.push_back(d);
    }
  }
  for (const auto& d : inj.drain()) out.push_back(d);
  return out;
}

TEST(FaultInjector, EmptySpecIsPerfectPassThrough) {
  const auto plan = run_plan(FaultSpec{}, 42, 50);
  ASSERT_EQ(plan.size(), 50u);
  for (std::size_t t = 0; t < plan.size(); ++t) {
    EXPECT_EQ(plan[t].minute, static_cast<MinuteTime>(t));
    EXPECT_DOUBLE_EQ(plan[t].value, 100.0 + t);
  }
  FaultInjector inj;
  (void)run_plan(inj.spec(), 0, 1);
  EXPECT_EQ(inj.stats().total(), 0u);
}

TEST(FaultInjector, SameSeedReplaysTheExactPlan) {
  const FaultSpec spec = parse_fault_spec(
      "drop=0.1,nan=0.05x3,stuck=0.05x4,dup=0.1,reorder=0.1,late=0.1x5");
  const auto a = run_plan(spec, 7, 400);
  const auto b = run_plan(spec, 7, 400);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].minute, b[i].minute) << "delivery " << i;
    // NaN != NaN, so compare bit-level semantics via isnan.
    EXPECT_TRUE(a[i].value == b[i].value ||
                (std::isnan(a[i].value) && std::isnan(b[i].value)))
        << "delivery " << i;
  }
  // A different seed produces a different plan (overwhelmingly likely for
  // 400 samples at these rates).
  const auto c = run_plan(spec, 8, 400);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].minute != c[i].minute;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, CertainDropDeliversNothing) {
  FaultInjector inj(parse_fault_spec("drop=1"), 3);
  for (MinuteTime t = 0; t < 20; ++t) EXPECT_TRUE(inj.push(t, 1.0).empty());
  EXPECT_TRUE(inj.drain().empty());
  EXPECT_EQ(inj.stats().dropped, 20u);
}

TEST(FaultInjector, SpecStringRoundTrips) {
  const std::string canonical = "drop=0.1,nan=0.05x3,dup=0.2,late=0.1x5";
  EXPECT_EQ(to_string(parse_fault_spec(canonical)), canonical);
  EXPECT_EQ(to_string(parse_fault_spec("")), "none");
  EXPECT_EQ(to_string(parse_fault_spec("none")), "none");
  EXPECT_THROW((void)parse_fault_spec("drop=1.5"), InvalidArgument);
  EXPECT_THROW((void)parse_fault_spec("gremlin=0.5"), InvalidArgument);
  EXPECT_THROW((void)parse_fault_spec("nan=0.5x0"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// The chaos grid fixture.
// ---------------------------------------------------------------------------

constexpr MinuteTime kTc = 400;   ///< change minute
constexpr MinuteTime kEnd = 520;  ///< last rendered minute (tc + horizon)

// Quality thresholds tight enough that any fault pattern capable of hiding
// the 8-sigma shift from the detector also fails the quality gate — the
// property that keeps invariant 3 above honest. Flatline gate sits below
// FaultSpec::stuck_run so stuck-at collectors are caught; there is no full
// baseline day before kTc, so the historical fallback genuinely fails and
// dead control groups bottom out at kControlGroupEmpty.
FunnelConfig chaos_config() {
  FunnelConfig cfg;
  cfg.baseline_days = 1;
  cfg.quality.min_coverage = 0.95;
  cfg.quality.max_gap_run = 3;
  cfg.quality.max_flat_run = 6;
  cfg.watch_timeout = 30;
  return cfg;
}

// Dark-launch scenario (s1, s2 treated; s3, s4 control) with a strong
// 8-sigma level shift on the treated servers. Clean values are rendered
// once; each run replays them through its own injectors.
struct ChaosScenario {
  topology::ServiceTopology topo;
  changes::ChangeLog log;
  changes::ChangeId change_id = 0;
  std::vector<std::pair<tsdb::MetricId, std::vector<double>>> clean;

  explicit ChaosScenario(double effect = 8.0) {
    const std::vector<std::string> servers{"s1", "s2", "s3", "s4"};
    for (const auto& s : servers) topo.add_server("svc", s);
    changes::SoftwareChange ch;
    ch.service = "svc";
    ch.time = kTc;
    ch.mode = changes::LaunchMode::kDark;
    ch.servers = {"s1", "s2"};
    change_id = log.record(ch, topo);

    Rng rng(7);
    for (const auto& s : servers) {
      workload::StationaryParams p;
      p.level = 50.0;
      workload::KpiStream stream(workload::make_stationary(p, rng.split()));
      if (effect != 0.0 && (s == "s1" || s == "s2")) {
        stream.add_effect(workload::LevelShift{kTc, effect});
      }
      clean.emplace_back(tsdb::server_metric(s, "mem"),
                         workload::render(stream, 0, kEnd));
    }
  }
};

// Batch assessment over series that went through the injector (one per
// metric, seeds offset so the streams are independent).
AssessmentReport run_batch(const ChaosScenario& sc, const FunnelConfig& cfg,
                           const FaultSpec& spec, std::uint64_t seed) {
  tsdb::MetricStore store;
  for (std::size_t i = 0; i < sc.clean.size(); ++i) {
    FaultInjector inj(spec, seed + i);
    store.insert(sc.clean[i].first,
                 workload::apply_faults(
                     tsdb::TimeSeries(0, sc.clean[i].second), inj));
  }
  const Funnel funnel(cfg, sc.topo, sc.log, store);
  return funnel.assess(sc.change_id);
}

// Batch assessment with no injector in the path at all — the reference for
// the empty-plan byte-identity check.
AssessmentReport run_batch_clean(const ChaosScenario& sc,
                                 const FunnelConfig& cfg) {
  tsdb::MetricStore store;
  for (const auto& [id, values] : sc.clean) {
    store.insert(id, tsdb::TimeSeries(0, values));
  }
  const Funnel funnel(cfg, sc.topo, sc.log, store);
  return funnel.assess(sc.change_id);
}

// Online assessment: history [0, kTc) goes through the injector into the
// store, the watch starts, then minutes [kTc, kEnd) stream live —
// delivery faults (late, reorder, duplicate) hit the real ingest path at
// detection time. A feed the faults starved past the deadline is closed by
// the expire() control loop.
AssessmentReport run_online(const ChaosScenario& sc, const FunnelConfig& cfg,
                            const FaultSpec& spec, std::uint64_t seed) {
  tsdb::MetricStore store;
  std::vector<FaultInjector> injectors;
  injectors.reserve(sc.clean.size());
  for (std::size_t i = 0; i < sc.clean.size(); ++i) {
    injectors.emplace_back(spec, seed + i);
    tsdb::TimeSeries history(0);
    for (MinuteTime t = 0; t < kTc; ++t) {
      for (const auto& d : injectors[i].push(t, sc.clean[i].second[t])) {
        (void)history.upsert_at(d.minute, d.value);
      }
    }
    store.insert(sc.clean[i].first, std::move(history));
  }

  FunnelOnline online(cfg, sc.topo, sc.log, store);
  std::optional<AssessmentReport> report;
  online.on_report([&](const AssessmentReport& r) { report = r; });
  online.watch(sc.change_id);

  for (MinuteTime t = kTc; t < kEnd; ++t) {
    for (std::size_t i = 0; i < sc.clean.size(); ++i) {
      for (const auto& d : injectors[i].push(t, sc.clean[i].second[t])) {
        store.append(sc.clean[i].first, d.minute, d.value);
      }
    }
  }
  for (std::size_t i = 0; i < sc.clean.size(); ++i) {
    for (const auto& d : injectors[i].drain()) {
      store.append(sc.clean[i].first, d.minute, d.value);
    }
  }
  if (!report) (void)online.expire(kEnd + cfg.watch_timeout);
  EXPECT_TRUE(report.has_value()) << "watch never finalized";
  return report ? *report : AssessmentReport{};
}

// Online reference run without injectors (plain append of every minute).
AssessmentReport run_online_clean(const ChaosScenario& sc,
                                  const FunnelConfig& cfg) {
  tsdb::MetricStore store;
  for (const auto& [id, values] : sc.clean) {
    tsdb::TimeSeries history(0);
    for (MinuteTime t = 0; t < kTc; ++t) history.append(values[t]);
    store.insert(id, std::move(history));
  }
  FunnelOnline online(cfg, sc.topo, sc.log, store);
  std::optional<AssessmentReport> report;
  online.on_report([&](const AssessmentReport& r) { report = r; });
  online.watch(sc.change_id);
  for (MinuteTime t = kTc; t < kEnd; ++t) {
    for (const auto& [id, values] : sc.clean) store.append(id, t, values[t]);
  }
  EXPECT_TRUE(report.has_value());
  return report ? *report : AssessmentReport{};
}

// Invariant 3: same cause as the clean run, or an honest kInconclusive.
void expect_graceful(const AssessmentReport& faulted,
                     const AssessmentReport& clean, const std::string& label) {
  ASSERT_EQ(faulted.items.size(), clean.items.size()) << label;
  for (std::size_t i = 0; i < faulted.items.size(); ++i) {
    const ItemVerdict& f = faulted.items[i];
    const ItemVerdict& c = clean.items[i];
    ASSERT_EQ(f.metric.to_string(), c.metric.to_string()) << label;
    if (f.cause != c.cause) {
      EXPECT_EQ(f.cause, Cause::kInconclusive)
          << label << " " << f.metric.to_string() << ": clean verdict "
          << to_string(c.cause) << " silently became " << to_string(f.cause);
    }
    if (f.cause == Cause::kInconclusive) {
      EXPECT_NE(f.inconclusive_reason, InconclusiveReason::kNone)
          << label << " " << f.metric.to_string();
    } else {
      EXPECT_EQ(f.inconclusive_reason, InconclusiveReason::kNone)
          << label << " " << f.metric.to_string();
    }
  }
}

struct GridCell {
  const char* name;
  const char* spec;
  std::uint64_t seed;
};

// Six fault kinds plus the everything-at-once cell. Seeds are arbitrary
// but FIXED: the grid is a regression surface, not a fuzzer.
constexpr GridCell kGrid[] = {
    {"drop", "drop=0.1", 101},
    {"nan", "nan=0.05x4", 202},
    {"stuck", "stuck=0.02x8", 303},
    {"dup", "dup=0.2", 404},
    {"reorder", "reorder=0.2", 505},
    {"late", "late=0.1x5", 606},
    {"mixed", "drop=0.05,nan=0.02x4,stuck=0.01x8,dup=0.05,reorder=0.05,late=0.05x5",
     707},
};

// ---------------------------------------------------------------------------
// The grid itself.
// ---------------------------------------------------------------------------

TEST(FunnelChaos, CleanRunAttributesTheShift) {
  const ChaosScenario sc;
  const FunnelConfig cfg = chaos_config();
  const AssessmentReport batch = run_batch_clean(sc, cfg);
  ASSERT_EQ(batch.items.size(), 2u);  // dark launch: treated KPIs only
  for (const auto& v : batch.items) {
    EXPECT_EQ(v.cause, Cause::kSoftwareChange) << v.metric.to_string();
  }
  const AssessmentReport online = run_online_clean(sc, cfg);
  ASSERT_EQ(online.items.size(), 2u);
  for (const auto& v : online.items) {
    EXPECT_EQ(v.cause, Cause::kSoftwareChange) << v.metric.to_string();
    EXPECT_TRUE(v.determined_at.has_value());
  }
}

TEST(FunnelChaos, EmptyFaultPlanIsByteIdentical) {
  const ChaosScenario sc;
  const FunnelConfig cfg = chaos_config();
  const FaultSpec none;

  const AssessmentReport batch_ref = run_batch_clean(sc, cfg);
  const AssessmentReport batch_via = run_batch(sc, cfg, none, 1);
  EXPECT_EQ(to_json(batch_ref), to_json(batch_via));
  EXPECT_EQ(to_json_explained(batch_ref, cfg),
            to_json_explained(batch_via, cfg));

  const AssessmentReport online_ref = run_online_clean(sc, cfg);
  const AssessmentReport online_via = run_online(sc, cfg, none, 1);
  EXPECT_EQ(to_json(online_ref), to_json(online_via));
}

TEST(FunnelChaos, BatchGridDegradesGracefully) {
  const ChaosScenario sc;
  const FunnelConfig cfg = chaos_config();
  const AssessmentReport clean = run_batch_clean(sc, cfg);
  for (const GridCell& cell : kGrid) {
    SCOPED_TRACE(cell.name);
    const FaultSpec spec = parse_fault_spec(cell.spec);
    AssessmentReport faulted;
    ASSERT_NO_THROW(faulted = run_batch(sc, cfg, spec, cell.seed))
        << "batch/" << cell.name;
    expect_graceful(faulted, clean, std::string("batch/") + cell.name);
  }
}

TEST(FunnelChaos, OnlineGridDegradesGracefully) {
  const ChaosScenario sc;
  const FunnelConfig cfg = chaos_config();
  const AssessmentReport clean = run_online_clean(sc, cfg);
  for (const GridCell& cell : kGrid) {
    SCOPED_TRACE(cell.name);
    const FaultSpec spec = parse_fault_spec(cell.spec);
    AssessmentReport faulted;
    ASSERT_NO_THROW(faulted = run_online(sc, cfg, spec, cell.seed))
        << "online/" << cell.name;
    expect_graceful(faulted, clean, std::string("online/") + cell.name);
  }
}

TEST(FunnelChaos, GridIsDeterministic) {
  // The worst cell (everything at once) replayed twice must render the
  // same bytes — the property that makes a grid failure reproducible.
  const ChaosScenario sc;
  const FunnelConfig cfg = chaos_config();
  const FaultSpec spec = parse_fault_spec(kGrid[6].spec);
  EXPECT_EQ(to_json(run_batch(sc, cfg, spec, kGrid[6].seed)),
            to_json(run_batch(sc, cfg, spec, kGrid[6].seed)));
  EXPECT_EQ(to_json(run_online(sc, cfg, spec, kGrid[6].seed)),
            to_json(run_online(sc, cfg, spec, kGrid[6].seed)));
}

// ---------------------------------------------------------------------------
// Invariant 4: the degradation evidence survives every export surface.
// ---------------------------------------------------------------------------

TEST(FunnelChaos, ReasonAndQualitySurviveEveryExportSurface) {
  // Kill the control feeds outright (permanent NaN burst): the treated
  // alarms are real, the §3.2.4 control group is empty, and with no full
  // baseline day the §3.2.5 fallback fails too — the chain bottoms out at
  // kInconclusive / control-group-empty.
  const ChaosScenario sc;
  FunnelConfig cfg = chaos_config();
  obs::Tracer tracer(1 << 16);
  cfg.tracer = &tracer;

  tsdb::MetricStore store;
  const FaultSpec dead = parse_fault_spec("nan=1x4");
  for (std::size_t i = 0; i < sc.clean.size(); ++i) {
    const bool control = i >= 2;  // s3, s4
    FaultInjector inj(control ? dead : FaultSpec{}, 11 + i);
    store.insert(sc.clean[i].first,
                 workload::apply_faults(
                     tsdb::TimeSeries(0, sc.clean[i].second), inj));
  }
  const Funnel funnel(cfg, sc.topo, sc.log, store);
  const AssessmentReport report = funnel.assess(sc.change_id);

  ASSERT_EQ(report.items.size(), 2u);
  for (const auto& v : report.items) {
    EXPECT_EQ(v.cause, Cause::kInconclusive) << v.metric.to_string();
    EXPECT_EQ(v.inconclusive_reason, InconclusiveReason::kControlGroupEmpty);
    EXPECT_TRUE(v.used_fallback_control);
    ASSERT_TRUE(v.quality.has_value());
  }
  EXPECT_EQ(report.kpis_inconclusive(), 2u);
  EXPECT_FALSE(report.change_has_impact());

  // Surface 1: the machine-readable report.
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"inconclusive_reason\":\"control-group-empty\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"fallback_control\":true"), std::string::npos);
  EXPECT_NE(json.find("\"quality\":{"), std::string::npos);

  // Surface 2: the explain report names the reason in its rationale.
  const obs::TraceDump dump = tracer.collect();
  const std::string explained = to_json_explained(report, cfg, &dump);
  EXPECT_NE(explained.find("control-group-empty"), std::string::npos);

  // Surface 3: the trace spans carry the reason as typed attributes.
  std::size_t kpi_spans = 0, did_spans = 0;
  for (const auto& s : dump.spans) {
    const obs::SpanAttr* a = nullptr;
    if (std::string_view(s.name) == "funnel.assess.kpi" &&
        (a = s.find_attr("kpi.inconclusive_reason"))) {
      ++kpi_spans;
      EXPECT_EQ(a->str, "control-group-empty");
    }
    if (std::string_view(s.name) == "funnel.assess.determine" &&
        (a = s.find_attr("did.inconclusive_reason"))) {
      ++did_spans;
      EXPECT_EQ(a->str, "control-group-empty");
    }
  }
  EXPECT_EQ(kpi_spans, 2u);
  EXPECT_EQ(did_spans, 2u);
}

TEST(FunnelChaos, StarvedWatchTimesOutWithReason) {
  // The alarm fires but the feed dies before min_did_window post-change
  // minutes exist: determination stays pending forever, no sample ever
  // crosses the deadline, and only the expire() control loop can close the
  // watch — as kInconclusive / watch-timed-out, alarm preserved.
  const ChaosScenario sc;
  FunnelConfig cfg = chaos_config();
  cfg.min_did_window = 30;  // alarm (~tc+15) arrives before DiD is allowed

  tsdb::MetricStore store;
  for (const auto& [id, values] : sc.clean) {
    tsdb::TimeSeries history(0);
    for (MinuteTime t = 0; t < kTc; ++t) history.append(values[t]);
    store.insert(id, std::move(history));
  }
  FunnelOnline online(cfg, sc.topo, sc.log, store);
  std::optional<AssessmentReport> report;
  online.on_report([&](const AssessmentReport& r) { report = r; });
  online.watch(sc.change_id);

  // The feed dies at tc+25: after the alarm, before post >= 30.
  for (MinuteTime t = kTc; t < kTc + 25; ++t) {
    for (const auto& [id, values] : sc.clean) store.append(id, t, values[t]);
  }
  EXPECT_FALSE(report.has_value());
  EXPECT_EQ(online.expire(kTc + cfg.horizon + cfg.watch_timeout), 1u);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(online.active_watches(), 0u);

  std::size_t timed_out = 0;
  for (const auto& v : report->items) {
    EXPECT_EQ(v.cause, Cause::kInconclusive) << v.metric.to_string();
    if (v.inconclusive_reason == InconclusiveReason::kWatchTimedOut) {
      ++timed_out;
      EXPECT_TRUE(v.alarm.has_value());  // the evidence is kept
    }
  }
  EXPECT_EQ(timed_out, 2u);
  EXPECT_NE(to_json(*report).find("watch-timed-out"), std::string::npos);
}

}  // namespace
}  // namespace funnel::core
