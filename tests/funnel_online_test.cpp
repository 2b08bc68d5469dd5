// Tests for the streaming (online) assessor — the deployed FUNNEL of §5.
#include "funnel/online.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "common/rng.h"
#include "funnel/report_json.h"
#include "obs/journal.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::core {
namespace {

constexpr MinuteTime kDay = kMinutesPerDay;

FunnelConfig test_config() {
  FunnelConfig cfg;
  cfg.baseline_days = 3;
  return cfg;
}

// Dark-launch scenario streamed minute-by-minute: history is materialized up
// to the change, the rest is appended live after watch().
struct OnlineScenario {
  topology::ServiceTopology topo;
  changes::ChangeLog log;
  tsdb::MetricStore store;
  MinuteTime tc = 4 * kDay + 300;
  changes::ChangeId change_id = 0;
  std::vector<std::pair<tsdb::MetricId, std::unique_ptr<workload::KpiStream>>>
      streams;

  explicit OnlineScenario(double effect) {
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
      auto stream =
          std::make_unique<workload::KpiStream>(
              workload::make_stationary(p, rng.split()));
      if (effect != 0.0 && (s == "s1" || s == "s2")) {
        stream->add_effect(workload::LevelShift{tc, effect});
      }
      const tsdb::MetricId id = tsdb::server_metric(s, "mem");
      workload::materialize(*stream, store, id, 0, tc);
      streams.emplace_back(id, std::move(stream));
    }
  }

  void stream_minutes(MinuteTime from, MinuteTime to) {
    for (MinuteTime t = from; t < to; ++t) {
      for (auto& [id, stream] : streams) {
        store.append(id, t, stream->sample(t));
      }
    }
  }
};

TEST(FunnelOnline, DetectsAndAttributesWithinMinutes) {
  OnlineScenario sc(8.0);
  FunnelOnline online(test_config(), sc.topo, sc.log, sc.store);

  std::vector<std::pair<changes::ChangeId, ItemVerdict>> verdicts;
  std::vector<AssessmentReport> reports;
  online.on_verdict([&](changes::ChangeId id, const ItemVerdict& v) {
    verdicts.emplace_back(id, v);
  });
  online.on_report([&](const AssessmentReport& r) { reports.push_back(r); });

  online.watch(sc.change_id);
  EXPECT_EQ(online.active_watches(), 1u);

  sc.stream_minutes(sc.tc, sc.tc + 61);

  // Both treated KPIs page the operations team...
  ASSERT_GE(verdicts.size(), 2u);
  for (const auto& [id, v] : verdicts) {
    EXPECT_EQ(id, sc.change_id);
    EXPECT_EQ(v.cause, Cause::kSoftwareChange);
    ASSERT_TRUE(v.alarm.has_value());
    // ... and they do so within ~25 minutes of the change (the §5.2 case was
    // confirmed in ~10 minutes; the persistence rule alone costs 7).
    EXPECT_LE(v.alarm->minute, sc.tc + 25);
  }

  // The watch finalizes at the horizon.
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(online.active_watches(), 0u);
  EXPECT_TRUE(reports[0].change_has_impact());
  EXPECT_GE(reports[0].kpi_changes_caused(), 2u);
}

TEST(FunnelOnline, QuietChangeProducesCleanReport) {
  OnlineScenario sc(0.0);
  FunnelOnline online(test_config(), sc.topo, sc.log, sc.store);
  int verdict_count = 0;
  std::vector<AssessmentReport> reports;
  online.on_verdict(
      [&](changes::ChangeId, const ItemVerdict&) { ++verdict_count; });
  online.on_report([&](const AssessmentReport& r) { reports.push_back(r); });
  online.watch(sc.change_id);
  sc.stream_minutes(sc.tc, sc.tc + 61);
  EXPECT_EQ(verdict_count, 0);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].change_has_impact());
}

TEST(FunnelOnline, AgreesWithBatchAssessment) {
  OnlineScenario sc(8.0);
  // Run online to completion.
  FunnelOnline online(test_config(), sc.topo, sc.log, sc.store);
  std::vector<AssessmentReport> reports;
  online.on_report([&](const AssessmentReport& r) { reports.push_back(r); });
  online.watch(sc.change_id);
  sc.stream_minutes(sc.tc, sc.tc + 61);
  ASSERT_EQ(reports.size(), 1u);

  // Batch assessment over the same (now complete) data.
  const Funnel funnel(test_config(), sc.topo, sc.log, sc.store);
  const AssessmentReport batch = funnel.assess(sc.change_id);

  ASSERT_EQ(reports[0].items.size(), batch.items.size());
  std::size_t online_caused = reports[0].kpi_changes_caused();
  EXPECT_EQ(online_caused, batch.kpi_changes_caused());
}

// Every verdict callback and the final report of one streamed scenario,
// serialized in delivery order.
std::string streamed_verdicts(double effect, bool cascade) {
  OnlineScenario sc(effect);
  FunnelConfig cfg = test_config();
  cfg.sst_cascade = cascade;
  FunnelOnline online(cfg, sc.topo, sc.log, sc.store);
  std::string out;
  online.on_verdict([&](changes::ChangeId id, const ItemVerdict& v) {
    out += "verdict " + std::to_string(id) + " " + to_json(v) + "\n";
  });
  online.on_report([&](const AssessmentReport& r) {
    out += "report " + to_json(r) + "\n";
  });
  online.watch(sc.change_id);
  sc.stream_minutes(sc.tc, sc.tc + 61);
  return out;
}

TEST(FunnelOnline, CascadeOnAndOffDeliverIdenticalVerdicts) {
  // The exact cascade (the default) must leave the stream's verdicts — the
  // alarm minutes and peak scores included — byte-identical to the
  // uncascaded reference, on a loud shift, a subtle one and a quiet change.
  ASSERT_TRUE(test_config().sst_cascade);
  for (const double effect : {8.0, 3.0, 0.0}) {
    const std::string reference = streamed_verdicts(effect, false);
    ASSERT_NE(reference.find("report "), std::string::npos) << effect;
    // Not vacuous: the loud shift pages before the report.
    if (effect == 8.0) {
      EXPECT_NE(reference.find("verdict "), std::string::npos);
    }
    EXPECT_EQ(reference, streamed_verdicts(effect, true)) << effect;
  }
}

TEST(FunnelOnline, PrimingWithExistingPostChangeData) {
  // If the effect is already in the store when watch() is called (late
  // registration), priming must pick it up.
  OnlineScenario sc(8.0);
  sc.stream_minutes(sc.tc, sc.tc + 30);  // effect data lands pre-watch
  FunnelOnline online(test_config(), sc.topo, sc.log, sc.store);
  std::vector<std::pair<changes::ChangeId, ItemVerdict>> verdicts;
  online.on_verdict([&](changes::ChangeId id, const ItemVerdict& v) {
    verdicts.emplace_back(id, v);
  });
  online.watch(sc.change_id);
  sc.stream_minutes(sc.tc + 30, sc.tc + 61);
  EXPECT_GE(verdicts.size(), 2u);
}

TEST(FunnelOnline, UnsubscribesOnDestruction) {
  OnlineScenario sc(0.0);
  EXPECT_EQ(sc.store.subscriber_count(), 0u);
  {
    FunnelOnline online(test_config(), sc.topo, sc.log, sc.store);
    online.watch(sc.change_id);
    EXPECT_EQ(sc.store.subscriber_count(), 1u);
  }
  EXPECT_EQ(sc.store.subscriber_count(), 0u);
}

TEST(FunnelOnline, PreChangeShiftIsDiscarded) {
  // A level shift well BEFORE the change: the primed detector alarms on it,
  // is rearmed, and the report must not attribute anything to the change.
  OnlineScenario sc(0.0);
  // Overwrite one treated stream with a pre-change shift by appending a
  // synthetic shifted tail into the past window (use a fresh metric).
  workload::StationaryParams p;
  p.level = 50.0;
  workload::KpiStream early(workload::make_stationary(p, Rng(99)));
  early.add_effect(workload::LevelShift{sc.tc - 40, 8.0});
  workload::materialize(early, sc.store,
                        tsdb::server_metric("s1", "early_kpi"), 0, sc.tc);
  // Control servers need the same KPI for DiD; keep them quiet.
  for (const char* s : {"s2", "s3", "s4"}) {
    workload::KpiStream quiet(workload::make_stationary(p, Rng(100)));
    workload::materialize(quiet, sc.store,
                          tsdb::server_metric(s, "early_kpi"), 0, sc.tc);
  }

  FunnelOnline online(test_config(), sc.topo, sc.log, sc.store);
  std::vector<AssessmentReport> reports;
  online.on_report([&](const AssessmentReport& r) { reports.push_back(r); });
  online.watch(sc.change_id);
  // Stream the remaining minutes (early_kpi stays at its shifted level —
  // constant, no new change).
  for (MinuteTime t = sc.tc; t < sc.tc + 61; ++t) {
    for (auto& [id, stream] : sc.streams) {
      sc.store.append(id, t, stream->sample(t));
    }
    sc.store.append(tsdb::server_metric("s1", "early_kpi"), t,
                    50.0 + 8.0 + 0.1);
    for (const char* s : {"s2", "s3", "s4"}) {
      sc.store.append(tsdb::server_metric(s, "early_kpi"), t, 50.0 - 0.1);
    }
  }
  ASSERT_EQ(reports.size(), 1u);
  for (const auto& v : reports[0].items) {
    if (v.metric.kpi == "early_kpi") {
      EXPECT_NE(v.cause, Cause::kSoftwareChange) << v.metric.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// The ref-indexed watch table: many open watches with overlapping impact
// sets must each see exactly what a FunnelOnline watching only that change
// sees on the same feed.

// Five changes of one service over six servers with two KPIs each:
//   A on {s1, s2} at tc and E on {s1, s2} at tc + 1 (the same KPIs, so one
//   sample pages both), B on {s2, s3} and C on {s4} at tc + 10 (B shares
//   s2's KPIs with A and E; B and C share a deadline), and D on {s1, s5}
//   at tc + 25, registered mid-flight at tc + 30 (sharing s1).
// s1, s2 shift at tc + 5, s3 at tc + 15 and s5 at tc + 28.
struct FleetScenario {
  topology::ServiceTopology topo;
  changes::ChangeLog log;
  MinuteTime tc = 4 * kDay + 300;
  std::vector<changes::ChangeId> ids;  ///< A, E, B, C, D
  std::vector<std::pair<tsdb::MetricId, std::unique_ptr<workload::KpiStream>>>
      streams;

  FleetScenario() {
    const std::vector<std::string> servers{"s1", "s2", "s3",
                                           "s4", "s5", "s6"};
    for (const auto& s : servers) topo.add_server("svc", s);
    const auto record = [&](MinuteTime t, std::vector<std::string> on) {
      changes::SoftwareChange ch;
      ch.service = "svc";
      ch.time = t;
      ch.mode = changes::LaunchMode::kDark;
      ch.servers = std::move(on);
      ids.push_back(log.record(ch, topo));
    };
    record(tc, {"s1", "s2"});
    record(tc + 1, {"s1", "s2"});
    record(tc + 10, {"s2", "s3"});
    record(tc + 10, {"s4"});
    record(tc + 25, {"s1", "s5"});

    const std::map<std::string, MinuteTime> shift_at{
        {"s1", tc + 5}, {"s2", tc + 5}, {"s3", tc + 15}, {"s5", tc + 28}};
    Rng rng(11);
    for (const auto& s : servers) {
      for (const char* kpi : {"mem", "cpu"}) {
        workload::StationaryParams p;
        p.level = 50.0;
        auto stream = std::make_unique<workload::KpiStream>(
            workload::make_stationary(p, rng.split()));
        if (const auto it = shift_at.find(s); it != shift_at.end()) {
          stream->add_effect(workload::LevelShift{it->second, 8.0});
        }
        streams.emplace_back(tsdb::server_metric(s, kpi), std::move(stream));
      }
    }
  }
};

struct FleetRun {
  /// Per change: its verdict callbacks, its report and its journal events.
  std::map<changes::ChangeId, std::string> out;
  /// Change ids of the verdict callbacks per (KPI, minute) — one sample's
  /// verdicts — in callback order, and of the reports in callback order.
  std::map<std::pair<std::string, MinuteTime>, std::vector<changes::ChangeId>>
      verdicts_per_sample;
  std::vector<changes::ChangeId> report_order;
  std::size_t open_at_restore = 0;
};

// Stream the fleet feed through a persistent store, watching `watched`, with
// a snapshot_state() / checkpoint / recovery / restore_state() at tc + 45.
FleetRun run_fleet(const std::set<std::size_t>& watched, bool async) {
  namespace fs = std::filesystem;
  FleetScenario sc;
  std::string tag = async ? "async" : "sync";
  for (const std::size_t w : watched) tag += "_" + std::to_string(w);
  const fs::path dir =
      fs::temp_directory_path() / ("funnel_online_index_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string journal_path = (dir / "journal.jsonl").string();

  tsdb::StoreOptions options;
  options.data_dir = (dir / "store").string();
  options.ingest_queue_capacity = async ? 64 : 0;
  options.num_shards = 2;

  FleetRun run;
  auto store = std::make_unique<tsdb::MetricStore>(options);
  for (auto& [id, stream] : sc.streams) {
    workload::materialize(*stream, *store, id, 0, sc.tc);
  }
  auto journal = std::make_unique<obs::Journal>(journal_path);
  std::unique_ptr<FunnelOnline> online;
  const auto open_online = [&] {
    FunnelConfig cfg = test_config();
    cfg.journal = journal.get();
    online = std::make_unique<FunnelOnline>(cfg, sc.topo, sc.log, *store);
    online->on_verdict([&](changes::ChangeId id, const ItemVerdict& v) {
      run.out[id] += "verdict " + to_json(v) + "\n";
      run.verdicts_per_sample[{v.metric.to_string(), *v.determined_at}]
          .push_back(id);
    });
    online->on_report([&](const AssessmentReport& r) {
      run.out[r.change_id] += "report " + to_json(r) + "\n";
      run.report_order.push_back(r.change_id);
    });
  };
  open_online();
  const auto watch = [&](std::size_t k) {
    if (watched.count(k) == 0) return;
    store->flush();  // quiesce the dispatcher before registering
    online->watch(sc.ids[k]);
  };

  for (MinuteTime t = sc.tc; t < sc.tc + 100; ++t) {
    if (t == sc.tc) watch(0);
    if (t == sc.tc + 1) watch(1);
    if (t == sc.tc + 10) {
      watch(2);
      watch(3);
    }
    if (t == sc.tc + 30) watch(4);
    if (t == sc.tc + 45) {
      store->flush();
      run.open_at_restore = online->active_watches();
      store->checkpoint(online->snapshot_state(), journal->written());
      online.reset();
      journal.reset();
      store.reset();
      tsdb::StoreOptions recover = options;
      recover.hand_off_tail = true;
      store = std::make_unique<tsdb::MetricStore>(recover);
      obs::repair_journal(journal_path, store->recovered_journal_events());
      obs::JournalOptions jopts;
      jopts.truncate = false;
      journal = std::make_unique<obs::Journal>(journal_path, jopts);
      open_online();
      online->restore_state(store->recovered_watch_state());
      EXPECT_TRUE(store->recovered_tail().empty());
    }
    for (auto& [id, stream] : sc.streams) {
      store->append(id, t, stream->sample(t));
    }
  }
  store->flush();
  EXPECT_EQ(online->active_watches(), 0u);
  online.reset();
  journal.reset();
  for (const obs::JournalEvent& ev : obs::read_journal(journal_path)) {
    run.out[ev.change_id] += "journal " + obs::to_jsonl(ev) + "\n";
  }
  store.reset();
  fs::remove_all(dir);
  return run;
}

TEST(FunnelOnline, OverlappingWatchesEachMatchASoloWatch) {
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async store" : "sync store");
    const FleetRun all = run_fleet({0, 1, 2, 3, 4}, async);
    // Every watch was open across the restore, and each one finalized.
    EXPECT_EQ(all.open_at_restore, 5u);
    ASSERT_EQ(all.out.size(), 5u);
    std::size_t verdicts = 0;
    for (std::size_t k = 0; k < 5; ++k) {
      const changes::ChangeId id = FleetScenario().ids[k];
      const FleetRun solo = run_fleet({k}, async);
      EXPECT_EQ(solo.open_at_restore, 1u);
      ASSERT_EQ(solo.out.count(id), 1u) << k;
      EXPECT_EQ(all.out.at(id), solo.out.at(id)) << "change " << k;
      EXPECT_NE(all.out.at(id).find("report "), std::string::npos) << k;
      for (std::size_t at = all.out.at(id).find("verdict ");
           at != std::string::npos;
           at = all.out.at(id).find("verdict ", at + 1)) {
        ++verdicts;
      }
    }
    // Not vacuous: the shifted KPIs page before their reports.
    EXPECT_GE(verdicts, 2u);
    // One sample feeds its KPI's watches in ascending change id (A's and
    // E's verdicts on one sample come A first), and watches finalize in
    // deadline order, B before C on their shared one.
    std::size_t shared = 0;
    for (const auto& [sample, ids] : all.verdicts_per_sample) {
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end())) << sample.first;
      if (ids.size() > 1) ++shared;
    }
    EXPECT_GE(shared, 1u);
    EXPECT_EQ(all.report_order, FleetScenario().ids);
  }
}

}  // namespace
}  // namespace funnel::core
