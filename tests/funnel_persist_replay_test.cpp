// Crash-replay determinism: the tentpole guarantee of the persistent
// segment store (docs/STORAGE.md §6). An online assessor killed at an
// arbitrary point and restarted against the same data_dir must replay the
// WAL tail and converge to the exact bytes an uninterrupted run produces —
// same final report JSON, same verdict-journal file. The kill is simulated
// with MetricStore::crash_for_testing (the WAL closed as a real SIGKILL
// leaves it: every logged record is in the file) plus a torn half-frame
// appended to the WAL, and the kill
// point is randomized across seeds so the sweep crosses every recovery
// regime: mid-history (no watch yet), mid-watch (snapshot restore), and
// post-finalize (journal rewind + re-emission).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "funnel/online.h"
#include "funnel/report_json.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "tsdb/persist/wal.h"
#include "tsdb/store.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::core {
namespace {

namespace fs = std::filesystem;

constexpr MinuteTime kDay = kMinutesPerDay;

FunnelConfig test_config() {
  FunnelConfig cfg;
  cfg.baseline_days = 3;
  return cfg;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// One WAL-visible action of the input stream: a sample arrival or a watch
// registration. Action i is WAL seq i+1 in every run (single producer), so
// MetricStore::recovered_seq() maps directly to a resume index.
struct Action {
  bool is_watch = false;
  tsdb::MetricId metric;
  MinuteTime t = 0;
  double value = 0.0;
};

// The dark-launch scenario of funnel_online_test, materialized into a flat
// deterministic action list so every run (reference, killed, resumed)
// consumes the identical stream.
struct ReplayScenario {
  topology::ServiceTopology topo;
  changes::ChangeLog log;
  MinuteTime tc = 4 * kDay + 300;
  changes::ChangeId change_id = 0;
  std::size_t watch_index = 0;
  std::vector<Action> actions;

  ReplayScenario() {
    const std::vector<std::string> servers{"s1", "s2", "s3", "s4"};
    for (const auto& s : servers) topo.add_server("svc", s);
    changes::SoftwareChange ch;
    ch.service = "svc";
    ch.time = tc;
    ch.mode = changes::LaunchMode::kDark;
    ch.servers = {"s1", "s2"};
    change_id = log.record(ch, topo);

    Rng rng(7);
    std::vector<std::pair<tsdb::MetricId,
                          std::unique_ptr<workload::KpiStream>>> streams;
    for (const auto& s : servers) {
      workload::StationaryParams p;
      p.level = 50.0;
      auto stream = std::make_unique<workload::KpiStream>(
          workload::make_stationary(p, rng.split()));
      if (s == "s1" || s == "s2") {
        stream->add_effect(workload::LevelShift{tc, 8.0});
      }
      streams.emplace_back(tsdb::server_metric(s, "mem"), std::move(stream));
    }
    for (MinuteTime t = 0; t < tc; ++t) {
      for (auto& [id, stream] : streams) {
        actions.push_back({false, id, t, stream->sample(t)});
      }
    }
    watch_index = actions.size();
    Action watch;
    watch.is_watch = true;
    actions.push_back(watch);
    for (MinuteTime t = tc; t < tc + 61; ++t) {
      for (auto& [id, stream] : streams) {
        actions.push_back({false, id, t, stream->sample(t)});
      }
    }
  }
};

struct RunResult {
  std::string report_json;
  std::string journal_bytes;
};

// Uninterrupted reference: a fully in-memory store (persistence must never
// change a verdict) driving the online assessor end to end.
RunResult reference_run(const ReplayScenario& sc, const fs::path& dir) {
  const fs::path journal_path = dir / "journal.jsonl";
  std::string report;
  {
    tsdb::MetricStore store;
    obs::Journal journal(journal_path.string());
    FunnelConfig cfg = test_config();
    cfg.journal = &journal;
    FunnelOnline online(cfg, sc.topo, sc.log, store);
    online.on_report(
        [&](const AssessmentReport& r) { report = to_json(r); });
    for (const Action& a : sc.actions) {
      if (a.is_watch) {
        online.watch(sc.change_id);
      } else {
        store.append(a.metric, a.t, a.value);
      }
    }
  }
  EXPECT_FALSE(report.empty());
  return {report, slurp(journal_path)};
}

// Checkpoint cadence shared by every killed run: periodic during history,
// plus one mid-watch checkpoint that captures a live detector snapshot.
bool checkpoint_due(const ReplayScenario& sc, std::size_t processed) {
  return processed % 6000 == 0 || processed == sc.watch_index + 1 + 160;
}

// Run with persistence, kill after `kill_at` actions, recover from disk,
// replay the WAL tail, resume the input stream, and return the final
// outputs for comparison against the reference.
RunResult killed_run(const ReplayScenario& sc, const fs::path& dir,
                     std::size_t kill_at) {
  const fs::path data_dir = dir / "data";
  const fs::path journal_path = dir / "journal.jsonl";
  tsdb::StoreOptions options;
  options.data_dir = data_dir.string();

  // --- Phase 1: run until the kill. ---------------------------------------
  {
    tsdb::MetricStore store(options);
    obs::Journal journal(journal_path.string());
    FunnelConfig cfg = test_config();
    cfg.journal = &journal;
    FunnelOnline online(cfg, sc.topo, sc.log, store);
    online.on_report([](const AssessmentReport&) {});
    for (std::size_t i = 0; i < kill_at; ++i) {
      const Action& a = sc.actions[i];
      if (a.is_watch) {
        online.watch(sc.change_id);
      } else {
        store.append(a.metric, a.t, a.value);
      }
      if (checkpoint_due(sc, i + 1)) {
        store.checkpoint(online.snapshot_state(), journal.written());
      }
    }
    store.crash_for_testing();
  }
  // A real kill can also tear the frame being written: append half a valid
  // frame to the live WAL; recovery must truncate it.
  for (const auto& entry : fs::directory_iterator(data_dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) != 0) continue;
    tsdb::persist::WalRecord junk;
    junk.metric = tsdb::server_metric("s1", "mem");
    junk.seq = kill_at + 1;
    const std::string frame = tsdb::persist::encode_wal_record(junk);
    std::ofstream out(entry.path(), std::ios::binary | std::ios::app);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }

  // --- Phase 2: recover, replay the tail, resume the stream. --------------
  std::string report;
  {
    tsdb::StoreOptions recover_options = options;
    recover_options.hand_off_tail = true;
    tsdb::MetricStore store(recover_options);
    // Rewind the journal to the checkpoint's event count; replaying the
    // tail re-emits everything after it, byte for byte.
    obs::repair_journal(journal_path.string(),
                        store.recovered_journal_events());
    obs::JournalOptions jopts;
    jopts.truncate = false;
    obs::Journal journal(journal_path.string(), jopts);
    FunnelConfig cfg = test_config();
    cfg.journal = &journal;
    FunnelOnline online(cfg, sc.topo, sc.log, store);
    online.on_report(
        [&](const AssessmentReport& r) { report = to_json(r); });
    online.restore_state(store.recovered_watch_state());
    for (const tsdb::persist::WalRecord& rec : store.recovered_tail()) {
      if (rec.type == tsdb::persist::WalRecordType::kWatch) {
        online.replay_watch(rec.change_id);
      } else {
        store.replay(rec);
      }
    }
    // recovered_seq says how much of the input stream survived the kill;
    // everything after it replays from the source.
    for (std::size_t i = static_cast<std::size_t>(store.recovered_seq());
         i < sc.actions.size(); ++i) {
      const Action& a = sc.actions[i];
      if (a.is_watch) {
        online.watch(sc.change_id);
      } else {
        store.append(a.metric, a.t, a.value);
      }
    }
  }
  EXPECT_FALSE(report.empty());
  return {report, slurp(journal_path)};
}

TEST(PersistReplay, KillAtRandomizedPointsIsByteIdentical) {
  const ReplayScenario sc;
  const fs::path root =
      fs::path(::testing::TempDir()) / "funnel_persist_replay";
  fs::remove_all(root);
  fs::create_directories(root / "ref");
  const RunResult ref = reference_run(sc, root / "ref");

  // Kill points spanning the three recovery regimes, plus one drawn at
  // random: mid-history (no watch to restore), mid-watch (live detector
  // snapshot), and post-finalize (journal rewound past emitted events).
  std::vector<std::size_t> kill_points = {
      10000,
      sc.watch_index + 1 + 200,
      sc.actions.size() - 3,
  };
  Rng rng(2026);
  kill_points.push_back(static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(sc.watch_index - 100),
      static_cast<std::int64_t>(sc.actions.size() - 1))));

  int seed = 0;
  for (const std::size_t kill_at : kill_points) {
    const fs::path dir = root / ("seed" + std::to_string(seed++));
    fs::create_directories(dir);
    const RunResult got = killed_run(sc, dir, kill_at);
    EXPECT_EQ(got.report_json, ref.report_json) << "kill_at=" << kill_at;
    EXPECT_EQ(got.journal_bytes, ref.journal_bytes) << "kill_at=" << kill_at;
  }
}

TEST(PersistReplay, JournalRepairKeepsExactEventPrefix) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "persist_journal_repair";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "journal.jsonl";
  {
    obs::Journal journal(path.string());
    for (int i = 0; i < 3; ++i) {
      obs::JournalEvent e;
      e.source = "online";
      e.change_id = static_cast<std::uint64_t>(i);
      e.metric = "server:s1/mem";
      e.cause = "no-kpi-change";
      journal.append(e);
    }
  }
  {  // torn trailing line, as a crash would leave
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"v\":1,\"torn";
  }
  EXPECT_EQ(obs::repair_journal(path.string(), 2), 2u);
  std::size_t bad = 0;
  const auto events = obs::read_journal(path.string(), &bad);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(events[1].change_id, 1u);
  // Asking for more events than the file holds keeps what is there.
  EXPECT_EQ(obs::repair_journal(path.string(), 99), 2u);
}

}  // namespace
}  // namespace funnel::core
