// Integration tests for the verdict-event journal (obs/journal.h) and its
// assessor wiring: JSONL round-trip for full and minimal events, crash
// recovery (a truncated trailing line is skipped and counted, never fatal),
// assessment reports byte-identical with the journal attached or not, the
// canonically-sorted journal byte-identical at 1/2/8 threads, the online
// path stamping source/time-to-verdict, and the journal committing on the
// appending thread (no thread of its own, a latch on a write error).
#include "obs/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "evalkit/dataset.h"
#include "funnel/assessor.h"
#include "funnel/online.h"
#include "funnel/report_json.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::core {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "funnel_journal_" + name;
}

std::vector<std::string> sorted_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

obs::JournalEvent full_event() {
  obs::JournalEvent e;
  e.source = "online";
  e.change_id = 42;
  e.change_time = 6060;
  e.service = "cache";
  e.change_type = "config-change";
  e.launch_mode = "dark-launching";
  e.metric = "server:s1/mem";
  e.entity_kind = "server";
  e.kpi = "mem";
  e.cause = "software-change";
  e.detected = true;
  e.alarm_minute = 6073;
  e.sst_peak = 3.25;
  e.sst_damp_factor = 0.875;
  e.did_alpha = -1.5;
  e.did_alpha_scaled = -4.0625;
  e.did_t_stat = 9.5;
  e.did_n_treated = 2;
  e.did_n_control = 2;
  e.control_kind = "dark-launch-siblings";
  e.fallback_control = false;
  e.coverage = 0.975;
  e.window_minutes = 120;
  e.clean_samples = 117;
  e.longest_gap_run = 2;
  e.longest_flat_run = 1;
  e.determined_at = 6073;
  e.time_to_verdict = 13;
  return e;
}

obs::JournalEvent minimal_event() {
  obs::JournalEvent e;
  e.source = "batch";
  e.change_id = 7;
  e.change_time = 100;
  e.service = "web";
  e.change_type = "software-upgrade";
  e.launch_mode = "full-launching";
  e.metric = "server:s9/cpu";
  e.entity_kind = "server";
  e.kpi = "cpu";
  e.cause = "no-kpi-change";
  e.detected = false;
  return e;
}

TEST(JournalCodec, RoundTripsFullAndMinimalEvents) {
  // Every control byte plus the two JSON metacharacters must survive the
  // escaper (common/json.h) and the parser.
  obs::JournalEvent escaped = minimal_event();
  for (char c = 0x01; c < 0x20; ++c) escaped.service += c;
  escaped.service += "\"\\";
  for (const obs::JournalEvent& original :
       {full_event(), minimal_event(), escaped}) {
    const std::string line = to_jsonl(original);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    obs::JournalEvent parsed;
    ASSERT_TRUE(parse_jsonl(line, parsed)) << line;
    EXPECT_EQ(parsed, original) << line;
    // Same event, same bytes — the determinism the sorted-journal
    // byte-identity test below rests on.
    EXPECT_EQ(to_jsonl(parsed), line);
  }
}

TEST(JournalCodec, InconclusiveReasonAndTiesSurviveRoundTrip) {
  obs::JournalEvent e = minimal_event();
  e.cause = "inconclusive";
  e.inconclusive_reason = "gap-in-detection-window";
  e.fallback_control = true;
  e.control_kind = "seasonal-window";
  const std::string line = to_jsonl(e);
  EXPECT_NE(line.find("\"inconclusive_reason\":"), std::string::npos);
  obs::JournalEvent parsed;
  ASSERT_TRUE(parse_jsonl(line, parsed));
  EXPECT_EQ(parsed, e);
}

TEST(JournalCodec, RejectsTruncatedAndForeignLines) {
  const std::string line = to_jsonl(full_event());
  obs::JournalEvent parsed;
  // A crash can cut the final line anywhere; every proper prefix must be
  // rejected, not mis-parsed. (Step 8 keeps the full line valid.)
  for (const std::size_t cut : {std::size_t{1}, line.size() / 2,
                                line.size() - 8, line.size() - 1}) {
    EXPECT_FALSE(parse_jsonl(line.substr(0, cut), parsed)) << cut;
  }
  EXPECT_FALSE(parse_jsonl("", parsed));
  EXPECT_FALSE(parse_jsonl("not json at all", parsed));
  // Unknown schema versions are skipped by readers, not trusted.
  std::string future = line;
  const auto at = future.find("{\"v\":1,");
  ASSERT_EQ(at, 0u);
  future.replace(0, 7, "{\"v\":99,");
  EXPECT_FALSE(parse_jsonl(future, parsed));
}

TEST(JournalCodec, ToleratesUnknownKeysFromNewerWriters) {
  std::string line = to_jsonl(minimal_event());
  line.insert(line.size() - 1, ",\"future_key\":\"ignored\",\"n\":3");
  obs::JournalEvent parsed;
  ASSERT_TRUE(parse_jsonl(line, parsed));
  EXPECT_EQ(parsed, minimal_event());

  // Retired keys take the same path: v1 batch journals written while the
  // cascade was opt-in carry "gate_decision" on alarm events.
  std::string old = to_jsonl(full_event());
  const auto at = old.find(",\"determined_at\":");
  ASSERT_NE(at, std::string::npos);
  old.insert(at, ",\"gate_decision\":\"scored\"");
  ASSERT_TRUE(parse_jsonl(old, parsed)) << old;
  EXPECT_EQ(parsed, full_event());
}

TEST(JournalCodec, ReadJournalRecoversFromTruncatedTrailingLine) {
  const std::string path = temp_path("truncated.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << to_jsonl(minimal_event()) << '\n'
        << to_jsonl(full_event()) << '\n';
    const std::string cut = to_jsonl(minimal_event());
    out << cut.substr(0, cut.size() / 2);  // the crash signature
  }
  std::size_t bad_lines = 0;
  bool ok = false;
  const auto events = obs::read_journal(path, &bad_lines, &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], minimal_event());
  EXPECT_EQ(events[1], full_event());
  EXPECT_EQ(bad_lines, 1u);
  std::remove(path.c_str());

  const auto missing = obs::read_journal(temp_path("no_such.jsonl"),
                                         &bad_lines, &ok);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(missing.empty());
}

TEST(JournalWriter, AppendsFromManyThreadsLosslessly) {
  const std::string path = temp_path("writer.jsonl");
  {
    obs::Journal journal(path);
    ASSERT_TRUE(journal.ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&journal, t] {
        for (int i = 0; i < 50; ++i) {
          obs::JournalEvent e = minimal_event();
          e.change_id = static_cast<std::uint64_t>(t * 1000 + i);
          journal.append(e);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(journal.written(), 200u);
  }
  std::size_t bad_lines = 0;
  bool ok = false;
  const auto events = obs::read_journal(path, &bad_lines, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(bad_lines, 0u);
  ASSERT_EQ(events.size(), 200u);
  std::vector<std::uint64_t> ids;
  for (const auto& e : events) ids.push_back(e.change_id);
  std::sort(ids.begin(), ids.end());
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(ids[static_cast<std::size_t>(t * 50 + i)],
                static_cast<std::uint64_t>(t * 1000 + i));
    }
  }
  std::remove(path.c_str());
}

TEST(JournalWriter, WriteErrorLatchesAndCountsNothing) {
  // /dev/full opens and fails every flush with ENOSPC. The failed append
  // latches the journal before it returns: ok() turns false, written()
  // counts nothing, and a later append writes nothing.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  obs::Journal journal("/dev/full");
  ASSERT_TRUE(journal.ok());
  journal.append(minimal_event());
  EXPECT_FALSE(journal.ok());
  EXPECT_EQ(journal.written(), 0u);
  journal.append(full_event());
  EXPECT_FALSE(journal.ok());
  EXPECT_EQ(journal.written(), 0u);
}

// append() commits on the calling thread: opening a journal and appending
// to it leave the process's thread count as is, and the line is in the
// file when append() returns.
TEST(JournalWriter, StartsNoThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  const auto threads = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                         std::filesystem::directory_iterator());
  };
  const std::string path = temp_path("no_thread.jsonl");
  const auto before = threads();
  {
    obs::Journal journal(path);
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(threads(), before);
    journal.append(full_event());
    EXPECT_EQ(threads(), before);
    EXPECT_EQ(journal.written(), 1u);
    const auto events = obs::read_journal(path);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], full_event());
  }
  std::remove(path.c_str());
}

// Batch pipeline fixture: the funnel_trace_test dataset, journaled.
class FunnelJournal : public ::testing::Test {
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

  static MinuteTime window_end() {
    MinuteTime last = 0;
    for (const auto& ch : ds_->log.all()) last = std::max(last, ch.time);
    return last + 1;
  }

  static std::vector<AssessmentReport> run_window(
      std::size_t threads, const obs::Journal* journal,
      bool sst_cascade = true) {
    FunnelConfig cfg;
    cfg.baseline_days = 3;  // the short history has no 30-day baseline
    cfg.num_threads = threads;
    cfg.journal = journal;
    cfg.sst_cascade = sst_cascade;
    const Funnel funnel(cfg, ds_->topo, ds_->log, ds_->store);
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

evalkit::EvalDataset* FunnelJournal::ds_ = nullptr;

TEST_F(FunnelJournal, ReportsByteIdenticalWithJournalOnOrOff) {
  const std::string path = temp_path("identity.jsonl");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const std::string without = rendered(run_window(threads, nullptr));
    std::string with;
    {
      obs::Journal journal(path);
      ASSERT_TRUE(journal.ok());
      with = rendered(run_window(threads, &journal));
    }
    EXPECT_EQ(without, with)
        << "journaling leaked into reports at threads=" << threads;
  }
  std::remove(path.c_str());
}

TEST_F(FunnelJournal, SortedJournalByteIdenticalAcrossThreadCounts) {
  // The reference is the full scan (sst_cascade = false scores every window,
  // then scans all alarms); the production path stops at each verdict's
  // alarm, and its journal, sst_damp_factor included, must equal the
  // reference's at every thread count.
  struct Run {
    std::size_t threads;
    bool sst_cascade;
  };
  std::vector<std::string> reference;
  std::size_t reference_events = 0;
  for (const Run run : {Run{1, false}, Run{1, true}, Run{2, true},
                        Run{8, true}}) {
    const std::string path =
        temp_path("threads" + std::to_string(run.threads) +
                  (run.sst_cascade ? "" : "-full") + ".jsonl");
    std::size_t expected = 0;
    {
      obs::Journal journal(path);
      ASSERT_TRUE(journal.ok());
      const auto reports = run_window(run.threads, &journal, run.sst_cascade);
      for (const AssessmentReport& r : reports) expected += r.items.size();
      EXPECT_EQ(journal.written(), expected);
    }
    // Worker threads interleave appends nondeterministically; the event
    // *set* — and, since the codec is byte-deterministic, the sorted line
    // set — must not depend on the schedule.
    const std::vector<std::string> lines = sorted_lines(path);
    ASSERT_EQ(lines.size(), expected);
    if (reference.empty()) {
      reference = lines;
      reference_events = expected;
    } else {
      EXPECT_EQ(expected, reference_events);
      EXPECT_EQ(lines, reference)
          << "journal content changed at threads=" << run.threads
          << ", sst_cascade=" << run.sst_cascade;
    }
    std::remove(path.c_str());
  }
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(std::any_of(reference.begin(), reference.end(),
                          [](const std::string& line) {
                            return line.find("\"sst_damp_factor\"") !=
                                   std::string::npos;
                          }))
      << "no journalled verdict carries a damp factor";
}

TEST_F(FunnelJournal, BatchEventsCarryProvenance) {
  const std::string path = temp_path("provenance.jsonl");
  std::vector<AssessmentReport> reports;
  {
    obs::Journal journal(path);
    ASSERT_TRUE(journal.ok());
    reports = run_window(1, &journal);
  }
  const auto events = obs::read_journal(path);
  std::size_t expected = 0;
  for (const AssessmentReport& r : reports) expected += r.items.size();
  ASSERT_EQ(events.size(), expected);

  std::size_t detected = 0, with_did = 0;
  for (const obs::JournalEvent& e : events) {
    EXPECT_EQ(e.source, "batch");
    EXPECT_FALSE(e.service.empty());
    EXPECT_FALSE(e.kpi.empty());
    EXPECT_FALSE(e.cause.empty());
    if (e.detected) {
      ++detected;
      ASSERT_TRUE(e.alarm_minute.has_value()) << to_jsonl(e);
      ASSERT_TRUE(e.sst_peak.has_value());
    }
    if (e.did_alpha.has_value()) {
      ++with_did;
      EXPECT_FALSE(e.control_kind.empty());
      EXPECT_TRUE(e.did_t_stat.has_value());
    }
  }
  // The dataset plants real regressions; the journal must show the
  // detections and the DiD fits that adjudicated them.
  EXPECT_GT(detected, 0u);
  EXPECT_GT(with_did, 0u);
  std::remove(path.c_str());
}

// Online pipeline: a dark-launch watch streamed minute-by-minute (the
// funnel_online_test scenario), with the journal attached.
struct OnlineScenario {
  topology::ServiceTopology topo;
  changes::ChangeLog log;
  tsdb::MetricStore store;
  MinuteTime tc = 4 * kMinutesPerDay + 300;
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
      auto stream = std::make_unique<workload::KpiStream>(
          workload::make_stationary(p, rng.split()));
      if (effect != 0.0 && (s == "s1" || s == "s2")) {
        stream->add_effect(workload::LevelShift{tc, effect});
      }
      const tsdb::MetricId id = tsdb::server_metric(s, "mem");
      workload::materialize(*stream, store, id, 0, tc);
      streams.emplace_back(id, std::move(stream));
    }
  }

  std::string run(const obs::Journal* journal) {
    FunnelConfig cfg;
    cfg.baseline_days = 3;
    cfg.journal = journal;
    FunnelOnline online(cfg, topo, log, store);
    std::string out;
    online.on_report([&out](const AssessmentReport& r) { out += to_json(r); });
    online.watch(change_id);
    for (MinuteTime t = tc; t < tc + 61; ++t) {
      for (auto& [id, stream] : streams) {
        store.append(id, t, stream->sample(t));
      }
    }
    return out;
  }
};

TEST(FunnelJournalOnline, ReportsByteIdenticalAndEventsTimed) {
  const std::string path = temp_path("online.jsonl");
  const std::string without = OnlineScenario(8.0).run(nullptr);
  std::string with;
  {
    obs::Journal journal(path);
    ASSERT_TRUE(journal.ok());
    with = OnlineScenario(8.0).run(&journal);
  }
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(without, with);

  const auto events = obs::read_journal(path);
  ASSERT_FALSE(events.empty());
  std::size_t attributed = 0;
  for (const obs::JournalEvent& e : events) {
    EXPECT_EQ(e.source, "online");
    EXPECT_EQ(e.service, "svc");
    EXPECT_EQ(e.launch_mode, "dark-launching");
    if (e.cause == "software-change") {
      ++attributed;
      // The paper's rapidity claim, measurable per event: the verdict
      // minute and the minutes-from-change distance both land.
      ASSERT_TRUE(e.determined_at.has_value());
      ASSERT_TRUE(e.time_to_verdict.has_value());
      EXPECT_EQ(*e.time_to_verdict, *e.determined_at - e.change_time);
      EXPECT_GT(*e.time_to_verdict, 0);
      EXPECT_EQ(e.control_kind, "dark-launch-siblings");
    }
  }
  EXPECT_GE(attributed, 2u);  // both treated KPIs attributed
  std::remove(path.c_str());
}

}  // namespace
}  // namespace funnel::core
