// funnel_detect_csv — run a FUNNEL change detector on CSV time series.
//
// Usage:
//   funnel_detect_csv <series.csv> [more.csv ...]
//                     [--method ika|improved|classic|cusum|mrls]
//                     [--threshold X] [--persistence N] [--patience N]
//                     [--omega N] [--scores] [--threads N]
//                     [--change-minute T] [--shards N] [--ingest-queue N]
//                     [--data-dir DIR]
//                     [--stats] [--stats-json FILE] [--trace FILE]
//                     [--journal FILE]
//
// Input: `minute,value` rows (one sample per minute; empty value = gap).
// Output: alarm episodes (minute, peak score) on stdout; with --scores the
// full per-window score series is printed instead (gnuplot-ready).
//
// --method ika (the default) scores episodes and the --change-minute
// pipeline through the pre-filter cascade, like every FUNNEL deployment:
// windows whose Eq. 11 factor cannot exceed the threshold skip the
// past-side IKA work. The cascade is exact, so the episodes are the ones
// the full scorer finds. --scores prints the full scorer's value for every
// window.
//
// With --change-minute T each CSV is treated as the KPI of a service that
// deployed a software change at minute T: history before T primes the
// online assessor, the rest is streamed sample-by-sample through the full
// FUNNEL pipeline (IKA-SST detection, persistence rule, causality
// determination), and the verdict — including the confirming minute and
// time-to-verdict — is printed. This exercises every pipeline stage, so the
// telemetry dump below covers detection, DiD, the store and the online
// assessor. The store behind that pipeline is hash-sharded (--shards,
// default 4) and pushes samples through the async ingest queue
// (--ingest-queue capacity, default 1024; 0 = legacy synchronous dispatch);
// output is byte-identical for every combination — the run ends with a
// flush() barrier (see docs/CONCURRENCY.md).
//
// --data-dir DIR (pipeline mode, single CSV) backs the store with the
// persistent segment store (docs/STORAGE.md): every streamed sample is
// write-ahead-logged into DIR, and the run ends with a checkpoint that
// freezes the history into an mmap'd columnar segment plus the watch
// snapshot and journal event count. If DIR already holds the metric (a
// previous run, or funnel_generate --data-dir), the CSV history is not
// re-inserted — the recovered store provides it. A fresh DIR produces
// output byte-identical to the in-memory pipeline; a re-run over a store
// that already holds the post-change tail instead primes the watch through
// the stored data, so the verdict lands at the horizon (the assessor saw
// everything at watch time) rather than mid-stream. An unopenable or
// corrupt-beyond-the-WAL directory exits 3, like the other output files;
// a torn WAL tail is NOT corruption (recovery truncates it silently).
//
// --stats prints the run's self-telemetry (Prometheus text) to stderr;
// --stats-json FILE writes the JSON snapshot. --trace FILE enables decision
// tracing (obs/trace.h) and writes the run's span tree as Chrome
// trace-event JSON — load it in chrome://tracing or ui.perfetto.dev to see
// each assessment's SST/DiD provenance laid out across threads. Per-CSV
// wall clock always goes to stderr, as do "# wrote ..." notices naming the
// emitted files. --journal FILE appends every determination of the
// --change-minute pipeline as one JSONL verdict event (obs/journal.h) for
// the triage layer — pipe the file into `funnel_triage` for scorecards,
// blame ranking and mined rules (docs/TRIAGE.md); the event count is noted
// on stderr. Stats, traces and the journal are side channels: stdout is
// byte-identical with them on or off, and for every --threads value.
//
// Exit codes: 0 success; 1 a file failed to load/parse/assess; 2 bad
// usage (an unknown option, or a numeric value that does not parse whole
// or that the detector rejects); 3 an output file
// (--stats-json/--trace/--journal) could not be opened or written, or the
// --data-dir store could not be opened/recovered.
//
// Several CSV files are scored concurrently on a thread pool (--threads 0 =
// one per hardware thread, 1 = serial); output is buffered per file and
// printed in argument order. A CSV that fails to load or parse is reported
// on stderr and makes the exit status non-zero; the remaining files are
// still processed.
//
// This is the "bring your own KPI" entry point: export any metric from your
// monitoring system and see what FUNNEL's detector family thinks of it.
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "changes/change_log.h"
#include "common/error.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "detect/cascade.h"
#include "detect/classic_sst.h"
#include "detect/cusum.h"
#include "detect/ika_sst.h"
#include "detect/improved_sst.h"
#include "detect/mrls.h"
#include "detect/sliding.h"
#include "funnel/online.h"
#include "funnel/report.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "topology/topology.h"
#include "tsdb/io.h"
#include "tsdb/persist/format.h"

using namespace funnel;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <series.csv> [more.csv ...]\n"
      "          [--method ika|improved|classic|cusum|mrls]\n"
      "          [--threshold X] [--persistence N] [--patience N]\n"
      "          [--omega N] [--scores] [--threads N]\n"
      "          [--change-minute T] [--shards N] [--ingest-queue N]\n"
      "          [--data-dir DIR]\n"
      "          [--stats] [--stats-json FILE] [--trace FILE]\n"
      "          [--journal FILE]\n",
      argv0);
}

struct Options {
  std::vector<std::string> paths;
  std::string method = "ika";
  double threshold = 0.35;
  bool threshold_set = false;
  std::size_t persistence = 7;
  std::size_t patience = 10;
  std::size_t omega = 9;
  std::size_t threads = 0;  // 0 = hardware concurrency
  bool print_scores = false;
  MinuteTime change_minute = -1;  // >= 0 switches to the pipeline mode
  std::size_t shards = 4;         // store hash-shard count (pipeline mode)
  std::size_t ingest_queue = 1024;  // async ingest capacity; 0 = sync
  std::string data_dir;  // non-empty makes the pipeline store persistent
  bool print_stats = false;
  std::string stats_json_path;
  std::string trace_path;    // non-empty enables tracing
  std::string journal_path;  // non-empty enables the verdict journal
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    // The flag's value must parse whole; counts are unsigned, so a sign
    // fails too.
    auto next = [&](auto* value) {
      return ++i < argc && parse_number(argv[i], *value);
    };
    if (a == "--method") {
      if (++i >= argc) return false;
      opt.method = argv[i];
    } else if (a == "--threshold") {
      if (!next(&opt.threshold)) return false;
      opt.threshold_set = true;
    } else if (a == "--persistence") {
      if (!next(&opt.persistence)) return false;
    } else if (a == "--patience") {
      if (!next(&opt.patience)) return false;
    } else if (a == "--omega") {
      if (!next(&opt.omega)) return false;
    } else if (a == "--threads") {
      if (!next(&opt.threads)) return false;
    } else if (a == "--change-minute") {
      if (!next(&opt.change_minute) || opt.change_minute < 0) return false;
    } else if (a == "--shards") {
      if (!next(&opt.shards) || opt.shards == 0) return false;
    } else if (a == "--ingest-queue") {
      if (!next(&opt.ingest_queue)) return false;
    } else if (a == "--data-dir") {
      if (++i >= argc) return false;
      opt.data_dir = argv[i];
    } else if (a == "--stats") {
      opt.print_stats = true;
    } else if (a == "--stats-json") {
      if (++i >= argc) return false;
      opt.stats_json_path = argv[i];
    } else if (a == "--trace") {
      if (++i >= argc) return false;
      opt.trace_path = argv[i];
    } else if (a == "--journal") {
      if (++i >= argc) return false;
      opt.journal_path = argv[i];
    } else if (a == "--scores") {
      opt.print_scores = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return false;
    } else {
      opt.paths.push_back(a);
    }
  }
  return !opt.paths.empty();
}

std::unique_ptr<detect::ChangeScorer> make_scorer(const Options& opt,
                                                  double* default_thr) {
  const detect::SstGeometry g{.omega = opt.omega, .eta = 3};
  if (opt.method == "ika") {
    *default_thr = 0.35;
    return std::make_unique<detect::IkaSst>(g);
  }
  if (opt.method == "improved") {
    *default_thr = 0.4;
    return std::make_unique<detect::ImprovedSst>(g);
  }
  if (opt.method == "classic") {
    *default_thr = 0.95;
    return std::make_unique<detect::ClassicSst>(g);
  }
  if (opt.method == "cusum") {
    *default_thr = 70.0;
    return std::make_unique<detect::Cusum>(detect::CusumParams{});
  }
  if (opt.method == "mrls") {
    *default_thr = 7.0;
    return std::make_unique<detect::Mrls>(detect::MrlsParams{});
  }
  return nullptr;
}

struct FileResult {
  int code = 0;
  std::string out;  ///< stdout payload, printed in argument order
  std::string err;  ///< stderr payload
};

// Score one file with a scorer of its own (the SST scorers are stateful —
// warm starts must never cross files). All output is buffered so the
// parallel path can preserve argument order exactly.
FileResult score_file(const std::string& path, const Options& opt) {
  FileResult res;
  std::ostringstream out;
  const tsdb::TimeSeries series = tsdb::load_series_csv(path);
  if (series.empty()) {
    res.err = "no samples in " + path + "\n";
    res.code = 1;
    return res;
  }
  double default_thr = 0.35;
  const auto scorer = make_scorer(opt, &default_thr);
  const double threshold = opt.threshold_set ? opt.threshold : default_thr;

  // Episodes only need to know which windows exceed the threshold, so IKA
  // runs behind the exact cascade; --scores prints every window's value.
  std::vector<double> scores;
  auto* ika = dynamic_cast<detect::IkaSst*>(scorer.get());
  if (ika != nullptr && !opt.print_scores) {
    const detect::CascadeConfig cc{.sst_threshold = threshold};
    scores = detect::cascade_score_series(*ika, series.values(), cc, nullptr,
                                          nullptr);
  } else {
    scores = detect::score_series(*scorer, series.values());
  }
  if (scores.empty()) {
    res.err = "series too short: " + std::to_string(series.size()) +
              " samples < window " +
              std::to_string(scorer->window_size()) + "\n";
    res.code = 1;
    return res;
  }

  if (opt.print_scores) {
    char line[128];
    std::snprintf(line, sizeof(line), "# minute score  (method=%s window=%zu)\n",
                  scorer->name(), scorer->window_size());
    out << line;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      std::snprintf(line, sizeof(line), "%lld %.6f\n",
                    static_cast<long long>(series.start_time()) +
                        static_cast<long long>(i + scorer->window_size() - 1),
                    scores[i]);
      out << line;
    }
    res.out = out.str();
    return res;
  }

  const detect::AlarmPolicy policy{
      .threshold = threshold,
      .persistence = opt.persistence,
      .patience = std::max(opt.patience, opt.persistence)};
  const auto alarms = detect::all_alarms(
      scores, scorer->window_size(), series.start_time(), policy);
  const auto episodes = detect::alarm_episodes(alarms, 30);
  char line[160];
  std::snprintf(line, sizeof(line),
                "# %zu samples, method=%s, threshold=%.3f, "
                "persistence=%zu/%zu\n",
                series.size(), scorer->name(), threshold, opt.persistence,
                std::max(opt.patience, opt.persistence));
  out << line;
  if (episodes.empty()) {
    out << "no behavior changes detected\n";
  } else {
    for (const auto& e : episodes) {
      std::snprintf(line, sizeof(line),
                    "change episode at minute %lld (peak score %.3f)\n",
                    static_cast<long long>(e.minute), e.peak_score);
      out << line;
    }
  }
  res.out = out.str();
  return res;
}

// --change-minute mode: treat the CSV as the KPI of a one-service world
// whose change deployed at minute T, and stream it through the full online
// assessor. History before T primes the detector; the remainder arrives
// sample-by-sample exactly like the production push feed.
FileResult assess_file(const std::string& path, const Options& opt,
                       const obs::Registry* stats, const obs::Tracer* tracer,
                       const obs::Journal* journal) {
  FileResult res;
  std::ostringstream out;
  const tsdb::TimeSeries series = tsdb::load_series_csv(path);
  const MinuteTime tc = opt.change_minute;
  if (series.empty()) {
    res.err = "no samples in " + path + "\n";
    res.code = 1;
    return res;
  }
  if (tc <= series.start_time() || tc + 2 > series.end_time()) {
    res.err = "change minute " + std::to_string(tc) +
              " needs history before it and at least 2 post-change samples "
              "(series covers [" + std::to_string(series.start_time()) +
              ", " + std::to_string(series.end_time()) + "))\n";
    res.code = 1;
    return res;
  }

  topology::ServiceTopology topo;
  topo.add_server("csv", "host");
  changes::ChangeLog log;
  changes::SoftwareChange ch;
  ch.service = "csv";
  ch.servers = {"host"};
  ch.time = tc;
  ch.mode = changes::LaunchMode::kFull;
  ch.description = path;
  const changes::ChangeId cid = log.record(ch, topo);

  // Sharded store with (by default) async subscriber dispatch: appends below
  // hand samples to the ingest queue, the dispatcher thread drives the
  // online assessor, and flush() below is the barrier that makes the output
  // byte-identical to the synchronous path.
  tsdb::MetricStore store(tsdb::StoreOptions{
      .num_shards = opt.shards,
      .ingest_queue_capacity = opt.ingest_queue,
      .backpressure = common::Backpressure::kBlock,
      .data_dir = opt.data_dir});
  store.set_stats(stats);
  const tsdb::MetricId metric = tsdb::server_metric("host", "kpi");
  // A recovered --data-dir store already holds the metric (seeded by a
  // previous run or funnel_generate --data-dir); the CSV history is only
  // inserted into a store that has never seen it.
  if (!store.has(metric)) {
    tsdb::TimeSeries history(series.start_time());
    for (MinuteTime t = series.start_time(); t < tc; ++t) {
      history.append(series.at(t));
    }
    store.insert(metric, std::move(history));
  }

  core::FunnelConfig cfg;
  cfg.geometry.omega = opt.omega;
  if (opt.threshold_set) cfg.alarm.threshold = opt.threshold;
  cfg.alarm.persistence = opt.persistence;
  cfg.alarm.patience = std::max(opt.patience, opt.persistence);
  // A hand-exported CSV rarely carries the 30-day baseline; with less
  // history the seasonality exclusion degrades conservatively (dubious
  // changes are still delivered, §2.2). Require at least 2 clean baseline
  // days, though: a verdict resting on a single day's window is reported as
  // inconclusive rather than trusted (docs/ROBUSTNESS.md).
  cfg.baseline_days = 3;
  cfg.quality.historical_quorum = 2;
  cfg.horizon = std::min<MinuteTime>(cfg.horizon, series.end_time() - tc - 1);
  cfg.num_threads = 1;
  cfg.stats = stats;
  cfg.tracer = tracer;
  cfg.journal = journal;

  core::FunnelOnline online(cfg, topo, log, store);
  core::AssessmentReport report;
  bool finalized = false;
  online.on_report([&](const core::AssessmentReport& r) {
    report = r;
    finalized = true;
  });
  online.watch(cid);
  // The post-change samples go in as one batch: one WAL commit, one
  // dispatcher push (a synchronous store still delivers sample by sample).
  const tsdb::SeriesRef ref = store.intern(metric);
  std::vector<tsdb::Sample> batch;
  batch.reserve(static_cast<std::size_t>(series.end_time() - tc));
  for (MinuteTime t = tc; t < series.end_time(); ++t) {
    batch.push_back({ref, t, series.at(t), {}, {}});
  }
  store.append(batch);
  // Barrier: wait until the dispatcher has delivered every queued sample
  // (no-op for a synchronous store) before reading the report.
  store.flush();
  if (store.persistent()) {
    // End-of-run checkpoint: freeze the streamed history into a segment and
    // record the watch snapshot + journal event count, so a process killed
    // right here resumes from this exact state (docs/STORAGE.md §5).
    store.checkpoint(online.snapshot_state(),
                     journal != nullptr ? journal->written() : 0);
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "# change at minute %lld, online FUNNEL pipeline "
                "(ika-sst, omega=%zu, horizon=%lld)\n",
                static_cast<long long>(tc), opt.omega,
                static_cast<long long>(cfg.horizon));
  out << line;
  if (!finalized) {
    res.err = "watch did not finalize within the series\n";
    res.code = 1;
    return res;
  }
  out << report.summary();
  out << (report.change_has_impact() ? "verdict: change has impact\n"
                                     : "verdict: no impact attributed\n");
  res.out = out.str();
  return res;
}

FileResult process_file(const std::string& path, const Options& opt,
                        const obs::Registry* stats, const obs::Tracer* tracer,
                        const obs::Journal* journal) {
  try {
    return opt.change_minute >= 0
               ? assess_file(path, opt, stats, tracer, journal)
               : score_file(path, opt);
  } catch (const tsdb::persist::StorageError& e) {
    // The --data-dir store could not be opened or recovered (corruption
    // beyond what WAL-tail truncation repairs). Same exit code as an
    // unopenable output file.
    FileResult res;
    res.err = std::string("error: ") + e.what() + "\n";
    res.code = 3;
    return res;
  } catch (const std::exception& e) {
    // Parse/load failures are per-file: report, keep going, exit non-zero.
    FileResult res;
    res.err = "error: failed to process " + path + ": " + e.what() + "\n";
    res.code = 1;
    return res;
  }
}

void declare_core_keys(const obs::Registry& reg) {
  // A stable key set for dashboards and the ctest smoke check, present
  // even before (or without) the first event of each kind. The WAL /
  // persistence / journal family is declared here too so --stats and
  // --stats-json expose the same keys whether or not the run was
  // persistent — zeros, not absences, when a subsystem never ran.
  for (const char* c :
       {"funnel.assess.changes_assessed", "funnel.assess.kpis_scored",
        "funnel.assess.alarms_raised", "funnel.online.samples_ingested",
        "funnel.online.verdicts_confirmed", "pool.tasks_executed",
        "tsdb.store.appends", "tsdb.store.notifications",
        "tsdb.store.late_fills", "tsdb.store.duplicates_ignored",
        "tsdb.store.too_old_dropped", "csv.files_processed",
        "csv.files_failed", "funnel.cascade.windows",
        "funnel.cascade.scored", "funnel.cascade.suppressed_variance",
        "funnel.cascade.dirty", "funnel.journal.events", "funnel.journal.bytes",
        "funnel.wal.records", "funnel.wal.bytes", "funnel.wal.batches",
        "funnel.persist.segments_written", "funnel.persist.segment_bytes",
        "funnel.persist.checkpoints", "funnel.persist.compactions"}) {
    reg.declare_counter(c);
  }
  for (const char* h :
       {"funnel.assess.sst_us", "funnel.assess.did_us",
        "funnel.assess.total_us", "funnel.online.time_to_verdict_min",
        "pool.queue_wait_us", "csv.process_us", "funnel.wal.commit_us"}) {
    reg.declare_histogram(h);
  }
  for (const char* g :
       {"funnel.online.active_watches", "funnel.cascade.suppression_ratio",
        "funnel.persist.segments"}) {
    reg.declare_gauge(g);
  }
}

// Derived gauge: fraction of candidate windows the cascade suppressed
// without the past-side IKA work. Computed from the counters at dump time —
// suppression is a property of the whole run.
void set_suppression_ratio(const obs::Registry& reg) {
  const obs::Snapshot snap = reg.snapshot();
  const auto counter = [&](const char* key) -> double {
    const auto it = snap.counters.find(key);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double windows = counter("funnel.cascade.windows");
  const double suppressed = counter("funnel.cascade.suppressed_variance");
  reg.set("funnel.cascade.suppression_ratio",
          windows > 0.0 ? suppressed / windows : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }
  try {
    double default_thr = 0.0;
    if (make_scorer(opt, &default_thr) == nullptr) {
      std::fprintf(stderr, "unknown method: %s\n", opt.method.c_str());
      return 2;
    }
  } catch (const InvalidArgument& e) {
    // A value that parses but that the detector rejects (--omega 1).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (!opt.data_dir.empty() &&
      (opt.change_minute < 0 || opt.paths.size() != 1)) {
    std::fprintf(stderr,
                 "--data-dir requires --change-minute and exactly one CSV "
                 "(one store directory per assessed series)\n");
    return 2;
  }

  obs::Registry reg;
  declare_core_keys(reg);
  obs::Tracer tracer;
  const obs::Tracer* tracer_ptr =
      opt.trace_path.empty() ? nullptr : &tracer;

  // The journal opens up front (events stream during the run, unlike the
  // end-of-run stats/trace dumps), so the unopenable-path exit happens
  // before any work — same code 3 as the other output files.
  std::unique_ptr<obs::Journal> journal;
  if (!opt.journal_path.empty()) {
    journal = std::make_unique<obs::Journal>(opt.journal_path);
    if (!journal->ok()) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.journal_path.c_str());
      return 3;
    }
    journal->set_stats(&reg);
  }

  std::vector<FileResult> results(opt.paths.size());
  const auto run_one = [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    // Per-file root span: the assessment's whole tree (watch, per-KPI
    // scoring, DiD) hangs under it, one track per participating thread.
    obs::Span file_span(tracer_ptr, "csv.file");
    if (file_span.active()) {
      file_span.attr("csv.path", std::string_view(opt.paths[i]));
    }
    results[i] = process_file(opt.paths[i], opt, &reg, tracer_ptr,
                              journal.get());
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    char line[512];
    std::snprintf(line, sizeof(line), "# %s: %.1f ms\n",
                  opt.paths[i].c_str(), ms);
    results[i].err += line;
    reg.observe("csv.process_us", ms * 1000.0);
    reg.add(results[i].code == 0 ? "csv.files_processed"
                                 : "csv.files_failed");
  };
  const std::size_t threads = ThreadPool::resolve_threads(opt.threads);
  if (threads > 1 && opt.paths.size() > 1) {
    ThreadPool pool(opt.threads);
    pool.set_stats(&reg);
    pool.parallel_for(0, opt.paths.size(),
                      [&](std::size_t i, std::size_t) { run_one(i); });
  } else {
    for (std::size_t i = 0; i < opt.paths.size(); ++i) run_one(i);
  }

  int code = 0;
  for (std::size_t i = 0; i < opt.paths.size(); ++i) {
    if (opt.paths.size() > 1) {
      std::printf("== %s ==\n", opt.paths[i].c_str());
    }
    std::fputs(results[i].out.c_str(), stdout);
    std::fputs(results[i].err.c_str(), stderr);
    // 3 (environment: store/output unusable) outranks 1 (per-file failure).
    code = std::max(code, results[i].code);
  }

  if (journal != nullptr) {
    if (!journal->ok()) {  // a write failed: the file lacks events
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.journal_path.c_str());
      return 3;
    }
    std::fprintf(stderr, "# wrote journal: %s (%llu events)\n",
                 opt.journal_path.c_str(),
                 static_cast<unsigned long long>(journal->written()));
  }

  if (opt.print_stats || !opt.stats_json_path.empty()) {
    set_suppression_ratio(reg);
    const obs::Snapshot snap = reg.snapshot();
    if (opt.print_stats) {
      std::fputs(obs::prometheus_text(snap).c_str(), stderr);
    }
    if (!opt.stats_json_path.empty()) {
      std::ofstream out(opt.stats_json_path);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     opt.stats_json_path.c_str());
        return 3;
      }
      out << obs::snapshot_json(snap) << '\n';
      std::fprintf(stderr, "# wrote stats: %s\n",
                   opt.stats_json_path.c_str());
    }
  }
  if (!opt.trace_path.empty()) {
    // Quiesced: the pool (if any) was joined and every store flushed, so
    // collect() sees every recorded span.
    std::ofstream out(opt.trace_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.trace_path.c_str());
      return 3;
    }
    out << obs::chrome_trace_json(tracer.collect()) << '\n';
    std::fprintf(stderr, "# wrote trace: %s\n", opt.trace_path.c_str());
  }
  return code;
}
