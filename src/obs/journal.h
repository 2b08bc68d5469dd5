// Durable verdict-event journal — the append-only record of everything
// FUNNEL decided, and why.
//
// The registry (obs/registry.h) answers *how fast*, the tracer
// (obs/trace.h) answers *why this one verdict*; the journal answers the
// operators' aggregate questions at ~24k changes/day scale: which services
// keep shipping regressions, which of several concurrent changes is to
// blame, is the assessor itself healthy. Every determination emitted by
// Funnel::assess / assess_window / FunnelOnline becomes one schema-versioned
// JournalEvent carrying its full decision provenance (change metadata, KPI,
// verdict + cause, SST peak/damping, DiD fit + control kind, telemetry
// quality, time-to-verdict), serialized as one JSON line of an append-only
// JSONL file. The triage layer (src/triage) replays the file to build
// scorecards, blame rankings and mined rules (docs/TRIAGE.md).
//
// Design:
//   * append() commits on the calling thread, like the WAL: it renders the
//     event outside any lock, then writes the line with one fwrite +
//     fflush under the journal's mutex. A verdict whose append() returned
//     is in the file (or the journal latched), so the journal starts no
//     thread and holds no queue.
//   * One event = one '\n'-terminated line, so a crash loses at most the
//     line being written. read_journal() tolerates (and counts) a truncated
//     or corrupt trailing line, so replay after a crash never loses the
//     file. Appends from several threads land in arrival order.
//   * A failed fwrite or fflush latches the journal, as in the WAL: later
//     appends write nothing, written() counts only committed events, and
//     ok() turns false, so a checkpoint never claims events the file lacks
//     and the CLI can report the loss.
//   * The journal is a sink: a `const Journal*` on FunnelConfig, null means
//     off at zero cost, and assessment reports are byte-identical with the
//     journal attached or not (regression-tested in funnel_journal_test).
//
// Event-key naming mirrors the stat convention: short, flat, snake_case.
// The schema is versioned ("v"); readers skip lines whose version they do
// not understand rather than failing the replay.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/minute_time.h"
#include "obs/registry.h"

namespace funnel::obs {

/// Journal schema version written by this build. Readers accept any line
/// they can parse and surface `v` so future migrations can branch.
inline constexpr int kJournalSchemaVersion = 1;

/// One verdict determination, flattened for a single JSONL line. Optional
/// fields render only when present, so a parsed-back event compares equal
/// to the emitted one (round-trip tested in funnel_journal_test).
struct JournalEvent {
  int v = kJournalSchemaVersion;
  std::string source;  ///< "batch" | "online"

  // Change metadata (changes::SoftwareChange).
  std::uint64_t change_id = 0;
  MinuteTime change_time = 0;
  std::string service;      ///< the changed service
  std::string change_type;  ///< "software-upgrade" | "config-change"
  std::string launch_mode;  ///< "dark" | "full"

  // KPI identity (tsdb::MetricId).
  std::string metric;       ///< full "kind:entity/kpi" rendering
  std::string entity_kind;  ///< "server" | "instance" | "service"
  std::string kpi;          ///< KPI name — the per-KPI-class triage axis

  // Verdict.
  std::string cause;                ///< core::to_string(Cause)
  std::string inconclusive_reason;  ///< empty unless cause is inconclusive
  bool detected = false;

  // SST evidence (alarm path only).
  std::optional<MinuteTime> alarm_minute;
  std::optional<double> sst_peak;
  std::optional<double> sst_damp_factor;  ///< Eq. 11 factor (batch only)

  // DiD evidence (when a fit ran).
  std::optional<double> did_alpha;
  std::optional<double> did_alpha_scaled;
  std::optional<double> did_t_stat;
  std::optional<std::int64_t> did_n_treated;
  std::optional<std::int64_t> did_n_control;
  std::string control_kind;  ///< "dark-launch-siblings" | "seasonal-window"
  bool fallback_control = false;

  // Telemetry quality of the assessed window (tsdb::QualityReport).
  std::optional<double> coverage;
  std::optional<std::int64_t> window_minutes;
  std::optional<std::int64_t> clean_samples;
  std::optional<std::int64_t> longest_gap_run;
  std::optional<std::int64_t> longest_flat_run;

  // Rapidity (online path only).
  std::optional<MinuteTime> determined_at;
  std::optional<MinuteTime> time_to_verdict;

  bool operator==(const JournalEvent&) const = default;
};

/// Serialize one event as a single JSON line (no trailing newline). Key
/// order is fixed and doubles render with round-trip precision, so the same
/// event always serializes to the same bytes — the property behind the
/// canonical-sort byte-identity test.
std::string to_jsonl(const JournalEvent& event);

/// Parse one journal line. Returns false (leaving `event` unspecified) on a
/// truncated/corrupt line or an unknown schema version. Tolerates unknown
/// keys, so older readers survive newer writers.
bool parse_jsonl(std::string_view line, JournalEvent& event);

/// Read a journal file back. A truncated or corrupt trailing line (the
/// crash signature) is skipped and counted in `*bad_lines`; a missing file
/// returns an empty vector with `*ok == false` when provided.
std::vector<JournalEvent> read_journal(const std::string& path,
                                       std::size_t* bad_lines = nullptr,
                                       bool* ok = nullptr);

/// Truncate a journal to its first `keep_events` valid events — the
/// crash-restart repair step. A persistent MetricStore checkpoint records
/// how many events the journal held at that consistent point; on restart
/// the assessor rewinds the journal here, reopens it in append mode
/// (JournalOptions::truncate = false) and re-emits everything after the
/// checkpoint during WAL replay, so the final file is byte-identical to an
/// uninterrupted run's. Also discards a torn trailing line. Returns the
/// number of events actually kept (< keep_events when the file is shorter).
std::uint64_t repair_journal(const std::string& path,
                             std::uint64_t keep_events);

struct JournalOptions {
  /// false = open in append mode instead of truncating — the crash-restart
  /// path, after repair_journal() has rewound the file to the checkpoint.
  bool truncate = true;
};

/// Append-only JSONL journal that commits each event on the appending
/// thread. Recording goes through a `const Journal*` (a journal is a sink,
/// like the registry and tracer); the journal must outlive every component
/// holding it.
class Journal {
 public:
  /// Opens (truncates) `path`. ok() reports whether the file opened —
  /// callers decide whether that is fatal (the CLI exits 3, matching
  /// --stats-json/--trace).
  explicit Journal(std::string path, JournalOptions options = {});

  /// Closes the file.
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// False when the file did not open or a line could not be written: a
  /// failed fwrite or fflush latches the journal and every later append()
  /// writes nothing.
  bool ok() const { return !failed_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }

  /// Write one event as a line and fflush it (any thread). Returns once
  /// the line is with the OS or the journal has latched. No-op when !ok().
  void append(const JournalEvent& event) const;

  /// No-op: every append() returns with its line in the file. Kept for
  /// funnelbench/, which calls it.
  void flush() const {}

  /// Events written to the file so far (a failed write counts nothing).
  std::uint64_t written() const;

  /// Attach a telemetry registry (null detaches): the
  /// `funnel.journal.events` and `funnel.journal.bytes` counters. The
  /// registry must outlive this journal.
  void set_stats(const Registry* stats) const;

 private:
  struct Impl;
  std::string path_;
  /// Open failure, or latched by a write (append() is const: a sink).
  mutable std::atomic<bool> failed_{false};
  std::unique_ptr<Impl> impl_;  ///< null when the file did not open
};

}  // namespace funnel::obs
