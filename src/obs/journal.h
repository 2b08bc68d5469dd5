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
// JSONL file. The triage layer (src/triage) consumes the stream
// — live or replayed from disk — to build scorecards, blame rankings and
// mined rules (docs/TRIAGE.md).
//
// Design:
//   * The hot path never blocks on disk. append() enqueues the event on a
//     common::GroupCommitQueue (the one the metric store's dispatcher runs
//     on) and its writer thread serializes + writes. A full queue blocks
//     the producer: the journal is an audit record, so it never sheds.
//     (The WAL, by contrast, commits on the appending thread: a sample's
//     record must exist before the sample is applied.)
//   * One event = one '\n'-terminated line, written by the single writer,
//     which group-commits: each wakeup drains everything queued and does one
//     fwrite + fflush. Under steady load a batch is one event, so a crash
//     truncates at most the final line; under bursts at most the in-flight
//     batch tail is lost. read_journal() tolerates (and counts) a truncated
//     or corrupt trailing line, so replay after a crash never loses the file.
//   * A failed fwrite or fflush latches the writer, as in the WAL: later
//     batches are dropped unwritten, written() counts only committed
//     events, and ok() turns false, so a checkpoint never claims events the
//     file lacks and the CLI can report the loss.
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
#include <functional>
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

/// Append-only JSONL journal with a bounded queue and one writer thread.
/// Recording goes through a `const Journal*` (a journal is a sink, like the
/// registry and tracer); the journal must outlive every component holding
/// it. flush() is the quiesce barrier: it returns only after every event
/// appended before the call is serialized, handed to the OS and
/// fflush()-ed.
class Journal {
 public:
  /// Opens (truncates) `path` and starts the writer thread. ok() reports
  /// whether the file opened — callers decide whether that is fatal (the
  /// CLI exits 3, matching --stats-json/--trace).
  explicit Journal(std::string path, JournalOptions options = {});

  /// Drains the queue, flushes and closes the file, joins the thread.
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// False when the file did not open or a batch could not be written: a
  /// failed fwrite or fflush latches the writer and drops every later
  /// batch unwritten. Check it after flush() to learn whether every
  /// appended event reached the file.
  bool ok() const { return !failed_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }

  /// Enqueue one event (any thread). Blocks while the queue is full; never
  /// touches the disk on the calling thread. No-op when !ok().
  void append(JournalEvent event) const;

  /// Barrier: returns once every event appended before the call has been
  /// written + fflush()-ed (or dropped by a latched writer). No-op when the
  /// file did not open.
  void flush() const;

  /// Events accepted by append().
  std::uint64_t appended() const;
  /// Events serialized and written to the file so far (a failed batch
  /// counts nothing).
  std::uint64_t written() const;

  /// Attach a telemetry registry (null detaches): `funnel.journal.events`,
  /// `funnel.journal.bytes` counters and
  /// `funnel.journal.queue_depth` / `funnel.journal.queue_capacity` gauges
  /// (the pair behind the /healthz journal-writer backlog check). The
  /// registry must outlive this journal.
  void set_stats(const Registry* stats) const;

  /// Optional in-process tap, invoked on the writer thread once per written
  /// event (after serialization, before the next dequeue) — how a live
  /// triage engine consumes the stream without a disk round-trip. Set
  /// before the first append() or after a flush(); the callback must not
  /// call back into this journal.
  void set_observer(std::function<void(const JournalEvent&)> observer);

 private:
  struct Impl;
  std::string path_;
  std::atomic<bool> failed_{false};  ///< open failure, or latched by a write
  std::unique_ptr<Impl> impl_;       ///< null when the file did not open
};

}  // namespace funnel::obs
