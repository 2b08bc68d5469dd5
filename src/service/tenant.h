// One tenant of the multi-tenant service mode (docs/SERVICE.md).
//
// A Tenant is a fully isolated FUNNEL pipeline: its own topology, change
// log, MetricStore (own shards + own bounded ingest queue, optionally
// persisted under its own data_dir subtree), FunnelOnline assessor and
// verdict journal. Nothing is shared with other tenants except the process
// and the optional telemetry registry — which is why one tenant's dirty
// feed, store error or quota exhaustion can never alter another tenant's
// verdict bytes (service_test proves it byte-for-byte).
//
// Threading (docs/CONCURRENCY.md, "Service plane"): every mutating entry
// point REQUIRES the tenant mutex, which the FunnelService acquires with
// try_lock so a busy tenant answers 429 instead of pinning an HTTP worker.
// Under the lock the tenant is single-producer: samples append in request
// order, so with a persistent store the WAL sequence numbers align 1:1 with
// the client's action stream — the soak harness resumes exactly at
// recovered_seq() after a SIGKILL (the funnel_persist_replay_test protocol,
// docs/STORAGE.md §6).
//
// Degradation: a batch carrying more than max_malformed_per_batch broken
// lines, any persist::StorageError, or a meta.log line that cannot be
// written quarantines the tenant — active watches force-finalize
// (undetermined alarms become Cause::kInconclusive with the
// machine-readable kWatchTimedOut reason), further ingest is refused with
// the stored reason, and /healthz carries a failing "tenant:<name>"
// check. Other tenants keep serving.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "changes/change_log.h"
#include "funnel/config.h"
#include "funnel/online.h"
#include "obs/journal.h"
#include "service/quota.h"
#include "topology/topology.h"
#include "tsdb/store.h"

namespace funnel::service {

struct TenantOptions {
  std::string name;

  /// Store shape: per-tenant shards and bounded MPSC ingest queue
  /// (0 = synchronous dispatch on the ingesting thread).
  std::size_t num_shards = 2;
  std::size_t ingest_queue_capacity = 256;
  common::Backpressure backpressure = common::Backpressure::kBlock;

  QuotaConfig quota;

  /// Quarantine when one ingest batch carries more than this many
  /// malformed lines — the dirty-feed tripwire.
  std::size_t max_malformed_per_batch = 64;

  /// Per-tenant persistence root (WAL + segments + meta.log +
  /// journal.jsonl). Empty = fully in-memory.
  std::string data_dir;

  /// Verdict-journal path override; defaults to <data_dir>/journal.jsonl,
  /// or no journal when both are empty.
  std::string journal_path;

  /// Assessor configuration. stats/journal sinks are wired by the Tenant.
  core::FunnelConfig funnel;
};

struct IngestResult {
  std::size_t accepted = 0;   ///< samples appended (and WAL-logged)
  std::size_t malformed = 0;  ///< lines dropped by the parser
  bool quarantined = false;   ///< this batch tripped (or hit) quarantine
};

class Tenant {
 public:
  /// Construction recovers from data_dir when one is set: replay meta.log
  /// (topology + change registrations, in original order so ChangeIds are
  /// stable), repair the journal to the checkpoint's event count, restore
  /// watch state, then replay the WAL tail. A recovery StorageError does
  /// not throw — the tenant comes up in-memory and quarantined, so the
  /// daemon keeps serving its healthy tenants.
  explicit Tenant(TenantOptions options,
                  const obs::Registry* stats = nullptr);
  ~Tenant();

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return options_.name; }

  /// The tenant mutex every mutating call below requires. FunnelService
  /// try_locks it (busy tenants shed with 429 instead of queueing).
  std::mutex& mutex() { return mutex_; }

  /// Admission for an n-sample batch at monotonic `now_s` (REQUIRES lock):
  /// token bucket first, then the queue-share cap. On refusal
  /// `*retry_after_s` is the suggested client backoff.
  bool admit(std::size_t n, double now_s, double* retry_after_s);

  /// Replace the quota (SIGHUP reload path; REQUIRES lock).
  void update_quota(const QuotaConfig& quota);

  /// Ingest newline-delimited samples (REQUIRES lock):
  ///   service,server,kpi,minute,value
  /// Value "nan" / empty = NaN (a delivered-but-broken reading). Unknown
  /// servers auto-join the tenant topology (durably, via meta.log).
  /// Malformed lines are counted, not fatal — unless one batch exceeds
  /// max_malformed_per_batch, which quarantines. A journal that cannot be
  /// written quarantines too ("journal-error: …"), here and in
  /// register_changes, before the body is read.
  /// The body reaches the store as one batch append (one WAL commit, one
  /// dispatcher push), cut only before a line that adds a server so the
  /// lines before it land before the topology changes. The store, the WAL
  /// and applied_seq end up as one POST per line would leave them. A batch
  /// whose WAL write fails is not applied and quarantines the tenant
  /// ("store-error: …").
  /// Each line's (server, kpi) views resolve to the store's SeriesRef with
  /// no allocation once the series is known, and the topology is asked
  /// about a series' server only until it is known there (the topology
  /// only grows). A minute outside the 64-bit range is malformed.
  IngestResult ingest(std::string_view body);

  /// Register + watch changes, one per line (REQUIRES lock):
  ///   time,service,mode,servers,description
  /// mode "dark"|"full"; servers ';'-separated or "*" (all servers of the
  /// service). Registration is idempotent on (service, time, description):
  /// a re-sent line reuses the recorded ChangeId, and re-watches only when
  /// no watch marker for it survived — which keeps WAL sequence alignment
  /// exact across crash/resume (docs/SERVICE.md, "Crash recovery"). A
  /// watch marker whose WAL write fails quarantines the tenant
  /// ("store-error: …") and leaves that change unwatched.
  /// Returns the ChangeIds in line order; parse failures count into
  /// `*malformed` when non-null.
  std::vector<changes::ChangeId> register_changes(
      std::string_view body, std::size_t* malformed = nullptr);

  /// Finalized-report JSON for this tenant (REQUIRES lock; flushes the
  /// store so every delivered sample's verdicts are in). Deterministic
  /// bytes: reports render in ChangeId order via core::to_json.
  std::string report_json();

  /// One-line status JSON (REQUIRES lock): counters, seq, quarantine.
  std::string status_json();

  /// flush + checkpoint(watch snapshot, journal event count); no-op for an
  /// in-memory tenant (REQUIRES lock).
  void checkpoint();

  /// flush + FunnelOnline::expire(now): force-finalize gap-starved watches
  /// (REQUIRES lock), then checkpoint when any expired, so the expiry and
  /// its journalled verdicts survive a restart. Returns watches finalized;
  /// throws StorageError when that checkpoint fails.
  std::size_t maintenance(MinuteTime now);

  /// Enter quarantine (REQUIRES lock; idempotent — the first reason
  /// sticks): force-finalize all watches, checkpoint, refuse later ingest.
  void quarantine(std::string reason);

  bool quarantined() const { return quarantined_; }
  const std::string& quarantine_reason() const { return quarantine_reason_; }

  /// WAL seq recovered at construction — the client's resume index (0 for
  /// a fresh or in-memory tenant).
  std::uint64_t recovered_seq() const { return recovered_seq_; }
  /// WAL-visible actions applied over the tenant's lifetime (recovered +
  /// live samples + live watch registrations).
  std::uint64_t applied_seq() const { return applied_seq_; }

  std::uint64_t accepted_samples() const { return accepted_samples_; }
  std::uint64_t malformed_lines() const { return malformed_lines_; }
  std::uint64_t quota_rejections() const { return quota_rejections_; }
  std::uint64_t busy_rejections() const { return busy_rejections_; }
  void count_quota_rejection() { ++quota_rejections_; }
  void count_busy_rejection() { ++busy_rejections_; }

  /// Active watches (REQUIRES lock; flushes first).
  std::size_t active_watches();

  const std::string& journal_path() const { return journal_path_; }
  tsdb::MetricStore& store() { return *store_; }
  core::FunnelOnline& online() { return *online_; }
  const TenantOptions& options() const { return options_; }

 private:
  /// The in-memory store, journal and assessor of a tenant with no
  /// data_dir (or whose recovery failed).
  void open_fresh();
  void recover();
  void wire_online();
  std::string meta_path() const;
  /// Write and flush one meta.log line. When that fails, quarantine with
  /// "meta-error: cannot write <path>" and return false: the caller must
  /// not use the line's server or change.
  bool meta_append(const std::string& line);
  void replay_meta();
  /// Quiesce the dispatcher once per batch before the first topology /
  /// change-log mutation: callbacks running on the dispatcher thread read
  /// topo_/log_ and must not race a writer (docs/CONCURRENCY.md).
  void quiesce_for_mutation(bool* done);
  /// A journal that failed to open or latched a write error would let
  /// verdicts go unrecorded while the tenant keeps answering: quarantine
  /// with reason "journal-error: …" and return true. One atomic load when
  /// the journal is healthy.
  bool journal_failed();

  TenantOptions options_;
  const obs::Registry* stats_;
  std::mutex mutex_;

  topology::ServiceTopology topo_;
  changes::ChangeLog log_;
  std::unique_ptr<tsdb::MetricStore> store_;
  std::unique_ptr<obs::Journal> journal_;
  std::unique_ptr<core::FunnelOnline> online_;
  std::string journal_path_;
  std::FILE* meta_ = nullptr;

  TokenBucket bucket_;
  double queue_share_ = 1.0;

  /// Changes ever watched in this store's WAL history (snapshot + tail
  /// markers + journaled verdicts) — the dedup set behind idempotent
  /// re-registration.
  std::set<changes::ChangeId> watched_;
  /// (service, time, description) -> id: idempotent registration key.
  std::map<std::tuple<std::string, MinuteTime, std::string>,
           changes::ChangeId>
      change_index_;

  std::mutex report_mutex_;  ///< guards reports_ (written on dispatcher)
  std::map<changes::ChangeId, std::string> reports_;

  /// ingest()'s batch, reused across calls (the tenant lock serializes
  /// them) so a POST allocates no batch storage once warm.
  std::vector<tsdb::Sample> ingest_batch_;
  /// Per store ref: 1 once the series' server is known to topo_. Reset
  /// with topo_ and the store when a recovery fails.
  std::vector<std::uint8_t> server_known_;

  bool quarantined_ = false;
  std::string quarantine_reason_;

  std::uint64_t recovered_seq_ = 0;
  std::uint64_t applied_seq_ = 0;
  /// Journal events already in the file when this incarnation opened it
  /// (append mode after recovery). Checkpoints record journal_base_ +
  /// journal_->written() so repair_journal() keeps the full prefix.
  std::uint64_t journal_base_ = 0;
  std::uint64_t accepted_samples_ = 0;
  std::uint64_t malformed_lines_ = 0;
  std::uint64_t quota_rejections_ = 0;
  std::uint64_t busy_rejections_ = 0;
  MinuteTime max_minute_ = 0;
};

}  // namespace funnel::service
