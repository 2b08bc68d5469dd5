// The persistent half of a MetricStore: one data_dir, one WAL, a list of
// immutable segments, one checkpoint file naming exactly what is current.
//
// Directory contents (docs/STORAGE.md §4):
//   checkpoint        authoritative manifest: CRC-guarded, tmp+rename'd;
//                     names the live WAL file, the live segments (in overlay
//                     order), the WAL seq the segments cover, the journal
//                     event count, and the FunnelOnline watch snapshot
//   wal-NNNNNN.log    the live WAL (arrival-order record stream)
//   seg-NNNNNN.seg    immutable columnar segments
//   *.tmp             in-flight writes; never valid state
//
// Recovery trusts ONLY what the checkpoint references: open the listed
// segments (corruption there is fatal — StorageError), read the listed WAL
// tolerating a torn tail (truncate it to the valid prefix), delete every
// stray wal-/seg-/tmp file. That rule makes every crash window of the
// checkpoint protocol safe — a half-published segment or an already-written
// next-WAL simply does not exist until a checkpoint says so.
//
// Checkpoint protocol (caller quiesces producers first; MetricStore wraps
// this as MetricStore::checkpoint):
//   1. flush the WAL, capture the covered seq
//   2. adopt a finished background compaction, if any
//   3. write the unflushed cut of every series as a new segment (tmp+rename)
//   4. write the new checkpoint naming the NEXT WAL file (tmp+rename) —
//      this rename is the commit point
//   5. rotate the WAL to the named file; delete the old WAL and any
//      compacted-away segments
//
// Compaction runs on one background thread: it merges a snapshot of the
// current segment list into one file and parks the result; the NEXT
// checkpoint adopts it (swaps the list, deletes the inputs). The segment
// list therefore mutates only on the checkpointing thread, under a
// shared_mutex that its readers hold shared — the whole locking story is
// three lines in docs/CONCURRENCY.md.
//
// History comes back one way: MetricStore hydrates every segment-resident
// series into memory at construction (segment_metrics() + materialize()),
// then replays the WAL tail.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/minute_time.h"
#include "obs/registry.h"
#include "tsdb/metric.h"
#include "tsdb/persist/segment.h"
#include "tsdb/persist/wal.h"
#include "tsdb/series.h"

namespace funnel::tsdb::persist {

struct BackendOptions {
  std::string dir;
  std::size_t wal_queue_capacity = 4096;
  WalDurability durability = WalDurability::kFlush;
};

class PersistBackend {
 public:
  /// Opens or recovers `options.dir`. Throws StorageError when the
  /// directory cannot be created/opened or holds damage beyond the WAL's
  /// torn-tail tolerance (corrupt checkpoint, corrupt/missing segment).
  explicit PersistBackend(const BackendOptions& options);
  ~PersistBackend();

  PersistBackend(const PersistBackend&) = delete;
  PersistBackend& operator=(const PersistBackend&) = delete;

  // --- Recovery products (fixed at construction) -------------------------

  /// WAL records found after the last checkpoint, in arrival (seq) order.
  const std::vector<WalRecord>& recovered_tail() const { return tail_; }
  /// Seq covered by the segments (records <= this are already flushed).
  std::uint64_t checkpoint_seq() const { return checkpoint_seq_; }
  /// FunnelOnline watch snapshot stored by the last checkpoint.
  const std::string& recovered_watch_state() const { return watch_state_; }
  /// Verdict-journal event count recorded by the last checkpoint.
  std::uint64_t recovered_journal_events() const { return journal_events_; }
  /// Torn-tail bytes truncated off the recovered WAL.
  std::uint64_t recovered_wal_skipped_bytes() const { return wal_skipped_; }

  // --- Hydration (segment-resident history) ------------------------------

  /// Metrics present in any segment, ordered.
  std::vector<MetricId> segment_metrics() const;
  /// One metric's history: the segments overlaid in ascending order, so the
  /// newest value of a minute wins, over [lowest lo, highest hi) with NaN
  /// where no segment holds a sample. Empty when no segment holds it.
  TimeSeries materialize(const MetricId& id) const;

  // --- Runtime ------------------------------------------------------------

  /// Append sample records to the WAL in one group-commit push; returns the
  /// first seq. Each entry's name must outlive its commit. Any thread.
  std::uint64_t log_records(std::span<WalEntry> entries);
  /// Append one watch-registration marker; returns its seq. Any thread.
  std::uint64_t log_watch(std::uint64_t change_id);
  /// WAL durability barrier.
  void flush_wal();

  /// Record a late fill so the next checkpoint re-flushes from `t` — the
  /// source of overlapping segments (and the reason compaction exists).
  void note_dirty(const MetricId& id, MinuteTime t);

  /// First minute of `id` the next checkpoint must flush, given the series
  /// starts at `series_start`: its flush frontier, lowered by dirty marks.
  MinuteTime flush_cut(const MetricId& id, MinuteTime series_start) const;

  /// Run the checkpoint protocol (steps 1-5 above). `columns` is the
  /// unflushed cut, sorted by metric. Producers must be quiesced; see
  /// MetricStore::checkpoint for the caller-facing contract.
  void commit_checkpoint(std::vector<SegmentColumn> columns,
                         std::string watch_state,
                         std::uint64_t journal_events);

  /// Abandon the WAL queue and stop without draining — the simulated kill
  /// behind the replay-determinism test. After this, log/checkpoint no-op.
  void crash_for_testing();

  /// Telemetry (null detaches): wal.* from the writer, plus
  /// funnel.persist.checkpoints / segments_written / segment_bytes /
  /// compactions counters and a funnel.persist.segments gauge.
  void set_stats(const obs::Registry* stats);

  // --- Introspection (tests, bench) ---------------------------------------

  std::uint64_t wal_records_written() const { return wal_->records_written(); }
  std::uint64_t wal_bytes_written() const { return wal_->bytes_written(); }
  std::size_t segment_count() const;
  std::uint64_t compactions() const;
  const std::string& dir() const { return dir_; }

 private:
  struct CompactionResult {
    std::string path;
    std::size_t replaced;  ///< prefix length of the list it merged
  };

  void recover(const BackendOptions& options);
  void compaction_main();
  void maybe_kick_compaction_locked();
  std::string wal_path(std::uint64_t counter) const;
  std::string segment_path(std::uint64_t epoch) const;

  std::string dir_;

  // Recovery products.
  std::vector<WalRecord> tail_;
  std::uint64_t checkpoint_seq_ = 0;
  std::string watch_state_;
  std::uint64_t journal_events_ = 0;
  std::uint64_t wal_skipped_ = 0;

  // Live segment list in overlay (ascending-age) order. Mutated only inside
  // commit_checkpoint, under unique lock; readers hold shared.
  mutable std::shared_mutex segments_mutex_;
  std::vector<std::unique_ptr<SegmentReader>> segments_;

  // Flush frontiers + dirty marks (state_mutex_). flushed_hi_ is rebuilt
  // from segment footers at recovery.
  mutable std::mutex state_mutex_;
  std::map<MetricId, MinuteTime> flushed_hi_;
  std::map<MetricId, MinuteTime> dirty_low_;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t wal_counter_ = 1;
  bool crashed_ = false;

  std::unique_ptr<WalWriter> wal_;

  // Compaction worker: one job at a time, result parked for adoption.
  mutable std::mutex compact_mutex_;
  std::condition_variable compact_cv_;
  std::vector<const SegmentReader*> compact_job_;  ///< empty = no job
  std::uint64_t compact_epoch_ = 0;
  std::optional<CompactionResult> compact_result_;
  std::uint64_t compactions_done_ = 0;
  bool compact_stop_ = false;
  std::thread compact_thread_;  ///< last started, first joined

  std::atomic<const obs::Registry*> stats_{nullptr};
};

}  // namespace funnel::tsdb::persist
