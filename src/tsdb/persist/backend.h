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
// stray wal-/seg-/tmp file, then overlay each metric's segments into one
// in-memory series and close them. That rule makes every crash window of
// the checkpoint protocol safe — a half-published segment or an
// already-written next-WAL simply does not exist until a checkpoint says so.
//
// Checkpoint protocol (caller quiesces producers first; MetricStore wraps
// this as MetricStore::checkpoint):
//   1. capture the covered seq: every logged record is already written
//   2. write the unflushed cut of every series as a new segment (tmp+rename)
//   3. write the new checkpoint naming the NEXT WAL file (tmp+rename) —
//      this rename is the commit point
//   4. rotate the WAL to the named file; delete the old WAL and the
//      segments a compacting checkpoint replaced
//
// Compaction is a checkpoint: one taken while the live list holds
// kCompactThreshold - 1 segments cuts every series from its first minute
// (flush_cut), so its segment holds the whole store and becomes the only
// live one. The list mutates only on the checkpointing thread; the backend
// runs no thread of its own.
//
// History comes back one way: MetricStore adopts the recovered series
// (take_history()) at construction, then replays the WAL tail. No segment
// is read after that.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
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
  WalDurability durability = WalDurability::kFlush;
};

class PersistBackend {
 public:
  /// Opens or recovers `options.dir`. Throws StorageError when the
  /// directory cannot be created/opened or holds damage beyond the WAL's
  /// torn-tail tolerance (corrupt checkpoint, corrupt/missing segment).
  explicit PersistBackend(const BackendOptions& options);

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
  /// Every segment-resident series, ordered by metric: its segments
  /// overlaid oldest first, so the newest value of a minute wins, over
  /// [lowest lo, highest hi) with NaN where no segment holds a sample.
  /// Moved out: the first call gets it all, later calls nothing.
  std::vector<std::pair<MetricId, TimeSeries>> take_history() {
    return std::exchange(history_, {});
  }

  // --- Runtime ------------------------------------------------------------

  /// Append sample records to the WAL in one commit; returns the first seq
  /// once they are written. Throws StorageError when they are not (see
  /// WalWriter::log). Any thread.
  std::uint64_t log_records(std::span<WalEntry> entries);
  /// Append one watch-registration marker; returns its seq. Any thread.
  std::uint64_t log_watch(std::uint64_t change_id);

  /// Record a late fill so the next checkpoint re-flushes from `t` — the
  /// source of overlapping segments.
  void note_dirty(const MetricId& id, MinuteTime t);

  /// First minute of `id` the next checkpoint must flush, given the series
  /// starts at `series_start`: its flush frontier, lowered by dirty marks —
  /// or `series_start` itself when the next checkpoint compacts.
  MinuteTime flush_cut(const MetricId& id, MinuteTime series_start) const;

  /// Run the checkpoint protocol (steps 1-4 above). `columns` is the cut
  /// flush_cut() asked for, sorted by metric; when it compacts, the new
  /// segment replaces the live list. Producers must be quiesced; see
  /// MetricStore::checkpoint for the caller-facing contract.
  void commit_checkpoint(std::vector<SegmentColumn> columns,
                         std::string watch_state,
                         std::uint64_t journal_events);

  /// Close the WAL and stop persisting — the simulated kill behind the
  /// replay-determinism test. After this, log/checkpoint no-op.
  void crash_for_testing();

  /// Telemetry (null detaches): wal.* from the writer, plus
  /// funnel.persist.checkpoints / segments_written / segment_bytes /
  /// compactions counters and a funnel.persist.segments gauge.
  void set_stats(const obs::Registry* stats);

  // --- Introspection (tests, bench) ---------------------------------------

  std::uint64_t wal_records_written() const { return wal_->records_written(); }
  std::uint64_t wal_bytes_written() const { return wal_->bytes_written(); }
  std::size_t segment_count() const;
  /// Compacting checkpoints committed by this backend.
  std::uint64_t compactions() const;
  const std::string& dir() const { return dir_; }

 private:
  void recover(const BackendOptions& options);
  /// True when the next checkpoint replaces the live list.
  bool compacts_next() const;
  std::string wal_path(std::uint64_t counter) const;

  std::string dir_;

  // Recovery products.
  std::vector<WalRecord> tail_;
  std::uint64_t checkpoint_seq_ = 0;
  std::string watch_state_;
  std::uint64_t journal_events_ = 0;
  std::uint64_t wal_skipped_ = 0;
  std::vector<std::pair<MetricId, TimeSeries>> history_;

  // Live segment file names in overlay (ascending-age) order, and the
  // compacting checkpoints committed. Mutated only inside
  // commit_checkpoint, under unique lock; readers hold shared.
  mutable std::shared_mutex segments_mutex_;
  std::vector<std::string> segments_;
  std::uint64_t compactions_done_ = 0;

  // Flush frontiers + dirty marks (state_mutex_). flushed_hi_ is rebuilt
  // from segment footers at recovery.
  mutable std::mutex state_mutex_;
  std::map<MetricId, MinuteTime> flushed_hi_;
  std::map<MetricId, MinuteTime> dirty_low_;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t wal_counter_ = 1;
  bool crashed_ = false;

  std::unique_ptr<WalWriter> wal_;

  std::atomic<const obs::Registry*> stats_{nullptr};
};

}  // namespace funnel::tsdb::persist
