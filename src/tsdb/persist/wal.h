// Append-only write-ahead log: the arrival-order truth of a persistent
// MetricStore.
//
// Every sample accepted by MetricStore::append (and every FunnelOnline
// watch registration, logged as a marker so replay can interleave watches
// with samples in original arrival order) becomes one WAL record, framed
//
//     [u32 len][u32 crc32c(payload)][payload: len bytes]
//
// with a strictly increasing sequence number assigned under the queue lock
// — the seq ordering IS the arrival ordering, and because upsert_at is
// first-write-wins, replaying any valid prefix of the WAL reconstructs
// exactly the store state that prefix produced (docs/STORAGE.md §2).
//
// The writer runs on the same common::GroupCommitQueue as obs::Journal: one
// writer thread group-commits — one fwrite + fflush per drained batch,
// plus an optional fsync per batch (WalDurability::kFsync) for deployments
// that want power-loss durability rather than process-crash durability.
// A batch append logs its records with one log(span) push, so one
// /v1/ingest POST is one group commit; the bytes are those of one log()
// per record. A queued record (WalEntry) borrows its sample's name from
// the store's series table instead of copying it; the frame still carries
// the name, so the file format does not know about interning.
// A torn tail (crash mid-fwrite) is expected, not corruption: read_wal()
// stops at the first record whose length or CRC does not check out,
// reports the exact valid prefix length, and recovery truncates the file
// there before reopening it for append.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/minute_time.h"
#include "obs/registry.h"
#include "tsdb/metric.h"
#include "tsdb/persist/format.h"

namespace funnel::tsdb::persist {

/// WAL format version, first payload byte of every record.
inline constexpr std::uint8_t kWalVersion = 1;

enum class WalRecordType : std::uint8_t {
  kSample = 1,  ///< one MetricStore::append arrival (value may be NaN)
  kWatch = 2,   ///< FunnelOnline::watch(change_id) registration marker
};

/// One logged arrival. `seq` is assigned by the writer at log() time and is
/// strictly increasing with no gaps within one WAL file generation.
struct WalRecord {
  WalRecordType type = WalRecordType::kSample;
  std::uint64_t seq = 0;

  // kSample payload.
  MetricId metric;
  MinuteTime minute = 0;
  double value = 0.0;

  // kWatch payload.
  std::uint64_t change_id = 0;
};

/// One queued record: a WalRecord whose sample name is borrowed. The name
/// must outlive the record's commit; a MetricStore points it at the
/// interned name, which lives as long as the store. Encodes to the bytes
/// of the WalRecord it stands for.
struct WalEntry {
  WalRecordType type = WalRecordType::kSample;
  std::uint64_t seq = 0;

  // kSample payload.
  const MetricId* metric = nullptr;
  MinuteTime minute = 0;
  double value = 0.0;

  // kWatch payload.
  std::uint64_t change_id = 0;
};

/// Serialize one record including its [len][crc] frame.
std::string encode_wal_record(const WalRecord& record);

struct WalReadResult {
  bool ok = false;  ///< file existed and opened
  std::vector<WalRecord> records;
  /// Bytes of the longest valid record prefix — recovery truncates here.
  std::uint64_t valid_bytes = 0;
  /// Bytes after the valid prefix (torn tail / corruption), counted exactly.
  std::uint64_t skipped_bytes = 0;
};

/// Read a WAL file back, tolerating a torn or corrupt tail: scanning stops
/// at the first frame whose length field, CRC or payload does not decode,
/// and everything before it is returned. A missing file is `ok == false`
/// with zero records — a legal crash window (checkpoint rotated, new WAL
/// not yet created).
WalReadResult read_wal(const std::string& path);

/// How hard log() pushes bytes toward the platter.
enum class WalDurability {
  kFlush,  ///< fwrite + fflush per batch: survives process crash (default)
  kFsync,  ///< + fsync per batch: survives power loss; ~10-100x slower
};

struct WalWriterOptions {
  std::size_t queue_capacity = 4096;  ///< clamped to >= 1
  WalDurability durability = WalDurability::kFlush;
};

/// Group-committing WAL writer: a common::GroupCommitQueue whose consumer
/// encodes each drained batch into one fwrite + fflush (obs::Journal's
/// design, binary frames instead of JSONL). log() blocks when the queue is
/// full — the WAL is the durability record, shedding is not an option.
/// flush() is the barrier: returns once everything logged before the call
/// is on disk (per the durability policy).
class WalWriter {
 public:
  /// Opens `path` for append (recovery truncates the torn tail first) and
  /// starts the writer thread. Records logged here get sequence numbers
  /// `next_seq, next_seq+1, ...`. ok() reports whether the file opened.
  WalWriter(std::string path, std::uint64_t next_seq,
            WalWriterOptions options = {});

  /// Drains, flushes, closes, joins — in every state.
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// False when the file did not open, a rotate() failed, or a batch could
  /// not be written: a failed fwrite, fflush or (under kFsync) fsync
  /// latches the writer, drops every later batch unwritten, and makes the
  /// next log() throw. A successful rotate() starts a fresh file and clears
  /// the latch.
  bool ok() const { return !failed_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }

  /// Log a batch in one queue push: each entry gets the next sequence
  /// number in span order, under the queue lock, so the file holds exactly
  /// the bytes one push per entry would write. Returns the first entry's
  /// seq. Blocks while the queue is full; a batch larger than the queue
  /// capacity waits for room chunk by chunk. Any thread. Throws
  /// StorageError when !ok(): a record that cannot be written never gets a
  /// seq. After crash_for_testing() it is a silent no-op.
  std::uint64_t log(std::span<WalEntry> entries);

  /// log() of one record that owns its name, returning its seq once the
  /// record is written: the queued entry borrows `record`'s name. Throws
  /// StorageError when the record could not be written.
  std::uint64_t log(const WalRecord& record);

  /// Barrier: returns once every record logged before the call is written
  /// and flushed (and fsynced under kFsync).
  void flush();

  /// Seq that the next log() will assign.
  std::uint64_t next_seq() const;

  /// Records written to the file so far (a failed batch counts nothing).
  std::uint64_t records_written() const;
  /// Frame bytes written to the file so far (a failed batch counts nothing).
  std::uint64_t bytes_written() const;

  /// Atomically switch the log to a new file (checkpoint rotation). Flushes
  /// and closes the current file, opens `path` truncated, continues the seq
  /// counter. Callers must quiesce producers first (MetricStore rotates
  /// under its checkpoint lock). Throws StorageError when `path` cannot be
  /// opened; ok() is then false.
  void rotate(std::string path);

  /// Simulate a crash: stop the writer thread without draining the queue
  /// and close the file mid-stream. Records still queued are lost exactly
  /// as they would be in a real kill — the replay-determinism test recovers
  /// from whatever prefix made it to disk. After this, log()/flush() are
  /// no-ops.
  void crash_for_testing();

  /// Attach a telemetry registry (null detaches): wal.records / wal.bytes /
  /// wal.batches counters, wal.queue_depth gauge.
  void set_stats(const obs::Registry* stats);

 private:
  struct Impl;
  std::string path_;
  std::atomic<bool> failed_{false};
  std::atomic<bool> crashed_{false};
  std::unique_ptr<Impl> impl_;
};

}  // namespace funnel::tsdb::persist
