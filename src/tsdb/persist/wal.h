// Append-only write-ahead log: the arrival-order truth of a persistent
// MetricStore.
//
// Every sample accepted by MetricStore::append (and every FunnelOnline
// watch registration, logged as a marker so replay can interleave watches
// with samples in original arrival order) becomes one WAL record, framed
//
//     [u32 len][u32 crc32c(payload)][payload: len bytes]
//
// with a strictly increasing sequence number assigned under the writer's
// mutex — the seq ordering IS the arrival ordering, and because upsert_at
// is first-write-wins, replaying any valid prefix of the WAL reconstructs
// exactly the store state that prefix produced (docs/STORAGE.md §2).
//
// log() commits on the calling thread: one fwrite + fflush per call, plus
// an optional fsync (WalDurability::kFsync) for deployments that want
// power-loss durability rather than process-crash durability, and it
// returns only once its records are in the file. A batch append logs its
// records with one log(span), so one /v1/ingest POST is one commit; the
// bytes are those of one log() per record. A WalEntry borrows its sample's
// name from the store's series table for the call instead of copying it;
// the frame still carries the name, so the file format does not know about
// interning.
// A torn tail (crash mid-fwrite) is expected, not corruption: read_wal()
// stops at the first record whose length or CRC does not check out,
// reports the exact valid prefix length, and recovery truncates the file
// there before reopening it for append.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
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

/// One record to log: a WalRecord whose sample name is borrowed for the
/// log() call; a MetricStore points it at the interned name. Encodes to
/// the bytes of the WalRecord it stands for.
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
  kFlush,  ///< fwrite + fflush per commit: survives process crash (default)
  kFsync,  ///< + fsync per commit: survives power loss; ~10-100x slower
};

/// WAL writer that commits on the calling thread: log() encodes its
/// records and writes them with one fwrite + fflush (+ fsync under kFsync)
/// under the writer's mutex, and returns once they are in the file. The
/// writer runs no thread.
class WalWriter {
 public:
  /// Opens `path` for append (recovery truncates the torn tail first).
  /// Records logged here get sequence numbers `next_seq, next_seq+1, ...`.
  /// ok() reports whether the file opened.
  WalWriter(std::string path, std::uint64_t next_seq,
            WalDurability durability = WalDurability::kFlush);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// False when the file did not open, a rotate() failed, or a commit
  /// failed: a failed fwrite, fflush or (under kFsync) fsync may leave a
  /// partial frame at the file's end, where recovery stops reading, so it
  /// latches the writer and every later log() throws. A successful
  /// rotate() starts a fresh file and clears the latch.
  bool ok() const;
  /// The current file; stable until the next rotate().
  const std::string& path() const { return path_; }

  /// Log a batch in one commit: each entry gets the next sequence number
  /// in span order, so the file holds exactly the bytes one log() per entry
  /// would write. Returns the first entry's seq once every entry is in the
  /// file. Any thread; concurrent callers serialize on the writer's mutex.
  /// Throws StorageError when !ok() or when the commit fails (which latches
  /// the writer); a record that is not written takes no seq. After
  /// crash_for_testing() it is a silent no-op.
  std::uint64_t log(std::span<WalEntry> entries);

  /// log() of one record that owns its name.
  std::uint64_t log(const WalRecord& record);

  /// Seq that the next log() will assign.
  std::uint64_t next_seq() const;

  /// Records and frame bytes written to the file so far (a failed commit
  /// counts nothing).
  std::uint64_t records_written() const;
  std::uint64_t bytes_written() const;

  /// Switch the log to a new file (checkpoint rotation): closes the
  /// current file, opens `path` truncated, continues the seq counter.
  /// Callers must quiesce producers first, as MetricStore::checkpoint
  /// requires of its caller. Throws StorageError when `path` cannot be
  /// opened; ok() is then false.
  void rotate(std::string path);

  /// Simulate a crash: close the file. Every logged record is already in
  /// it, as after a real kill; the replay-determinism test appends a torn
  /// frame itself. After this, log() and rotate() are no-ops.
  void crash_for_testing();

  /// Attach a telemetry registry (null detaches): wal.records / wal.bytes /
  /// wal.batches counters (one batch per commit) and the wal.commit_us
  /// histogram.
  void set_stats(const obs::Registry* stats);

 private:
  struct CloseFile {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  /// Guards the members below; path() reads path_ between rotations.
  mutable std::mutex mutex_;
  std::string path_;
  std::unique_ptr<std::FILE, CloseFile> file_;
  const WalDurability durability_;
  std::uint64_t next_seq_;
  std::string buf_;  ///< frame scratch, reused across commits
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  const obs::Registry* stats_ = nullptr;
  bool failed_ = false;
  bool crashed_ = false;
};

}  // namespace funnel::tsdb::persist
