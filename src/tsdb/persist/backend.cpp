#include "tsdb/persist/backend.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

namespace funnel::tsdb::persist {

namespace fs = std::filesystem;

namespace {

constexpr char kCheckpointMagic[8] = {'F', 'N', 'L', 'C', 'K', 'P', '1', '\0'};
constexpr std::uint8_t kCheckpointVersion = 1;
constexpr char kCheckpointName[] = "checkpoint";
/// A checkpoint whose segment would bring the live list to this many files
/// compacts: it writes the whole store and replaces the list.
constexpr std::size_t kCompactThreshold = 4;

std::string segment_name(std::uint64_t epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.seg",
                static_cast<unsigned long long>(epoch));
  return name;
}

struct CheckpointState {
  std::uint64_t next_epoch = 1;
  std::uint64_t wal_counter = 1;
  std::uint64_t checkpoint_seq = 0;
  std::uint64_t journal_events = 0;
  std::string wal_file;
  std::vector<std::string> segment_files;  ///< overlay order
  std::string watch_state;
};

std::string encode_checkpoint(const CheckpointState& s) {
  std::string payload;
  put_u8(payload, kCheckpointVersion);
  put_u64(payload, s.next_epoch);
  put_u64(payload, s.wal_counter);
  put_u64(payload, s.checkpoint_seq);
  put_u64(payload, s.journal_events);
  put_str(payload, s.wal_file);
  put_u32(payload, static_cast<std::uint32_t>(s.segment_files.size()));
  for (const std::string& f : s.segment_files) put_str(payload, f);
  put_u32(payload, static_cast<std::uint32_t>(s.watch_state.size()));
  payload += s.watch_state;

  std::string out;
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32c(payload));
  out += payload;
  return out;
}

bool decode_checkpoint(const std::string& bytes, CheckpointState& out) {
  constexpr std::size_t kHeader = sizeof(kCheckpointMagic) + 8;
  if (bytes.size() < kHeader) return false;
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return false;
  }
  ByteReader hdr(bytes.data() + sizeof(kCheckpointMagic), 8);
  const std::uint32_t len = hdr.get_u32();
  const std::uint32_t crc = hdr.get_u32();
  if (kHeader + len != bytes.size()) return false;
  const std::string_view payload(bytes.data() + kHeader, len);
  if (crc32c(payload) != crc) return false;

  ByteReader r(payload);
  if (r.get_u8() != kCheckpointVersion) return false;
  CheckpointState s;
  s.next_epoch = r.get_u64();
  s.wal_counter = r.get_u64();
  s.checkpoint_seq = r.get_u64();
  s.journal_events = r.get_u64();
  s.wal_file = r.get_str();
  const std::uint32_t n_segments = r.get_u32();
  for (std::uint32_t i = 0; r.ok() && i < n_segments; ++i) {
    s.segment_files.push_back(r.get_str());
  }
  const std::uint32_t watch_len = r.get_u32();
  if (!r.ok() || r.remaining() != watch_len) return false;
  s.watch_state.resize(watch_len);
  for (std::uint32_t i = 0; i < watch_len; ++i) {
    s.watch_state[i] = static_cast<char>(r.get_u8());
  }
  if (!r.ok()) return false;
  out = std::move(s);
  return true;
}

}  // namespace

PersistBackend::PersistBackend(const BackendOptions& options)
    : dir_(options.dir) {
  recover(options);
}

std::string PersistBackend::wal_path(std::uint64_t counter) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06llu.log",
                static_cast<unsigned long long>(counter));
  return dir_ + "/" + name;
}

void PersistBackend::recover(const BackendOptions& options) {
  // The dir must exist (or be creatable) and actually be a directory — a
  // file in the way is the "unopenable" half of the exit-3 contract.
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw StorageError("cannot open data dir: " + dir_);
  }

  CheckpointState ckpt;
  const std::string ckpt_path = dir_ + "/" + kCheckpointName;
  if (fs::exists(ckpt_path)) {
    std::ifstream in(ckpt_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) {
      throw StorageError("cannot read checkpoint: " + ckpt_path);
    }
    if (!decode_checkpoint(bytes, ckpt)) {
      // Unlike a torn WAL tail this is not a survivable crash signature:
      // the checkpoint is written tmp+rename, so a damaged one means real
      // corruption and silently starting fresh would discard data.
      throw StorageError("corrupt checkpoint: " + ckpt_path);
    }
  } else {
    ckpt.wal_file =
        fs::path(wal_path(ckpt.wal_counter)).filename().string();
  }
  next_epoch_ = ckpt.next_epoch;
  wal_counter_ = ckpt.wal_counter;
  checkpoint_seq_ = ckpt.checkpoint_seq;
  journal_events_ = ckpt.journal_events;
  watch_state_ = std::move(ckpt.watch_state);

  // Open the referenced segments in checkpoint (overlay) order; the reader
  // ctor throws StorageError on any damage, which is fatal here. They stay
  // open only until the history below is built.
  std::vector<std::unique_ptr<SegmentReader>> readers;
  for (const std::string& name : ckpt.segment_files) {
    readers.push_back(std::make_unique<SegmentReader>(dir_ + "/" + name));
    for (const auto& e : readers.back()->entries()) {
      auto [it, fresh] = flushed_hi_.try_emplace(e.metric, e.hi);
      if (!fresh) it->second = std::max(it->second, e.hi);
    }
  }
  segments_ = ckpt.segment_files;

  // Read the referenced WAL, tolerate (and truncate) a torn tail. A missing
  // file is the crash-between-checkpoint-and-rotate window: empty tail. The
  // block frees the read's record vector before the history below is
  // built, which keeps it out of a reopen's peak footprint.
  const std::string wal_file = dir_ + "/" + ckpt.wal_file;
  std::uint64_t last_seq = checkpoint_seq_;
  {
    WalReadResult wal = read_wal(wal_file);
    wal_skipped_ = wal.skipped_bytes;
    if (wal.ok && wal.skipped_bytes > 0) {
      fs::resize_file(wal_file, wal.valid_bytes, ec);
      if (ec) throw StorageError("cannot truncate torn WAL: " + wal_file);
    }
    for (WalRecord& rec : wal.records) {
      // Defensive: a record at or below the checkpoint seq is already in
      // the segments (cannot happen with the rotation protocol, but
      // replaying it would be harmless anyway — upsert_at is
      // first-write-wins).
      if (rec.seq <= checkpoint_seq_) continue;
      last_seq = std::max(last_seq, rec.seq);
      tail_.push_back(std::move(rec));
    }
  }

  // Delete strays: anything with our prefixes that the checkpoint does not
  // reference. Half-published tmp files, pre-crash WAL generations, written-
  // but-never-committed segments — none of them is current state.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const bool ours = name.ends_with(".tmp") ||
                      (name.starts_with("wal-") && name.ends_with(".log")) ||
                      (name.starts_with("seg-") && name.ends_with(".seg"));
    if (!ours) continue;
    const bool referenced =
        name == ckpt.wal_file ||
        std::find(ckpt.segment_files.begin(), ckpt.segment_files.end(),
                  name) != ckpt.segment_files.end();
    if (!referenced) fs::remove(entry.path(), ec);
  }

  wal_ = std::make_unique<WalWriter>(wal_file, last_seq + 1,
                                     options.durability);
  if (!wal_->ok()) throw StorageError("cannot open WAL: " + wal_file);

  // The history: every segment metric (flushed_hi_'s keys, in metric
  // order) over the union of its ranges, its segments overlaid oldest
  // first. The readers close when recover() returns.
  std::vector<std::pair<const SegmentReader*, const SegmentReader::Entry*>>
      found;
  for (const auto& [id, hi] : flushed_hi_) {
    found.clear();
    MinuteTime lo = hi;
    for (const auto& seg : readers) {
      if (const auto* e = seg->find(id)) {
        lo = std::min(lo, e->lo);
        found.emplace_back(seg.get(), e);
      }
    }
    std::vector<double> dense(static_cast<std::size_t>(hi - lo),
                              std::numeric_limits<double>::quiet_NaN());
    for (const auto& [seg, e] : found) seg->read_into(*e, lo, hi, dense);
    history_.emplace_back(id, TimeSeries(lo, std::move(dense)));
  }
}

// ---------------------------------------------------------------------------
// Runtime.

std::uint64_t PersistBackend::log_records(std::span<WalEntry> entries) {
  return wal_->log(entries);
}

std::uint64_t PersistBackend::log_watch(std::uint64_t change_id) {
  WalEntry entry;
  entry.type = WalRecordType::kWatch;
  entry.change_id = change_id;
  return wal_->log(std::span<WalEntry>(&entry, 1));
}

void PersistBackend::note_dirty(const MetricId& id, MinuteTime t) {
  std::lock_guard lock(state_mutex_);
  auto [it, fresh] = dirty_low_.try_emplace(id, t);
  if (!fresh) it->second = std::min(it->second, t);
}

bool PersistBackend::compacts_next() const {
  std::shared_lock lock(segments_mutex_);
  return segments_.size() + 1 >= kCompactThreshold;
}

MinuteTime PersistBackend::flush_cut(const MetricId& id,
                                     MinuteTime series_start) const {
  if (compacts_next()) return series_start;
  std::lock_guard lock(state_mutex_);
  MinuteTime lo = series_start;
  if (const auto it = flushed_hi_.find(id); it != flushed_hi_.end()) {
    lo = std::max(series_start, it->second);
  }
  if (const auto it = dirty_low_.find(id); it != dirty_low_.end()) {
    lo = std::min(lo, std::max(series_start, it->second));
  }
  return lo;
}

void PersistBackend::commit_checkpoint(std::vector<SegmentColumn> columns,
                                       std::string watch_state,
                                       std::uint64_t journal_events) {
  {
    std::lock_guard lock(state_mutex_);
    if (crashed_) return;
  }

  // 1. The write-ahead invariant: every record logged so far is already in
  //    the WAL file (log() returns only then), so the segment may cover it.
  const std::uint64_t covered_seq = wal_->next_seq() - 1;

  // 2. Freeze the cut into a new segment. A compacting cut is the whole
  //    store, so its segment alone is the next list.
  const bool compacting = compacts_next();
  std::vector<std::string> live;
  if (!compacting) {
    std::shared_lock lock(segments_mutex_);
    live = segments_;
  }
  if (!columns.empty()) {
    std::uint64_t new_epoch = 0;
    {
      std::lock_guard lock(state_mutex_);
      new_epoch = next_epoch_++;
    }
    live.push_back(segment_name(new_epoch));
    const std::string path = dir_ + "/" + live.back();
    const std::uint64_t bytes = write_segment(path, new_epoch, columns);
    const SegmentReader written(path);  // checks its trailer and footer CRC
    if (const obs::Registry* reg = stats_.load(std::memory_order_relaxed)) {
      reg->add("funnel.persist.segments_written");
      reg->add("funnel.persist.segment_bytes", bytes);
    }
  }

  // 3. Commit: the checkpoint names the new state including the NEXT WAL
  //    file; the tmp+rename is the atomic commit point.
  CheckpointState ckpt;
  const std::string old_wal = wal_->path();
  {
    std::lock_guard lock(state_mutex_);
    ckpt.wal_counter = ++wal_counter_;
    ckpt.next_epoch = next_epoch_;
  }
  ckpt.checkpoint_seq = covered_seq;
  ckpt.journal_events = journal_events;
  ckpt.wal_file = fs::path(wal_path(ckpt.wal_counter)).filename().string();
  ckpt.segment_files = live;
  ckpt.watch_state = std::move(watch_state);
  try {
    AtomicFileWriter out(dir_ + "/" + kCheckpointName);
    out.write(encode_checkpoint(ckpt));
    out.publish();
  } catch (const StorageError&) {
    // No checkpoint names the new segment: remove it now rather than leave
    // it on disk until the next recovery's stray sweep.
    std::error_code ec;
    if (!columns.empty()) fs::remove(dir_ + "/" + live.back(), ec);
    throw;
  }

  std::vector<std::string> replaced;
  {
    std::unique_lock lock(segments_mutex_);
    if (compacting) {
      replaced = std::move(segments_);
      ++compactions_done_;
    }
    segments_ = std::move(live);
  }

  // 4. Roll forward: new WAL, drop the old one and the replaced segments.
  wal_->rotate(wal_path(ckpt.wal_counter));
  std::error_code ec;
  fs::remove(old_wal, ec);
  for (const std::string& name : replaced) fs::remove(dir_ + "/" + name, ec);

  {
    std::lock_guard lock(state_mutex_);
    for (const SegmentColumn& col : columns) {
      auto [it, fresh] = flushed_hi_.try_emplace(col.metric, col.hi);
      if (!fresh) it->second = std::max(it->second, col.hi);
      dirty_low_.erase(col.metric);
    }
  }

  if (const obs::Registry* reg = stats_.load(std::memory_order_relaxed)) {
    reg->add("funnel.persist.checkpoints");
    if (compacting) reg->add("funnel.persist.compactions");
    reg->set("funnel.persist.segments", static_cast<double>(segment_count()));
  }
}

void PersistBackend::crash_for_testing() {
  {
    std::lock_guard lock(state_mutex_);
    crashed_ = true;
  }
  wal_->crash_for_testing();
}

void PersistBackend::set_stats(const obs::Registry* stats) {
  stats_.store(stats, std::memory_order_relaxed);
  wal_->set_stats(stats);
}

std::size_t PersistBackend::segment_count() const {
  std::shared_lock lock(segments_mutex_);
  return segments_.size();
}

std::uint64_t PersistBackend::compactions() const {
  std::shared_lock lock(segments_mutex_);
  return compactions_done_;
}

}  // namespace funnel::tsdb::persist
