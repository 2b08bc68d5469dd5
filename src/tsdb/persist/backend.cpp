#include "tsdb/persist/backend.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

namespace funnel::tsdb::persist {

namespace fs = std::filesystem;

namespace {

constexpr char kCheckpointMagic[8] = {'F', 'N', 'L', 'C', 'K', 'P', '1', '\0'};
constexpr std::uint8_t kCheckpointVersion = 1;
constexpr char kCheckpointName[] = "checkpoint";

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
    : dir_(options.dir), compact_threshold_(options.compact_threshold) {
  recover(options);
  compact_thread_ = std::thread([this] { compaction_main(); });
}

PersistBackend::~PersistBackend() {
  {
    std::lock_guard lock(compact_mutex_);
    compact_stop_ = true;
    compact_cv_.notify_all();
  }
  if (compact_thread_.joinable()) compact_thread_.join();
  // An unadopted compaction output is a stray; recovery would delete it
  // anyway, but be tidy.
  if (compact_result_.has_value()) {
    std::error_code ec;
    fs::remove(compact_result_->path, ec);
  }
  wal_.reset();
}

std::string PersistBackend::wal_path(std::uint64_t counter) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06llu.log",
                static_cast<unsigned long long>(counter));
  return dir_ + "/" + name;
}

std::string PersistBackend::segment_path(std::uint64_t epoch) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.seg",
                static_cast<unsigned long long>(epoch));
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
  // ctor throws StorageError on any damage, which is fatal here.
  for (const std::string& name : ckpt.segment_files) {
    segments_.push_back(std::make_unique<SegmentReader>(dir_ + "/" + name));
    for (const auto& e : segments_.back()->entries()) {
      auto [it, fresh] = flushed_hi_.try_emplace(e.metric, e.hi);
      if (!fresh) it->second = std::max(it->second, e.hi);
    }
  }

  // Read the referenced WAL, tolerate (and truncate) a torn tail. A missing
  // file is the crash-between-checkpoint-and-rotate window: empty tail.
  const std::string wal_file = dir_ + "/" + ckpt.wal_file;
  WalReadResult wal = read_wal(wal_file);
  wal_skipped_ = wal.skipped_bytes;
  if (wal.ok && wal.skipped_bytes > 0) {
    fs::resize_file(wal_file, wal.valid_bytes, ec);
    if (ec) throw StorageError("cannot truncate torn WAL: " + wal_file);
  }
  std::uint64_t last_seq = checkpoint_seq_;
  for (WalRecord& rec : wal.records) {
    // Defensive: a record at or below the checkpoint seq is already in the
    // segments (cannot happen with the rotation protocol, but replaying it
    // would be harmless anyway — upsert_at is first-write-wins).
    if (rec.seq <= checkpoint_seq_) continue;
    last_seq = std::max(last_seq, rec.seq);
    tail_.push_back(std::move(rec));
  }

  // Delete strays: anything with our prefixes that the checkpoint does not
  // reference. Half-published tmp files, pre-crash WAL generations, written-
  // but-never-adopted segments — none of them is current state.
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

  WalWriterOptions wopts;
  wopts.queue_capacity = options.wal_queue_capacity;
  wopts.durability = options.durability;
  wal_ = std::make_unique<WalWriter>(wal_file, last_seq + 1, wopts);
  if (!wal_->ok()) throw StorageError("cannot open WAL: " + wal_file);
}

// ---------------------------------------------------------------------------
// Cold reads.

bool PersistBackend::has_cold(const MetricId& id) const {
  std::shared_lock lock(segments_mutex_);
  for (const auto& seg : segments_) {
    if (seg->find(id) != nullptr) return true;
  }
  return false;
}

std::vector<MetricId> PersistBackend::cold_metrics() const {
  std::vector<MetricId> out;
  {
    std::shared_lock lock(segments_mutex_);
    for (const auto& seg : segments_) {
      for (const auto& e : seg->entries()) out.push_back(e.metric);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<std::pair<MinuteTime, MinuteTime>> PersistBackend::cold_bounds(
    const MetricId& id) const {
  std::shared_lock lock(segments_mutex_);
  std::optional<std::pair<MinuteTime, MinuteTime>> bounds;
  for (const auto& seg : segments_) {
    if (const auto* e = seg->find(id)) {
      if (!bounds.has_value()) {
        bounds = {e->lo, e->hi};
      } else {
        bounds->first = std::min(bounds->first, e->lo);
        bounds->second = std::max(bounds->second, e->hi);
      }
    }
  }
  return bounds;
}

void PersistBackend::fill_window(const MetricId& id, MinuteTime t0,
                                 MinuteTime t1, std::span<double> out) const {
  std::shared_lock lock(segments_mutex_);
  for (const auto& seg : segments_) {
    if (const auto* e = seg->find(id)) {
      const MinuteTime lo = std::max(t0, e->lo);
      const MinuteTime hi = std::min(t1, e->hi);
      if (lo < hi) seg->read_into(*e, t0, t1, out);
    }
  }
}

TimeSeries PersistBackend::materialize(const MetricId& id,
                                       const TimeSeries* hot) const {
  const auto bounds = cold_bounds(id);
  const bool have_hot = hot != nullptr && !hot->empty();
  if (!bounds.has_value() && !have_hot) return TimeSeries{};

  MinuteTime lo = bounds ? bounds->first
                         : hot->start_time();
  MinuteTime hi = bounds ? bounds->second : hot->end_time();
  if (have_hot) {
    lo = std::min(lo, hot->start_time());
    hi = std::max(hi, hot->end_time());
  }

  std::vector<double> dense(static_cast<std::size_t>(hi - lo),
                            std::numeric_limits<double>::quiet_NaN());
  if (bounds.has_value()) fill_window(id, lo, hi, dense);
  if (have_hot) {
    // Finite hot samples overlay the segments (they are newer); hot NaN
    // holes keep whatever the segments hold — a hole means "no tail record
    // for this minute", not "tail recorded a gap over flushed data"
    // (upsert_at never turns a finite sample back into NaN).
    const std::span<const double> hv = hot->values();
    const auto off = static_cast<std::size_t>(hot->start_time() - lo);
    for (std::size_t i = 0; i < hv.size(); ++i) {
      if (!std::isnan(hv[i])) dense[off + i] = hv[i];
    }
  }
  return TimeSeries(lo, std::move(dense));
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

void PersistBackend::flush_wal() { wal_->flush(); }

void PersistBackend::note_dirty(const MetricId& id, MinuteTime t) {
  std::lock_guard lock(state_mutex_);
  auto [it, fresh] = dirty_low_.try_emplace(id, t);
  if (!fresh) it->second = std::min(it->second, t);
}

MinuteTime PersistBackend::flush_cut(const MetricId& id,
                                     MinuteTime series_start) const {
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

  // 1. Everything logged so far must be durable before any segment claims
  //    to cover it — the write-ahead invariant.
  wal_->flush();
  const std::uint64_t covered_seq = wal_->next_seq() - 1;

  // 2. Adopt a finished compaction: swap the merged reader in for the
  //    prefix it replaced. Only this thread ever mutates the list.
  std::vector<std::string> doomed;
  std::optional<CompactionResult> adopted;
  {
    std::lock_guard lock(compact_mutex_);
    if (compact_result_.has_value()) {
      adopted = std::move(compact_result_);
      compact_result_.reset();
    }
  }
  if (adopted.has_value()) {
    auto merged = std::make_unique<SegmentReader>(adopted->path);
    std::unique_lock lock(segments_mutex_);
    for (std::size_t i = 0; i < adopted->replaced; ++i) {
      doomed.push_back(segments_[i]->path());
    }
    segments_.erase(segments_.begin(),
                    segments_.begin() + static_cast<std::ptrdiff_t>(
                                            adopted->replaced));
    segments_.insert(segments_.begin(), std::move(merged));
  }

  // 3. Freeze the unflushed cut into a new segment.
  std::uint64_t new_epoch = 0;
  if (!columns.empty()) {
    {
      std::lock_guard lock(state_mutex_);
      new_epoch = next_epoch_++;
    }
    const std::string path = segment_path(new_epoch);
    const std::uint64_t bytes = write_segment(path, new_epoch, columns);
    auto reader = std::make_unique<SegmentReader>(path);
    {
      std::unique_lock lock(segments_mutex_);
      segments_.push_back(std::move(reader));
    }
    if (const obs::Registry* reg = stats_.load(std::memory_order_relaxed)) {
      reg->add("funnel.persist.segments_written");
      reg->add("funnel.persist.segment_bytes", bytes);
    }
  }

  // 4. Commit: the checkpoint names the new state including the NEXT WAL
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
  {
    std::shared_lock lock(segments_mutex_);
    for (const auto& seg : segments_) {
      ckpt.segment_files.push_back(
          fs::path(seg->path()).filename().string());
    }
  }
  ckpt.watch_state = std::move(watch_state);
  AtomicFileWriter out(dir_ + "/" + kCheckpointName);
  out.write(encode_checkpoint(ckpt));
  out.publish();

  // 5. Roll forward: new WAL, drop the old one and compacted-away files.
  wal_->rotate(wal_path(ckpt.wal_counter));
  std::error_code ec;
  fs::remove(old_wal, ec);
  for (const std::string& path : doomed) fs::remove(path, ec);

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
    reg->set("funnel.persist.segments", static_cast<double>(segment_count()));
  }

  // Kick compaction when the list got long; the result lands at the NEXT
  // checkpoint.
  std::lock_guard lock(compact_mutex_);
  maybe_kick_compaction_locked();
}

void PersistBackend::maybe_kick_compaction_locked() {
  if (compact_threshold_ == 0) return;
  if (!compact_job_.empty() || compact_result_.has_value()) return;
  std::shared_lock lock(segments_mutex_);
  if (segments_.size() < compact_threshold_) return;
  for (const auto& seg : segments_) compact_job_.push_back(seg.get());
  {
    std::lock_guard slock(state_mutex_);
    compact_epoch_ = next_epoch_++;
  }
  compact_cv_.notify_one();
}

void PersistBackend::compaction_main() {
  for (;;) {
    std::vector<const SegmentReader*> job;
    std::uint64_t epoch = 0;
    {
      std::unique_lock lock(compact_mutex_);
      compact_cv_.wait(lock,
                       [&] { return compact_stop_ || !compact_job_.empty(); });
      if (compact_stop_) return;
      job = compact_job_;
      epoch = compact_epoch_;
    }

    // The inputs are immutable files whose readers stay alive until a
    // checkpoint adopts this result (adoption is the only path that erases
    // readers, and it cannot run before the result exists), so reading them
    // lock-free here is safe.
    const std::vector<SegmentColumn> merged = merge_segments(job);
    const std::string path = segment_path(epoch);
    bool ok = true;
    try {
      write_segment(path, epoch, merged);
    } catch (const StorageError&) {
      ok = false;  // disk trouble: drop the job, segments stay un-compacted
    }

    {
      std::lock_guard lock(compact_mutex_);
      compact_job_.clear();
      if (ok) {
        compact_result_ = CompactionResult{path, job.size()};
        ++compactions_done_;
      }
    }
    if (ok) {
      if (const obs::Registry* reg = stats_.load(std::memory_order_relaxed)) {
        reg->add("funnel.persist.compactions");
      }
    }
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
  std::lock_guard lock(compact_mutex_);
  return compactions_done_;
}

}  // namespace funnel::tsdb::persist
