#include "tsdb/persist/wal.h"

#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#ifdef __unix__
#include <unistd.h>
#endif

namespace funnel::tsdb::persist {

namespace {

// Frame header: u32 payload length + u32 payload CRC32C.
constexpr std::size_t kFrameHeader = 8;
// A record payload is a handful of fixed fields plus two short strings;
// anything bigger than this is torn-tail garbage, not a record.
constexpr std::uint32_t kMaxPayload = 1 << 20;

// Append one framed record to `out`: the frame is sized first, then every
// field is stored in place and the payload's length and CRC32C written into
// the header. The one frame encoder behind log() and encode_wal_record().
void append_frame(std::string& out, const WalEntry& r) {
  std::size_t len = 1 + 1 + 8;  // version, type, seq
  switch (r.type) {
    case WalRecordType::kSample:
      len += 1 + 2 + r.metric->entity.size() + 2 + r.metric->kpi.size() + 8 +
             8;  // kind, entity, kpi, minute, value
      break;
    case WalRecordType::kWatch:
      len += 8;  // change id
      break;
  }
  const std::size_t head = out.size();
  out.resize(head + kFrameHeader + len);
  char* const payload = out.data() + head + kFrameHeader;
  char* p = payload;
  *p++ = static_cast<char>(kWalVersion);
  *p++ = static_cast<char>(r.type);
  p = store_le(p, r.seq);
  switch (r.type) {
    case WalRecordType::kSample:
      *p++ = static_cast<char>(r.metric->kind);
      p = store_str(p, r.metric->entity);
      p = store_str(p, r.metric->kpi);
      p = store_le(p, static_cast<std::uint64_t>(r.minute));
      store_le(p, std::bit_cast<std::uint64_t>(r.value));
      break;
    case WalRecordType::kWatch:
      store_le(p, r.change_id);
      break;
  }
  char* const header = out.data() + head;
  store_le(header, static_cast<std::uint32_t>(len));
  store_le(header + 4, crc32c(payload, len));
}

bool decode_payload(std::string_view payload, WalRecord& out) {
  ByteReader r(payload);
  if (r.get_u8() != kWalVersion) return false;
  const std::uint8_t type = r.get_u8();
  WalRecord rec;
  rec.seq = r.get_u64();
  switch (type) {
    case static_cast<std::uint8_t>(WalRecordType::kSample): {
      rec.type = WalRecordType::kSample;
      const std::uint8_t kind = r.get_u8();
      if (kind > static_cast<std::uint8_t>(EntityKind::kService)) return false;
      rec.metric.kind = static_cast<EntityKind>(kind);
      rec.metric.entity = r.get_str();
      rec.metric.kpi = r.get_str();
      rec.minute = r.get_i64();
      rec.value = r.get_f64();
      break;
    }
    case static_cast<std::uint8_t>(WalRecordType::kWatch):
      rec.type = WalRecordType::kWatch;
      rec.change_id = r.get_u64();
      break;
    default:
      return false;
  }
  if (!r.ok() || r.remaining() != 0) return false;
  out = std::move(rec);
  return true;
}

// The entry standing for `record`, borrowing its name.
WalEntry entry_of(const WalRecord& record) {
  WalEntry e;
  e.type = record.type;
  e.seq = record.seq;
  e.metric = &record.metric;
  e.minute = record.minute;
  e.value = record.value;
  e.change_id = record.change_id;
  return e;
}

}  // namespace

std::string encode_wal_record(const WalRecord& record) {
  std::string frame;
  append_frame(frame, entry_of(record));
  return frame;
}

WalReadResult read_wal(const std::string& path) {
  WalReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return result;
  result.ok = true;

  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::size_t off = 0;
  while (off + kFrameHeader <= bytes.size()) {
    ByteReader hdr(bytes.data() + off, kFrameHeader);
    const std::uint32_t len = hdr.get_u32();
    const std::uint32_t crc = hdr.get_u32();
    if (len > kMaxPayload || off + kFrameHeader + len > bytes.size()) break;
    const std::string_view payload(bytes.data() + off + kFrameHeader, len);
    if (crc32c(payload) != crc) break;
    WalRecord rec;
    if (!decode_payload(payload, rec)) break;
    result.records.push_back(std::move(rec));
    off += kFrameHeader + len;
  }
  result.valid_bytes = off;
  result.skipped_bytes = bytes.size() - off;
  return result;
}

// ---------------------------------------------------------------------------
// Writer: each log() call encodes its records and commits them.

WalWriter::WalWriter(std::string path, std::uint64_t next_seq,
                     WalDurability durability)
    : path_(std::move(path)),
      // "ab": recovery has already truncated the torn tail, so appending
      // after the valid prefix continues the record stream seamlessly.
      file_(std::fopen(path_.c_str(), "ab")),
      durability_(durability),
      next_seq_(next_seq),
      failed_(file_ == nullptr) {}

bool WalWriter::ok() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return !failed_;
}

std::uint64_t WalWriter::log(const WalRecord& record) {
  WalEntry entry = entry_of(record);
  return log(std::span<WalEntry>(&entry, 1));
}

std::uint64_t WalWriter::log(std::span<WalEntry> entries) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (crashed_) return next_seq_;
  if (failed_) throw StorageError("WAL is not writable: " + path_);
  const std::uint64_t first = next_seq_;
  buf_.clear();
  std::uint64_t seq = first;
  for (WalEntry& e : entries) {
    e.seq = seq++;
    append_frame(buf_, e);
  }
  const auto commit_start = stats_ != nullptr
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
  bool written =
      std::fwrite(buf_.data(), 1, buf_.size(), file_.get()) == buf_.size() &&
      std::fflush(file_.get()) == 0;
#ifdef __unix__
  if (written && durability_ == WalDurability::kFsync) {
    written = ::fsync(::fileno(file_.get())) == 0;
  }
#endif
  if (!written) {
    // The file may now end in a partial frame, and recovery stops there:
    // a later record could never be read back.
    failed_ = true;
    throw StorageError("cannot write WAL: " + path_);
  }
  next_seq_ = seq;
  records_ += entries.size();
  bytes_ += buf_.size();
  if (stats_ != nullptr) {
    stats_->add("funnel.wal.records", entries.size());
    stats_->add("funnel.wal.bytes", buf_.size());
    stats_->add("funnel.wal.batches");
    // One observation per commit (fwrite + fflush [+ fsync]): the WAL's
    // fsync latency, which climbs on a degrading disk.
    stats_->observe("funnel.wal.commit_us",
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - commit_start)
                        .count());
  }
  return first;
}

std::uint64_t WalWriter::next_seq() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t WalWriter::records_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::uint64_t WalWriter::bytes_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

void WalWriter::rotate(std::string path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (crashed_) return;
  file_.reset(std::fopen(path.c_str(), "wb"));
  path_ = std::move(path);
  failed_ = file_ == nullptr;
  if (failed_) throw StorageError("cannot open WAL: " + path_);
}

void WalWriter::crash_for_testing() {
  const std::lock_guard<std::mutex> lock(mutex_);
  crashed_ = true;
  file_.reset();
}

void WalWriter::set_stats(const obs::Registry* stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_ = stats;
  if (stats != nullptr) {
    stats->declare_counter("funnel.wal.records");
    stats->declare_counter("funnel.wal.bytes");
    stats->declare_counter("funnel.wal.batches");
    stats->declare_histogram("funnel.wal.commit_us");
  }
}

}  // namespace funnel::tsdb::persist
