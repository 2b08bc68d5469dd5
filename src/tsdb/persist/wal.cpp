#include "tsdb/persist/wal.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/group_commit_queue.h"

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

void patch_u32(std::string& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Append one framed record to `out`: a placeholder header, the payload
// encoded in place, then its length and CRC32C patched into the header. The
// one frame encoder behind the writer and encode_wal_record().
void append_frame(std::string& out, const WalEntry& r) {
  const std::size_t head = out.size();
  out.append(kFrameHeader, '\0');
  put_u8(out, kWalVersion);
  put_u8(out, static_cast<std::uint8_t>(r.type));
  put_u64(out, r.seq);
  switch (r.type) {
    case WalRecordType::kSample:
      put_u8(out, static_cast<std::uint8_t>(r.metric->kind));
      put_str(out, r.metric->entity);
      put_str(out, r.metric->kpi);
      put_i64(out, r.minute);
      put_f64(out, r.value);
      break;
    case WalRecordType::kWatch:
      put_u64(out, r.change_id);
      break;
  }
  const std::size_t len = out.size() - head - kFrameHeader;
  patch_u32(out, head, static_cast<std::uint32_t>(len));
  patch_u32(out, head + 4, crc32c(out.data() + head + kFrameHeader, len));
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
// Writer: the queue's consumer encodes each drained batch and commits it.

namespace {

struct CloseFile {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

struct WalWriter::Impl {
  Impl(std::FILE* f, const WalWriterOptions& options, std::uint64_t first_seq)
      : file(f),
        durability(options.durability),
        first_seq(first_seq),
        queue(options.queue_capacity, common::Backpressure::kBlock,
              [this](std::vector<WalEntry>& batch) { commit(batch); }) {}

  void commit(const std::vector<WalEntry>& batch) {
    buf.clear();
    for (const WalEntry& rec : batch) append_frame(buf, rec);
    const auto commit_start = std::chrono::steady_clock::now();
    std::fwrite(buf.data(), 1, buf.size(), file.get());
    std::fflush(file.get());
#ifdef __unix__
    if (durability == WalDurability::kFsync) ::fsync(::fileno(file.get()));
#endif
    bytes.fetch_add(buf.size(), std::memory_order_relaxed);

    if (const obs::Registry* reg = stats.load(std::memory_order_relaxed)) {
      reg->add("funnel.wal.records", batch.size());
      reg->add("funnel.wal.bytes", buf.size());
      reg->add("funnel.wal.batches");
      // One observation per group commit (fwrite + fflush [+ fsync]): the
      // WAL's fsync latency, which climbs on a degrading disk.
      reg->observe("funnel.wal.commit_us",
                   std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - commit_start)
                       .count());
      reg->set("funnel.wal.queue_depth", static_cast<double>(queue.depth()));
    }
  }

  /// Used by the writer thread. rotate() and crash_for_testing() swap it
  /// only while that thread is idle (after a flush) or gone (abandoned).
  std::unique_ptr<std::FILE, CloseFile> file;
  const WalDurability durability;
  const std::uint64_t first_seq;  ///< seq of queue ticket 0
  std::string buf;                ///< writer thread only
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<const obs::Registry*> stats{nullptr};
  /// Last member: destroyed first, so it drains into an open file.
  common::GroupCommitQueue<WalEntry> queue;
};

WalWriter::WalWriter(std::string path, std::uint64_t next_seq,
                     WalWriterOptions options)
    : path_(std::move(path)) {
  // "ab": recovery has already truncated the torn tail, so appending after
  // the valid prefix continues the record stream seamlessly.
  std::FILE* file = std::fopen(path_.c_str(), "ab");
  failed_.store(file == nullptr, std::memory_order_release);
  impl_ = std::make_unique<Impl>(file, options, next_seq);
}

WalWriter::~WalWriter() = default;

std::uint64_t WalWriter::log(const WalRecord& record) {
  WalEntry entry = entry_of(record);
  const std::uint64_t seq = log(std::span<WalEntry>(&entry, 1));
  flush();
  return seq;
}

std::uint64_t WalWriter::log(std::span<WalEntry> entries) {
  if (crashed_.load(std::memory_order_acquire)) return next_seq();
  if (!ok()) throw StorageError("WAL is not writable: " + path_);
  const std::uint64_t first = impl_->first_seq;
  const auto admitted = impl_->queue.push_all(
      entries,
      [first](WalEntry& e, std::uint64_t ticket) { e.seq = first + ticket; });
  return admitted.accepted ? first + admitted.ticket : next_seq();
}

void WalWriter::flush() { impl_->queue.flush(); }

std::uint64_t WalWriter::next_seq() const {
  return impl_->first_seq + impl_->queue.pushed();
}

std::uint64_t WalWriter::records_written() const {
  return impl_->queue.consumed();
}

std::uint64_t WalWriter::bytes_written() const {
  return impl_->bytes.load(std::memory_order_relaxed);
}

void WalWriter::rotate(std::string path) {
  if (crashed_.load(std::memory_order_acquire)) return;
  flush();
  // The queue is empty (flush() above, producers quiesced by the caller),
  // so the writer thread is idle: its next batch reads `file` only after a
  // push that happens-after this swap.
  impl_->file.reset(std::fopen(path.c_str(), "wb"));
  path_ = std::move(path);
  failed_.store(impl_->file == nullptr, std::memory_order_release);
  if (impl_->file == nullptr) throw StorageError("cannot open WAL: " + path_);
}

void WalWriter::crash_for_testing() {
  if (crashed_.exchange(true, std::memory_order_acq_rel)) return;
  impl_->queue.abandon();
  // Records still queued are abandoned — the loss a real kill inflicts.
  // (Every completed batch already hit fflush, so closing loses nothing
  // more; the replay test additionally truncates the file at a random
  // byte to simulate a tear inside the final flushed batch.)
  impl_->file.reset();
}

void WalWriter::set_stats(const obs::Registry* stats) {
  impl_->stats.store(stats, std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->set("funnel.wal.queue_capacity",
               static_cast<double>(impl_->queue.capacity()));
    stats->declare_gauge("funnel.wal.queue_depth");
    stats->declare_counter("funnel.wal.records");
    stats->declare_counter("funnel.wal.bytes");
    stats->declare_counter("funnel.wal.batches");
    stats->declare_histogram("funnel.wal.commit_us");
  }
}

}  // namespace funnel::tsdb::persist
