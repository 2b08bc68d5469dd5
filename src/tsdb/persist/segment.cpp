#include "tsdb/persist/segment.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace funnel::tsdb::persist {

namespace {

constexpr char kMagic[8] = {'F', 'N', 'L', 'S', 'E', 'G', '1', '\0'};
constexpr std::size_t kHeaderSize = 16;  // magic + epoch
// footer_off u64 | footer_len u32 | footer crc u32 | magic
constexpr std::size_t kTrailerSize = 24;

std::uint64_t load_le64(const unsigned char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t raw;
    std::memcpy(&raw, p, 8);
    return raw;
  } else {
    std::uint64_t raw = 0;
    for (int i = 0; i < 8; ++i) {
      raw |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return raw;
  }
}

}  // namespace

std::uint64_t write_segment(const std::string& path, std::uint64_t epoch,
                            std::span<const SegmentColumn> columns) {
  AtomicFileWriter out(path);

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  put_u64(header, epoch);
  out.write(header);

  // Stream the columns, recording each one's offsets for the footer. The
  // on-disk ints are LE, so the columns are re-encoded through the codec
  // rather than fwritten raw — one transient buffer per column.
  std::uint64_t off = kHeaderSize;
  std::string footer;
  std::string col;
  for (const SegmentColumn& c : columns) {
    col.resize((c.minutes.size() + c.values.size()) * 8);
    char* p = col.data();
    for (MinuteTime m : c.minutes) {
      p = store_le(p, static_cast<std::uint64_t>(m));
    }
    for (double v : c.values) p = store_le(p, std::bit_cast<std::uint64_t>(v));

    put_u8(footer, static_cast<std::uint8_t>(c.metric.kind));
    put_str(footer, c.metric.entity);
    put_str(footer, c.metric.kpi);
    put_i64(footer, c.lo);
    put_i64(footer, c.hi);
    put_u64(footer, c.minutes.size());
    put_u64(footer, off);                         // minutes_off
    put_u64(footer, off + c.minutes.size() * 8);  // values_off

    out.write(col);
    off += col.size();
  }

  std::string trailer;
  put_u64(trailer, off);  // footer_off
  put_u32(trailer, static_cast<std::uint32_t>(footer.size()));
  put_u32(trailer, crc32c(footer));
  trailer.append(kMagic, sizeof(kMagic));
  out.write(footer);
  out.write(trailer);
  out.publish();
  return off + footer.size() + kTrailerSize;
}

SegmentReader::SegmentReader(std::string path) : path_(std::move(path)) {
#ifndef __unix__
  throw StorageError("segment mmap unsupported on this platform");
#else
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) throw StorageError("cannot open segment: " + path_);
  struct stat st{};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::uint64_t>(st.st_size) < kHeaderSize + kTrailerSize) {
    ::close(fd);
    throw StorageError("segment too small: " + path_);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) throw StorageError("cannot mmap segment: " + path_);
  map_ = static_cast<const unsigned char*>(map);

  const auto corrupt = [&](const char* why) -> StorageError {
    ::munmap(const_cast<unsigned char*>(map_), size_);
    map_ = nullptr;
    return StorageError(std::string("corrupt segment (") + why + "): " +
                        path_);
  };

  if (std::memcmp(map_, kMagic, sizeof(kMagic)) != 0 ||
      std::memcmp(map_ + size_ - sizeof(kMagic), kMagic, sizeof(kMagic)) !=
          0) {
    throw corrupt("bad magic");
  }
  {
    ByteReader hdr(reinterpret_cast<const char*>(map_) + sizeof(kMagic), 8);
    epoch_ = hdr.get_u64();
  }
  ByteReader tr(reinterpret_cast<const char*>(map_) + size_ - kTrailerSize,
                kTrailerSize - sizeof(kMagic));
  const std::uint64_t footer_off = tr.get_u64();
  const std::uint32_t footer_len = tr.get_u32();
  const std::uint32_t footer_crc = tr.get_u32();
  if (footer_off < kHeaderSize || footer_off + footer_len + kTrailerSize !=
                                      size_) {
    throw corrupt("bad footer bounds");
  }
  const char* footer = reinterpret_cast<const char*>(map_) + footer_off;
  if (crc32c(static_cast<const void*>(footer), footer_len) != footer_crc) {
    throw corrupt("footer crc");
  }

  ByteReader r(footer, footer_len);
  while (r.ok() && r.remaining() > 0) {
    Entry e;
    const std::uint8_t kind = r.get_u8();
    if (kind > static_cast<std::uint8_t>(EntityKind::kService)) r.fail();
    e.metric.kind = static_cast<EntityKind>(kind);
    e.metric.entity = r.get_str();
    e.metric.kpi = r.get_str();
    e.lo = r.get_i64();
    e.hi = r.get_i64();
    e.count = r.get_u64();
    e.minutes_off = r.get_u64();
    e.values_off = r.get_u64();
    if (!r.ok()) break;
    // Columns must lie inside the data region, before the footer.
    if (e.minutes_off + e.count * 8 > footer_off ||
        e.values_off + e.count * 8 > footer_off || e.lo > e.hi) {
      r.fail();
      break;
    }
    entries_.push_back(std::move(e));
  }
  if (!r.ok()) throw corrupt("footer entries");
#endif
}

SegmentReader::~SegmentReader() {
#ifdef __unix__
  if (map_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_), size_);
  }
#endif
}

const SegmentReader::Entry* SegmentReader::find(const MetricId& metric) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), metric,
      [](const Entry& e, const MetricId& id) { return e.metric < id; });
  if (it == entries_.end() || it->metric != metric) return nullptr;
  return &*it;
}

MinuteTime SegmentReader::minute(const Entry& e, std::uint64_t i) const {
  return static_cast<MinuteTime>(load_le64(map_ + e.minutes_off + i * 8));
}

double SegmentReader::value(const Entry& e, std::uint64_t i) const {
  return std::bit_cast<double>(load_le64(map_ + e.values_off + i * 8));
}

void SegmentReader::read_into(const Entry& e, MinuteTime t0, MinuteTime t1,
                              std::span<double> out) const {
  // Binary search for the first stored minute >= t0, then walk forward.
  std::uint64_t lo = 0, hi = e.count;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (minute(e, mid) < t0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (std::uint64_t i = lo; i < e.count; ++i) {
    const MinuteTime m = minute(e, i);
    if (m >= t1) break;
    out[static_cast<std::size_t>(m - t0)] = value(e, i);
  }
}

std::vector<SegmentColumn> merge_segments(
    std::span<const SegmentReader* const> readers) {
  // Per metric: the union range across all segments and the list of entries
  // in ascending epoch order (the readers' order).
  struct Pending {
    MinuteTime lo = 0;
    MinuteTime hi = 0;
    std::vector<std::pair<const SegmentReader*, const SegmentReader::Entry*>>
        parts;
  };
  std::map<MetricId, Pending> by_metric;
  for (const SegmentReader* reader : readers) {
    for (const auto& e : reader->entries()) {
      auto [it, fresh] = by_metric.try_emplace(e.metric);
      if (fresh) {
        it->second.lo = e.lo;
        it->second.hi = e.hi;
      } else {
        it->second.lo = std::min(it->second.lo, e.lo);
        it->second.hi = std::max(it->second.hi, e.hi);
      }
      it->second.parts.emplace_back(reader, &e);
    }
  }

  std::vector<SegmentColumn> merged;
  merged.reserve(by_metric.size());
  std::vector<double> dense;
  for (auto& [metric, pending] : by_metric) {
    SegmentColumn col;
    col.metric = metric;
    col.lo = pending.lo;
    col.hi = pending.hi;
    const auto span = static_cast<std::size_t>(pending.hi - pending.lo);
    dense.assign(span, std::numeric_limits<double>::quiet_NaN());
    // Ascending epoch overlay: the newest finite value for a minute wins.
    // (Upstream ingest is first-write-wins, so overlapping segments never
    // actually disagree on a finite value — the overlay just de-overlaps.)
    for (const auto& [reader, entry] : pending.parts) {
      reader->read_into(*entry, pending.lo, pending.hi, dense);
    }
    for (std::size_t i = 0; i < span; ++i) {
      if (!std::isnan(dense[i])) {
        col.minutes.push_back(pending.lo + static_cast<MinuteTime>(i));
        col.values.push_back(dense[i]);
      }
    }
    merged.push_back(std::move(col));
  }
  return merged;
}

}  // namespace funnel::tsdb::persist
