// Immutable, memory-mapped, columnar segment files.
//
// A checkpoint freezes each metric's not-yet-flushed minute range into one
// segment file: per metric a *sparse* pair of sorted columns — minute(i64)
// and value(f64) for the finite samples only — plus the explicit flushed
// range [lo, hi). The explicit range is what makes sparse storage lossless
// against the TimeSeries NaN-gap semantics: minutes inside [lo, hi) with no
// column entry rematerialize as NaN (a recorded collection gap), and a
// series whose tail is all-NaN still reconstructs its exact end_time().
//
// Layout (little-endian, docs/STORAGE.md §3):
//
//   header:   magic "FNLSEG1\0" (8) | epoch u64
//   columns:  per metric, count*8 bytes of minutes then count*8 of values
//   footer:   per metric: kind u8 | entity str | kpi str | lo i64 | hi i64 |
//             count u64 | minutes_off u64 | values_off u64
//   trailer:  footer_off u64 | footer_len u32 | crc32c(footer) u32 |
//             magic "FNLSEG1\0" (8)
//
// The footer lives at the end so the writer streams columns without
// buffering the whole file; the reader finds it via the fixed-size trailer.
// All column offsets are 8-byte multiples (header is 16 bytes, every column
// is a multiple of 8), though the reader still memcpy's per element rather
// than aliasing the map. Readers mmap PROT_READ and binary-search the
// footer index; recovery reads each live segment once, straight off the
// map, to rebuild the store in memory, then closes it. Files are immutable
// after the tmp+rename publish: a compacting checkpoint writes a *new* file
// holding the whole store, and the old ones are deleted only after that
// checkpoint, which stops referencing them, commits.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/minute_time.h"
#include "tsdb/metric.h"
#include "tsdb/persist/format.h"

namespace funnel::tsdb::persist {

/// One metric's contribution to a segment: finite samples, sorted by
/// minute, plus the flushed range [lo, hi) they were cut from.
struct SegmentColumn {
  MetricId metric;
  MinuteTime lo = 0;  ///< first flushed minute
  MinuteTime hi = 0;  ///< one past the last flushed minute
  std::vector<MinuteTime> minutes;  ///< sorted, within [lo, hi)
  std::vector<double> values;       ///< finite, parallel to `minutes`
};

/// Write a segment file atomically (AtomicFileWriter: tmp + rename). Columns
/// must be sorted by metric id. Returns the file size in bytes; throws
/// StorageError on any I/O failure, including a failed flush, fsync or
/// close, and then publishes nothing.
std::uint64_t write_segment(const std::string& path, std::uint64_t epoch,
                            std::span<const SegmentColumn> columns);

/// Read-only mmap view of one segment file. The constructor validates the
/// trailer magic and footer CRC and throws StorageError on any damage —
/// segments are published atomically after the WAL is flushed, so unlike a
/// WAL tail there is no benign way for one to be torn.
class SegmentReader {
 public:
  explicit SegmentReader(std::string path);
  ~SegmentReader();

  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  const std::string& path() const { return path_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t file_size() const { return size_; }

  /// One footer index entry; minute/value pairs are read straight off the
  /// map, so a lookup faults in only the pages it touches.
  struct Entry {
    MetricId metric;
    MinuteTime lo = 0;
    MinuteTime hi = 0;
    std::uint64_t count = 0;
    std::uint64_t minutes_off = 0;
    std::uint64_t values_off = 0;
  };

  /// Entries sorted by metric id (the writer's order).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Binary search; nullptr when the metric is not in this segment.
  const Entry* find(const MetricId& metric) const;

  MinuteTime minute(const Entry& e, std::uint64_t i) const;
  double value(const Entry& e, std::uint64_t i) const;

  /// Overlay this entry's samples intersecting [t0, t1) onto `out`, where
  /// out[k] is minute t0 + k. Minutes with no column entry are left
  /// untouched — callers pre-fill with NaN (or with older-segment data:
  /// applying segments in ascending epoch order makes the newest finite
  /// value win, the overlay recovery relies on).
  void read_into(const Entry& e, MinuteTime t0, MinuteTime t1,
                 std::span<double> out) const;

 private:
  std::string path_;
  std::uint64_t epoch_ = 0;
  std::uint64_t size_ = 0;
  const unsigned char* map_ = nullptr;
  std::vector<Entry> entries_;
};

}  // namespace funnel::tsdb::persist
