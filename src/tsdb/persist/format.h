// On-disk byte codec shared by the WAL, segment and checkpoint formats.
//
// Everything the persistent segment store writes is little-endian and
// CRC32C-guarded; the full byte-level contract lives in docs/STORAGE.md.
// The helpers here are deliberately tiny: fixed-width integers stored
// little-endian whatever the host's byte order, doubles as raw IEEE-754 bit
// patterns (NaN samples are data — a recorded collection gap — and must
// round-trip bit-exactly), and length-prefixed strings. The store_* helpers
// write a field in place into a buffer the caller sized; the put_* helpers
// append one field to a string in one append. A ByteReader never throws: it
// carries a sticky `ok` flag so a truncated or corrupt buffer fails the
// whole parse instead of faulting mid-record — the property the WAL's
// torn-tail recovery and the checkpoint validator are built on.
// AtomicFileWriter is the tmp+rename publish behind segments and
// checkpoints.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "common/error.h"

namespace funnel::tsdb::persist {

/// Thrown when a persistent store directory cannot be opened, or holds
/// damage the WAL's torn-tail tolerance cannot absorb (corrupt checkpoint,
/// corrupt or missing segment). Callers treat it as fatal for that
/// data_dir — the funnel_detect_csv --data-dir contract maps it to exit 3.
class StorageError : public Error {
 public:
  explicit StorageError(const std::string& what) : Error(what) {}
};

/// CRC32C (Castagnoli), the checksum guarding every WAL record payload,
/// segment footer and checkpoint payload. Computed with the SSE4.2 `crc32`
/// instruction, 8 bytes per step, when the CPU has it (checked once, on the
/// first call); crc32c_portable() otherwise. Both give the same value.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

inline std::uint32_t crc32c(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32c(bytes.data(), bytes.size(), seed);
}

/// CRC32C by a byte-at-a-time table loop: the path on CPUs without SSE4.2,
/// and the reference the tests hold the hardware path to.
std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t seed = 0);

// --------------------------------------------------------------------------
// Writers. store_le() writes an unsigned integer little-endian at `p` and
// returns the byte after it; the put_* helpers append one field to a string.

template <typename T>
inline char* store_le(char* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }
  return p + sizeof(T);
}

/// u16 length prefix + bytes at `p`. Metric entities/KPI names are short
/// identifiers; 64 KiB is far beyond any real name.
inline char* store_str(char* p, std::string_view s) {
  p = store_le(p, static_cast<std::uint16_t>(s.size()));
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

template <typename T>
inline void put_le(std::string& out, T v) {
  char bytes[sizeof(T)];
  store_le(bytes, v);
  out.append(bytes, sizeof(T));
}

inline void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

/// Raw IEEE-754 bits: NaN payloads and signed zeros round-trip exactly.
inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// store_str() appended to `out`.
inline void put_str(std::string& out, std::string_view s) {
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.append(s.data(), s.size());
}

// --------------------------------------------------------------------------
// AtomicFileWriter: the one way a segment or a checkpoint reaches its name.

/// Writes `path + ".tmp"`, and publish() renames it to `path` only once
/// every write, the flush, the fsync and the close have succeeded. Any
/// failure removes the .tmp and throws StorageError before the rename, so a
/// full disk never publishes a short file; a crash before the rename
/// leaves a .tmp stray, which recovery deletes. Destroying an unpublished
/// writer removes its .tmp.
class AtomicFileWriter {
 public:
  /// Throws StorageError when the .tmp cannot be created.
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  void write(std::string_view bytes);
  /// Flush, fsync, close and rename into place. Call at most once.
  void publish();

 private:
  [[noreturn]] void fail(const char* what);
  void discard();
  void remove_tmp();

  std::string path_;
  std::string tmp_;
  std::FILE* file_;  ///< null once closed
};

// --------------------------------------------------------------------------
// Reader: sticky-failure cursor over a byte buffer.

class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  std::uint8_t get_u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(*p_++);
  }

  std::uint16_t get_u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t get_u64() { return get_le(8); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_le(8)); }
  double get_f64() { return std::bit_cast<double>(get_le(8)); }

  std::string get_str() {
    const std::uint16_t n = get_u16();
    if (!need(n)) return {};
    std::string s(p_, p_ + n);
    p_ += n;
    return s;
  }

  /// Fail the parse explicitly (e.g. an out-of-range enum value).
  void fail() { ok_ = false; }

 private:
  bool need(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::uint64_t get_le(std::size_t n) {
    if (!need(n)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[i]))
           << (8 * i);
    }
    p_ += n;
    return v;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace funnel::tsdb::persist
