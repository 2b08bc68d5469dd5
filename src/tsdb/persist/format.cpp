#include "tsdb/persist/format.h"

#include <array>
#include <filesystem>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FUNNEL_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

#ifdef __unix__
#include <unistd.h>
#endif

namespace funnel::tsdb::persist {

namespace {

// CRC32C (Castagnoli) lookup table, reflected polynomial 0x82F63B78 —
// computed once at startup so the header stays free of a 1 KiB literal.
std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc32c_table() {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  return table;
}

#ifdef FUNNEL_CRC32C_SSE42
// The SSE4.2 crc32 instruction folds the same reflected polynomial into the
// running remainder, 8 bytes per step, without the pre- and post-inversion
// that crc32c_portable() applies.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto c = static_cast<std::uint32_t>(crc);
  if (size >= 4) {
    std::uint32_t word;
    std::memcpy(&word, p, 4);
    c = _mm_crc32_u32(c, word);
    p += 4;
    size -= 4;
  }
  for (; size > 0; ++p, --size) c = _mm_crc32_u8(c, *p);
  return c ^ 0xFFFFFFFFu;
}
#endif

using Crc32cFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

Crc32cFn pick_crc32c() {
#ifdef FUNNEL_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_portable;
}

}  // namespace

std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t seed) {
  const auto& table = crc32c_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  static const Crc32cFn impl = pick_crc32c();
  return impl(data, size, seed);
}

// ---------------------------------------------------------------------------
// AtomicFileWriter

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp"),
      file_(std::fopen(tmp_.c_str(), "wb")) {
  if (file_ == nullptr) throw StorageError("cannot create: " + tmp_);
}

AtomicFileWriter::~AtomicFileWriter() {
  if (file_ != nullptr) discard();
}

void AtomicFileWriter::write(std::string_view bytes) {
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    fail("short write: ");
  }
}

void AtomicFileWriter::publish() {
  if (std::fflush(file_) != 0) fail("cannot flush: ");
#ifdef __unix__
  if (::fsync(::fileno(file_)) != 0) fail("cannot sync: ");
#endif
  std::FILE* f = std::exchange(file_, nullptr);
  if (std::fclose(f) != 0) {
    remove_tmp();
    throw StorageError("cannot close: " + tmp_);
  }
  // Atomic publish: a crash before the rename leaves only a .tmp stray,
  // which recovery deletes; a crash after leaves a complete, valid file.
  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  if (ec) {
    remove_tmp();
    throw StorageError("cannot publish: " + path_);
  }
}

void AtomicFileWriter::fail(const char* what) {
  discard();
  throw StorageError(what + tmp_);
}

void AtomicFileWriter::discard() {
  std::fclose(std::exchange(file_, nullptr));
  remove_tmp();
}

void AtomicFileWriter::remove_tmp() {
  std::error_code ec;
  std::filesystem::remove(tmp_, ec);
}

}  // namespace funnel::tsdb::persist
