// Tests for the persistent segment store (src/tsdb/persist): WAL framing
// (golden frame bytes) and torn-tail recovery at every byte offset, CRC32C
// known answers and the hardware path against the table loop, dirty-feed
// replay through upsert_at, segment round-trips, hydration of a
// checkpointed segment plus its WAL tail and of two overlapping segments,
// the checkpoint/recover cycle, the compacting checkpoint, write errors on
// a full disk, and the StorageError exit contract.
// The on-disk format under test is docs/STORAGE.md.
#include "tsdb/persist/backend.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tsdb/persist/format.h"
#include "tsdb/persist/segment.h"
#include "tsdb/persist/wal.h"
#include "tsdb/store.h"

namespace funnel::tsdb::persist {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under the gtest temp root.
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("persist_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Element-wise equality where NaN == NaN (a stored gap must survive the
// round-trip as a gap).
void expect_values_eq(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "index " << i;
    } else {
      EXPECT_EQ(got[i], want[i]) << "index " << i;
    }
  }
}

WalRecord sample_record(const std::string& server, const std::string& kpi,
                        MinuteTime t, double v) {
  WalRecord r;
  r.type = WalRecordType::kSample;
  r.metric = server_metric(server, kpi);
  r.minute = t;
  r.value = v;
  return r;
}

// ---------------------------------------------------------------------------
// WAL framing

TEST(Wal, RoundTripsRecordsInSeqOrder) {
  const fs::path dir = scratch("wal_roundtrip");
  const std::string path = (dir / "wal-000001.log").string();
  {
    WalWriter w(path, /*next_seq=*/1);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.log(sample_record("s1", "cpu", 10, 1.5)), 1u);
    EXPECT_EQ(w.log(sample_record("s2", "mem", 11, -2.25)), 2u);
    WalRecord watch;
    watch.type = WalRecordType::kWatch;
    watch.change_id = 42;
    EXPECT_EQ(w.log(watch), 3u);
    // NaN samples are legal WAL payloads (a collector can report a gap).
    EXPECT_EQ(
        w.log(sample_record("s1", "cpu", 12,
                            std::numeric_limits<double>::quiet_NaN())),
        4u);
    EXPECT_EQ(w.next_seq(), 5u);
    EXPECT_EQ(w.records_written(), 4u);
  }

  const WalReadResult rr = read_wal(path);
  ASSERT_TRUE(rr.ok);
  EXPECT_EQ(rr.skipped_bytes, 0u);
  ASSERT_EQ(rr.records.size(), 4u);
  EXPECT_EQ(rr.records[0].seq, 1u);
  EXPECT_EQ(rr.records[0].metric, server_metric("s1", "cpu"));
  EXPECT_EQ(rr.records[0].minute, 10);
  EXPECT_EQ(rr.records[0].value, 1.5);
  EXPECT_EQ(rr.records[1].value, -2.25);
  EXPECT_EQ(rr.records[2].type, WalRecordType::kWatch);
  EXPECT_EQ(rr.records[2].change_id, 42u);
  EXPECT_TRUE(std::isnan(rr.records[3].value));

  // A missing file is a legal crash window, not an error.
  const WalReadResult missing = read_wal((dir / "nope.log").string());
  EXPECT_FALSE(missing.ok);
  EXPECT_TRUE(missing.records.empty());
}

TEST(Wal, TornTailRecoversExactPrefixAtEveryByteOffset) {
  const fs::path dir = scratch("wal_torn");
  const std::string path = (dir / "wal-000001.log").string();
  // Varying payload sizes so the truncation sweep crosses string fields.
  const std::vector<WalRecord> records = {
      sample_record("s1", "cpu", 100, 1.0),
      sample_record("server-with-long-name", "kpi_with_long_name", 101, 2.0),
      sample_record("s2", "m", 102, 3.0),
  };
  {
    WalWriter w(path, 1);
    for (const WalRecord& r : records) w.log(r);
  }
  const std::string full = slurp(path);
  ASSERT_FALSE(full.empty());
  ASSERT_EQ(read_wal(path).records.size(), 3u);

  // Byte length of the first two framed records = where the last one starts.
  WalRecord last = records[2];
  last.seq = 3;
  const std::size_t prefix = full.size() - encode_wal_record(last).size();

  // Truncate at every byte offset of the final record: the reader must
  // recover exactly the two-record prefix and account for every dangling
  // byte — no over-read, no silent loss.
  const fs::path torn = dir / "torn.log";
  for (std::size_t cut = prefix; cut < full.size(); ++cut) {
    spit(torn, full.substr(0, cut));
    const WalReadResult rr = read_wal(torn.string());
    ASSERT_TRUE(rr.ok) << "cut=" << cut;
    EXPECT_EQ(rr.records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(rr.valid_bytes, prefix) << "cut=" << cut;
    EXPECT_EQ(rr.skipped_bytes, cut - prefix) << "cut=" << cut;
  }
}

TEST(Wal, CorruptMidFileStopsAtTheDamage) {
  const fs::path dir = scratch("wal_corrupt");
  const std::string path = (dir / "wal-000001.log").string();
  {
    WalWriter w(path, 1);
    for (int i = 0; i < 8; ++i) {
      w.log(sample_record("s1", "cpu", 100 + i, i));
    }
  }
  std::string bytes = slurp(path);
  WalRecord first = sample_record("s1", "cpu", 100, 0);
  first.seq = 1;
  const std::size_t one = encode_wal_record(first).size();
  bytes[one + 12] ^= 0x5a;  // flip a payload byte of record 2
  spit(path, bytes);

  const WalReadResult rr = read_wal(path);
  ASSERT_TRUE(rr.ok);
  EXPECT_EQ(rr.records.size(), 1u);
  EXPECT_EQ(rr.valid_bytes, one);
  EXPECT_EQ(rr.skipped_bytes, bytes.size() - one);
}

TEST(Wal, FailedRotateThrowsAndTheWriterStillShutsDown) {
  const fs::path dir = scratch("wal_rotate_fail");
  const std::string path = (dir / "wal-000001.log").string();
  {
    WalWriter w(path, /*next_seq=*/1);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.log(sample_record("s1", "cpu", 10, 1.0)), 1u);
    EXPECT_THROW(w.rotate((dir / "missing" / "wal.log").string()),
                 StorageError);
    EXPECT_FALSE(w.ok());
    // A record that cannot reach a file never gets a seq.
    EXPECT_THROW(w.log(sample_record("s1", "cpu", 11, 2.0)), StorageError);
    EXPECT_EQ(w.next_seq(), 2u);
  }
  const WalReadResult rr = read_wal(path);
  ASSERT_EQ(rr.records.size(), 1u);
  EXPECT_EQ(rr.records[0].seq, 1u);
}

TEST(Wal, WriteErrorFailsLaterLogs) {
  // /dev/full opens for append and fails every flush with ENOSPC.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  {
    WalWriter w("/dev/full", /*next_seq=*/1);
    ASSERT_TRUE(w.ok());
    EXPECT_THROW(w.log(sample_record("s1", "cpu", 10, 1.0)), StorageError);
    EXPECT_FALSE(w.ok());
    EXPECT_THROW(w.log(sample_record("s1", "cpu", 11, 2.0)), StorageError);
    EXPECT_THROW(w.log(sample_record("s1", "cpu", 12, 3.0)), StorageError);
    // Nothing reached the device, so nothing counts as written.
    EXPECT_EQ(w.records_written(), 0u);
    EXPECT_EQ(w.bytes_written(), 0u);

    // Rotating to a writable file (a checkpoint) clears the latch; a
    // record that was not written took no seq, so the next one is 1.
    const fs::path next = scratch("wal_write_error") / "wal-000002.log";
    w.rotate(next.string());
    EXPECT_TRUE(w.ok());
    EXPECT_EQ(w.log(sample_record("s1", "cpu", 13, 4.0)), 1u);
    EXPECT_EQ(w.records_written(), 1u);
    const WalReadResult rr = read_wal(next.string());
    ASSERT_EQ(rr.records.size(), 1u);
    EXPECT_EQ(rr.records[0].seq, 1u);
  }
  {
    // A batch log() commits before it returns, so its failed commit throws
    // at once, latches the writer, and the next log() throws too.
    const MetricId id = server_metric("s1", "cpu");
    WalWriter w("/dev/full", /*next_seq=*/1);
    std::vector<WalEntry> batch(3);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].metric = &id;
      batch[i].minute = static_cast<MinuteTime>(i);
    }
    EXPECT_THROW(w.log(std::span<WalEntry>(batch)), StorageError);
    EXPECT_FALSE(w.ok());
    EXPECT_EQ(w.next_seq(), 1u);
    EXPECT_THROW(w.log(std::span<WalEntry>(batch)), StorageError);
    EXPECT_EQ(w.records_written(), 0u);
    EXPECT_EQ(w.bytes_written(), 0u);
  }
}

std::string to_hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::string repeat_hex(const std::string& byte_hex, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += byte_hex;
  return out;
}

// The byte-level WAL contract (docs/STORAGE.md §2), pinned frame by frame:
// [u32 len][u32 crc32c(payload)] then version, type, seq and the fields.
TEST(Wal, EncodesGoldenFrames) {
  WalRecord gap;  // empty entity, NaN value
  gap.seq = 1;
  gap.metric = server_metric("", "cpu");
  gap.minute = 4400;
  gap.value = std::numeric_limits<double>::quiet_NaN();
  WalRecord wide;  // service kind, 255-byte entity, -0.0, negative minute
  wide.seq = 0x0102030405060708ull;
  wide.metric = MetricId{EntityKind::kService, std::string(255, 'n'),
                         "error_count"};
  wide.minute = -3;
  wide.value = -0.0;
  WalRecord watch;
  watch.type = WalRecordType::kWatch;
  watch.seq = 3;
  watch.change_id = 42;

  EXPECT_EQ(to_hex(encode_wal_record(gap)),
            "22000000"            // len 34
            "84f2ef16"            // crc32c
            "01"                  // kWalVersion
            "01"                  // kSample
            "0100000000000000"    // seq 1
            "00"                  // kServer
            "0000"                // entity ""
            "0300637075"          // kpi "cpu"
            "3011000000000000"    // minute 4400
            "000000000000f87f");  // quiet NaN
  EXPECT_EQ(to_hex(encode_wal_record(wide)),
            "29010000"                              // len 297
            "e44cf913"                              // crc32c
            "0101"                                  // version, kSample
            "0807060504030201"                      // seq
            "02"                                    // kService
            "ff00" + repeat_hex("6e", 255) +        // entity "nnn…"
                "0b006572726f725f636f756e74"        // kpi "error_count"
                "fdffffffffffffff"                  // minute -3
                "0000000000000080");                // -0.0
  EXPECT_EQ(to_hex(encode_wal_record(watch)),
            "12000000"            // len 18
            "4f8c3eb7"            // crc32c
            "01"                  // kWalVersion
            "02"                  // kWatch
            "0300000000000000"    // seq 3
            "2a00000000000000");  // change id 42

  // And the frames read back bit-exactly.
  const fs::path dir = scratch("wal_golden");
  const fs::path path = dir / "wal-000001.log";
  spit(path, encode_wal_record(gap) + encode_wal_record(wide) +
                 encode_wal_record(watch));
  const WalReadResult rr = read_wal(path.string());
  ASSERT_EQ(rr.records.size(), 3u);
  EXPECT_EQ(rr.skipped_bytes, 0u);
  EXPECT_EQ(rr.records[0].metric, gap.metric);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rr.records[0].value),
            std::bit_cast<std::uint64_t>(gap.value));
  EXPECT_EQ(rr.records[1].metric, wide.metric);
  EXPECT_EQ(rr.records[1].seq, wide.seq);
  EXPECT_EQ(rr.records[1].minute, -3);
  EXPECT_TRUE(std::signbit(rr.records[1].value));
  EXPECT_EQ(rr.records[1].value, 0.0);
  EXPECT_EQ(rr.records[2].type, WalRecordType::kWatch);
  EXPECT_EQ(rr.records[2].change_id, 42u);
}

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 B.4, and the check value of "123456789".
  std::string up(32, '\0');
  std::string down(32, '\0');
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  const std::pair<std::string, std::uint32_t> cases[] = {
      {std::string(32, '\x00'), 0x8A9136AAu},
      {std::string(32, '\xff'), 0x62A8AB43u},
      {up, 0x46DD794Eu},
      {down, 0x113FDB5Cu},
      {"123456789", 0xE3069283u},
      {"", 0u},
  };
  for (const auto& [bytes, want] : cases) {
    EXPECT_EQ(crc32c(bytes), want) << to_hex(bytes);
    EXPECT_EQ(crc32c_portable(bytes.data(), bytes.size()), want)
        << to_hex(bytes);
  }
}

// crc32c() takes the SSE4.2 path on a CPU that has it; it must give the
// table loop's value at every length, alignment and seed.
TEST(Crc32c, DispatchedPathMatchesTheTableLoop) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  RecordProperty("sse4_2", __builtin_cpu_supports("sse4.2") ? "yes" : "no");
#endif
  std::vector<unsigned char> buf(1024 + 8);
  std::uint32_t x = 2463534242u;  // xorshift32
  for (unsigned char& b : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<unsigned char>(x);
  }
  std::uint32_t seed = 0;
  for (std::size_t len = 0; len <= 1024; ++len) {
    for (std::size_t off = 0; off < 8; ++off) {
      const unsigned char* p = buf.data() + off;
      const std::uint32_t want = crc32c_portable(p, len, seed);
      ASSERT_EQ(crc32c(p, len, seed), want)
          << "len=" << len << " off=" << off << " seed=" << seed;
      seed = want;  // chain each result into the next call's seed
    }
  }
  // A seed continues a checksum: the CRC of a split buffer is the CRC of
  // the whole.
  for (std::size_t len = 0; len <= 64; ++len) {
    const std::uint32_t whole = crc32c(buf.data(), len);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      ASSERT_EQ(crc32c(buf.data() + cut, len - cut, crc32c(buf.data(), cut)),
                whole)
          << "len=" << len << " cut=" << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// Segments

TEST(Segment, RoundTripsSparseColumnsAndWindows) {
  const fs::path dir = scratch("segment");
  const std::string path = (dir / "seg-000001.seg").string();
  SegmentColumn a;
  a.metric = server_metric("s1", "cpu");
  a.lo = 100;
  a.hi = 110;  // minutes 103/107 missing: stored sparsely
  a.minutes = {100, 101, 102, 104, 105, 106, 108, 109};
  a.values = {1, 2, 3, 5, 6, 7, 9, 10};
  SegmentColumn b;
  b.metric = server_metric("s2", "mem");
  b.lo = 50;
  b.hi = 53;
  b.minutes = {50, 51, 52};
  b.values = {-1.5, 0.0, 1.5};
  const std::vector<SegmentColumn> cols = {a, b};
  const std::uint64_t bytes = write_segment(path, /*epoch=*/7, cols);
  EXPECT_EQ(bytes, fs::file_size(path));

  SegmentReader reader(path);
  EXPECT_EQ(reader.epoch(), 7u);
  ASSERT_EQ(reader.entries().size(), 2u);
  const auto* ea = reader.find(a.metric);
  ASSERT_NE(ea, nullptr);
  EXPECT_EQ(ea->lo, 100);
  EXPECT_EQ(ea->hi, 110);
  EXPECT_EQ(ea->count, 8u);
  EXPECT_EQ(reader.find(server_metric("nope", "x")), nullptr);

  // Window overlay honors the sparse holes and the [t0, t1) bounds.
  std::vector<double> out(6, std::numeric_limits<double>::quiet_NaN());
  reader.read_into(*ea, 102, 108, out);
  EXPECT_EQ(out[0], 3.0);
  EXPECT_TRUE(std::isnan(out[1]));  // minute 103 was a gap
  EXPECT_EQ(out[2], 5.0);
  EXPECT_EQ(out[4], 7.0);
  EXPECT_TRUE(std::isnan(out[5]));  // minute 107 was a gap too
}

TEST(Segment, CorruptFooterThrowsStorageError) {
  const fs::path dir = scratch("segment_corrupt");
  const std::string path = (dir / "seg-000001.seg").string();
  SegmentColumn c;
  c.metric = server_metric("s1", "cpu");
  c.lo = 0;
  c.hi = 2;
  c.minutes = {0, 1};
  c.values = {1, 2};
  write_segment(path, 1, std::vector<SegmentColumn>{c});
  std::string bytes = slurp(path);
  bytes[bytes.size() - 30] ^= 0xff;  // damage the footer region
  spit(path, bytes);
  EXPECT_THROW(SegmentReader reader(path), StorageError);
}

// A full disk fails the flush of a write that fit in stdio's buffer: the
// .tmp (a link to /dev/full here) must not be renamed into place.
TEST(Segment, FullDiskPublishesNothing) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const fs::path dir = scratch("segment_full");
  const fs::path path = dir / "seg-000001.seg";
  const fs::path tmp = dir / "seg-000001.seg.tmp";
  fs::create_symlink("/dev/full", tmp);
  SegmentColumn c;
  c.metric = server_metric("s1", "cpu");
  c.lo = 0;
  c.hi = 2;
  c.minutes = {0, 1};
  c.values = {1, 2};
  EXPECT_THROW(write_segment(path.string(), 1, std::vector<SegmentColumn>{c}),
               StorageError);
  EXPECT_FALSE(fs::exists(fs::symlink_status(path)));
  EXPECT_FALSE(fs::exists(fs::symlink_status(tmp)));
}

// ---------------------------------------------------------------------------
// MetricStore integration

StoreOptions persistent_options(const fs::path& dir) {
  StoreOptions o;
  o.data_dir = dir.string();
  return o;
}

// A recovered store holds exactly its in-memory twin's series: the same
// ids, count and has(), and every value (NaN where the twin has a gap).
void expect_same_store(const MetricStore& got, const MetricStore& want) {
  EXPECT_EQ(got.metric_count(), want.metric_count());
  ASSERT_EQ(got.metrics(), want.metrics());
  for (const MetricId& id : want.metrics()) {
    EXPECT_TRUE(got.has(id)) << id.to_string();
    got.read(id, [&](const TimeSeries& g) {
      want.read(id, [&](const TimeSeries& w) {
        EXPECT_EQ(g.start_time(), w.start_time()) << id.to_string();
        EXPECT_EQ(g.end_time(), w.end_time()) << id.to_string();
        expect_values_eq(g.slice(g.start_time(), g.end_time()),
                         w.slice(w.start_time(), w.end_time()));
      });
    });
  }
}

TEST(PersistentStore, DirtyFeedReplayMatchesInMemoryStore) {
  const fs::path dir = scratch("dirty_replay");
  MetricStore reference;  // in-memory twin fed the identical dirty stream
  const MetricId id = server_metric("s1", "cpu");
  // Dups, reordering, gaps and a late fill — every upsert_at outcome.
  const std::vector<std::pair<MinuteTime, double>> feed = {
      {100, 1.0}, {101, 2.0}, {104, 5.0},  // gap at 102/103
      {101, 99.0},                         // duplicate: first write wins
      {103, 4.0},                          // late fill into the gap
      {99, 42.0},                          // too old: dropped
      {105, 6.0},
  };
  {
    MetricStore store(persistent_options(dir));
    ASSERT_TRUE(store.persistent());
    for (const auto& [t, v] : feed) {
      store.append(id, t, v);
      reference.append(id, t, v);
    }
  }  // destructor drains the WAL

  MetricStore recovered(persistent_options(dir));
  EXPECT_EQ(recovered.recovered_tail().size(), feed.size());
  expect_same_store(recovered, reference);

  // Hydration: a 200-minute checkpointed segment of two series, one
  // missing every third minute, then a 30-minute WAL tail on the other.
  // Recovery rebuilds the segment into memory and replays the tail; the
  // result equals a twin fed the same appends, a window across the
  // segment/tail boundary included.
  const fs::path hydrated_dir = scratch("hydrated_replay");
  MetricStore twin;
  const MetricId a = server_metric("s1", "cpu");
  const MetricId b = server_metric("s2", "mem");
  {
    MetricStore store(persistent_options(hydrated_dir));
    const auto append = [&](const MetricId& m, MinuteTime t, double v) {
      store.append(m, t, v);
      twin.append(m, t, v);
    };
    for (MinuteTime t = 0; t < 200; ++t) {
      append(a, t, std::sin(static_cast<double>(t)));
      if (t % 3 != 0) append(b, t, static_cast<double>(t) * 0.5);
    }
    store.checkpoint();
    for (MinuteTime t = 200; t < 230; ++t) {
      append(a, t, std::sin(static_cast<double>(t)));
    }
  }
  MetricStore hydrated(persistent_options(hydrated_dir));
  EXPECT_EQ(hydrated.segment_count(), 1u);
  EXPECT_EQ(hydrated.recovered_tail().size(), 30u);
  expect_same_store(hydrated, twin);
  const std::vector<double> got_q = hydrated.query(a, 150, 220);
  const std::vector<double> want_q = twin.query(a, 150, 220);
  ASSERT_EQ(got_q.size(), want_q.size());
  for (std::size_t i = 0; i < want_q.size(); ++i) {
    EXPECT_EQ(got_q[i], want_q[i]) << i;
  }

  // Overlap: two checkpoints, the second re-flushing series `a` from a late
  // fill below the first's frontier, so the two live segments both hold
  // minutes 40..60 of it. `b` is only in the first segment and `c` only in
  // the second. A reopen overlays them oldest first and equals the twin.
  const fs::path overlap_dir = scratch("overlap_replay");
  MetricStore overlap_twin;
  const MetricId c = server_metric("s3", "disk");
  {
    MetricStore store(persistent_options(overlap_dir));
    const auto append = [&](const MetricId& m, MinuteTime t, double v) {
      store.append(m, t, v);
      overlap_twin.append(m, t, v);
    };
    for (MinuteTime t = 0; t < 60; ++t) {
      if (t != 40) append(a, t, static_cast<double>(t));  // hole at 40
      if (t % 7 != 0) append(b, t, -static_cast<double>(t));
    }
    store.checkpoint();
    append(a, 40, 4040.0);  // late fill below the frontier
    for (MinuteTime t = 60; t < 80; ++t) {
      append(a, t, static_cast<double>(t));
      if (t != 70) append(c, t, 0.25 * static_cast<double>(t));
    }
    store.checkpoint();
    EXPECT_EQ(store.segment_count(), 2u);
  }
  MetricStore overlapped(persistent_options(overlap_dir));
  EXPECT_EQ(overlapped.segment_count(), 2u);
  EXPECT_TRUE(overlapped.recovered_tail().empty());
  expect_same_store(overlapped, overlap_twin);
  overlapped.read(a, [](const TimeSeries& s) { EXPECT_EQ(s.at(40), 4040.0); });
}

TEST(PersistentStore, CheckpointRecoverRoundTripsStateAndMetadata) {
  const fs::path dir = scratch("checkpoint");
  const MetricId a = server_metric("s1", "cpu");
  const MetricId b = server_metric("s2", "mem");
  {
    MetricStore store(persistent_options(dir));
    for (MinuteTime t = 0; t < 50; ++t) {
      if (t != 45) store.append(a, t, static_cast<double>(t));
      store.append(b, t, -static_cast<double>(t));
    }
    store.checkpoint("watch-blob", /*journal_events=*/7);
    EXPECT_EQ(store.segment_count(), 1u);
    // Post-checkpoint tail plus a late fill at minute 45 — *below* the
    // flush frontier: the dirty mark must pull the next checkpoint's cut
    // back down so the fill is not stranded in a dropped WAL.
    for (MinuteTime t = 50; t < 60; ++t) store.append(a, t, 1000.0 + t);
    store.append(a, 45, 4545.0);
  }

  MetricStore store(persistent_options(dir));
  EXPECT_EQ(store.recovered_watch_state(), "watch-blob");
  EXPECT_EQ(store.recovered_journal_events(), 7u);
  // Tail = the 11 post-checkpoint appends (the first 99 are in segments).
  EXPECT_EQ(store.recovered_tail().size(), 11u);
  EXPECT_EQ(store.recovered_seq(), 110u);
  store.read(a, [](const TimeSeries& s) {
    ASSERT_EQ(s.start_time(), 0);
    ASSERT_EQ(s.end_time(), 60);
    EXPECT_EQ(s.at(44), 44.0);
    EXPECT_EQ(s.at(45), 4545.0);
    EXPECT_EQ(s.at(59), 1059.0);
  });
  // Second-generation checkpoint + recovery: the re-flushed cut includes
  // the late fill, even though its WAL generation is gone.
  store.checkpoint();
  MetricStore third(persistent_options(dir));
  EXPECT_EQ(third.recovered_tail().size(), 0u);
  third.read(a, [](const TimeSeries& s) {
    EXPECT_EQ(s.at(45), 4545.0);
    EXPECT_EQ(s.at(59), 1059.0);
  });
}

TEST(PersistentStore, CrashKeepsEveryLoggedRecordAndRecoversCleanly) {
  const fs::path dir = scratch("crash");
  const MetricId id = server_metric("s1", "cpu");
  {
    MetricStore store(persistent_options(dir));
    for (MinuteTime t = 0; t < 30; ++t) {
      store.append(id, t, static_cast<double>(t));
    }
    store.crash_for_testing();
    // Appends after the kill exist only in memory; recovery must not see
    // them.
    store.append(id, 30, 999.0);
  }
  // Simulate a torn final frame on top of the kill: half a record of
  // garbage appended to the WAL.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) {
      WalRecord r = sample_record("s1", "cpu", 31, 7.0);
      r.seq = 31;
      const std::string frame = encode_wal_record(r);
      std::ofstream out(entry.path(),
                        std::ios::binary | std::ios::app);
      out.write(frame.data(),
                static_cast<std::streamsize>(frame.size() / 2));
    }
  }

  MetricStore store(persistent_options(dir));
  EXPECT_EQ(store.recovered_tail().size(), 30u);
  EXPECT_GT(store.recovered_wal_skipped_bytes(), 0u);
  store.read(id, [](const TimeSeries& s) {
    EXPECT_EQ(s.end_time(), 30);
    EXPECT_EQ(s.at(29), 29.0);
  });
  // The recovered store keeps appending where the WAL left off.
  store.append(id, 30, 30.0);
  store.checkpoint();
  MetricStore again(persistent_options(dir));
  again.read(id, [](const TimeSeries& s) { EXPECT_EQ(s.at(30), 30.0); });
}

// The WAL commits on the appending thread, so a persistent store with
// synchronous dispatch runs no thread of its own: appending, logging a
// watch marker and checkpointing leave the process's thread count as is.
TEST(PersistentStore, RunsNoThreadOfItsOwn) {
  if (!fs::exists("/proc/self/task")) GTEST_SKIP() << "no /proc/self/task";
  const auto threads = [] {
    return std::distance(fs::directory_iterator("/proc/self/task"),
                         fs::directory_iterator());
  };
  const fs::path dir = scratch("no_thread");
  const auto before = threads();
  MetricStore store(persistent_options(dir));
  EXPECT_EQ(threads(), before);
  store.append(server_metric("s1", "cpu"), 0, 1.0);
  store.log_watch_marker(1);
  store.checkpoint();
  EXPECT_EQ(threads(), before);
}

TEST(PersistentStore, FailedWalRotateFailsCheckpointAndLaterAppends) {
  const fs::path dir = scratch("rotate_fail");
  const MetricId id = server_metric("s1", "cpu");
  MetricStore store(persistent_options(dir));
  store.append(id, 0, 1.0);
  // The checkpoint rotates to wal-000002.log; a directory in its place makes
  // the open fail.
  fs::create_directories(dir / "wal-000002.log");
  EXPECT_THROW(store.checkpoint(), StorageError);
  EXPECT_TRUE(fs::exists(dir / "wal-000001.log"));  // not rotated away
  EXPECT_THROW(store.append(id, 1, 2.0), StorageError);
}

TEST(PersistentStore, FullDiskCheckpointKeepsThePreviousOne) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const fs::path dir = scratch("checkpoint_full");
  const MetricId id = server_metric("s1", "cpu");
  {
    MetricStore store(persistent_options(dir));
    store.append(id, 0, 1.0);
    store.checkpoint();
    const std::string previous = slurp(dir / "checkpoint");
    store.append(id, 1, 2.0);
    fs::create_symlink("/dev/full", dir / "checkpoint.tmp");
    EXPECT_THROW(store.checkpoint(), StorageError);
    ASSERT_FALSE(fs::is_symlink(dir / "checkpoint"));
    EXPECT_EQ(slurp(dir / "checkpoint"), previous);
    EXPECT_FALSE(fs::exists(fs::symlink_status(dir / "checkpoint.tmp")));
    // Nor does the segment the failed checkpoint wrote stay behind.
    EXPECT_FALSE(fs::exists(dir / "seg-000002.seg"));
    EXPECT_EQ(store.segment_count(), 1u);
  }
  // The previous checkpoint and the WAL after it still hold every sample.
  MetricStore again(persistent_options(dir));
  again.read(id, [](const TimeSeries& s) {
    EXPECT_EQ(s.at(0), 1.0);
    EXPECT_EQ(s.at(1), 2.0);
  });
}

TEST(PersistentStore, CorruptCheckpointThrowsStorageError) {
  const fs::path dir = scratch("corrupt_checkpoint");
  {
    MetricStore store(persistent_options(dir));
    store.append(server_metric("s1", "cpu"), 0, 1.0);
    store.checkpoint();
  }
  const fs::path ckp = dir / "checkpoint";
  ASSERT_TRUE(fs::exists(ckp));
  std::string bytes = slurp(ckp);
  bytes[bytes.size() / 2] ^= 0xff;
  spit(ckp, bytes);
  EXPECT_THROW(MetricStore store(persistent_options(dir)), StorageError);

  // A referenced-but-missing segment is equally fatal (damage beyond the
  // WAL's torn-tail tolerance must never be silently dropped).
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    MetricStore store(persistent_options(dir));
    store.append(server_metric("s1", "cpu"), 0, 1.0);
    store.checkpoint();
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) fs::remove(entry.path());
  }
  EXPECT_THROW(MetricStore store(persistent_options(dir)), StorageError);
}

TEST(PersistentStore, StrayFilesAreDeletedOnRecovery) {
  const fs::path dir = scratch("strays");
  {
    MetricStore store(persistent_options(dir));
    store.append(server_metric("s1", "cpu"), 0, 1.0);
    store.checkpoint();
  }
  // Files no checkpoint references: a half-published segment, an orphaned
  // WAL generation, an in-flight tmp.
  spit(dir / "seg-999999.seg", "junk");
  spit(dir / "wal-999999.log", "junk");
  spit(dir / "checkpoint.tmp", "junk");
  MetricStore store(persistent_options(dir));
  EXPECT_FALSE(fs::exists(dir / "seg-999999.seg"));
  EXPECT_FALSE(fs::exists(dir / "wal-999999.log"));
  EXPECT_FALSE(fs::exists(dir / "checkpoint.tmp"));
  store.read(server_metric("s1", "cpu"),
             [](const TimeSeries& s) { EXPECT_EQ(s.at(0), 1.0); });
}

TEST(PersistentStore, CompactionMergesOverlappingSegments) {
  const fs::path dir = scratch("compaction");
  const MetricId id = server_metric("s1", "cpu");
  const MetricId other = server_metric("s2", "mem");
  MetricStore twin;
  {
    MetricStore store(persistent_options(dir));
    const auto append = [&](const MetricId& m, MinuteTime t, double v) {
      store.append(m, t, v);
      twin.append(m, t, v);
    };
    // Each checkpoint cuts a fresh 20-minute slice. Minute 5 stays a hole
    // until the third slice fills it late, below the frontier, so the
    // third segment overlaps the first. The fourth segment would bring the
    // list to four files: that checkpoint writes the whole store instead
    // and its segment replaces the list.
    MinuteTime t = 0;
    for (std::size_t cycle = 1; cycle <= 4; ++cycle) {
      for (const MinuteTime end = t + 20; t < end; ++t) {
        if (t != 5) append(id, t, static_cast<double>(t));
      }
      if (cycle == 2) {
        append(other, 30, 1.5);
        append(other, 32, 3.5);
      }
      if (cycle == 3) append(id, 5, 55.0);
      store.checkpoint();
      EXPECT_EQ(store.segment_count(), cycle < 4 ? cycle : 1u) << cycle;
      EXPECT_EQ(store.compactions(), cycle < 4 ? 0u : 1u) << cycle;
    }
    // A late fill below the compacted frontier stays in the WAL tail.
    append(other, 31, 2.5);
    append(id, 80, 80.0);
  }
  std::size_t segment_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segment_files += entry.path().extension() == ".seg" ? 1 : 0;
  }
  EXPECT_EQ(segment_files, 1u);

  MetricStore reopened(persistent_options(dir));
  EXPECT_EQ(reopened.segment_count(), 1u);
  EXPECT_EQ(reopened.recovered_tail().size(), 2u);
  expect_same_store(reopened, twin);
  reopened.read(id, [](const TimeSeries& s) {
    EXPECT_EQ(s.at(5), 55.0);
    EXPECT_EQ(s.end_time(), 81);
  });
  reopened.read(other, [](const TimeSeries& s) { EXPECT_EQ(s.at(31), 2.5); });
}

// Three metrics over 40 minutes with a NaN, a duplicate, a late fill and a
// too-old sample: every record the WAL must carry verbatim.
struct FeedSample {
  MetricId id;
  MinuteTime t = 0;
  double value = 0.0;
};

std::vector<FeedSample> batch_feed() {
  std::vector<FeedSample> feed;
  for (MinuteTime t = 200; t < 240; ++t) {
    for (const char* server : {"s1", "s2", "s3"}) {
      if (server[1] == '3' && t == 210) continue;  // filled late below
      const double v = t == 220 && server[1] == '2'
                           ? std::numeric_limits<double>::quiet_NaN()
                           : static_cast<double>(t) / 8.0;
      feed.push_back(
          FeedSample{server_metric(server, "memory_utilization"), t, v});
    }
    if (t == 215) {
      feed.push_back(
          FeedSample{server_metric("s3", "memory_utilization"), 210, 1.25});
      feed.push_back(FeedSample{server_metric("s1", "memory_utilization"),
                                212, 9.0});  // duplicate
      feed.push_back(FeedSample{server_metric("s2", "memory_utilization"),
                                150, 9.0});  // too old
    }
  }
  return feed;
}

TEST(PersistentStore, BatchAppendWritesPerSampleWalBytesAndReplays) {
  const fs::path single_dir = scratch("batch_single");
  const fs::path batch_dir = scratch("batch_batched");
  const std::vector<FeedSample> feed = batch_feed();
  const std::size_t half = feed.size() / 2;
  {
    MetricStore store(persistent_options(single_dir));
    for (std::size_t i = 0; i < feed.size(); ++i) {
      if (i == half) {
        EXPECT_EQ(store.log_watch_marker(7), half + 1);
      }
      store.append(feed[i].id, feed[i].t, feed[i].value);
    }
  }
  std::map<MetricId, std::vector<double>> live;
  {
    StoreOptions options = persistent_options(batch_dir);
    options.num_shards = 4;
    options.ingest_queue_capacity = 8;
    MetricStore store(options);
    std::vector<Sample> batch;
    for (const FeedSample& s : feed) {
      batch.push_back(Sample{store.intern(s.id), s.t, s.value, {}, {}});
    }
    const std::span<Sample> all(batch);
    store.append(all.first(half));
    EXPECT_EQ(store.log_watch_marker(7), half + 1);
    store.append(all.subspan(half));
    EXPECT_EQ(store.wal_records_written(), feed.size() + 1);
    for (const MetricId& id : store.metrics()) {
      live[id] = store.query(id, 200, 240);
    }
    store.crash_for_testing();  // recover from the WAL alone
  }
  const std::string wal = slurp(batch_dir / "wal-000001.log");
  EXPECT_FALSE(wal.empty());
  EXPECT_EQ(wal, slurp(single_dir / "wal-000001.log"));

  MetricStore recovered(persistent_options(batch_dir));
  EXPECT_EQ(recovered.recovered_seq(), feed.size() + 1);
  ASSERT_EQ(recovered.metric_count(), live.size());
  for (const auto& [id, values] : live) {
    expect_values_eq(recovered.query(id, 200, 240), values);
  }
}

TEST(PersistentStore, InMemoryStoreKeepsLegacyBehavior) {
  MetricStore store;  // no data_dir
  EXPECT_FALSE(store.persistent());
  EXPECT_TRUE(store.recovered_tail().empty());
  EXPECT_EQ(store.recovered_seq(), 0u);
  EXPECT_EQ(store.recovered_watch_state(), "");
  store.append(server_metric("s1", "cpu"), 0, 1.0);
  store.checkpoint("ignored", 9);  // must be a no-op, not a crash
  EXPECT_EQ(store.wal_records_written(), 0u);
  EXPECT_EQ(store.segment_count(), 0u);
}

}  // namespace
}  // namespace funnel::tsdb::persist
