// Tests for the multi-tenant service plane (src/service): quota arithmetic
// on a virtual clock, the Tenant ingest/changes line protocols, the
// dirty-feed quarantine tripwire, cross-tenant verdict-byte isolation, the
// crash-recovery protocol (recovered_seq alignment, journal repair across
// REPEATED recoveries), and the /v1 HTTP surface end to end. The soak
// harness (tools/soak_harness) drills the same contracts against a live
// daemon under fault injection; these are the deterministic in-process
// versions CI runs on every build (docs/SERVICE.md).
#include "service/service.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "service/quota.h"
#include "service/tenant.h"

// Every operator new in this binary (the array and nothrow forms forward to
// it) is counted, then served by malloc, as in detect_sst_warmstart_test.
// Kept out of line so the compiler does not pair a new-expression with the
// free() inside.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace funnel::service {
namespace {

namespace fs = std::filesystem;

#define SKIP_IF_OBS_OFF()                                         \
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled to no-ops "   \
                                      "(FUNNEL_OBS=OFF)"

// ---------------------------------------------------------------------------
// TokenBucket: deterministic refusal/retry arithmetic on a virtual clock.

TEST(TokenBucket, UnlimitedByDefaultAndAtRateZero) {
  TokenBucket none;
  EXPECT_TRUE(none.unlimited());
  EXPECT_TRUE(none.try_acquire(1e9, 0.0));

  TokenBucket zero(0.0, 100.0);
  EXPECT_TRUE(zero.unlimited());
  EXPECT_TRUE(zero.try_acquire(1e9, 0.0));
}

TEST(TokenBucket, BurstThenRefillAtTheConfiguredRate) {
  TokenBucket bucket(10.0, 5.0);  // 10 samples/s, burst 5
  double retry = 0.0;
  // The full burst is available immediately...
  EXPECT_TRUE(bucket.try_acquire(5.0, 0.0, &retry));
  // ...and an empty bucket refuses with the exact wait for the shortfall.
  EXPECT_FALSE(bucket.try_acquire(2.0, 0.0, &retry));
  EXPECT_DOUBLE_EQ(retry, 0.2);  // need 2 tokens at 10/s
  // 0.1 s later one token has refilled: still short for 2.
  EXPECT_FALSE(bucket.try_acquire(2.0, 0.1, &retry));
  EXPECT_DOUBLE_EQ(retry, 0.1);
  // At 0.2 s the two tokens are there.
  EXPECT_TRUE(bucket.try_acquire(2.0, 0.2, &retry));
  // Refill saturates at the burst: after a long idle, exactly 5 tokens.
  EXPECT_DOUBLE_EQ(bucket.available(100.0), 5.0);
}

TEST(TokenBucket, OversizedBatchesRunDebtInsteadOfStarving) {
  TokenBucket bucket(10.0, 5.0);
  // A batch larger than the burst can never find `n` tokens; it is admitted
  // against a full bucket and drives the fill negative, throttling the
  // average rate without refusing the request forever.
  EXPECT_TRUE(bucket.try_acquire(25.0, 0.0));
  EXPECT_DOUBLE_EQ(bucket.available(0.0), -20.0);
  // The debt pays down at the configured rate; a 1-sample request needs the
  // fill back to +1, i.e. 21 tokens at 10/s.
  double retry = 0.0;
  EXPECT_FALSE(bucket.try_acquire(1.0, 0.0, &retry));
  EXPECT_DOUBLE_EQ(retry, 2.1);
  EXPECT_TRUE(bucket.try_acquire(1.0, 2.1, &retry));
}

TEST(TokenBucket, ReconfigureClampsFillAndKeepsDefaults) {
  TokenBucket bucket(10.0, 100.0);
  EXPECT_TRUE(bucket.try_acquire(10.0, 0.0));  // fill now 90
  bucket.configure(10.0, 20.0);                // shrink the burst
  EXPECT_DOUBLE_EQ(bucket.available(0.0), 20.0);
  // burst = 0 defaults to one second's worth of rate.
  TokenBucket secondish(8.0, 0.0);
  EXPECT_DOUBLE_EQ(secondish.available(0.0), 8.0);
}

// ---------------------------------------------------------------------------
// Tenant line protocols (in-memory).

/// Deterministic sample feed shared by the isolation/recovery tests: two
/// servers of "svc", one KPI, values varied by a seeded Rng; a dark change
/// on s0 at minute 45 with a level shift so the verdict is a detection.
std::string sample_lines(MinuteTime from, MinuteTime to, unsigned seed) {
  Rng rng(seed);
  std::ostringstream out;
  for (MinuteTime t = from; t < to; ++t) {
    for (const char* srv : {"s0", "s1"}) {
      double v = 10.0 + rng.uniform(-0.5, 0.5);
      if (srv[1] == '0' && t >= 45) v += 8.0;  // the shifted (treated) server
      out << "svc," << srv << ",cpu," << t << "," << v << "\n";
    }
  }
  return out.str();
}

TenantOptions small_funnel(std::string name) {
  TenantOptions opts;
  opts.name = std::move(name);
  opts.funnel.horizon = 20;
  opts.funnel.lookback = 30;
  opts.funnel.min_did_window = 6;
  return opts;
}

TEST(Tenant, IngestParsesCountsAndAlignsAppliedSeq) {
  Tenant tenant(small_funnel("t"));
  const IngestResult r = tenant.ingest(
      "svc,s0,cpu,1,10.5\n"
      "svc,s1,cpu,1,nan\n"       // delivered-but-broken reading: accepted
      "\n"                        // blank: ignored entirely
      "# comment\n"               // comment: ignored entirely
      "svc,s0,cpu,not-a-minute,1\n"
      "too,few\n");
  EXPECT_EQ(r.accepted, 2u);
  EXPECT_EQ(r.malformed, 2u);
  EXPECT_FALSE(r.quarantined);
  // Seq alignment: one accepted sample = one WAL-visible action.
  EXPECT_EQ(tenant.applied_seq(), 2u);
  EXPECT_EQ(tenant.accepted_samples(), 2u);
  EXPECT_EQ(tenant.malformed_lines(), 2u);
}

TEST(Tenant, OutOfRangeMinutesAreMalformed) {
  Tenant tenant(small_funnel("t"));
  // Each ingest line names a series the tenant has not seen, so a minute
  // read wrongly could only start a series, never grow one.
  IngestResult r = tenant.ingest(
      "svc,s0,kpi_a,99999999999999999999,1\n"
      "svc,s0,kpi_b,-9223372036854775809,1\n");
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_EQ(r.malformed, 2u);
  // Leading zeros and a negative zero still parse.
  r = tenant.ingest(
      "svc,s0,kpi_c,007,1.5\n"
      "svc,s0,kpi_d,-0,2.5\n");
  EXPECT_EQ(r.accepted, 2u);
  EXPECT_EQ(r.malformed, 0u);
  tenant.store().flush();
  EXPECT_EQ(tenant.store().metric_count(), 2u);
  EXPECT_EQ(
      tenant.store().series(tsdb::server_metric("s0", "kpi_c")).start_time(),
      7);
  EXPECT_EQ(
      tenant.store().series(tsdb::server_metric("s0", "kpi_d")).start_time(),
      0);

  std::size_t malformed = 0;
  EXPECT_TRUE(tenant
                  .register_changes(
                      "99999999999999999999,svc,full,s0,big\n"
                      "-9223372036854775809,svc,full,s0,small\n",
                      &malformed)
                  .empty());
  EXPECT_EQ(malformed, 2u);
  const auto ids = tenant.register_changes(
      "007,svc,full,s0,seven\n"
      "-0,svc,full,s0,zero\n",
      &malformed);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(malformed, 2u);
  // Registration is idempotent on (service, minute, description), so the
  // same changes at minutes 7 and 0 reuse the ids.
  EXPECT_EQ(tenant.register_changes("7,svc,full,s0,seven\n"
                                    "0,svc,full,s0,zero\n"),
            ids);
}

TEST(Tenant, ChangeRegistrationIsIdempotentOnServiceTimeDescription) {
  Tenant tenant(small_funnel("t"));
  tenant.ingest(sample_lines(0, 50, 1));
  const auto first = tenant.register_changes("45,svc,dark,s0,chg-0\n");
  ASSERT_EQ(first.size(), 1u);
  const std::uint64_t seq_after_first = tenant.applied_seq();

  // A re-sent line (the crash-resume path) reuses the id and does NOT
  // advance the seq again — the watch marker already exists.
  std::size_t malformed = 0;
  const auto again = tenant.register_changes("45,svc,dark,s0,chg-0\n",
                                             &malformed);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], first[0]);
  EXPECT_EQ(malformed, 0u);
  EXPECT_EQ(tenant.applied_seq(), seq_after_first);

  // '*' expands to every server of the service; parse failures count.
  const auto starred = tenant.register_changes(
      "60,svc,full,*,chg-1\n"
      "not,a,change\n",
      &malformed);
  ASSERT_EQ(starred.size(), 1u);
  EXPECT_NE(starred[0], first[0]);
  EXPECT_EQ(malformed, 1u);
}

TEST(Tenant, WatchFinalizesIntoTheReport) {
  Tenant tenant(small_funnel("t"));
  tenant.ingest(sample_lines(0, 46, 1));
  tenant.register_changes("45,svc,dark,s0,chg-0\n");
  EXPECT_EQ(tenant.active_watches(), 1u);
  tenant.ingest(sample_lines(46, 100, 2));
  EXPECT_EQ(tenant.active_watches(), 0u);
  const std::string report = tenant.report_json();
  EXPECT_NE(report.find("\"reports\":["), std::string::npos);
  EXPECT_NE(report.find("\"change_id\":0"), std::string::npos);
  EXPECT_NE(report.find("\"change_time\":45"), std::string::npos);
  EXPECT_NE(report.find("\"quarantined\":false"), std::string::npos);
}

TEST(Tenant, DirtyFeedTripsQuarantineWithMachineReadableReason) {
  TenantOptions opts = small_funnel("t");
  opts.max_malformed_per_batch = 3;
  Tenant tenant(opts);
  tenant.ingest(sample_lines(0, 46, 1));
  tenant.register_changes("45,svc,dark,s0,chg-0\n");

  std::string garbage;
  for (int i = 0; i < 10; ++i) garbage += "complete garbage line\n";
  const IngestResult r = tenant.ingest(garbage);
  EXPECT_TRUE(r.quarantined);
  EXPECT_TRUE(tenant.quarantined());
  EXPECT_EQ(tenant.quarantine_reason().rfind("dirty-feed", 0), 0u)
      << tenant.quarantine_reason();

  // Quarantine force-finalized the active watch: the verdict exists and is
  // inconclusive rather than silently missing.
  EXPECT_EQ(tenant.active_watches(), 0u);
  EXPECT_NE(tenant.report_json().find("\"change_id\":0"), std::string::npos);

  // Later batches are refused outright, and the FIRST reason sticks.
  const IngestResult refused = tenant.ingest("svc,s0,cpu,50,10\n");
  EXPECT_TRUE(refused.quarantined);
  EXPECT_EQ(refused.accepted, 0u);
  tenant.quarantine("second-reason");
  EXPECT_EQ(tenant.quarantine_reason().rfind("dirty-feed", 0), 0u);
}

// ---------------------------------------------------------------------------
// Cross-tenant isolation: a neighbour's abuse never alters verdict bytes.

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Tenant, NeighbourFaultsNeverAlterACleanTenantsVerdictBytes) {
  SKIP_IF_OBS_OFF();  // the byte-compare is over the verdict journal
  const fs::path work =
      fs::temp_directory_path() / "funnel_service_isolation_test";
  fs::remove_all(work);
  fs::create_directories(work);

  const auto drive_clean = [&](Tenant& tenant) {
    tenant.ingest(sample_lines(0, 46, 1));
    tenant.register_changes("45,svc,dark,s0,chg-0\n");
    tenant.ingest(sample_lines(46, 100, 2));
    tenant.report_json();  // flush so every verdict is finalized
  };

  // Baseline: the clean tenant alone in a process.
  {
    TenantOptions opts = small_funnel("solo");
    opts.journal_path = (work / "solo.jsonl").string();
    Tenant solo(opts);
    drive_clean(solo);
  }

  // Same feed, same tenant shape — but a noisy neighbour in-process that
  // ingests garbage, trips quarantine, and hammers its own quota.
  {
    TenantOptions clean_opts = small_funnel("clean");
    clean_opts.journal_path = (work / "clean.jsonl").string();
    Tenant clean(clean_opts);
    TenantOptions dirty_opts = small_funnel("dirty");
    dirty_opts.journal_path = (work / "dirty.jsonl").string();
    dirty_opts.max_malformed_per_batch = 0;
    Tenant dirty(dirty_opts);

    dirty.ingest(sample_lines(0, 46, 3));
    clean.ingest(sample_lines(0, 46, 1));
    dirty.ingest("garbage\n");  // quarantines (max_malformed 0)
    clean.register_changes("45,svc,dark,s0,chg-0\n");
    EXPECT_TRUE(dirty.quarantined());
    clean.ingest(sample_lines(46, 100, 2));
    dirty.ingest(sample_lines(46, 100, 3));  // refused: quarantined
    clean.report_json();
  }

  const std::string solo = slurp(work / "solo.jsonl");
  ASSERT_FALSE(solo.empty());
  EXPECT_EQ(slurp(work / "clean.jsonl"), solo);
  fs::remove_all(work);
}

// ---------------------------------------------------------------------------
// Crash recovery: seq alignment and journal repair across REPEATED
// recoveries (regression: a recovered journal is append-mode, so checkpoints
// must record journal_base_ + written(), not written() alone — or the next
// recovery truncates the pre-crash prefix away).

TEST(Tenant, RecoveryAlignsSeqAndPreservesJournalAcrossIncarnations) {
  SKIP_IF_OBS_OFF();  // journal bytes are the recovery oracle
  const fs::path work =
      fs::temp_directory_path() / "funnel_service_recovery_test";
  fs::remove_all(work);

  TenantOptions opts = small_funnel("t");
  opts.data_dir = (work / "t").string();

  std::uint64_t seq_at_shutdown = 0;
  std::string journal_after_run1;

  // Incarnation 1: two finalized changes, but only the FIRST is covered by
  // a checkpoint — the second verdict exists only in journal + WAL tail.
  {
    Tenant tenant(opts);
    EXPECT_EQ(tenant.recovered_seq(), 0u);
    tenant.ingest(sample_lines(0, 46, 1));
    tenant.register_changes("45,svc,dark,s0,chg-0\n");
    tenant.ingest(sample_lines(46, 100, 2));
    EXPECT_EQ(tenant.active_watches(), 0u);  // chg-0 finalized
    tenant.checkpoint();
    tenant.register_changes("95,svc,dark,s1,chg-1\n");
    tenant.ingest(sample_lines(100, 150, 3));
    EXPECT_EQ(tenant.active_watches(), 0u);  // chg-1 finalized, no ckpt
    seq_at_shutdown = tenant.applied_seq();
  }
  journal_after_run1 = slurp(fs::path(opts.data_dir) / "journal.jsonl");
  ASSERT_FALSE(journal_after_run1.empty());

  // Incarnation 2: recovery rewinds the journal to the checkpoint (chg-0's
  // event) and replays the WAL tail, re-finalizing chg-1 and re-emitting
  // its verdict byte-identically; a checkpoint HERE must account for the
  // pre-existing journal prefix.
  {
    Tenant tenant(opts);
    EXPECT_EQ(tenant.recovered_seq(), seq_at_shutdown);
    EXPECT_EQ(tenant.applied_seq(), seq_at_shutdown);
    EXPECT_FALSE(tenant.quarantined());
    // Re-sent registrations dedup against the recovered index: same ids,
    // no new WAL records.
    const auto ids = tenant.register_changes(
        "45,svc,dark,s0,chg-0\n"
        "95,svc,dark,s1,chg-1\n");
    EXPECT_EQ(ids.size(), 2u);
    EXPECT_EQ(tenant.applied_seq(), seq_at_shutdown);
    // The tail replay re-finalized chg-1, so THIS incarnation has its
    // report; chg-0 retired before the checkpoint — its durable record is
    // the journal line, not /v1/report (docs/SERVICE.md, "Crash recovery").
    const std::string report = tenant.report_json();
    EXPECT_NE(report.find("\"change_id\":1"), std::string::npos);
    EXPECT_EQ(report.find("\"change_id\":0,"), std::string::npos);
    // checkpoint() flushes the journal: the repaired prefix + the replayed
    // re-emission must reproduce the pre-shutdown file exactly.
    tenant.checkpoint();
    EXPECT_EQ(slurp(fs::path(opts.data_dir) / "journal.jsonl"),
              journal_after_run1);
  }

  // Incarnation 3: repair_journal keeps everything the incarnation-2
  // checkpoint covered — i.e. the WHOLE file, not just the events written
  // since the last recovery.
  {
    Tenant tenant(opts);
    EXPECT_EQ(tenant.recovered_seq(), seq_at_shutdown);
    EXPECT_FALSE(tenant.quarantined());
    EXPECT_EQ(slurp(fs::path(opts.data_dir) / "journal.jsonl"),
              journal_after_run1);
  }
  fs::remove_all(work);
}

// ---------------------------------------------------------------------------
// The /v1 HTTP surface end to end (needs the obs HTTP server).

/// Minimal raw HTTP client: one request, read to EOF, return the raw bytes.
std::string http(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string post(int port, const std::string& path, const std::string& body) {
  return http(port, "POST " + path + " HTTP/1.1\r\nHost: t\r\n"
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n\r\n" + body);
}

std::string get(int port, const std::string& path) {
  return http(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

// ---------------------------------------------------------------------------
// One store submit per POST: a body ingested whole leaves the same store,
// WAL, meta.log and seq as the same lines POSTed one at a time, and costs
// well under one heap allocation per accepted sample once warm.

struct IngestOutcome {
  std::string wal;
  std::string meta;
  std::uint64_t applied_seq = 0;
  std::size_t accepted = 0;
  std::size_t malformed = 0;
  std::map<tsdb::MetricId, std::vector<double>> series;
};

IngestOutcome ingest_lines(const fs::path& dir, const std::string& body,
                           bool one_post_per_line) {
  fs::remove_all(dir);
  TenantOptions opts = small_funnel("t");
  opts.data_dir = dir.string();
  IngestOutcome out;
  {
    Tenant tenant(opts);
    const auto account = [&](const IngestResult& r) {
      out.accepted += r.accepted;
      out.malformed += r.malformed;
    };
    account(tenant.ingest(sample_lines(0, 3, 1)));  // s0 and s1 exist
    if (one_post_per_line) {
      std::istringstream lines(body);
      for (std::string line; std::getline(lines, line);) {
        account(tenant.ingest(line + "\n"));
      }
    } else {
      account(tenant.ingest(body));
    }
    tenant.store().flush();
    tenant.store().wal_flush();
    out.applied_seq = tenant.applied_seq();
    for (const tsdb::MetricId& id : tenant.store().metrics()) {
      tenant.store().read(id, [&](const tsdb::TimeSeries& s) {
        out.series[id] = s.slice(s.start_time(), s.end_time());
      });
    }
    out.wal = slurp(dir / "wal-000001.log");
    out.meta = slurp(dir / "meta.log");
  }
  fs::remove_all(dir);
  return out;
}

void expect_same_ingest(const IngestOutcome& got, const IngestOutcome& want) {
  EXPECT_FALSE(want.wal.empty());
  EXPECT_EQ(got.wal, want.wal);
  EXPECT_EQ(got.meta, want.meta);
  EXPECT_EQ(got.applied_seq, want.applied_seq);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.malformed, want.malformed);
  ASSERT_EQ(got.series.size(), want.series.size());
  for (const auto& [id, values] : want.series) {
    const auto it = got.series.find(id);
    ASSERT_NE(it, got.series.end()) << id.to_string();
    ASSERT_EQ(it->second.size(), values.size()) << id.to_string();
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (std::isnan(values[i])) {
        EXPECT_TRUE(std::isnan(it->second[i])) << id.to_string() << " " << i;
      } else {
        EXPECT_EQ(it->second[i], values[i]) << id.to_string() << " " << i;
      }
    }
  }
}

TEST(Tenant, OnePostEqualsOnePostPerLineAcrossANewServer) {
  const fs::path work = fs::temp_directory_path() / "funnel_service_batch";
  // The middle line adds server s2; the lines before it reach the store
  // before the topology changes, the lines after it after.
  const std::string body =
      "svc,s0,cpu,3,10.5\n"
      "svc,s1,cpu,3,11.5\n"
      "svc,s0,mem_utilization_pct,3,40\n"
      "svc,s2,cpu,3,12.5\n"
      "svc,s2,cpu,4,12.75\n"
      "svc,s0,cpu,4,10.25\n"
      "svc,s1,cpu,1,99\n"     // duplicate: first write wins
      "svc,s1,cpu,-4,1\n"     // before the series start: too old
      "web,w0,cpu,4,nan\n"    // a second new server, of a new service
      "svc,s1,cpu,4,11.25\n";
  const IngestOutcome per_line = ingest_lines(work, body, true);
  const IngestOutcome whole = ingest_lines(work, body, false);
  expect_same_ingest(whole, per_line);
  EXPECT_EQ(whole.accepted, 6u + 10u);
  EXPECT_NE(whole.meta.find("server,svc,s2\nserver,web,w0\n"),
            std::string::npos);
}

TEST(Tenant, OnePostEqualsOnePostPerLineAcrossMalformedLines) {
  const fs::path work = fs::temp_directory_path() / "funnel_service_batch";
  std::string body =
      "svc,s0,cpu,3,10.5\n"
      "garbage\n"
      "svc,s1,cpu,3, 11.5\n"        // strtod skips leading blanks
      "svc,s0,cpu,x,1\n"            // bad minute
      "svc,s0,cpu,4,1,extra\n"      // six fields
      "svc,,cpu,4,1\n"              // empty server
      "svc,s0,cpu,4,1e999\n"        // out of range
      "svc,s0,cpu,4,0x1p3\n"        // hexadecimal: accepted
      "svc,s1,cpu,4,12.5abc\n"      // trailing junk
      "svc,s1,cpu,4,\n"             // empty value: NaN
      "svc,s3,cpu,4,1" + std::string(70, '0') + "\n"  // long but valid
      "# comment\n"
      "\n"
      "svc,s1,cpu,5,13.5\r\n";
  // The decimal parser's boundaries, each on its own minute of s0 from
  // minute 10 on: 15 vs 16 significant digits and 22 vs 23 fraction digits
  // (the fast path's limits), then text only strtod reads, then two values
  // out of range.
  const std::vector<std::string> boundary = {
      "123456789012345", "1234567890123456", "0.0000000123456789012345",
      "0.00000001234567890123456", "-0", "1.", ".5", "+1", " 1", "1e3",
      "0x10", "inf", "nan(1)", "1e400", "4.9e-324"};
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    body += "svc,s0,cpu," + std::to_string(10 + i) + "," + boundary[i] + "\n";
  }
  const IngestOutcome per_line = ingest_lines(work, body, true);
  const IngestOutcome whole = ingest_lines(work, body, false);
  expect_same_ingest(whole, per_line);
  EXPECT_EQ(whole.malformed, 6u + 2u);
  EXPECT_EQ(whole.accepted, 6u + 6u + 13u);

  // Every accepted boundary value is strtod's, bit for bit.
  const std::vector<double>& s0 =
      whole.series.at(tsdb::server_metric("s0", "cpu"));
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    const std::size_t minute = 10 + i;
    char* end = nullptr;
    errno = 0;
    const double want = std::strtod(boundary[i].c_str(), &end);
    if (*end != '\0' || errno == ERANGE) {
      EXPECT_TRUE(minute >= s0.size() || std::isnan(s0[minute]))
          << boundary[i];
      continue;
    }
    ASSERT_LT(minute, s0.size()) << boundary[i];
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(s0[minute])) << boundary[i];
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s0[minute]),
                std::bit_cast<std::uint64_t>(want))
          << boundary[i];
    }
  }
}

/// One minute of a 900-line body with funnelbench online_day's names: six
/// services of 30 servers, each with the evalkit schema's five KPIs (two of
/// them too long for the short-string buffer).
std::string fleet_minute(MinuteTime t) {
  static const char* const kKpis[] = {"cpu_context_switch",
                                      "memory_utilization", "page_view_count",
                                      "response_delay", "error_count"};
  std::string body;
  char line[128];
  for (int s = 0; s < 6; ++s) {
    for (int v = 0; v < 30; ++v) {
      for (int k = 0; k < 5; ++k) {
        std::snprintf(line, sizeof(line),
                      "svc%02d,svc%02d-srv%d,%s,%lld,%.3f\n", s, s, v,
                      kKpis[k], static_cast<long long>(t),
                      10.0 + 0.5 * k + 0.01 * static_cast<double>(v + t));
        body += line;
      }
    }
  }
  return body;
}

/// Heap allocations per accepted sample over the hour after the first
/// minute, which grows the topology (the series' own amortized growth is
/// in the count). Each count spans the ingest and the dispatcher and WAL
/// work it queued.
double allocations_per_sample(Tenant& tenant) {
  constexpr MinuteTime kMinutes = 60;
  EXPECT_EQ(tenant.ingest(fleet_minute(0)).accepted, 900u);
  std::size_t made = 0;
  std::size_t accepted = 0;
  for (MinuteTime t = 1; t <= kMinutes; ++t) {
    const std::string body = fleet_minute(t);
    const std::size_t before = g_allocations.load();
    accepted += tenant.ingest(body).accepted;
    tenant.store().flush();
    tenant.store().wal_flush();
    made += g_allocations.load() - before;
  }
  EXPECT_EQ(accepted, static_cast<std::size_t>(kMinutes) * 900u);
  return static_cast<double>(made) / static_cast<double>(accepted);
}

// A known name resolves to its ref without allocating, so what is left is
// each series' amortized growth (~0.10 per sample) plus the chunks of the
// dispatcher's and the WAL writer's queues (~0.10 each when in use).
TEST(Tenant, IngestMakesFewHeapAllocationsPerAcceptedSample) {
  {
    Tenant tenant(small_funnel("memory"));
    const double per_sample = allocations_per_sample(tenant);
    RecordProperty("in_memory", std::to_string(per_sample));
    EXPECT_LT(per_sample, 0.15);
  }
  {
    Tenant tenant(small_funnel("subscribed"));
    tenant.store().subscribe({}, [](const tsdb::MetricId&, MinuteTime,
                                    double) {});
    const double per_sample = allocations_per_sample(tenant);
    RecordProperty("catch_all_subscriber", std::to_string(per_sample));
    EXPECT_LT(per_sample, 0.3);
  }
  {
    const fs::path dir =
        fs::temp_directory_path() / "funnel_service_allocations";
    fs::remove_all(dir);
    TenantOptions opts = small_funnel("persistent");
    opts.data_dir = dir.string();
    {
      Tenant tenant(opts);
      const double per_sample = allocations_per_sample(tenant);
      RecordProperty("persistent", std::to_string(per_sample));
      EXPECT_LT(per_sample, 0.3);
    }
    fs::remove_all(dir);
  }
}

int status_of(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(FunnelService, V1SurfaceServesIngestChangesReportAndStatus) {
  SKIP_IF_OBS_OFF();
  ServiceOptions sopts;
  sopts.tenant_defaults = small_funnel("");
  FunnelService service(std::move(sopts));
  service.add_tenant("alpha");
  service.add_tenant("beta");
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;
  const int port = service.port();

  // Unknown tenant: 404 before any work happens.
  EXPECT_EQ(status_of(post(port, "/v1/ingest/nobody", "x\n")), 404);

  const std::string ingest =
      post(port, "/v1/ingest/alpha", sample_lines(0, 46, 1));
  EXPECT_EQ(status_of(ingest), 200);
  EXPECT_NE(body_of(ingest).find("\"accepted\":92"), std::string::npos)
      << body_of(ingest);

  const std::string changes =
      post(port, "/v1/changes/alpha", "45,svc,dark,s0,chg-0\n");
  EXPECT_EQ(status_of(changes), 200);
  EXPECT_NE(body_of(changes).find("\"registered\":[0]"), std::string::npos)
      << body_of(changes);

  EXPECT_EQ(status_of(post(port, "/v1/ingest/alpha",
                           sample_lines(46, 100, 2))),
            200);

  const std::string report = get(port, "/v1/report/alpha");
  EXPECT_EQ(status_of(report), 200);
  EXPECT_NE(body_of(report).find("\"change_id\":0"), std::string::npos);
  EXPECT_NE(body_of(report).find("\"change_time\":45"), std::string::npos);

  const std::string seq = get(port, "/v1/seq/alpha");
  EXPECT_EQ(status_of(seq), 200);
  EXPECT_NE(body_of(seq).find("\"recovered_seq\":0"), std::string::npos);

  // beta is untouched by alpha's traffic.
  const std::string beta = get(port, "/v1/status/beta");
  EXPECT_NE(body_of(beta).find("\"accepted_samples\":0"), std::string::npos);

  const std::string tenants = get(port, "/v1/tenants");
  EXPECT_NE(body_of(tenants).find("alpha"), std::string::npos);
  EXPECT_NE(body_of(tenants).find("beta"), std::string::npos);
  service.stop();
}

TEST(FunnelService, QuotaRefusalsCarryRetryAfterAndSpareOtherTenants) {
  SKIP_IF_OBS_OFF();
  ServiceOptions sopts;
  sopts.tenant_defaults = small_funnel("");
  FunnelService service(std::move(sopts));
  TenantOptions greedy = small_funnel("greedy");
  greedy.quota.rate_per_sec = 0.001;  // effectively no refill in-test
  greedy.quota.burst = 4.0;
  service.add_tenant(std::move(greedy));
  service.add_tenant("steady");
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;
  const int port = service.port();

  // First batch: larger than the burst, admitted against the full bucket
  // (debt semantics) — the door opens once.
  EXPECT_EQ(status_of(post(port, "/v1/ingest/greedy",
                           sample_lines(0, 10, 1))),
            200);
  // Second batch: the bucket is deep in debt -> 429 with a Retry-After.
  const std::string refused =
      post(port, "/v1/ingest/greedy", sample_lines(10, 20, 1));
  EXPECT_EQ(status_of(refused), 429);
  EXPECT_NE(refused.find("Retry-After:"), std::string::npos);
  EXPECT_NE(body_of(refused).find("over-quota"), std::string::npos)
      << body_of(refused);

  // The unlimited neighbour is untouched by greedy's refusals.
  EXPECT_EQ(status_of(post(port, "/v1/ingest/steady",
                           sample_lines(0, 10, 2))),
            200);
  service.stop();
}

TEST(FunnelService, QuarantineAnswers503AndFailsItsHealthCheckOnly) {
  SKIP_IF_OBS_OFF();
  ServiceOptions sopts;
  sopts.tenant_defaults = small_funnel("");
  FunnelService service(std::move(sopts));
  service.add_tenant("sick");
  service.add_tenant("fine");
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;
  const int port = service.port();

  EXPECT_EQ(status_of(get(port, "/healthz")), 200);
  EXPECT_EQ(status_of(post(port, "/v1/quarantine/sick", "drill-reason")),
            200);

  // Quarantined tenant: 503 carrying the machine-readable reason.
  const std::string refused = post(port, "/v1/ingest/sick", "svc,s,cpu,1,1\n");
  EXPECT_EQ(status_of(refused), 503);
  EXPECT_NE(body_of(refused).find("drill-reason"), std::string::npos);

  // /healthz degrades with per-tenant detail; the healthy tenant serves on.
  const std::string health = get(port, "/healthz");
  EXPECT_EQ(status_of(health), 503);
  EXPECT_NE(body_of(health).find("tenant:sick"), std::string::npos);
  EXPECT_NE(body_of(health).find("drill-reason"), std::string::npos);
  EXPECT_EQ(status_of(post(port, "/v1/ingest/fine", "svc,s,cpu,1,1\n")), 200);
  service.stop();
}

TEST(FunnelService, DynamicTenantsSpringIntoExistenceOnFirstPost) {
  SKIP_IF_OBS_OFF();
  ServiceOptions sopts;
  sopts.tenant_defaults = small_funnel("");
  sopts.allow_dynamic_tenants = true;
  FunnelService service(std::move(sopts));
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;
  const int port = service.port();

  EXPECT_EQ(service.tenant_count(), 0u);
  EXPECT_EQ(status_of(post(port, "/v1/ingest/new-tenant", "svc,s,cpu,1,1\n")),
            200);
  EXPECT_EQ(service.tenant_count(), 1u);
  // Dynamic creation is a POST-ingest/changes privilege: GETs still 404.
  EXPECT_EQ(status_of(get(port, "/v1/report/still-nobody")), 404);
  EXPECT_THROW(service.add_tenant("new-tenant"), InvalidArgument);
  service.stop();
}

}  // namespace
}  // namespace funnel::service
