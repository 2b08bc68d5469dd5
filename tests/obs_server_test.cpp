// Tests for the embedded HTTP exposition server (obs/server.h) and the
// telemetry plane on top of it (obs/plane.h): request parsing and routing
// (GET/HEAD/405/404/400), load shedding, clean shutdown + restart, the
// port-conflict failure contract, the plane's endpoint set and its
// evaluate_health() threshold checks, and — the concurrency pin — the
// snapshot-while-writing hammer: worker threads serving /metrics-style
// Prometheus exports of a live Registry while producer threads drive the
// hot-path recorders. scripts/tsan_concurrency.sh runs this suite under
// ThreadSanitizer; a report here means a handler touched non-thread-safe
// state.
//
// Also the promtool-shaped exposition-format tests (docs/OBSERVABILITY.md):
// every /metrics line must match the Prometheus text grammar, histograms
// must carry cumulative buckets + the +Inf bucket + _sum/_count, and
// non-finite gauge values must render as NaN/+Inf/-Inf (not the JSON
// exporter's null) — the regression that motivated the prom_number_to
// split in obs/export.cpp.
#include "obs/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/plane.h"
#include "obs/registry.h"

namespace funnel::obs {
namespace {

/// Minimal raw HTTP client: one request, read to EOF (the server closes
/// every connection), return the full response bytes. Empty on any error.
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
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

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_exchange(port,
                       "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

int status_of(const std::string& response) {
  // "HTTP/1.1 NNN reason\r\n..."
  if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(ObsServer, RoutesGetHeadAndErrors) {
  HttpServer server;  // port 0 = ephemeral
  server.handle("/ping", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "pong\n";
    return r;
  });
  server.handle("/echo", [](const HttpRequest& req) {
    HttpResponse r;
    r.body = req.method + " " + req.path + " q=" + req.query;
    return r;
  });
  server.handle("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  ASSERT_TRUE(server.start()) << server.error();
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string ok = http_get(server.port(), "/ping");
  EXPECT_EQ(status_of(ok), 200);
  EXPECT_EQ(body_of(ok), "pong\n");
  EXPECT_NE(ok.find("Connection: close"), std::string::npos);

  // The query string is split off the routed path and handed to the handler.
  const std::string echo = http_get(server.port(), "/echo?x=1&y=2");
  EXPECT_EQ(status_of(echo), 200);
  EXPECT_EQ(body_of(echo), "GET /echo q=x=1&y=2");

  // HEAD routes like GET but suppresses the body.
  const std::string head = http_exchange(
      server.port(), "HEAD /ping HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(status_of(head), 200);
  EXPECT_EQ(body_of(head), "");
  EXPECT_NE(head.find("Content-Length: 5"), std::string::npos);

  EXPECT_EQ(status_of(http_get(server.port(), "/nope")), 404);
  EXPECT_EQ(status_of(http_exchange(
                server.port(), "POST /ping HTTP/1.1\r\nHost: t\r\n\r\n")),
            405);
  EXPECT_EQ(status_of(http_exchange(server.port(), "not http at all\r\n\r\n")),
            400);
  EXPECT_EQ(status_of(http_get(server.port(), "/boom")), 500);

  EXPECT_GE(server.requests_served(), 6u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ObsServer, OversizedRequestHeadIsRejected) {
  HttpServerOptions options;
  options.max_request_bytes = 256;
  HttpServer server(options);
  server.handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.start()) << server.error();
  const std::string huge(1024, 'x');
  const std::string rsp = http_exchange(
      server.port(), "GET /ping HTTP/1.1\r\nX-Pad: " + huge + "\r\n\r\n");
  EXPECT_EQ(status_of(rsp), 400);
}

/// Like http_exchange but half-closes the write side after sending, so the
/// server sees EOF immediately instead of waiting out its read timeout —
/// needed to exercise the body-cut-short path without a 5 s stall.
std::string http_exchange_halfclose(std::uint16_t port,
                                    const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
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

TEST(ObsServer, PostBodyRoundTripsThroughTheHandler) {
  HttpServer server;
  server.handle_post("/sink", [](const HttpRequest& req) {
    HttpResponse r;
    r.body = "len=" + std::to_string(req.body.size()) + " body=" + req.body;
    return r;
  });
  ASSERT_TRUE(server.start()) << server.error();

  const std::string rsp = http_exchange(
      server.port(),
      "POST /sink HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\n\r\n"
      "hello\nworld");
  EXPECT_EQ(status_of(rsp), 200);
  EXPECT_EQ(body_of(rsp), "len=11 body=hello\nworld");

  // An empty body is a valid body: Content-Length: 0 routes normally.
  const std::string empty = http_exchange(
      server.port(),
      "POST /sink HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(status_of(empty), 200);
  EXPECT_EQ(body_of(empty), "len=0 body=");

  // GET on a POST-only path: the path is known, so 405 rather than 404.
  EXPECT_EQ(status_of(http_get(server.port(), "/sink")), 405);
}

TEST(ObsServer, PostBodyErrorLadder411_413_400) {
  HttpServerOptions options;
  options.max_body_bytes = 64;
  HttpServer server(options);
  server.handle_post("/sink",
                     [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.start()) << server.error();

  // POST without Content-Length: 411, never an implicit empty body.
  EXPECT_EQ(status_of(http_exchange(
                server.port(), "POST /sink HTTP/1.1\r\nHost: t\r\n\r\n")),
            411);

  // Declared length past max_body_bytes: 413 before reading the payload.
  EXPECT_EQ(status_of(http_exchange(
                server.port(),
                "POST /sink HTTP/1.1\r\nHost: t\r\nContent-Length: 65"
                "\r\n\r\n")),
            413);

  // Malformed Content-Length value: 400.
  EXPECT_EQ(status_of(http_exchange(
                server.port(),
                "POST /sink HTTP/1.1\r\nHost: t\r\nContent-Length: nope"
                "\r\n\r\nxx")),
            400);

  // Two Content-Length headers that disagree: a framing error (RFC 9112
  // §6.3), 400 whichever comes last.
  EXPECT_EQ(status_of(http_exchange(
                server.port(),
                "POST /sink HTTP/1.1\r\nHost: t\r\nContent-Length: 3"
                "\r\nContent-Length: 5\r\n\r\nabcde")),
            400);

  // An identical repeat frames the body the same way: accepted.
  EXPECT_EQ(status_of(http_exchange(
                server.port(),
                "POST /sink HTTP/1.1\r\nHost: t\r\nContent-Length: 3"
                "\r\ncontent-length: 3\r\n\r\nabc")),
            200);

  // Body cut short of the declared length (peer half-closes): 400.
  EXPECT_EQ(status_of(http_exchange_halfclose(
                server.port(),
                "POST /sink HTTP/1.1\r\nHost: t\r\nContent-Length: 10"
                "\r\n\r\nabc")),
            400);

  // At the bound exactly: accepted.
  const std::string max_body(64, 'x');
  EXPECT_EQ(status_of(http_exchange(
                server.port(),
                "POST /sink HTTP/1.1\r\nHost: t\r\nContent-Length: 64"
                "\r\n\r\n" +
                    max_body)),
            200);
}

TEST(ObsServer, PrefixRoutesLongestMatchAndExactWins) {
  HttpServer server;
  const auto tag = [](std::string name) {
    return [name](const HttpRequest& req) {
      HttpResponse r;
      r.body = name + ":" + req.path;
      return r;
    };
  };
  server.handle_prefix("/v1/", tag("root"));
  server.handle_prefix("/v1/report/", tag("report"));
  server.handle("/v1/report/exact", tag("exact"));
  server.handle_prefix("/v1/ingest/", tag("ingest"), /*post=*/true);
  ASSERT_TRUE(server.start()) << server.error();

  // Longest matching prefix wins over a shorter one.
  EXPECT_EQ(body_of(http_get(server.port(), "/v1/report/tenant-a")),
            "report:/v1/report/tenant-a");
  EXPECT_EQ(body_of(http_get(server.port(), "/v1/other")), "root:/v1/other");
  // Exact routes win over any prefix.
  EXPECT_EQ(body_of(http_get(server.port(), "/v1/report/exact")),
            "exact:/v1/report/exact");
  // Prefix routes are method-scoped: a POST prefix serves POST...
  const std::string post = http_exchange(
      server.port(),
      "POST /v1/ingest/tenant-a HTTP/1.1\r\nHost: t\r\nContent-Length: 2"
      "\r\n\r\nok");
  EXPECT_EQ(status_of(post), 200);
  EXPECT_EQ(body_of(post), "ingest:/v1/ingest/tenant-a");
  // ...while a GET to it falls back to the shorter GET prefix.
  EXPECT_EQ(body_of(http_get(server.port(), "/v1/ingest/tenant-a")),
            "root:/v1/ingest/tenant-a");
}

TEST(ObsServer, RestartsAfterStop) {
  HttpServer server;
  server.handle("/ping", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "pong\n";
    return r;
  });
  ASSERT_TRUE(server.start()) << server.error();
  const std::uint16_t first_port = server.port();
  EXPECT_EQ(status_of(http_get(first_port, "/ping")), 200);
  server.stop();
  server.stop();  // idempotent
  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_EQ(status_of(http_get(server.port(), "/ping")), 200);
  server.stop();
}

TEST(ObsServer, SecondBindOnSamePortFailsWithDiagnostic) {
  HttpServer first;
  ASSERT_TRUE(first.start()) << first.error();
  HttpServerOptions options;
  options.port = first.port();
  HttpServer second(options);
  EXPECT_FALSE(second.start());
  EXPECT_FALSE(second.running());
  // The error carries the address so the CLI's exit-3 diagnostic names the
  // conflicting port.
  EXPECT_NE(second.error().find("bind"), std::string::npos) << second.error();
  std::ostringstream port_text;
  port_text << first.port();
  EXPECT_NE(second.error().find(port_text.str()), std::string::npos)
      << second.error();
  first.stop();
  // Once the first listener is gone the port is bindable again.
  ASSERT_TRUE(second.start()) << second.error();
  second.stop();
}

TEST(ObsServer, StartWhileRunningFails) {
  HttpServer server;
  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_FALSE(server.start());
  EXPECT_TRUE(server.running());
  server.stop();
}

// The concurrency satellite: readers export the live registry through the
// server while producer threads hammer the hot-path recorders. Registry's
// contract says snapshot() is safe concurrent with recording; this pins it
// through the full /metrics path (socket -> worker -> snapshot -> export)
// under TSan.
TEST(ObsServer, MetricsExportRacesHotPathRecording) {
  Registry reg;
  reg.declare_counter("hammer.events");
  reg.declare_gauge("hammer.depth");
  HttpServerOptions options;
  options.num_workers = 3;
  HttpServer server(options);
  server.set_stats(&reg);
  server.handle("/metrics", [&reg](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = prometheus_text(reg.snapshot());
    return r;
  });
  ASSERT_TRUE(server.start()) << server.error();

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&reg, &stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        reg.add("hammer.events");
        reg.set("hammer.depth", double(t * 1000 + i % 97));
        reg.observe("hammer.lat_us", double(i % 500));
        ++i;
      }
    });
  }

  constexpr int kScrapes = 40;
  int ok_scrapes = 0;
  for (int i = 0; i < kScrapes; ++i) {
    const std::string rsp = http_get(server.port(), "/metrics");
    if (status_of(rsp) != 200) continue;
    ++ok_scrapes;
    EXPECT_NE(body_of(rsp).find("hammer_events"), std::string::npos);
  }
  stop.store(true);
  for (auto& p : producers) p.join();
  server.stop();
  EXPECT_EQ(ok_scrapes, kScrapes);

  // The server accounted for itself in the same registry.
  const Snapshot snap = reg.snapshot();
  EXPECT_GE(snap.counters.at("obs.server.requests"), std::uint64_t(kScrapes));
  EXPECT_GE(snap.histograms.at("obs.server.request_us").count,
            std::uint64_t(kScrapes));
}

// A full accept queue sheds with 503 instead of stalling the listener. One
// worker is parked inside a slow handler and the queue holds one more
// connection, so a burst of further requests must see shed responses while
// the pipeline (the slow handler) keeps running.
TEST(ObsServer, FullQueueSheds503) {
  HttpServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  HttpServer server(options);
  std::atomic<bool> release{false};
  server.handle("/slow", [&release](const HttpRequest&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return HttpResponse{};
  });
  ASSERT_TRUE(server.start()) << server.error();

  // Park the only worker.
  std::thread slow([&server] { http_get(server.port(), "/slow"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Burst: with the worker busy and capacity 1, at least one of these must
  // be shed from the accept thread.
  std::atomic<int> shed{0};
  std::vector<std::thread> burst;
  for (int i = 0; i < 6; ++i) {
    burst.emplace_back([&server, &shed] {
      if (status_of(http_get(server.port(), "/slow")) == 503) ++shed;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  release.store(true);
  for (auto& b : burst) b.join();
  slow.join();
  EXPECT_GE(shed.load(), 1);
  server.stop();
}

// ---------------------------------------------------------------------------
// Prometheus exposition shape ("promtool-style"): the /metrics body must
// parse under the text-format grammar, scrape after scrape.

const std::string kNamePattern = "[a-zA-Z_:][a-zA-Z0-9_:]*";
const std::string kValuePattern =
    "(?:[-+]?[0-9]+(?:\\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|\\+Inf|-Inf)";

/// One exposition line: a `# TYPE name counter|gauge|histogram` comment, or
/// a sample `name value` / `name{le="bound"} value`.
bool line_is_valid(const std::string& line) {
  static const std::regex kType("# TYPE " + kNamePattern +
                                " (?:counter|gauge|histogram)");
  static const std::regex kLine(
      kNamePattern + "(?:_bucket\\{le=\"(?:" + kValuePattern +
      ")\"\\})? " + kValuePattern);
  if (!line.empty() && line[0] == '#') return std::regex_match(line, kType);
  return std::regex_match(line, kLine);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(ObsPromExposition, EveryLineMatchesTheTextGrammar) {
  Registry reg;
  reg.add("funnel.online.samples_ingested", 12);
  reg.set("tsdb.store.queue_depth", 7.0);
  reg.set("weird-name.with dots&units(µs)", 1.5);  // sanitizer fodder
  for (const double v : {3.0, 12.0, 150.0, 1e9}) {
    reg.observe("funnel.assess.sst_us", v);
  }
  const std::string text = prometheus_text(reg.snapshot());
  const auto lines = split_lines(text);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_TRUE(line_is_valid(line)) << "bad exposition line: " << line;
  }
}

TEST(ObsPromExposition, HistogramSeriesAreCumulativeWithSumCountInf) {
  Registry reg;
  for (const double v : {3.0, 12.0, 150.0, 1e9}) reg.observe("h.us", v);
  const std::string text = prometheus_text(reg.snapshot());

  // _sum, _count and the +Inf bucket must all be present, and the +Inf
  // bucket must equal _count (cumulative histograms end at the total).
  EXPECT_NE(text.find("h_us_sum "), std::string::npos) << text;
  EXPECT_NE(text.find("h_us_count 4"), std::string::npos) << text;
  EXPECT_NE(text.find("h_us_bucket{le=\"+Inf\"} 4"), std::string::npos)
      << text;

  // Bucket counts must be non-decreasing in ladder order.
  static const std::regex kBucket(
      "h_us_bucket\\{le=\"([^\"]+)\"\\} ([0-9]+)");
  std::uint64_t prev = 0;
  std::size_t buckets = 0;
  for (std::sregex_iterator it(text.begin(), text.end(), kBucket), end;
       it != end; ++it) {
    const std::uint64_t count = std::stoull((*it)[2].str());
    EXPECT_GE(count, prev) << "non-cumulative bucket in:\n" << text;
    prev = count;
    ++buckets;
  }
  EXPECT_GE(buckets, 3u);
}

TEST(ObsPromExposition, NonFiniteGaugesRenderPrometheusNotJsonNull) {
  Registry reg;
  reg.set("g.nan", std::numeric_limits<double>::quiet_NaN());
  reg.set("g.pos", std::numeric_limits<double>::infinity());
  reg.set("g.neg", -std::numeric_limits<double>::infinity());
  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("g_nan NaN"), std::string::npos) << text;
  EXPECT_NE(text.find("g_pos +Inf"), std::string::npos) << text;
  EXPECT_NE(text.find("g_neg -Inf"), std::string::npos) << text;
  // A bare "null" (the JSON exporter's spelling) must never leak into the
  // exposition — that was the corruption this regression pins.
  EXPECT_EQ(text.find("null"), std::string::npos) << text;
  // The JSON exporter, by contrast, must keep using null (NaN is not JSON).
  const std::string json = snapshot_json(reg.snapshot());
  EXPECT_NE(json.find("\"g.nan\":null"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// TelemetryPlane routing: the endpoint set served over a real socket.

TEST(ObsPlane, ServesTheEndpointSet) {
  Registry reg;
  reg.add("funnel.online.samples_ingested", 3);
  PlaneOptions options;
  options.build_info = "obs_server_test";
  options.config_summary = "unit-test plane";
  TelemetryPlane plane(&reg, options);
  ASSERT_TRUE(plane.start()) << plane.error();
  const std::uint16_t port = plane.port();
  ASSERT_NE(port, 0);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_EQ(status_of(metrics), 200);
  EXPECT_NE(metrics.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(body_of(metrics).find("funnel_online_samples_ingested 3"),
            std::string::npos);

  const std::string stats = http_get(port, "/stats.json");
  EXPECT_EQ(status_of(stats), 200);
  EXPECT_NE(stats.find("application/json"), std::string::npos);
  EXPECT_NE(body_of(stats).find("\"enabled\":true"), std::string::npos);

  // Healthy with no subsystems registered: every check passes as "n/a".
  const std::string health = http_get(port, "/healthz");
  EXPECT_EQ(status_of(health), 200);
  EXPECT_EQ(body_of(health).substr(0, 8), "healthy\n");

  // Readiness flips with set_ready.
  EXPECT_EQ(status_of(http_get(port, "/readyz")), 503);
  plane.set_ready(true);
  const std::string ready = http_get(port, "/readyz");
  EXPECT_EQ(status_of(ready), 200);
  EXPECT_EQ(body_of(ready), "ready\n");

  const std::string statusz = http_get(port, "/statusz");
  EXPECT_EQ(status_of(statusz), 200);
  EXPECT_NE(body_of(statusz).find("obs_server_test"), std::string::npos);
  EXPECT_NE(body_of(statusz).find("unit-test plane"), std::string::npos);

  // The plane serves no trace endpoint.
  EXPECT_EQ(status_of(http_get(port, "/tracez")), 404);

  plane.stop();
  EXPECT_FALSE(plane.running());
}

// ---------------------------------------------------------------------------
// evaluate_health(): the instantaneous per-subsystem checks /healthz serves.

TEST(ObsHealth, EmptySnapshotIsHealthyWithAbsentSubsystems) {
  Registry reg;
  const HealthReport report = evaluate_health(reg.snapshot());
  EXPECT_TRUE(report.healthy);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_TRUE(report.checks[0].ok);
  EXPECT_EQ(report.checks[0].detail, "n/a");
  EXPECT_EQ(report.render(), "healthy\nok ingest-dispatcher n/a\n");
}

TEST(ObsHealth, SaturatedQueueFailsItsSubsystemCheck) {
  Registry reg;
  reg.set("tsdb.store.queue_depth", 1000.0);
  reg.set("tsdb.store.queue_capacity", 1024.0);
  const HealthReport saturated = evaluate_health(reg.snapshot());
  EXPECT_FALSE(saturated.healthy);
  ASSERT_EQ(saturated.checks.size(), 1u);
  EXPECT_EQ(saturated.render(),
            "unhealthy\nFAIL ingest-dispatcher queue 1000/1024\n");
  // A healthy queue passes, with its evidence.
  reg.set("tsdb.store.queue_depth", 3.0);
  reg.set("tsdb.store.queue_capacity", 512.0);
  const HealthReport healthy = evaluate_health(reg.snapshot());
  EXPECT_TRUE(healthy.healthy);
  EXPECT_EQ(healthy.render(), "healthy\nok ingest-dispatcher queue 3/512\n");
}

}  // namespace
}  // namespace funnel::obs
