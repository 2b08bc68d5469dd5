// Multi-tenant service-plane benchmark (docs/SERVICE.md, "Capacity"):
// what one funnel_serve-shaped process sustains through the full HTTP
// ingest path, and how fast a verdict comes back out.
//
//   1. Ingest grid: tenants x concurrent producers, each producer POSTing
//      minute-batches of samples to its tenant over a real loopback socket
//      (admission, parsing, WAL-less store append, dispatcher hand-off all
//      included). Reported as samples/s plus the p95 per-request wall time.
//   2. Ingest-to-verdict: one tenant, repeated watch cycles; the clock runs
//      from the POST of the deadline-crossing batch to the /v1/report
//      response that carries the finalized verdict. This is the service
//      analogue of the paper's "2.5 minutes instead of 1.5 hours" claim —
//      the pipeline tax on top of the detector's own horizon.
//
// The feed is deterministic (seeded Rng per producer) so runs are
// comparable. Writes BENCH_service.json (--json FILE to relocate) with the
// host it ran on (hardware threads, build type, git commit);
// tests/service_bench_smoke.cmake runs --quick and validates the shape.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "service/service.h"

using namespace funnel;
using service::FunnelService;
using service::ServiceOptions;
using service::TenantOptions;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One blocking request against the loopback listener; returns the raw
/// response bytes (empty on connect/send failure).
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
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string post(int port, const std::string& path, const std::string& body) {
  return http(port, "POST " + path + " HTTP/1.1\r\nHost: b\r\n"
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n\r\n" + body);
}

bool ok200(const std::string& response) {
  return response.compare(0, 12, "HTTP/1.1 200") == 0;
}

double p95(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.95 * static_cast<double>(v.size() - 1))];
}

/// One minute-batch for `server` of tenant feed `seed`: every producer owns
/// a disjoint server so concurrent batches never interleave one metric.
std::string batch_lines(const std::string& server, MinuteTime from,
                        MinuteTime to, Rng& rng) {
  std::ostringstream out;
  for (MinuteTime t = from; t < to; ++t) {
    out << "svc," << server << ",cpu," << t << ","
        << 10.0 + rng.uniform(-0.5, 0.5) << "\n";
  }
  return out.str();
}

struct GridPoint {
  std::size_t tenants = 0;
  std::size_t producers = 0;
  double samples_per_s = 0.0;
  double p95_request_ms = 0.0;
};

GridPoint run_grid_point(std::size_t tenants, std::size_t producers,
                         MinuteTime minutes) {
  ServiceOptions sopts;
  sopts.tenant_defaults.funnel.horizon = 20;
  sopts.tenant_defaults.funnel.lookback = 30;
  sopts.tenant_defaults.funnel.min_did_window = 6;
  FunnelService service(std::move(sopts));
  for (std::size_t t = 0; t < tenants; ++t) {
    service.add_tenant("tenant" + std::to_string(t));
  }
  std::string error;
  if (!service.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(1);
  }
  const int port = service.port();

  constexpr MinuteTime kBatch = 30;  // minutes per POST
  std::vector<std::vector<double>> request_ms(producers);
  std::vector<std::thread> threads;
  const double t0 = now_ms();
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::string path =
          "/v1/ingest/tenant" + std::to_string(p % tenants);
      const std::string server = "s" + std::to_string(p);
      Rng rng(1000 + static_cast<unsigned>(p));
      for (MinuteTime from = 0; from < minutes; from += kBatch) {
        const MinuteTime to = std::min(minutes, from + kBatch);
        const std::string body = batch_lines(server, from, to, rng);
        const double r0 = now_ms();
        // 429 busy (tenant mutex contention) is part of the contract:
        // retry like a well-behaved client, count the total wall time.
        while (!ok200(post(port, path, body))) {
        }
        request_ms[p].push_back(now_ms() - r0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s = (now_ms() - t0) / 1000.0;
  service.stop();

  std::vector<double> all;
  for (const auto& v : request_ms) all.insert(all.end(), v.begin(), v.end());
  GridPoint point;
  point.tenants = tenants;
  point.producers = producers;
  point.samples_per_s =
      static_cast<double>(producers * static_cast<std::size_t>(minutes)) /
      wall_s;
  point.p95_request_ms = p95(std::move(all));
  return point;
}

struct VerdictCost {
  std::size_t watches = 0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
};

/// Repeated watch cycles on one tenant: feed to the change minute, watch,
/// then clock POST(deadline-crossing batch) -> report carrying the verdict.
VerdictCost run_verdict_cycles(std::size_t cycles) {
  ServiceOptions sopts;
  sopts.tenant_defaults.funnel.horizon = 20;
  sopts.tenant_defaults.funnel.lookback = 30;
  sopts.tenant_defaults.funnel.min_did_window = 6;
  FunnelService service(std::move(sopts));
  service.add_tenant("t");
  std::string error;
  if (!service.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(1);
  }
  const int port = service.port();

  Rng rng(7);
  std::vector<double> latencies;
  MinuteTime minute = 0;
  const auto feed = [&](MinuteTime to) {
    std::ostringstream out;
    for (; minute < to; ++minute) {
      for (const char* srv : {"s0", "s1"}) {
        out << "svc," << srv << ",cpu," << minute << ","
            << 10.0 + rng.uniform(-0.5, 0.5) << "\n";
      }
    }
    post(port, "/v1/ingest/t", out.str());
  };

  feed(45);  // lookback warm-up
  for (std::size_t c = 0; c < cycles; ++c) {
    const MinuteTime change = minute;
    std::ostringstream chg;
    chg << change << ",svc,dark,s0,chg-" << c << "\n";
    post(port, "/v1/changes/t", chg.str());
    feed(change + 19);  // everything up to (not past) the horizon

    // The measured section: the deadline-crossing batch, then the report.
    const double t0 = now_ms();
    feed(change + 55);
    const std::string marker = "\"change_id\":" + std::to_string(c) + ",";
    const std::string report =
        http(port, "GET /v1/report/t HTTP/1.1\r\nHost: b\r\n\r\n");
    const double elapsed = now_ms() - t0;
    if (report.find(marker) == std::string::npos) {
      std::fprintf(stderr, "error: verdict %zu missing from report\n", c);
      std::exit(1);
    }
    latencies.push_back(elapsed);
    feed(minute + 10);  // spacing so cycles never overlap
  }
  service.stop();

  VerdictCost cost;
  cost.watches = cycles;
  cost.p95_ms = p95(latencies);
  cost.max_ms = *std::max_element(latencies.begin(), latencies.end());
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* json_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }
  const MinuteTime minutes = quick ? 2'000 : 20'000;
  const std::size_t cycles = quick ? 8 : 32;
  std::vector<std::pair<std::size_t, std::size_t>> grid =
      quick ? std::vector<std::pair<std::size_t, std::size_t>>{{1, 1}, {2, 4}}
            : std::vector<std::pair<std::size_t, std::size_t>>{
                  {1, 1}, {1, 4}, {4, 4}, {4, 8}, {8, 8}};

  std::printf("\n================================================================\n");
  std::printf("Service plane: HTTP ingest throughput and time-to-verdict\n");
  std::printf("================================================================\n");

  std::vector<GridPoint> points;
  for (const auto& [tenants, producers] : grid) {
    const GridPoint point = run_grid_point(tenants, producers, minutes);
    std::printf(
        "ingest %zu tenant(s) x %zu producer(s)   %.0f samples/s, "
        "p95 request %.2f ms\n",
        point.tenants, point.producers, point.samples_per_s,
        point.p95_request_ms);
    points.push_back(point);
  }

  const VerdictCost verdict = run_verdict_cycles(cycles);
  std::printf(
      "ingest-to-verdict   p95 %.2f ms, max %.2f ms over %zu watch cycles\n",
      verdict.p95_ms, verdict.max_ms, verdict.watches);

  const bench::Provenance host = bench::provenance();
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return 1;
  }
  out << "{\"host\":{\"nproc\":" << host.nproc << ",\"build_type\":\""
      << host.build_type << "\",\"git_sha\":\"" << host.git_sha
      << "\"},\"workload\":{\"quick\":" << (quick ? "true" : "false")
      << ",\"minutes_per_producer\":" << minutes << "},\"grid\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"tenants\":" << points[i].tenants
        << ",\"producers\":" << points[i].producers
        << ",\"samples_per_s\":" << points[i].samples_per_s
        << ",\"p95_request_ms\":" << points[i].p95_request_ms << "}";
  }
  out << "],\"verdict\":{\"watches\":" << verdict.watches
      << ",\"p95_ms\":" << verdict.p95_ms << ",\"max_ms\":" << verdict.max_ms
      << "}}\n";
  out.close();
  std::fprintf(stderr, "# wrote %s\n", json_path);
  return 0;
}
