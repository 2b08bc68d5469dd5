#include "obs/plane.h"

#include <sstream>
#include <utility>

#include "obs/export.h"

namespace funnel::obs {
namespace {

/// A bounded queue at or above this fraction of its capacity fails its
/// subsystem check.
constexpr double kUnhealthyQueueFrac = 0.95;

double gauge_or(const Snapshot& snap, const std::string& name,
                double fallback) {
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? fallback : it->second;
}

/// The ingest dispatcher's check: fails at kUnhealthyQueueFrac of its
/// capacity; passes with detail "n/a" when the store never registered its
/// gauges (sync dispatch).
HealthCheck dispatcher_check(const Snapshot& snap) {
  HealthCheck check{"ingest-dispatcher", true, "n/a"};
  const double capacity = gauge_or(snap, "tsdb.store.queue_capacity", 0.0);
  if (capacity <= 0.0) return check;
  const double depth = gauge_or(snap, "tsdb.store.queue_depth", 0.0);
  std::ostringstream os;
  os << "queue " << static_cast<std::uint64_t>(depth) << '/'
     << static_cast<std::uint64_t>(capacity);
  check.detail = os.str();
  check.ok = depth / capacity < kUnhealthyQueueFrac;
  return check;
}

}  // namespace

std::string HealthReport::render() const {
  std::string out = healthy ? "healthy\n" : "unhealthy\n";
  for (const HealthCheck& c : checks) {
    out += c.ok ? "ok " : "FAIL ";
    out += c.name;
    out += ' ';
    out += c.detail;
    out += '\n';
  }
  return out;
}

HealthReport evaluate_health(const Snapshot& snap) {
  HealthReport report;
  report.checks = {dispatcher_check(snap)};
  report.healthy = report.checks.front().ok;
  return report;
}

TelemetryPlane::TelemetryPlane(const Registry* stats, PlaneOptions options)
    : stats_(stats),
      options_(std::move(options)),
      server_(options_.http) {
  server_.set_stats(stats_);
}

TelemetryPlane::~TelemetryPlane() { stop(); }

void TelemetryPlane::set_ready(bool ready) {
  ready_.store(ready, std::memory_order_release);
}

void TelemetryPlane::handle(std::string path, HttpServer::Handler handler) {
  server_.handle(std::move(path), std::move(handler));
}

void TelemetryPlane::handle_post(std::string path,
                                 HttpServer::Handler handler) {
  server_.handle_post(std::move(path), std::move(handler));
}

void TelemetryPlane::handle_prefix(std::string prefix,
                                   HttpServer::Handler handler, bool post) {
  server_.handle_prefix(std::move(prefix), std::move(handler), post);
}

void TelemetryPlane::add_health(
    std::function<std::vector<HealthCheck>()> contributor) {
  health_extras_.push_back(std::move(contributor));
}

bool TelemetryPlane::start() {
  server_.handle("/metrics", [this](const HttpRequest&) { return metrics(); });
  server_.handle("/stats.json",
                 [this](const HttpRequest&) { return stats_json(); });
  server_.handle("/healthz", [this](const HttpRequest&) { return healthz(); });
  server_.handle("/readyz", [this](const HttpRequest&) { return readyz(); });
  server_.handle("/statusz", [this](const HttpRequest&) { return statusz(); });
  server_.handle("/", [this](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8",
                        "funnel telemetry plane\n/metrics /stats.json "
                        "/healthz /readyz /statusz\n",
                        {}};
  });
  if (!server_.start()) return false;
  started_at_ = std::chrono::steady_clock::now();
  return true;
}

void TelemetryPlane::stop() { server_.stop(); }

HttpResponse TelemetryPlane::metrics() const {
  const Snapshot snap = stats_ ? stats_->snapshot() : Snapshot{};
  return {200, "text/plain; version=0.0.4; charset=utf-8",
          prometheus_text(snap), {}};
}

HttpResponse TelemetryPlane::stats_json() const {
  const Snapshot snap = stats_ ? stats_->snapshot() : Snapshot{};
  return {200, "application/json", snapshot_json(snap), {}};
}

HttpResponse TelemetryPlane::healthz() const {
  HealthReport report;
  if (stats_ != nullptr) report = evaluate_health(stats_->snapshot());
  for (const auto& contributor : health_extras_) {
    for (HealthCheck& check : contributor()) {
      report.healthy = report.healthy && check.ok;
      report.checks.push_back(std::move(check));
    }
  }
  return {report.healthy ? 200 : 503, "text/plain; charset=utf-8",
          report.render(), {}};
}

HttpResponse TelemetryPlane::readyz() const {
  const bool ready = ready_.load(std::memory_order_acquire);
  return {ready ? 200 : 503, "text/plain; charset=utf-8",
          ready ? "ready\n" : "starting\n", {}};
}

HttpResponse TelemetryPlane::statusz() const {
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - started_at_);
  std::ostringstream os;
  os << "funnel telemetry plane\n";
  if (!options_.build_info.empty()) os << "build: " << options_.build_info
                                       << '\n';
  os << "obs_enabled: true\n"
     << "uptime_s: " << uptime.count() << '\n'
     << "port: " << server_.port() << '\n'
     << "requests: " << server_.requests_served() << '\n'
     << "ready: "
     << (ready_.load(std::memory_order_acquire) ? "true" : "false") << '\n';
  if (!options_.config_summary.empty()) {
    os << "config: " << options_.config_summary << '\n';
  }
  return {200, "text/plain; charset=utf-8", os.str(), {}};
}

}  // namespace funnel::obs
