// The live telemetry plane: one object wiring the embedded HTTP server
// (obs/server.h) to the observability stack — funnel_serve's exposition
// surface, sharing its listener with the /v1 routes (src/service).
//
// Endpoints (all GET/HEAD; docs/OBSERVABILITY.md "Live endpoints"):
//   /metrics     Prometheus text exposition of the live Registry
//   /stats.json  the same snapshot as --stats-json, as application/json
//   /healthz     deep health: per-subsystem checks (evaluate_health below)
//                — the ingest dispatcher — plus the host's add_health()
//                contributors;
//                200 "healthy" / 503 "unhealthy" + one line per check
//   /readyz      readiness: 200 once set_ready(true) (pipeline constructed
//                and ingesting), 503 before
//   /statusz     human-readable build/config/uptime page
//
// Every handler reads only thread-safe state (Registry::snapshot, atomics,
// the contributors fixed before start()), because handlers run
// concurrently on the server's worker pool. The plane is a side channel
// like the rest of obs: reports are byte-identical with it running or not.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "obs/server.h"

namespace funnel::obs {

/// One per-subsystem health probe result.
struct HealthCheck {
  std::string name;    ///< "ingest-dispatcher", "tenant:a", ...
  bool ok = true;
  std::string detail;  ///< human-readable evidence, e.g. "queue 512/1024"
};

struct HealthReport {
  bool healthy = true;
  std::vector<HealthCheck> checks;

  /// "healthy\n" / "unhealthy\n" followed by one "ok|FAIL <name> <detail>"
  /// line per check — the /healthz body.
  std::string render() const;
};

/// Instantaneous per-subsystem checks over a registry snapshot: the ingest
/// dispatcher's queue fails at 95% of its capacity or more. Without its
/// stats (sync dispatch) the check passes with detail "n/a" — absence of a
/// subsystem is not a failure. Pure function of the snapshot.
HealthReport evaluate_health(const Snapshot& snap);

struct PlaneOptions {
  /// Listener config; http.port 0 binds an ephemeral port (see port()).
  HttpServerOptions http{};
  /// Free-form build identification for /statusz (version, flags).
  std::string build_info;
  /// Free-form one-line config rendering for /statusz.
  std::string config_summary;
};

class TelemetryPlane {
 public:
  /// `stats` is the registry /metrics and /stats.json expose (null = empty
  /// snapshots); it must outlive the plane.
  explicit TelemetryPlane(const Registry* stats, PlaneOptions options = {});
  ~TelemetryPlane();

  TelemetryPlane(const TelemetryPlane&) = delete;
  TelemetryPlane& operator=(const TelemetryPlane&) = delete;

  /// Flip /readyz (starts false; typically set once ingestion is wired).
  void set_ready(bool ready);

  /// Mount extra routes on the plane's server — how a host (the
  /// multi-tenant FunnelService, src/service) shares one listener with the
  /// exposition endpoints. Same contracts as HttpServer::handle /
  /// handle_post / handle_prefix; register before start(). The plane's own
  /// paths (/metrics, /healthz, ...) are registered at start() and win any
  /// exact-path collision.
  void handle(std::string path, HttpServer::Handler handler);
  void handle_post(std::string path, HttpServer::Handler handler);
  void handle_prefix(std::string prefix, HttpServer::Handler handler,
                     bool post = false);

  /// Add a /healthz contributor: its checks are appended to the report on
  /// every probe and AND-ed into the overall verdict (per-tenant detail
  /// lines come from here). Register before start(); the callable runs on
  /// server worker threads and must be thread-safe.
  void add_health(std::function<std::vector<HealthCheck>()> contributor);

  /// Register routes and start the server. False (see error()) on bind
  /// failure.
  bool start();

  void stop();
  bool running() const { return server_.running(); }

  /// Bound port after start() (the ephemeral one when options.http.port
  /// was 0).
  std::uint16_t port() const { return server_.port(); }

  const std::string& error() const { return server_.error(); }

 private:
  HttpResponse metrics() const;
  HttpResponse stats_json() const;
  HttpResponse healthz() const;
  HttpResponse readyz() const;
  HttpResponse statusz() const;

  const Registry* stats_;
  PlaneOptions options_;
  HttpServer server_;
  /// Extra health checks (add_health); fixed after start(), so handlers
  /// read it lock-free.
  std::vector<std::function<std::vector<HealthCheck>()>> health_extras_;
  std::atomic<bool> ready_{false};
  std::chrono::steady_clock::time_point started_at_{};
};

}  // namespace funnel::obs
