// Embedded HTTP/1.1 exposition server — the live window into a running
// FUNNEL (docs/OBSERVABILITY.md, "Live endpoints").
//
// The paper's funnel runs as an always-on service; operators judge whether
// assessment is still "rapid" from the pipeline's own KPIs (ingest lag,
// time-to-verdict, detector throughput). Until now those were reachable
// only through one-shot CLI dumps (--stats / --stats-json). This server
// makes the same exporters reachable while the pipeline runs: a handful of
// GET endpoints (/metrics, /stats.json, /healthz, /readyz, /statusz —
// wired by obs::TelemetryPlane in obs/plane.h) served from the live
// Registry.
//
// Design:
//   * Dependency-free: POSIX sockets only, no third-party HTTP stack. The
//     threat model is an operator's curl / a Prometheus scraper / the
//     multi-tenant ingest plane (src/service) inside the deployment
//     perimeter, so the parser accepts exactly "METHOD SP target SP
//     HTTP/1.x" plus headers, bounds the request head at max_request_bytes
//     and the body at max_body_bytes (413 beyond it; a routed POST without
//     a Content-Length answers 411), and answers everything else with 400.
//     Routing resolves before the body ladder, so 404/405 never wait on —
//     or require — a payload.
//   * One blocking accept thread + a bounded worker pool (the
//     common::ThreadPool idiom scaled down: fixed threads, one mutex +
//     condvar, bounded queue). A full queue answers 503 from the accept
//     thread instead of queueing unboundedly — scrape storms shed, they
//     never stall the pipeline.
//   * Handlers run on worker threads, concurrently with the pipeline's hot
//     path — they must only touch thread-safe state. Registry::snapshot()
//     is built for exactly this (lock-free recorders, merge on the reader);
//     obs_server_test hammers /metrics against hot-path increments under
//     TSan to keep it that way.
//   * Clean shutdown: stop() (or the destructor) wakes the accept loop via
//     its poll timeout, drains nothing — queued connections are closed, the
//     in-flight response finishes — and joins every thread.
//   * port 0 binds an ephemeral port; port() reports the bound one (test
//     harnesses and --port-file use this). A bind/listen failure is NOT
//     fatal to the caller: start() returns false and error() carries the
//     errno text — funnel_serve turns that into exit 3 with a diagnostic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"

namespace funnel::obs {

/// One parsed request. Headers beyond Content-Length are consumed and
/// discarded (the exposition endpoints need none).
struct HttpRequest {
  std::string method;  ///< "GET" / "HEAD" / "POST" (others answer 405)
  std::string target;  ///< raw request target, e.g. "/metrics?x=1"
  std::string path;    ///< target with the query string stripped
  std::string query;   ///< bytes after '?' (empty when none)
  std::string body;    ///< Content-Length-bounded request body (may be empty)
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra response headers, e.g. {"Retry-After", "2"} on a 429. Names and
  /// values are emitted verbatim; keep them token/CRLF-clean.
  std::vector<std::pair<std::string, std::string>> headers;
};

struct HttpServerOptions {
  /// Loopback by default: the exposition plane is an operator/scraper
  /// surface, not a public API.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Worker threads running handlers (clamped to >= 1).
  std::size_t num_workers = 2;
  /// Accepted connections waiting for a worker; beyond this the accept
  /// thread answers 503 and closes (clamped to >= 1).
  std::size_t queue_capacity = 32;
  /// Request-head size bound; longer heads are answered 400.
  std::size_t max_request_bytes = 8192;
  /// Request-body size bound (Content-Length); bigger bodies answer 413
  /// without reading the payload.
  std::size_t max_body_bytes = 1 << 20;
};

class HttpServer {
 public:
  /// Invoked on a worker thread; must be thread-safe and must not block
  /// indefinitely (it occupies one of num_workers slots while it runs).
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(HttpServerOptions options = {});

  /// stop()s if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register `handler` for GET/HEAD on exact path `path` (e.g.
  /// "/metrics"). Register everything before start(); HEAD suppresses the
  /// body, methods with no handler on a known path answer 405, unknown
  /// paths 404.
  void handle(std::string path, Handler handler);

  /// Register `handler` for POST on exact path `path`. The request body is
  /// already read (Content-Length-bounded) when the handler runs.
  void handle_post(std::string path, Handler handler);

  /// Register `handler` for every path starting with `prefix` (e.g.
  /// "/v1/ingest/"), for POST when `post` is true, GET/HEAD otherwise.
  /// Exact routes win over prefixes; among prefixes the longest match wins.
  void handle_prefix(std::string prefix, Handler handler, bool post = false);

  /// Bind + listen + spawn the accept thread and worker pool. Returns false
  /// (with error() set) when the socket cannot be created, bound — the
  /// port-already-taken case — or listened on. Calling start() on a running
  /// server is an error (returns false).
  bool start();

  /// Idempotent: close the listen socket, join every thread, close queued
  /// connections. After stop() the server can be start()ed again.
  void stop();

  bool running() const;

  /// Bound port (the ephemeral one when options.port was 0); 0 before
  /// start().
  std::uint16_t port() const;

  /// Human-readable reason the last start() failed.
  const std::string& error() const { return error_; }

  /// Requests answered so far (any status).
  std::uint64_t requests_served() const;

  /// Attach a telemetry registry (null detaches): `obs.server.requests` /
  /// `obs.server.http_errors` counters and an `obs.server.request_us`
  /// histogram — the server shows up in its own /metrics. The registry
  /// must outlive this server.
  void set_stats(const Registry* stats);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string error_;
};

}  // namespace funnel::obs
