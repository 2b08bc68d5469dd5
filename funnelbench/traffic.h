// Seeded server-KPI traffic for the service workloads: a fleet of servers
// whose KPIs come from the repository's workload generators, rendered in
// set-up and sent as /v1/ingest minute batches by one client thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/minute_time.h"
#include "common/rng.h"
#include "harness.h"
#include "workload/stream.h"

namespace funnelbench {

/// One (server, KPI) series as the client sends it.
struct Series {
  std::string service;
  std::string server;
  std::string kpi;
  /// Values over [0, minutes), rounded to the three decimals the line
  /// carries, so a store read compares exactly.
  std::vector<double> values;
};

struct Fleet {
  std::vector<Series> series;
  static std::string service_name(int s);
  static std::string server_name(int s, int v);
};

/// `services` x `servers_per_service` servers, each carrying the evalkit
/// KPI schema's five names (seasonal, stationary and variable classes),
/// rendered over [0, minutes). `decorate` may add effects and shocks to a
/// stream before it renders.
Fleet make_fleet(funnel::Rng& rng, int services, int servers_per_service,
                 funnel::MinuteTime minutes,
                 const std::function<void(const Series&,
                                          funnel::workload::KpiStream&)>&
                     decorate = {});

/// POST body of minute t: one `service,server,kpi,minute,value` line per
/// series.
std::string minute_body(const Fleet& fleet, funnel::MinuteTime t);

/// Client side of /v1/ingest: posts one body, checks it is answered 200
/// with every line accepted, and keeps the round trips.
class IngestClient {
 public:
  IngestClient(int port, std::string tenant)
      : port_(port), tenant_(std::move(tenant)) {}
  /// True when the POST was answered 200 with accepted == lines.
  bool post(const std::string& body, std::size_t lines);
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t malformed() const { return malformed_; }
  std::uint64_t refusals() const { return refusals_; }
  /// Client round trips of the ingest POSTs, seconds.
  const std::vector<double>& round_trips() const { return round_trips_; }

 private:
  int port_;
  std::string tenant_;
  std::uint64_t accepted_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t refusals_ = 0;
  std::vector<double> round_trips_;
};

/// The obs HTTP layer alone: the same bodies POSTed, one at a time, to an
/// obs::HttpServer with the service's listener options whose ingest handler
/// does no work. `others_s` is the server threads' CPU.
Cpu http_layer_replay(const std::vector<std::string>& bodies,
                      std::size_t count);

}  // namespace funnelbench
