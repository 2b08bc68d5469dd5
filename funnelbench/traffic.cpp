#include "traffic.h"

#include <cmath>
#include <cstdio>

#include "evalkit/dataset.h"
#include "harness.h"
#include "obs/plane.h"
#include "obs/server.h"
#include "workload/generators.h"

namespace funnelbench {

using funnel::MinuteTime;

std::string Fleet::service_name(int s) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "svc%02d", s);
  return buf;
}

std::string Fleet::server_name(int s, int v) {
  return service_name(s) + "-srv" + std::to_string(v);
}

Fleet make_fleet(
    funnel::Rng& rng, int services, int servers_per_service, MinuteTime minutes,
    const std::function<void(const Series&, funnel::workload::KpiStream&)>&
        decorate) {
  std::vector<std::string> kpis = funnel::evalkit::server_kpi_names();
  for (const std::string& k : funnel::evalkit::instance_kpi_names()) {
    kpis.push_back(k);
  }
  Fleet fleet;
  for (int s = 0; s < services; ++s) {
    for (int v = 0; v < servers_per_service; ++v) {
      for (const std::string& kpi : kpis) {
        Series series{Fleet::service_name(s), Fleet::server_name(s, v), kpi,
                      {}};
        // The evalkit dataset's generator settings, so kpi_noise_sigma()
        // sizes effects in each KPI's own noise units.
        const funnel::tsdb::KpiClass c = funnel::evalkit::kpi_class_of(kpi);
        funnel::workload::KpiStream stream(
            c == funnel::tsdb::KpiClass::kVariable
                ? funnel::workload::make_variable(
                      {.level = 200.0, .ar_coefficient = 0.6,
                       .burst_sigma = 8.0, .spike_rate = 0.008,
                       .spike_scale = 40.0},
                      rng.split())
                : funnel::workload::make_default(c, rng.split()));
        if (decorate) decorate(series, stream);
        series.values = funnel::workload::render(stream, 0, minutes);
        for (double& x : series.values) x = std::round(x * 1000.0) / 1000.0;
        fleet.series.push_back(std::move(series));
      }
    }
  }
  return fleet;
}

std::string minute_body(const Fleet& fleet, MinuteTime t) {
  std::string body;
  body.reserve(fleet.series.size() * 56);
  char value[64];
  const std::string minute = "," + std::to_string(t) + ",";
  for (const Series& s : fleet.series) {
    std::snprintf(value, sizeof(value), "%.3f\n",
                  s.values[static_cast<std::size_t>(t)]);
    body += s.service;
    body += ',';
    body += s.server;
    body += ',';
    body += s.kpi;
    body += minute;
    body += value;
  }
  body.shrink_to_fit();
  return body;
}

bool IngestClient::post(const std::string& body, std::size_t lines) {
  const HttpReply reply = http(port_, "POST", "/v1/ingest/" + tenant_, body);
  round_trips_.push_back(reply.seconds);
  if (reply.status == 429 || reply.status == 503) ++refusals_;
  const long long accepted = json_int(reply.body, "accepted");
  const long long malformed = json_int(reply.body, "malformed");
  if (accepted > 0) accepted_ += static_cast<std::uint64_t>(accepted);
  if (malformed > 0) malformed_ += static_cast<std::uint64_t>(malformed);
  return reply.status == 200 && accepted == static_cast<long long>(lines);
}

Cpu http_layer_replay(const std::vector<std::string>& bodies,
                      std::size_t count) {
  funnel::obs::HttpServer server(funnel::obs::PlaneOptions{}.http);
  server.handle_prefix(
      "/v1/ingest/",
      [](const funnel::obs::HttpRequest&) {
        funnel::obs::HttpResponse resp;
        resp.status = 200;
        resp.content_type = "application/json";
        resp.body = "{\"accepted\":0}";
        return resp;
      },
      /*post=*/true);
  if (!server.start()) return {};
  const int port = server.port();
  const Cpu cpu = measure([&] {
    for (std::size_t i = 0; i < count; ++i) {
      http(port, "POST", "/v1/ingest/replay", bodies[i % bodies.size()]);
    }
  });
  server.stop();
  return cpu;
}

}  // namespace funnelbench
