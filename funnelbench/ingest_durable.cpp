// ingest_durable — the write path with persistence and no detection.
//
// Why this workload: one persistent tenant on a fresh data root receives one
// POST per simulated minute carrying all ~1000 of its server KPIs, with a
// POST /v1/checkpoint every four simulated hours and no registered change.
// The obs HTTP server, service parsing, tsdb append/dispatch and tsdb/persist
// do all the work; detect, did and funnel do none. It is where ingest, WAL
// and recovery changes show, and the control every detection change must
// leave unmoved. Each round ends with an unclean stop (no final checkpoint)
// and a fresh FunnelService recovering the tenant from segments plus the
// WAL tail, whose answers are checked against what was acknowledged.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "harness.h"
#include "layers.h"
#include "reference.h"
#include "service/service.h"
#include "traffic.h"
#include "tsdb/store.h"

namespace funnelbench {

namespace fs = std::filesystem;
namespace obs = funnel::obs;
namespace service = funnel::service;
namespace tsdb = funnel::tsdb;
using funnel::MinuteTime;

namespace {

constexpr const char* kTenant = "durable";
constexpr MinuteTime kCheckpointEvery = 240;

struct Input {
  Fleet fleet;
  MinuteTime minutes = 0;
  std::vector<std::string> bodies;  ///< one POST per simulated minute
};

Input make_input(const Args& args) {
  funnel::Rng rng(args.seed);
  Input in;
  // 10 services x 20 servers x 5 KPIs = 1000 server KPIs for a day.
  in.minutes = args.quick ? 300 : 1440;
  in.fleet = make_fleet(rng, args.quick ? 4 : 10, args.quick ? 10 : 20,
                        in.minutes);
  for (MinuteTime m = 0; m < in.minutes; ++m) {
    in.bodies.push_back(minute_body(in.fleet, m));
  }
  return in;
}

service::ServiceOptions options(const std::string& root,
                                const obs::Registry* reg) {
  // funnel_serve's defaults: TenantOptions (2 shards, async queue of 256)
  // and FunnelConfig (60-minute lookback and horizon), registry attached.
  service::ServiceOptions o;
  o.data_root = root;
  o.stats = reg;
  return o;
}

tsdb::StoreOptions store_options(const std::string& data_dir) {
  const service::TenantOptions t;
  tsdb::StoreOptions s;
  s.num_shards = t.num_shards;
  s.ingest_queue_capacity = t.ingest_queue_capacity;
  s.backpressure = t.backpressure;
  s.data_dir = data_dir;
  return s;
}

struct Round {
  double service_cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t samples = 0;
  std::vector<double> checkpoint_s;
  std::vector<double> round_trip_s;
  std::uint64_t malformed = 0;
  std::uint64_t refusals = 0;
  std::size_t queue_depth_max = 0;
  std::uint64_t dropped = 0;
  double rss_mb = 0.0;  ///< resident with the round's state still held
};

/// One simulated day on a fresh data root, ending in an unclean stop.
Round ingest_round(const Input& in, const std::string& root,
                   const obs::Registry& reg, const obs::Tracer* tracer,
                   Result& result) {
  Round r;
  const double rss_base = rss_mb();
  service::FunnelService svc(options(root, &reg));
  service::Tenant& tenant = svc.add_tenant(kTenant);
  if (tracer != nullptr) tenant.store().set_stats(&reg);
  std::string error;
  result.check(svc.start(&error), "service start: " + error);
  IngestClient client(svc.port(), kTenant);
  const std::size_t lines = in.fleet.series.size();

  ServiceCpu cpu;
  cpu.start();
  const double w0 = wall_s();
  for (MinuteTime m = 0; m < in.minutes; ++m) {
    bool ok = false;
    {
      obs::Span span(tracer, "bench.ingest");
      ok = client.post(in.bodies[static_cast<std::size_t>(m)], lines);
    }
    result.operation(ok);
    result.check(ok, "ingest minute " + std::to_string(m) + " not accepted");
    if (tracer != nullptr) {
      r.queue_depth_max = std::max(r.queue_depth_max,
                                   tenant.store().queue_depth());
    }
    if ((m + 1) % kCheckpointEvery == 0 && m + 1 < in.minutes) {
      obs::Span span(tracer, "bench.checkpoint");
      const HttpReply c =
          http(svc.port(), "POST", std::string("/v1/checkpoint/") + kTenant);
      result.operation(c.status == 200);
      result.check(c.status == 200, "checkpoint answered 200");
      r.checkpoint_s.push_back(c.seconds);
    }
  }
  {
    // Quiesce, so the CPU measured includes the queued dispatch and WAL
    // work of the last batches; this is no checkpoint.
    std::lock_guard<std::mutex> lock(tenant.mutex());
    tenant.store().flush();
    tenant.store().wal_flush();
  }
  r.service_cpu_s = cpu.stop();
  r.wall_s = wall_s() - w0;
  r.samples = client.accepted();
  r.round_trip_s = client.round_trips();
  r.malformed = client.malformed();
  r.refusals = client.refusals();
  r.dropped = tenant.store().dropped_samples();
  r.rss_mb = rss_mb() - rss_base;
  svc.stop();
  return r;  // the service dies without checkpoint_all(): an unclean stop
}

struct Recovery {
  double recovery_s = 0.0;    ///< construct .. GET /v1/seq answered
  double add_tenant_s = 0.0;  ///< FunnelService::add_tenant alone
  std::uint64_t answers = 0;  ///< fingerprint of /v1/seq + sampled values
};

/// Recover a copy of the crashed root and check what it answers.
Recovery recover(const Input& in, const std::string& crashed,
                 const std::string& copy, std::uint64_t acknowledged,
                 Result& result) {
  fs::copy(crashed, copy, fs::copy_options::recursive);
  const obs::Registry reg;
  Recovery rec;
  const double t0 = wall_s();
  service::FunnelService svc(options(copy, &reg));
  const double a0 = wall_s();
  service::Tenant& tenant = svc.add_tenant(kTenant);
  rec.add_tenant_s = wall_s() - a0;
  std::string error;
  result.check(svc.start(&error), "recovered service start: " + error);
  const HttpReply seq =
      http(svc.port(), "GET", std::string("/v1/seq/") + kTenant);
  rec.recovery_s = wall_s() - t0;

  bool ok = seq.status == 200 &&
            json_int(seq.body, "recovered_seq") ==
                static_cast<long long>(acknowledged);
  result.check(ok, "recovered_seq " + seq.body + " != acknowledged " +
                       std::to_string(acknowledged));
  rec.answers = fnv1a(seq.body);
  // A sampled metric reads back exactly the values that were sent.
  for (const std::size_t i : {std::size_t{0}, in.fleet.series.size() / 2,
                              in.fleet.series.size() - 1}) {
    const Series& s = in.fleet.series[i];
    std::vector<double> got;
    try {
      got = tenant.store().query(tsdb::server_metric(s.server, s.kpi), 0,
                                 in.minutes);
    } catch (const std::exception&) {
    }
    const bool same = got == s.values;
    rec.answers = fnv1a(
        std::string_view(reinterpret_cast<const char*>(got.data()),
                         got.size() * sizeof(double)),
        rec.answers);
    result.check(same, "recovered values of " + s.server + "/" + s.kpi);
    ok = ok && same;
  }
  result.operation(ok);
  svc.stop();
  return rec;
}

}  // namespace

void run_ingest_durable(const Args& args, Result& result) {
  const std::string root = scratch_dir(args, "data");

  // Set-up (input generation, service and tenant construction) is repeated
  // and its median reported, so work moved into it shows; it is timed on the
  // process CPU clock, because its wall time also counts steal. The
  // reference sampler runs beside every set-up and every round.
  HostSpeed speed(scratch_dir(args, "reference"));
  Costs costs;
  const int setups = args.quick ? 1 : 5;
  Input in;
  speed.begin();
  for (int i = 0; i < setups; ++i) {
    in = Input{};
    const double c0 = process_cpu_s();
    const double t0 = wall_s();
    double setup_wall = 0.0;
    in = make_input(args);
    {
      // Construction only: start() and stop() wait on the listener's poll
      // timeout, which is not work.
      const obs::Registry reg;
      service::FunnelService svc(options(root + "/setup", &reg));
      svc.add_tenant(kTenant);
      setup_wall = wall_s() - t0;
      costs.setup_s.push_back(process_cpu_s() - c0);
    }
    std::fprintf(stderr, "# set-up %d: %.4f s CPU, %.4f s wall\n", i,
                 costs.setup_s.back(), setup_wall);
    fs::remove_all(root + "/setup");
  }
  // Scaled once, by the host's speed over the whole set-up phase, which
  // gives the sampler more chunks than one set-up does.
  costs.setup_norm_s = speed.scale(median(costs.setup_s));

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> recovery_s, rss;
  std::uint64_t answers = 0;  // what the first recovery answered
  const double start = wall_s();
  int round = 0;
  do {
    const std::string crashed = root + "/round" + std::to_string(round);
    const obs::Registry reg;
    const std::uint64_t steal0 = steal_ticks();
    speed.begin();
    const Round r = ingest_round(in, crashed, reg, nullptr, result);
    costs.op_s.push_back(r.service_cpu_s / static_cast<double>(r.samples));
    costs.op_norm_s.push_back(speed.scale(costs.op_s.back()));
    rss.push_back(r.rss_mb);
    const Recovery rec =
        recover(in, crashed, crashed + "-recovered", r.samples, result);
    recovery_s.push_back(rec.recovery_s);
    if (round == 0) answers = rec.answers;
    result.check(rec.answers == answers,
                 "recovered answers identical across rounds");
    fs::remove_all(crashed + "-recovered");
    fs::remove_all(crashed);
    std::fprintf(stderr,
                 "# round %d: %.4f us/sample (%.4f scaled), %.1f MB, %.1f s "
                 "wall, %.2f s steal\n",
                 round, 1e6 * costs.op_s.back(), 1e6 * costs.op_norm_s.back(),
                 r.rss_mb, r.wall_s, ticks_to_s(steal_ticks() - steal0));
    ++round;
  } while (wall_s() - start < budget);
  std::fprintf(stderr, "# ingest_durable: %d rounds, report hash %016llx\n",
               round, static_cast<unsigned long long>(answers));
  costs.report(args.trace, speed, result);
  if (!args.trace) {
    // Memory of the first round: later rounds start from what the earlier
    // ones left in the allocator.
    result.metric("rss_mb", rss.front(), "MB");
    return;
  }

  // ---- traced round: registry on service and store, spans per request ----
  obs::Tracer tracer(kTraceSpans);
  const obs::Registry reg;
  const std::string traced_root = root + "/traced";
  speed.begin();
  const Round t = ingest_round(in, traced_root, reg, &tracer, result);
  const double traced_norm =
      speed.scale(t.service_cpu_s / static_cast<double>(t.samples));
  const obs::Snapshot snap = reg.snapshot();
  const double samples = static_cast<double>(t.samples);

  // Recovery, three times on copies of the crashed root; and the store alone.
  std::vector<double> add_tenant_s;
  for (int i = 0; i < 3; ++i) {
    const std::string copy = root + "/recover" + std::to_string(i);
    obs::Span span(&tracer, "bench.recover");
    const Recovery rec = recover(in, traced_root, copy, t.samples, result);
    recovery_s.push_back(rec.recovery_s);
    add_tenant_s.push_back(rec.add_tenant_s);
    fs::remove_all(copy);
  }
  double open_s = 0.0;
  {
    const std::string copy = root + "/open";
    fs::copy(traced_root, copy, fs::copy_options::recursive);
    tsdb::StoreOptions so = store_options(copy + "/" + kTenant);
    so.hand_off_tail = true;  // as Tenant recovery opens it
    obs::Span span(&tracer, "bench.store_open");
    const double t0 = wall_s();
    { const tsdb::MetricStore store(so); }
    open_s = wall_s() - t0;
    fs::remove_all(copy);
  }

  // Replays of the day through each layer's public entry point, on the
  // client thread with the service gone, checkpointing at the round's
  // cadence: a replica tenant (parsing + append), then bare appends with the
  // tenant's StoreOptions, in memory and persistent. "others" is the
  // threads the store runs (WAL writer, compaction).
  std::vector<tsdb::MetricId> ids;
  for (const Series& s : in.fleet.series) {
    ids.push_back(tsdb::server_metric(s.server, s.kpi));
  }
  const auto checkpoint_due = [&](MinuteTime m) {
    return (m + 1) % kCheckpointEvery == 0 && m + 1 < in.minutes;
  };
  const auto bare_append = [&](tsdb::MetricStore& store) {
    for (MinuteTime m = 0; m < in.minutes; ++m) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        store.append(ids[i], m,
                     in.fleet.series[i].values[static_cast<std::size_t>(m)]);
      }
      if (checkpoint_due(m)) {
        store.flush();
        store.checkpoint();
      }
    }
    store.flush();
    store.wal_flush();
  };
  Cpu direct, memory, persistent;
  {
    service::TenantOptions topts;
    topts.name = kTenant;
    topts.data_dir = root + "/replica";
    service::Tenant replica(topts);
    std::lock_guard<std::mutex> lock(replica.mutex());
    obs::Span span(&tracer, "bench.replay.tenant_ingest");
    direct = measure([&] {
      for (MinuteTime m = 0; m < in.minutes; ++m) {
        replica.ingest(in.bodies[static_cast<std::size_t>(m)]);
        if (checkpoint_due(m)) replica.checkpoint();
      }
      replica.store().flush();
      replica.store().wal_flush();
    });
  }
  {
    tsdb::MetricStore store(store_options(""));
    obs::Span span(&tracer, "bench.replay.append_memory");
    memory = measure([&] { bare_append(store); });
  }
  {
    tsdb::MetricStore store(store_options(root + "/bare"));
    obs::Span span(&tracer, "bench.replay.append_persistent");
    persistent = measure([&] { bare_append(store); });
  }
  Cpu http_layer;
  {
    obs::Span span(&tracer, "bench.replay.http");
    http_layer = http_layer_replay(in.bodies, in.bodies.size());
  }
  const auto per = [&](double s) { return s / samples; };

  double round_trip_sum = 0.0;
  for (const double x : t.round_trip_s) round_trip_sum += x;

  result.metric("obs.http.requests", counter(snap, "obs.server.requests"),
                "count");
  result.metric("obs.http.errors", counter(snap, "obs.server.http_errors"),
                "count");
  result.timing("obs.http.round_trip_us_p50", scaled(t.round_trip_s, 1e6), 0.5,
                "us");
  result.timing("obs.http.server_us_p50",
                histogram(snap, "obs.server.request_us"), "us");
  result.metric("obs.http.self_us_per_sample",
                1e6 * per(round_trip_sum - direct.self_s), "us");
  result.metric("service.ingest_us_per_sample",
                1e6 * per(direct.self_s - persistent.self_s), "us");
  result.metric("service.lines_malformed", static_cast<double>(t.malformed),
                "count");
  result.metric("service.refusals", static_cast<double>(t.refusals), "count");
  result.metric("service.recovery_s", median(recovery_s), "s");
  result.metric("service.recover_ms", 1e3 * (median(add_tenant_s) - open_s),
                "ms");
  result.timing("service.ingest_ms_p50", scaled(t.round_trip_s, 1e3), 0.5,
                "ms");
  result.metric("service.samples_per_s", samples / t.wall_s, "1/s");
  result.metric("tsdb.append_us_per_sample", 1e6 * per(memory.self_s), "us");
  result.metric("tsdb.dispatch_us_per_sample", 1e6 * per(memory.others_s),
                "us");
  result.timing("tsdb.dispatch_lag_us_p50",
                histogram(snap, "tsdb.store.dispatch_lag_us"), "us");
  result.metric("tsdb.queue_depth_max", static_cast<double>(t.queue_depth_max),
                "count");
  result.metric("tsdb.dropped_samples", static_cast<double>(t.dropped),
                "count");
  result.metric("tsdb.persist.wal_us_per_record",
                1e6 * per(persistent.self_s - memory.self_s), "us");
  result.metric(
      "tsdb.persist.records_per_commit",
      ratio(static_cast<double>(counter(snap, "funnel.wal.records")),
            static_cast<double>(counter(snap, "funnel.wal.batches"))),
      "count");
  result.timing("tsdb.persist.commit_us_p50",
                histogram(snap, "funnel.wal.commit_us"), "us");
  result.timing("tsdb.persist.checkpoint_ms_p50", scaled(t.checkpoint_s, 1e3),
                0.5, "ms");
  result.metric("tsdb.persist.open_ms", 1e3 * open_s, "ms");

  // Self cost per layer; the replays cover exactly the traced round's day.
  std::map<std::string, double> self;
  self["obs.http"] = http_layer.others_s;
  self["service"] = direct.self_s - persistent.self_s;
  self["tsdb"] = memory.self_s + memory.others_s;
  self["tsdb.persist"] = (persistent.self_s - memory.self_s) +
                         (persistent.others_s - memory.others_s);
  finish_trace(result, self, samples, t.service_cpu_s,
               traced_norm / median(costs.op_norm_s) - 1.0);
  write_chrome_trace(tracer, trace_path(args));
}

}  // namespace funnelbench
