// online_day — detection on live traffic, writes beside reads.
//
// Why this workload: one in-memory tenant with its verdict journal on
// receives a labelled deployment day as server-KPI lines while a
// dark-launched change is registered over /v1/changes every five simulated
// minutes and FunnelOnline watches each through its 60-minute horizon. SST
// scoring, causality and journaling dominate the service's CPU; the ingest
// layers of ingest_durable still run, at a smaller share, and priming and
// DiD reads interleave with the writes. Dark launches only: the 30-day
// historical DiD path needs more history than a bounded HTTP warm-up can
// carry, and batch_review covers that path.
//
// The day comes from the repository's workload generators (seasonal,
// stationary and variable KPIs): 36 services x 5 servers x 5 KPIs. Three of
// a service's five servers take each change; 30% of changes inject a level
// shift or ramp into two KPIs of those servers (the ground truth), and 30%
// coincide with a service-wide confounder that hits treated and control
// servers alike. A service sees at most one change per 180 minutes so every
// label stays exact, as evalkit::build_dataset keeps its own.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>

#include "changes/change_log.h"
#include "evalkit/dataset.h"
#include "funnel/assessor.h"
#include "funnel/impact_set.h"
#include "funnel/online.h"
#include "harness.h"
#include "layers.h"
#include "obs/journal.h"
#include "reference.h"
#include "service/service.h"
#include "topology/topology.h"
#include "traffic.h"
#include "tsdb/store.h"
#include "workload/shock.h"

namespace funnelbench {

namespace fs = std::filesystem;
namespace core = funnel::core;
namespace obs = funnel::obs;
namespace service = funnel::service;
namespace tsdb = funnel::tsdb;
namespace workload = funnel::workload;
using funnel::MinuteTime;

namespace {

constexpr const char* kTenant = "online";
constexpr int kServersPerService = 5;
constexpr int kTreated = 3;
constexpr MinuteTime kEvery = 5;      ///< minutes between changes
constexpr MinuteTime kWarmup = 90;    ///< history before the first change
constexpr double kPositive = 0.3;     ///< changes that inject an effect
constexpr double kConfounder = 0.3;   ///< changes with a coinciding shock

struct Change {
  MinuteTime time = 0;
  int service = 0;
  std::vector<std::string> servers;
  std::string line;  ///< the /v1/changes body
};

struct Input {
  Fleet fleet;
  MinuteTime minutes = 0;
  std::vector<Change> changes;
  std::vector<std::string> bodies;  ///< one POST per simulated minute
  /// (change id, metric) pairs the change caused.
  std::set<std::pair<funnel::changes::ChangeId, std::string>> truth;
};

Input make_input(const Args& args) {
  funnel::Rng rng(args.seed);
  funnel::Rng plan = rng.split();
  Input in;
  const int count = args.quick ? 12 : 120;
  const int services = std::min(36, count);
  in.minutes = kWarmup + count * kEvery + 62;

  std::map<std::pair<std::string, std::string>, std::vector<workload::Effect>>
      effects;  // (server, kpi) -> change-induced effects
  std::map<std::pair<std::string, std::string>, workload::SharedShock>
      shocks;  // (service, kpi) -> confounder
  const std::vector<std::string> names = [] {
    std::vector<std::string> n = funnel::evalkit::server_kpi_names();
    for (const auto& k : funnel::evalkit::instance_kpi_names()) n.push_back(k);
    return n;
  }();
  for (int i = 0; i < count; ++i) {
    Change c;
    c.time = kWarmup + i * kEvery;
    c.service = i % services;
    const std::string svc = Fleet::service_name(c.service);
    std::vector<int> pool(kServersPerService);
    for (int v = 0; v < kServersPerService; ++v) pool[v] = v;
    plan.shuffle(pool);
    std::sort(pool.begin(), pool.begin() + kTreated);
    for (int k = 0; k < kTreated; ++k) {
      c.servers.push_back(Fleet::server_name(c.service, pool[k]));
    }
    if (plan.bernoulli(kPositive)) {
      std::vector<std::string> kpis = names;
      plan.shuffle(kpis);
      kpis.resize(2);
      for (const std::string& kpi : kpis) {
        const double sigma = funnel::evalkit::kpi_noise_sigma(kpi);
        const double delta = (plan.bernoulli(0.5) ? 1.0 : -1.0) *
                             plan.uniform(2.5, 9.0) * sigma;
        const bool ramp = plan.uniform() < 0.4;
        for (const std::string& srv : c.servers) {
          const double d = delta * (1.0 + plan.uniform(-0.1, 0.1));
          effects[{srv, kpi}].push_back(
              ramp ? workload::Effect(workload::Ramp{c.time, c.time + 20, d})
                   : workload::Effect(workload::LevelShift{c.time, d}));
          in.truth.emplace(static_cast<funnel::changes::ChangeId>(i),
                           tsdb::server_metric(srv, kpi).to_string());
        }
      }
    }
    if (plan.bernoulli(kConfounder)) {
      const MinuteTime onset = c.time + plan.uniform_int(-5, 10);
      const MinuteTime duration = plan.uniform_int(40, 90);
      for (const std::string& kpi : names) {
        const double amp = (plan.bernoulli(0.5) ? 1.0 : -1.0) *
                           plan.uniform(3.0, 5.0) *
                           funnel::evalkit::kpi_noise_sigma(kpi);
        shocks[{svc, kpi}] =
            plan.bernoulli(0.5)
                ? workload::make_event_shock(onset, duration, amp)
                : workload::make_attack_shock(onset, duration, amp,
                                              plan.split());
      }
    }
    std::string servers;
    for (const std::string& s : c.servers) {
      servers += (servers.empty() ? "" : ";") + s;
    }
    c.line = std::to_string(c.time) + "," + svc + ",dark," + servers +
             ",change-" + std::to_string(i) + "\n";
    in.changes.push_back(std::move(c));
  }

  in.fleet = make_fleet(
      rng, services, kServersPerService, in.minutes,
      [&](const Series& s, workload::KpiStream& stream) {
        const auto e = effects.find({s.server, s.kpi});
        if (e != effects.end()) {
          for (const workload::Effect& x : e->second) stream.add_effect(x);
        }
        const auto k = shocks.find({s.service, s.kpi});
        if (k != shocks.end()) stream.add_shock(k->second);
      });
  for (MinuteTime m = 0; m < in.minutes; ++m) {
    in.bodies.push_back(minute_body(in.fleet, m));
  }
  return in;
}

/// One item of a finalized report, as /v1/report renders it.
struct Item {
  std::string metric;
  std::string cause;
  long long determined_at = -1;  ///< -1: no determination ran
};
struct Report {
  long long change_id = -1;
  std::vector<Item> items;
};

std::string json_str(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t pos = json.find(needle);
  if (pos == std::string_view::npos) return {};
  const std::size_t start = pos + needle.size();
  return std::string(json.substr(start, json.find('"', start) - start));
}

std::vector<Report> parse_reports(const std::string& body) {
  std::vector<Report> out;
  const std::string head = "{\"change_id\":";
  std::size_t pos = body.find(head);
  while (pos != std::string::npos) {
    const std::size_t next = body.find(head, pos + 1);
    const std::string_view seg(body.data() + pos,
                               (next == std::string::npos ? body.size()
                                                          : next) - pos);
    Report r;
    r.change_id = json_int(seg, "change_id");
    const std::string item_head = "{\"metric\":";
    std::size_t ip = seg.find(item_head);
    while (ip != std::string_view::npos) {
      const std::size_t in = seg.find(item_head, ip + 1);
      const std::string_view iseg =
          seg.substr(ip, (in == std::string_view::npos ? seg.size() : in) - ip);
      Item it;
      it.metric = json_str(iseg, "metric");
      it.cause = json_str(iseg, "cause");
      it.determined_at = json_int(iseg, "determined_at");
      r.items.push_back(std::move(it));
      ip = in;
    }
    out.push_back(std::move(r));
    pos = next;
  }
  return out;
}

service::ServiceOptions options(const obs::Registry* reg) {
  // funnel_serve's defaults (2 shards, async queue of 256, 60-minute
  // lookback and horizon), registry attached, tenants in memory.
  service::ServiceOptions o;
  o.stats = reg;
  return o;
}

service::TenantOptions tenant_options(const std::string& journal) {
  service::TenantOptions t;
  t.name = kTenant;
  t.journal_path = journal;
  return t;
}

struct Verdict {
  funnel::changes::ChangeId change = 0;
  MinuteTime determined_at = 0;
  double at_s = 0.0;
};

struct Round {
  double service_cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t samples = 0;
  std::string report_body;
  std::vector<Report> reports;
  std::vector<double> round_trip_s;
  std::vector<double> register_s;
  std::vector<double> minute_sent_s;  ///< send time of each minute's POST
  std::vector<Verdict> verdicts;      ///< on_verdict, traced round only
  std::uint64_t malformed = 0;
  std::uint64_t refusals = 0;
  std::size_t queue_depth_max = 0;
  std::uint64_t dropped = 0;
  double rss_mb = 0.0;  ///< resident with the round's state still held
};

/// The warm-up history, in process: the same bodies through Tenant::ingest
/// under the tenant's lock, as the ingest handler calls it, so set-up is
/// CPU-bound work on one thread rather than loopback round trips.
void warm_up(service::Tenant& tenant, const Input& in, Result& result) {
  const std::lock_guard<std::mutex> lock(tenant.mutex());
  for (MinuteTime m = 0; m < kWarmup; ++m) {
    const service::IngestResult res =
        tenant.ingest(in.bodies[static_cast<std::size_t>(m)]);
    result.check(res.accepted == in.fleet.series.size() && res.malformed == 0,
                 "warm-up minute " + std::to_string(m) + " not accepted");
  }
  // Drain the dispatcher, so the warm-up's work is not charged to the day.
  tenant.store().flush();
}

/// Warm-up then the timed day; the report closes the round.
Round day_round(const Input& in, const std::string& journal,
                const obs::Registry& reg, const obs::Tracer* tracer,
                Result& result) {
  Round r;
  const double rss_base = rss_mb();
  service::FunnelService svc(options(&reg));
  service::Tenant& tenant = svc.add_tenant(tenant_options(journal));
  std::mutex verdict_mutex;
  if (tracer != nullptr) {
    tenant.store().set_stats(&reg);
    tenant.online().on_verdict(
        [&](funnel::changes::ChangeId id, const core::ItemVerdict& v) {
          const double now = wall_s();
          std::lock_guard<std::mutex> lock(verdict_mutex);
          r.verdicts.push_back({id, v.determined_at.value_or(0), now});
        });
  }
  std::string error;
  result.check(svc.start(&error), "service start: " + error);
  IngestClient client(svc.port(), kTenant);
  const std::size_t lines = in.fleet.series.size();
  r.minute_sent_s.assign(static_cast<std::size_t>(in.minutes), 0.0);
  const auto send = [&](MinuteTime m) {
    r.minute_sent_s[static_cast<std::size_t>(m)] = wall_s();
    bool ok = false;
    {
      obs::Span span(tracer, "bench.ingest");
      ok = client.post(in.bodies[static_cast<std::size_t>(m)], lines);
    }
    result.operation(ok);
    result.check(ok, "ingest minute " + std::to_string(m) + " not accepted");
  };
  warm_up(tenant, in, result);

  ServiceCpu cpu;
  cpu.start();
  const double w0 = wall_s();
  std::size_t next = 0;
  for (MinuteTime m = kWarmup; m < in.minutes; ++m) {
    while (next < in.changes.size() && in.changes[next].time == m) {
      obs::Span span(tracer, "bench.register");
      const HttpReply c = http(svc.port(), "POST",
                               std::string("/v1/changes/") + kTenant,
                               in.changes[next].line);
      const bool ok =
          c.status == 200 &&
          c.body.find("\"registered\":[" + std::to_string(next) + "]") !=
              std::string::npos;
      result.operation(ok);
      result.check(ok, "change " + std::to_string(next) + ": " + c.body);
      r.register_s.push_back(c.seconds);
      ++next;
    }
    send(m);
    if (tracer != nullptr) {
      r.queue_depth_max =
          std::max(r.queue_depth_max, tenant.store().queue_depth());
    }
  }
  const HttpReply report =
      http(svc.port(), "GET", std::string("/v1/report/") + kTenant);
  r.service_cpu_s = cpu.stop();
  r.wall_s = wall_s() - w0;
  r.samples = client.accepted();
  r.report_body = report.body;
  r.reports = parse_reports(report.body);
  r.round_trip_s = client.round_trips();
  r.malformed = client.malformed();
  r.refusals = client.refusals();
  r.dropped = tenant.store().dropped_samples();
  r.rss_mb = rss_mb() - rss_base;

  // One finalized report per registered change, covering its impact set
  // (every KPI of every treated server).
  result.check(report.status == 200 &&
                   json_int(report.body, "active_watches") == 0,
               "every watch finalized");
  result.check(r.reports.size() == in.changes.size(),
               "one report per change: " + std::to_string(r.reports.size()));
  for (std::size_t i = 0; i < r.reports.size() && i < in.changes.size(); ++i) {
    const Report& rep = r.reports[i];
    std::set<std::string> got;
    for (const Item& it : rep.items) got.insert(it.metric);
    bool covers = rep.change_id == static_cast<long long>(i);
    for (const std::string& srv : in.changes[i].servers) {
      for (const Series& s : in.fleet.series) {
        if (s.server == srv) {
          covers = covers && got.count(tsdb::server_metric(srv, s.kpi)
                                           .to_string()) > 0;
        }
      }
    }
    result.operation(covers);
    result.check(covers, "report " + std::to_string(i) + " covers its impact set");
  }
  svc.stop();
  return r;
}

}  // namespace

void run_online_day(const Args& args, Result& result) {
  const std::string dir = scratch_dir(args, "online");
  const std::string journal = dir + "/journal.jsonl";

  // Set-up: input generation, service and tenant construction and the
  // warm-up history; repeated and its median reported, so work moved into
  // it shows. It is timed on the process CPU clock, because its wall time
  // also counts steal. The reference sampler runs beside every set-up and
  // round.
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
      // Construction and warm-up only: start() and stop() wait on the
      // listener's poll timeout, which is not work.
      const obs::Registry reg;
      service::FunnelService svc(options(&reg));
      warm_up(svc.add_tenant(tenant_options(journal)), in, result);
      setup_wall = wall_s() - t0;
      costs.setup_s.push_back(process_cpu_s() - c0);
    }
    std::fprintf(stderr, "# set-up %d: %.4f s CPU, %.4f s wall\n", i,
                 costs.setup_s.back(), setup_wall);
  }
  // Scaled once, by the host's speed over the whole set-up phase, which
  // gives the sampler more chunks than one set-up does.
  costs.setup_norm_s = speed.scale(median(costs.setup_s));

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> rss;
  Round first;
  const double start = wall_s();
  int round = 0;
  do {
    const obs::Registry reg;
    speed.begin();
    Round r = day_round(in, journal, reg, nullptr, result);
    costs.op_s.push_back(r.service_cpu_s / static_cast<double>(r.samples));
    costs.op_norm_s.push_back(speed.scale(costs.op_s.back()));
    rss.push_back(r.rss_mb);
    result.check(round == 0 || r.report_body == first.report_body,
                 "report bytes identical across rounds");
    if (round == 0) first = std::move(r);
    std::fprintf(stderr, "# round %d: %.4f us/sample (%.4f scaled), %.1f MB\n",
                 round, 1e6 * costs.op_s.back(), 1e6 * costs.op_norm_s.back(),
                 rss.back());
    ++round;
  } while (wall_s() - start < budget);
  std::fprintf(stderr, "# online_day: %zu changes, %d rounds, report hash "
               "%016llx\n", in.changes.size(), round,
               static_cast<unsigned long long>(fnv1a(first.report_body)));
  costs.report(args.trace, speed, result);
  if (!args.trace) {
    // Memory of the first round: later rounds start from what the earlier
    // ones left in the allocator.
    result.metric("rss_mb", rss.front(), "MB");
    return;
  }

  // ---- verdict quality, from the first round's reports ----
  const std::string caused = core::to_string(core::Cause::kSoftwareChange);
  Attribution quality;
  quality.truth = in.truth;
  std::vector<double> delay_min;
  std::uint64_t determinations = 0, attributed = 0;
  for (const Report& rep : first.reports) {
    for (const Item& it : rep.items) {
      const bool judged = it.cause == caused;
      quality.item(static_cast<funnel::changes::ChangeId>(rep.change_id),
                   it.metric, judged);
      if (it.determined_at < 0) continue;
      ++determinations;
      attributed += judged;
      if (judged) {
        delay_min.push_back(static_cast<double>(
            it.determined_at -
            in.changes[static_cast<std::size_t>(rep.change_id)].time));
      }
    }
  }
  quality.report(result);
  result.timing("funnel.verdict_delay_min_p50", delay_min, 0.5, "min");

  // ---- traced round ----
  obs::Tracer tracer(kTraceSpans);
  LayerClock clock(&tracer);
  const obs::Registry reg;
  speed.begin();
  const Round t = day_round(in, journal, reg, &tracer, result);
  const double traced_norm =
      speed.scale(t.service_cpu_s / static_cast<double>(t.samples));
  result.check(t.report_body == first.report_body,
               "traced report bytes identical to untraced");
  const obs::Snapshot snap = reg.snapshot();
  const double samples = static_cast<double>(t.samples);
  const std::size_t lines = in.fleet.series.size();

  // ---- replays on the program's own threads' layers ----
  const MinuteTime replay_minutes = std::min<MinuteTime>(in.minutes, 240);
  const double replay_samples =
      static_cast<double>(replay_minutes) * static_cast<double>(lines);
  const auto per = [&](double s) { return s / replay_samples; };
  Cpu http_layer, direct, bare, dispatch;
  {
    obs::Span span(&tracer, "bench.replay.http");
    http_layer = http_layer_replay(in.bodies,
                                   static_cast<std::size_t>(replay_minutes));
  }
  {
    service::Tenant replica(tenant_options(""));
    std::lock_guard<std::mutex> lock(replica.mutex());
    obs::Span span(&tracer, "bench.replay.tenant_ingest");
    direct = measure([&] {
      for (MinuteTime m = 0; m < replay_minutes; ++m) {
        replica.ingest(in.bodies[static_cast<std::size_t>(m)]);
      }
      replica.store().flush();
    });
  }
  std::vector<tsdb::MetricId> ids;
  for (const Series& s : in.fleet.series) {
    ids.push_back(tsdb::server_metric(s.server, s.kpi));
  }
  const service::TenantOptions topts;
  tsdb::StoreOptions sopts;
  sopts.num_shards = topts.num_shards;
  sopts.ingest_queue_capacity = topts.ingest_queue_capacity;
  sopts.backpressure = topts.backpressure;
  const auto bare_append = [&](tsdb::MetricStore& store) {
    for (MinuteTime m = 0; m < replay_minutes; ++m) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        store.append(ids[i], m,
                     in.fleet.series[i].values[static_cast<std::size_t>(m)]);
      }
    }
    store.flush();
  };
  {
    tsdb::MetricStore store(sopts);
    obs::Span span(&tracer, "bench.replay.append");
    bare = measure([&] { bare_append(store); });
  }
  {
    // A subscriber that does nothing: what dispatch costs by itself.
    tsdb::MetricStore store(sopts);
    store.subscribe({}, [](const tsdb::MetricId&, MinuteTime, double) {});
    obs::Span span(&tracer, "bench.replay.dispatch");
    dispatch = measure([&] { bare_append(store); });
  }

  // Replica pipeline for watch(), determine_cause() and the scorer.
  funnel::topology::ServiceTopology topo;
  for (const Series& s : in.fleet.series) {
    if (!topo.has_server(s.server)) topo.add_server(s.service, s.server);
  }
  funnel::changes::ChangeLog log;
  for (const Change& c : in.changes) {
    funnel::changes::SoftwareChange sc;
    sc.service = Fleet::service_name(c.service);
    sc.servers = c.servers;
    sc.time = c.time;
    sc.mode = funnel::changes::LaunchMode::kDark;
    sc.description = "replay";
    log.record(sc, topo);
  }
  const core::FunnelConfig cfg = topts.funnel;
  tsdb::MetricStore replica_store;  // synchronous: no feed runs at append
  MinuteTime filled = 0;
  for (std::size_t c = 0; c < in.changes.size(); ++c) {
    for (; filled < in.changes[c].time; ++filled) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        replica_store.append(
            ids[i], filled,
            in.fleet.series[i].values[static_cast<std::size_t>(filled)]);
      }
    }
    core::FunnelOnline online(cfg, topo, log, replica_store);
    clock.time("funnel.watch", [&] { online.watch(c); });
  }
  for (; filled < in.minutes; ++filled) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      replica_store.append(
          ids[i], filled,
          in.fleet.series[i].values[static_cast<std::size_t>(filled)]);
    }
  }
  DetectReplay detect;
  const core::Funnel batch(cfg, topo, log, replica_store);
  for (const Report& rep : t.reports) {
    const auto& change = log.get(static_cast<funnel::changes::ChangeId>(
        rep.change_id));
    core::ImpactSet set;
    clock.time("funnel.impact_set",
               [&] { set = core::identify_impact_set(change, topo); });
    for (const Item& it : rep.items) {
      const std::size_t at = it.metric.find(':');
      const std::size_t slash = it.metric.rfind('/');
      const tsdb::MetricId id = tsdb::server_metric(
          it.metric.substr(at + 1, slash - at - 1), it.metric.substr(slash + 1));
      const MinuteTime lo = change.time - cfg.lookback;
      const std::vector<double> stream =
          replica_store.query(id, lo, change.time + cfg.horizon + 1);
      obs::Span span(&tracer, "bench.replay.detect");
      detect.run(cfg, stream, lo, change.time);
      if (it.determined_at < 0) continue;
      core::ItemVerdict v;
      v.metric = id;
      clock.time("did.determine", [&] {
        batch.determine_cause(change, set, id, it.determined_at - change.time,
                              v);
      });
    }
  }

  // Journal: the run's own events through a standalone journal.
  const std::vector<obs::JournalEvent> events = obs::read_journal(journal);
  Cpu journal_cpu;
  {
    obs::Journal replay(dir + "/journal-replay.jsonl");
    obs::Span span(&tracer, "bench.replay.journal");
    journal_cpu = measure([&] {
      for (const obs::JournalEvent& e : events) {
        clock.time("obs.journal.append", [&] { replay.append(e); });
      }
      replay.flush();
    });
  }
  const double journal_bytes =
      fs::exists(journal) ? static_cast<double>(fs::file_size(journal)) : 0.0;

  // ---- per-layer metrics ----
  const std::vector<double>& round_trip_s = t.round_trip_s;
  double round_trip_sum = 0.0;
  for (const double x : round_trip_s) round_trip_sum += x;
  std::vector<double> verdict_ms;
  for (const Verdict& v : t.verdicts) {
    if (v.determined_at >= 0 && v.determined_at < in.minutes) {
      verdict_ms.push_back(
          1e3 * (v.at_s - t.minute_sent_s[static_cast<std::size_t>(
                              v.determined_at)]));
    }
  }
  result.metric("obs.http.requests", counter(snap, "obs.server.requests"),
                "count");
  result.metric("obs.http.errors", counter(snap, "obs.server.http_errors"),
                "count");
  result.timing("obs.http.round_trip_us_p50", scaled(round_trip_s, 1e6), 0.5,
                "us");
  result.timing("obs.http.server_us_p50",
                histogram(snap, "obs.server.request_us"), "us");
  result.metric("obs.http.self_us_per_sample",
                1e6 * (round_trip_sum / samples - per(direct.self_s)), "us");
  result.metric("service.ingest_us_per_sample",
                1e6 * per(direct.self_s - bare.self_s), "us");
  result.timing("service.register_ms_p50", scaled(t.register_s, 1e3), 0.5,
                "ms");
  result.metric("service.lines_malformed", static_cast<double>(t.malformed),
                "count");
  result.metric("service.refusals", static_cast<double>(t.refusals), "count");
  result.timing("service.verdict_ms_p50", verdict_ms, 0.5, "ms");
  result.timing("service.verdict_ms_p90", verdict_ms, 0.9, "ms");
  result.timing("service.ingest_ms_p50", scaled(round_trip_s, 1e3), 0.5, "ms");
  result.metric("service.samples_per_s", samples / t.wall_s, "1/s");
  result.metric("tsdb.append_us_per_sample", 1e6 * per(bare.self_s), "us");
  result.metric("tsdb.dispatch_us_per_sample",
                1e6 * per(dispatch.self_s + dispatch.others_s - bare.self_s -
                          bare.others_s),
                "us");
  result.timing("tsdb.dispatch_lag_us_p50",
                histogram(snap, "tsdb.store.dispatch_lag_us"), "us");
  result.metric("tsdb.queue_depth_max", static_cast<double>(t.queue_depth_max),
                "count");
  result.metric("tsdb.dropped_samples", static_cast<double>(t.dropped),
                "count");
  result.metric("funnel.watches", static_cast<double>(t.register_s.size()),
                "count");
  result.timing("funnel.watch_ms_p50", scaled(clock.samples("funnel.watch"), 1e3),
                0.5, "ms");
  result.timing("funnel.impact_set_us_p50",
                scaled(clock.samples("funnel.impact_set"), 1e6), 0.5, "us");
  const obs::HistogramSnapshot sample =
      histogram(snap, "funnel.online.sample_us");
  result.timing("funnel.sample_us_p50", sample, "us");
  detect.report(result);
  result.metric("did.determinations", static_cast<double>(determinations),
                "count");
  result.timing("did.determine_us_p50",
                scaled(clock.samples("did.determine"), 1e6), 0.5, "us");
  result.metric("did.attributed_ratio",
                ratio(static_cast<double>(attributed),
                      static_cast<double>(determinations)),
                "ratio");
  result.metric("obs.journal.events", static_cast<double>(events.size()),
                "count");
  result.timing("obs.journal.append_us_p50",
                scaled(clock.samples("obs.journal.append"), 1e6), 0.5, "us");
  result.metric("obs.journal.bytes_per_event",
                ratio(journal_bytes, static_cast<double>(events.size())), "B");

  // Self cost per layer over the traced round. FunnelOnline's own work is
  // its per-sample handler plus watch(), minus the detector and DiD work
  // they contain.
  const double sample_total = 1e-6 * sample.sum;
  const double funnel_total = sample_total + clock.total("funnel.watch");
  std::map<std::string, double> self;
  self["obs.http"] = samples * per(http_layer.others_s);
  self["service"] = samples * per(direct.self_s - bare.self_s);
  self["tsdb"] = samples * per(dispatch.self_s + dispatch.others_s);
  self["detect"] = detect.cpu_s;
  self["did"] = clock.total("did.determine");
  // The remainder mixes the registry's wall-time sample handler with CPU
  // replays and can come out below zero; the impact-set identification each
  // watch runs is timed directly, and is a floor.
  self["funnel"] =
      std::max(clock.total("funnel.impact_set"),
               funnel_total - detect.cpu_s - clock.total("did.determine"));
  self["obs.journal"] = journal_cpu.self_s + journal_cpu.others_s;
  finish_trace(result, self, samples, t.service_cpu_s,
               traced_norm / median(costs.op_norm_s) - 1.0);
  write_chrome_trace(tracer, trace_path(args));
}

}  // namespace funnelbench
