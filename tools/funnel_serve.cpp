// funnel_serve — the multi-tenant assessment daemon (docs/SERVICE.md).
//
//   funnel_serve --port P|auto [--port-file F] [--data-root DIR]
//                [--tenants a,b,c] [--dynamic-tenants]
//                [--config FILE]
//                [--quota-rate R] [--quota-burst B] [--queue-share S]
//                [--num-shards N] [--queue-capacity N]
//                [--horizon M] [--lookback M] [--min-did-window M]
//                [--max-seconds S]
//
// Hosts one FunnelService: every named tenant is created (and, with
// --data-root, crash-recovered from <data-root>/<name>/) before the
// listener binds, so the port-file handshake guarantees a fully serving
// daemon. Clients then drive the /v1 surface (ingest, changes, report,
// seq, checkpoint) documented in src/service/service.h.
//
// Signals:
//   SIGTERM / SIGINT  graceful shutdown: checkpoint every persistent
//                     tenant, stop the listener, exit 0. The next boot
//                     recovers from the checkpoints instantly.
//   SIGHUP            config reload: re-read --config (key=value lines:
//                     quota_rate, quota_burst, queue_share) and apply the
//                     quota to every tenant. Without --config, SIGHUP is a
//                     documented no-op (logged, nothing changes).
//
// Crash recovery needs no flags: a SIGKILL'd daemon restarted on the same
// --data-root replays each tenant's meta.log + WAL tail and repairs its
// journal (the funnel_persist_replay_test protocol); clients read
// GET /v1/seq/<tenant> to learn where to resume. tools/soak_harness drills
// exactly this loop under fault injection.
//
// Exit codes: 0 clean shutdown, 2 usage (an unknown flag, a numeric value
// that does not parse whole or is out of range: --port takes auto or
// 0-65535, --num-shards at least 1, counts and minutes take no sign, or a
// --tenants name that is not one path component — with a '/', "." or
// ".." — or is named twice), 3 environment (an unreadable
// --config or one with a value that does not parse whole, a bind failure,
// or a --port-file that cannot be written). A tenant whose data_dir does
// not recover boots quarantined; the others serve.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "obs/registry.h"
#include "service/service.h"

namespace {

using funnel::service::FunnelService;
using funnel::service::QuotaConfig;
using funnel::service::ServiceOptions;

struct Options {
  int port = -2;  // -2 = unset, -1 = auto (ephemeral), else fixed
  std::string port_file;
  std::string data_root;
  std::vector<std::string> tenants;
  bool dynamic_tenants = false;
  std::string config_path;
  QuotaConfig quota;
  std::size_t num_shards = 2;
  std::size_t queue_capacity = 256;
  funnel::MinuteTime horizon = 60;
  funnel::MinuteTime lookback = 60;
  funnel::MinuteTime min_did_window = 9;
  std::size_t max_seconds = 0;  // 0 = serve until a stop signal
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port P|auto [--port-file F] [--data-root DIR]\n"
      "          [--tenants a,b,c] [--dynamic-tenants] [--config FILE]\n"
      "          [--quota-rate R] [--quota-burst B] [--queue-share S]\n"
      "          [--num-shards N] [--queue-capacity N]\n"
      "          [--horizon M] [--lookback M] [--min-did-window M]\n"
      "          [--max-seconds S]\n",
      argv0);
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    // The flag's value must parse whole; counts are unsigned, so a sign
    // fails too.
    std::string v;
    const auto number = [&](auto* value) {
      return next(&v) && funnel::parse_number(v, *value);
    };
    if (a == "--port") {
      if (!next(&v)) return false;
      std::uint16_t port = 0;
      if (v == "auto") {
        opt.port = -1;
      } else if (funnel::parse_number(v, port)) {
        opt.port = port;
      } else {
        return false;
      }
    } else if (a == "--port-file") {
      if (!next(&opt.port_file)) return false;
    } else if (a == "--data-root") {
      if (!next(&opt.data_root)) return false;
    } else if (a == "--tenants") {
      if (!next(&v)) return false;
      std::stringstream ss(v);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (name.empty()) continue;
        if (!funnel::service::valid_tenant_name(name) ||
            std::find(opt.tenants.begin(), opt.tenants.end(), name) !=
                opt.tenants.end()) {
          return false;
        }
        opt.tenants.push_back(name);
      }
    } else if (a == "--dynamic-tenants") {
      opt.dynamic_tenants = true;
    } else if (a == "--config") {
      if (!next(&opt.config_path)) return false;
    } else if (a == "--quota-rate") {
      if (!number(&opt.quota.rate_per_sec)) return false;
    } else if (a == "--quota-burst") {
      if (!number(&opt.quota.burst)) return false;
    } else if (a == "--queue-share") {
      if (!number(&opt.quota.queue_share)) return false;
    } else if (a == "--num-shards") {
      if (!number(&opt.num_shards) || opt.num_shards == 0) return false;
    } else if (a == "--queue-capacity") {
      if (!number(&opt.queue_capacity)) return false;
    } else if (a == "--horizon") {
      if (!number(&opt.horizon) || opt.horizon < 0) return false;
    } else if (a == "--lookback") {
      if (!number(&opt.lookback) || opt.lookback < 0) return false;
    } else if (a == "--min-did-window") {
      if (!number(&opt.min_did_window) || opt.min_did_window < 0) {
        return false;
      }
    } else if (a == "--max-seconds") {
      if (!number(&opt.max_seconds)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return opt.port != -2;
}

/// key=value quota config ('#' comments, unknown keys ignored so the file
/// can grow). A known key's value must parse whole, as the --quota-* flags
/// do. Returns false with a diagnostic in `error` when the file cannot be
/// read or a value is malformed; `quota` is then partly updated.
bool load_quota_config(const std::string& path, QuotaConfig* quota,
                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    double* field = key == "quota_rate"    ? &quota->rate_per_sec
                    : key == "quota_burst" ? &quota->burst
                    : key == "queue_share" ? &quota->queue_share
                                           : nullptr;
    if (field == nullptr) continue;
    const std::string value = line.substr(eq + 1);
    if (!funnel::parse_number(value, *field)) {
      *error = path + " line " + std::to_string(lineno) + ": bad " + key +
               " value '" + value + "'";
      return false;
    }
  }
  return true;
}

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;

void handle_stop(int) { g_stop = 1; }
void handle_reload(int) { g_reload = 1; }

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }
  if (std::string error; !opt.config_path.empty() &&
                         !load_quota_config(opt.config_path, &opt.quota,
                                            &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 3;
  }

  funnel::obs::Registry reg;
  ServiceOptions sopts;
  sopts.plane.http.port =
      opt.port < 0 ? 0 : static_cast<std::uint16_t>(opt.port);
  sopts.plane.build_info = "funnel_serve";
  {
    std::ostringstream summary;
    summary << "tenants=" << opt.tenants.size()
            << " data_root=" << (opt.data_root.empty() ? "-" : opt.data_root)
            << " quota_rate=" << opt.quota.rate_per_sec;
    sopts.plane.config_summary = summary.str();
  }
  sopts.data_root = opt.data_root;
  sopts.allow_dynamic_tenants = opt.dynamic_tenants;
  sopts.stats = &reg;
  sopts.tenant_defaults.num_shards = opt.num_shards;
  sopts.tenant_defaults.ingest_queue_capacity = opt.queue_capacity;
  sopts.tenant_defaults.quota = opt.quota;
  sopts.tenant_defaults.funnel.horizon = opt.horizon;
  sopts.tenant_defaults.funnel.lookback = opt.lookback;
  sopts.tenant_defaults.funnel.min_did_window = opt.min_did_window;

  FunnelService service(std::move(sopts));
  for (const std::string& name : opt.tenants) {
    funnel::service::Tenant& t = service.add_tenant(name);
    if (t.quarantined()) {
      std::fprintf(stderr, "# tenant %s quarantined at boot: %s\n",
                   name.c_str(), t.quarantine_reason().c_str());
    } else if (t.recovered_seq() > 0) {
      std::fprintf(stderr, "# tenant %s recovered to seq %llu\n",
                   name.c_str(),
                   static_cast<unsigned long long>(t.recovered_seq()));
    }
  }

  std::string error;
  if (!service.start(&error)) {
    std::fprintf(stderr, "error: cannot start service: %s\n", error.c_str());
    return 3;
  }
  std::fprintf(stderr, "# serving %zu tenants on 127.0.0.1:%d\n",
               service.tenant_count(), service.port());
  if (!opt.port_file.empty()) {
    std::ofstream pf(opt.port_file);
    if (!pf) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.port_file.c_str());
      return 3;
    }
    pf << service.port() << '\n';
  }

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  std::signal(SIGHUP, handle_reload);

  const auto started = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    if (g_reload != 0) {
      g_reload = 0;
      std::string error;
      if (opt.config_path.empty()) {
        std::fprintf(stderr, "# SIGHUP: no --config, nothing to reload\n");
      } else if (QuotaConfig quota = opt.quota;
                 load_quota_config(opt.config_path, &quota, &error)) {
        service.reload_quotas(quota);
        opt.quota = quota;
        std::fprintf(stderr,
                     "# SIGHUP: reloaded %s (rate=%.1f burst=%.1f "
                     "share=%.2f)\n",
                     opt.config_path.c_str(), quota.rate_per_sec, quota.burst,
                     quota.queue_share);
      } else {
        std::fprintf(stderr,
                     "# SIGHUP: cannot re-read config (%s); keeping quotas\n",
                     error.c_str());
      }
    }
    if (opt.max_seconds > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(opt.max_seconds)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "# shutting down: checkpointing tenants\n");
  service.checkpoint_all();
  service.stop();
  return 0;
}
