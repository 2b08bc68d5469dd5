// soak_harness — the time-compressed deployment-week chaos drill
// (docs/SERVICE.md "Soak", docs/ROBUSTNESS.md).
//
//   soak_harness --serve-bin PATH --work-dir DIR [--quick] [--seed S]
//                [--days D] [--change-every M] [--skip-latency]
//
// Drives a real funnel_serve daemon over live HTTP through a synthetic
// deployment week (the paper's operating point: ~24k changes/day across the
// portfolio, §1, compressed to minutes of wall time), with PR 5's
// deterministic FaultInjector dirtying some tenants' feeds and a seeded
// SIGKILL+restart schedule interrupting the daemon mid-stream. Three runs
// of the identical action schedule:
//
//   A golden   clean feeds, no kills
//   B faulted  dirty feeds on the fault tenants, no kills
//   C chaos    same dirty feeds, >= 3 SIGKILL/restart cycles; after each
//              restart every tenant resumes exactly at GET /v1/seq's
//              recovered_seq (the WAL cursor, docs/STORAGE.md §6)
//
// and then the robustness claims are checked mechanically:
//   * C == B per-tenant verdict journals, byte for byte: crashes are
//     invisible in the verdict stream.
//   * B == A byte-identical for every clean tenant: one tenant's dirty
//     feed never alters another tenant's verdict bytes (cross-tenant
//     isolation).
//   * B vs A on the fault tenants: every divergence is confined to a fault
//     tenant and summarised as a cause transition (the documented
//     degradations).
// A final quota/latency phase over-drives one tenant (expecting 429 +
// Retry-After) while a paced in-quota tenant's p95 ingest latency must stay
// within 2x its unloaded baseline (+2ms noise floor), and a quarantine
// drill flips /healthz for one tenant while its neighbour keeps serving.
//
// Exit codes: 0 pass, 1 failure (an assertion, or a funnel_serve that does
// not start), 2 usage.
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/journal.h"
#include "workload/faults.h"

namespace {

namespace fs = std::filesystem;
using funnel::MinuteTime;

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string serve_bin;
  std::string work_dir;
  bool quick = false;
  std::uint64_t seed = 42;
  int days = 7;
  int change_every = 20;  ///< minutes between changes per tenant
  bool skip_latency = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --serve-bin PATH --work-dir DIR [--quick]\n"
               "          [--seed S] [--days D] [--change-every M]\n"
               "          [--skip-latency]\n",
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
    std::string v;
    if (a == "--serve-bin") {
      if (!next(&opt.serve_bin)) return false;
    } else if (a == "--work-dir") {
      if (!next(&opt.work_dir)) return false;
    } else if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--seed") {
      if (!next(&v)) return false;
      opt.seed = static_cast<std::uint64_t>(std::strtoull(v.c_str(), nullptr, 10));
    } else if (a == "--days") {
      if (!next(&v)) return false;
      opt.days = std::atoi(v.c_str());
    } else if (a == "--change-every") {
      if (!next(&v)) return false;
      opt.change_every = std::atoi(v.c_str());
    } else if (a == "--skip-latency") {
      opt.skip_latency = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return !opt.serve_bin.empty() && !opt.work_dir.empty();
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 client (Connection: close per request)

struct HttpResult {
  bool ok = false;       ///< transport-level success (a response was parsed)
  int status = 0;
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;

  std::string header(const std::string& name) const {
    for (const auto& [k, v] : headers) {
      if (k.size() == name.size() &&
          std::equal(k.begin(), k.end(), name.begin(), [](char a, char b) {
            return std::tolower(static_cast<unsigned char>(a)) ==
                   std::tolower(static_cast<unsigned char>(b));
          })) {
        return v;
      }
    }
    return {};
  }
};

HttpResult http_request(int port, const std::string& method,
                        const std::string& path, const std::string& body) {
  HttpResult res;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return res;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return res;
  }
  std::ostringstream req;
  req << method << ' ' << path << " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      << "Content-Length: " << body.size()
      << "\r\nConnection: close\r\n\r\n"
      << body;
  const std::string out = req.str();
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return res;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return res;
  const std::size_t line_end = raw.find("\r\n");
  const std::string status_line = raw.substr(0, line_end);
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string::npos) return res;
  res.status = std::atoi(status_line.c_str() + sp + 1);
  std::size_t pos = line_end + 2;
  while (pos < head_end) {
    const std::size_t eol = raw.find("\r\n", pos);
    const std::string line = raw.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    res.headers.emplace_back(line.substr(0, colon), value);
  }
  res.body = raw.substr(head_end + 4);
  res.ok = true;
  return res;
}

/// Retry transport failures briefly (covers the accept race right after a
/// restart announces its port).
HttpResult http_retry(int port, const std::string& method,
                      const std::string& path, const std::string& body,
                      int attempts = 40) {
  for (int i = 0; i < attempts; ++i) {
    HttpResult res = http_request(port, method, path, body);
    if (res.ok) return res;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return {};
}

// ---------------------------------------------------------------------------
// Daemon lifecycle

struct Daemon {
  pid_t pid = -1;
  int port = 0;
};

std::vector<std::string> serve_args(const Options& opt, const std::string& dir,
                                    const std::vector<std::string>& tenants) {
  std::vector<std::string> args = {
      opt.serve_bin,     "--port",          "auto",
      "--port-file",     dir + "/port.txt", "--data-root",
      dir + "/data",     "--num-shards",    "2",
      "--queue-capacity", "256",            "--horizon",
      "20",              "--lookback",      "30",
      "--min-did-window", "6"};
  args.push_back("--tenants");
  std::string joined;
  for (const std::string& t : tenants) {
    if (!joined.empty()) joined += ',';
    joined += t;
  }
  args.push_back(joined);
  return args;
}

bool spawn_daemon(const Options& opt, const std::string& dir,
                  const std::vector<std::string>& tenants, Daemon* daemon) {
  const std::string port_file = dir + "/port.txt";
  fs::remove(port_file);
  const std::vector<std::string> args = serve_args(opt, dir, tenants);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, 0);
    const int logfd = ::open((dir + "/serve.log").c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (logfd >= 0) {
      ::dup2(logfd, 1);
      ::dup2(logfd, 2);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  // Wait for the port-file handshake; an early exit is a start-up failure
  // (bind, config), reported in serve.log.
  for (int i = 0; i < 600; ++i) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return false;
    std::ifstream pf(port_file);
    int port = 0;
    if (pf >> port && port > 0) {
      HttpResult ready = http_request(port, "GET", "/readyz", "");
      if (ready.ok && ready.status == 200) {
        daemon->pid = pid;
        daemon->port = port;
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return false;
}

void kill_daemon(Daemon* daemon) {
  if (daemon->pid <= 0) return;
  ::kill(daemon->pid, SIGKILL);
  ::waitpid(daemon->pid, nullptr, 0);
  daemon->pid = -1;
}

bool stop_daemon(Daemon* daemon) {
  if (daemon->pid <= 0) return false;
  ::kill(daemon->pid, SIGTERM);
  int status = 0;
  ::waitpid(daemon->pid, &status, 0);
  daemon->pid = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---------------------------------------------------------------------------
// The deployment-week schedule

struct Action {
  bool change = false;
  std::string line;
};

struct TenantPlan {
  std::string name;
  bool faulted = false;                ///< feeds dirtied in runs B/C
  std::vector<Action> clean;           ///< run A's action stream
  std::vector<Action> dirty;           ///< runs B/C (== clean when !faulted)
  std::size_t changes = 0;
};

std::string sample_line(const std::string& server, MinuteTime m, double v) {
  char buf[128];
  if (std::isnan(v)) {
    std::snprintf(buf, sizeof(buf), "svc,%s,cpu,%lld,nan", server.c_str(),
                  static_cast<long long>(m));
  } else {
    std::snprintf(buf, sizeof(buf), "svc,%s,cpu,%lld,%.6f", server.c_str(),
                  static_cast<long long>(m), v);
  }
  return buf;
}

/// One tenant's week: two servers sampled every minute, a change every
/// `change_every` minutes alternating servers, every third change carrying
/// a real +8 step on its treated server (so golden runs detect impact).
/// The dirty stream pushes the same clean values through a seeded
/// FaultInjector per server — the same realized deliveries in runs B and C.
TenantPlan build_plan(const std::string& name, bool faulted, int minutes,
                      int change_every, std::uint64_t seed) {
  TenantPlan plan;
  plan.name = name;
  plan.faulted = faulted;
  funnel::Rng rng(seed);
  const std::vector<std::string> servers = {"srv0", "srv1"};
  const funnel::workload::FaultSpec spec = funnel::workload::parse_fault_spec(
      "drop=0.03,nan=0.01x4,stuck=0.005x6,dup=0.02,reorder=0.02,late=0.01x4");
  std::vector<funnel::workload::FaultInjector> inject;
  for (std::size_t s = 0; s < servers.size(); ++s) {
    inject.emplace_back(spec, seed * 1000003 + s);
  }

  const int first_change = 45;  // > lookback(30): history always primes
  const int horizon = 20;       // must match serve_args
  struct Step {
    std::size_t server;
    MinuteTime from, to;
  };
  std::vector<Step> steps;
  int k = 0;
  for (int m = 0; m < minutes; ++m) {
    // Samples for this minute.
    for (std::size_t s = 0; s < servers.size(); ++s) {
      double v = 10.0 + rng.uniform() - 0.5;
      for (const Step& step : steps) {
        if (step.server == s && m >= step.from && m < step.to) v += 8.0;
      }
      plan.clean.push_back({false, sample_line(servers[s], m, v)});
      if (faulted) {
        for (const funnel::workload::FaultDelivery& d :
             inject[s].push(m, v)) {
          plan.dirty.push_back(
              {false, sample_line(servers[s], d.minute, d.value)});
        }
      }
    }
    // A change, once the feed has history and the horizon still fits.
    if (m >= first_change && (m - first_change) % change_every == 0 &&
        m + horizon + 5 < minutes) {
      const std::size_t srv = static_cast<std::size_t>(k) % servers.size();
      char line[160];
      std::snprintf(line, sizeof(line), "%d,svc,dark,%s,chg-%d", m,
                    servers[srv].c_str(), k);
      if (k % 3 == 0) steps.push_back({srv, m, m + horizon});
      plan.clean.push_back({true, line});
      if (faulted) plan.dirty.push_back({true, line});
      ++k;
      ++plan.changes;
    }
  }
  if (faulted) {
    for (auto& inj : inject) {
      for (const funnel::workload::FaultDelivery& d : inj.drain()) {
        // Drained stragglers belong to whichever server's injector held
        // them; re-derive the server from the injector index.
        const std::size_t s = static_cast<std::size_t>(&inj - inject.data());
        plan.dirty.push_back(
            {false, sample_line(servers[s], d.minute, d.value)});
      }
    }
  } else {
    plan.dirty = plan.clean;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Driving one run

struct RunResult {
  bool ok = false;
  std::size_t kills = 0;
  std::map<std::string, std::string> journals;  ///< tenant -> bytes
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Send the schedule through a live daemon, SIGKILLing at the scheduled
/// chunk indices and resuming every tenant from its recovered_seq.
bool drive(const Options& opt, const std::string& dir,
           const std::vector<TenantPlan>& plans, bool use_dirty,
           const std::vector<std::size_t>& kill_at, RunResult* result) {
  fs::create_directories(dir);
  std::vector<std::string> tenants;
  for (const TenantPlan& p : plans) tenants.push_back(p.name);

  Daemon daemon;
  if (!spawn_daemon(opt, dir, tenants, &daemon)) {
    std::fprintf(stderr,
                 "FAIL: funnel_serve did not start (see %s/serve.log)\n",
                 dir.c_str());
    return false;
  }

  constexpr std::size_t kChunk = 120;
  std::vector<std::size_t> cursor(plans.size(), 0);
  std::vector<std::size_t> chunks_sent(plans.size(), 0);
  std::size_t chunk_counter = 0;
  std::size_t next_kill = 0;

  const auto actions = [&](std::size_t t) -> const std::vector<Action>& {
    return use_dirty ? plans[t].dirty : plans[t].clean;
  };

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t t = 0; t < plans.size(); ++t) {
      const std::vector<Action>& plan = actions(t);
      if (cursor[t] >= plan.size()) continue;
      progressed = true;
      // One chunk: consecutive same-kind actions, <= kChunk.
      const bool change = plan[cursor[t]].change;
      std::string body;
      std::size_t end = cursor[t];
      while (end < plan.size() && end - cursor[t] < kChunk &&
             plan[end].change == change) {
        body += plan[end].line;
        body += '\n';
        ++end;
      }
      const std::string path =
          (change ? "/v1/changes/" : "/v1/ingest/") + plans[t].name;
      const HttpResult res = http_retry(daemon.port, "POST", path, body);
      if (!res.ok || res.status != 200) {
        std::fprintf(stderr, "FAIL: POST %s -> %d %s\n", path.c_str(),
                     res.status, res.body.c_str());
        kill_daemon(&daemon);
        return false;
      }
      cursor[t] = end;
      // The seq-alignment invariant: every action is exactly one WAL
      // record, so the server's cursor must equal ours after every chunk.
      const std::size_t applied = [&] {
        const std::size_t pos = res.body.find("\"applied_seq\":");
        return pos == std::string::npos
                   ? std::size_t(0)
                   : static_cast<std::size_t>(
                         std::atoll(res.body.c_str() + pos + 14));
      }();
      if (applied != cursor[t]) {
        std::fprintf(stderr,
                     "FAIL: %s seq misalignment: applied_seq=%zu cursor=%zu\n",
                     plans[t].name.c_str(), applied, cursor[t]);
        kill_daemon(&daemon);
        return false;
      }
      ++chunks_sent[t];
      ++chunk_counter;
      // Periodic checkpoints (same cadence in every run).
      if (chunks_sent[t] % 8 == 0) {
        http_retry(daemon.port, "POST", "/v1/checkpoint/" + plans[t].name, "");
      }
      // The chaos schedule: SIGKILL, restart, resume from recovered_seq.
      if (next_kill < kill_at.size() && chunk_counter >= kill_at[next_kill]) {
        ++next_kill;
        ++result->kills;
        kill_daemon(&daemon);
        if (!spawn_daemon(opt, dir, tenants, &daemon)) {
          std::fprintf(stderr, "FAIL: restart after SIGKILL\n");
          return false;
        }
        for (std::size_t u = 0; u < plans.size(); ++u) {
          const HttpResult seq = http_retry(
              daemon.port, "GET", "/v1/seq/" + plans[u].name, "");
          if (!seq.ok || seq.status != 200) {
            std::fprintf(stderr, "FAIL: GET /v1/seq/%s after restart\n",
                         plans[u].name.c_str());
            kill_daemon(&daemon);
            return false;
          }
          const std::size_t pos = seq.body.find("\"recovered_seq\":");
          const std::size_t recovered = static_cast<std::size_t>(
              std::atoll(seq.body.c_str() + pos + 16));
          if (recovered > cursor[u]) {
            std::fprintf(stderr,
                         "FAIL: %s recovered_seq %zu beyond sent %zu\n",
                         plans[u].name.c_str(), recovered, cursor[u]);
            kill_daemon(&daemon);
            return false;
          }
          cursor[u] = recovered;  // resume exactly where the WAL ends
        }
      }
    }
  }

  // Final barrier + clean shutdown.
  for (const TenantPlan& p : plans) {
    const HttpResult status =
        http_retry(daemon.port, "GET", "/v1/status/" + p.name, "");
    if (!status.ok || status.body.find("\"quarantined\":false") ==
                          std::string::npos) {
      std::fprintf(stderr, "FAIL: %s unexpectedly quarantined: %s\n",
                   p.name.c_str(), status.body.c_str());
      kill_daemon(&daemon);
      return false;
    }
    http_retry(daemon.port, "POST", "/v1/checkpoint/" + p.name, "");
  }
  if (!stop_daemon(&daemon)) {
    std::fprintf(stderr, "FAIL: daemon did not exit 0 on SIGTERM\n");
    return false;
  }
  for (const TenantPlan& p : plans) {
    result->journals[p.name] =
        read_file(fs::path(dir) / "data" / p.name / "journal.jsonl");
  }
  result->ok = true;
  return true;
}

// ---------------------------------------------------------------------------
// Comparisons

std::size_t diff_events(const std::string& name, const std::string& dir_a,
                        const std::string& dir_b) {
  std::size_t diffs = 0;
  const auto a = funnel::obs::read_journal(
      (fs::path(dir_a) / "data" / name / "journal.jsonl").string());
  const auto b = funnel::obs::read_journal(
      (fs::path(dir_b) / "data" / name / "journal.jsonl").string());
  std::map<std::string, std::vector<std::string>> causes_a;
  for (const auto& ev : a) {
    causes_a[std::to_string(ev.change_id) + "|" + ev.metric].push_back(
        ev.cause);
  }
  std::map<std::string, std::vector<std::string>> causes_b;
  for (const auto& ev : b) {
    causes_b[std::to_string(ev.change_id) + "|" + ev.metric].push_back(
        ev.cause);
  }
  for (const auto& [key, cb] : causes_b) {
    const auto it = causes_a.find(key);
    if (it == causes_a.end() || it->second != cb) {
      ++diffs;
      std::fprintf(stderr, "  degradation %s %s: golden=%s faulted=%s\n",
                   name.c_str(), key.c_str(),
                   it == causes_a.end() || it->second.empty()
                       ? "-"
                       : it->second.back().c_str(),
                   cb.empty() ? "-" : cb.back().c_str());
    }
  }
  for (const auto& [key, ca] : causes_a) {
    if (causes_b.find(key) == causes_b.end()) {
      ++diffs;
      std::fprintf(stderr, "  degradation %s %s: verdict missing\n",
                   name.c_str(), key.c_str());
    }
  }
  return diffs;
}

// ---------------------------------------------------------------------------
// Quota + latency + quarantine phase

double p95(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1,
                    static_cast<std::size_t>(0.95 * (v.size() - 1) + 0.5))];
}

bool quota_latency_phase(const Options& opt, const std::string& dir,
                         bool strict) {
  fs::create_directories(dir);
  // In-memory server (no --data-root): latency reflects admission + queue,
  // not disk. Both tenants share the CLI quota; "steady" stays inside it by
  // pacing, "greedy" slams it.
  std::vector<std::string> args = {
      opt.serve_bin, "--port",      "auto",
      "--port-file", dir + "/port.txt", "--tenants",
      "steady,greedy", "--quota-rate", "4000",
      "--quota-burst", "4000",       "--queue-capacity", "256"};
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const int logfd = ::open((dir + "/serve.log").c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (logfd >= 0) {
      ::dup2(logfd, 1);
      ::dup2(logfd, 2);
    }
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  Daemon daemon;
  daemon.pid = pid;
  for (int i = 0; i < 200 && daemon.port == 0; ++i) {
    std::ifstream pf(dir + "/port.txt");
    int port = 0;
    if (pf >> port && port > 0) {
      const HttpResult ready = http_request(port, "GET", "/readyz", "");
      if (ready.ok && ready.status == 200) daemon.port = port;
    }
    if (daemon.port == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (daemon.port == 0) {
    kill_daemon(&daemon);
    return false;
  }

  std::string batch;  // 100 samples, distinct minutes so upserts are cheap
  for (int i = 0; i < 100; ++i) {
    batch += sample_line("s", i, 1.0) + "\n";
  }
  const auto timed_post = [&](const std::string& tenant) {
    const auto start = std::chrono::steady_clock::now();
    const HttpResult res =
        http_request(daemon.port, "POST", "/v1/ingest/" + tenant, batch);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return std::make_pair(res, ms);
  };

  // Unloaded baseline: paced in-quota batches (100 every 50ms = 2000/s).
  std::vector<double> unloaded;
  for (int i = 0; i < 40; ++i) {
    auto [res, ms] = timed_post("steady");
    if (!res.ok || res.status != 200) {
      std::fprintf(stderr, "FAIL: unloaded steady POST -> %d\n", res.status);
      kill_daemon(&daemon);
      return false;
    }
    unloaded.push_back(ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Overload: hammer greedy with oversized batches, no pacing.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<bool> retry_after_seen{false};
  std::string big;
  for (int i = 0; i < 4000; ++i) big += sample_line("g", i, 1.0) + "\n";
  std::thread hammer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const HttpResult res =
          http_request(daemon.port, "POST", "/v1/ingest/greedy", big);
      if (!res.ok) continue;
      if (res.status == 429) {
        rejected.fetch_add(1, std::memory_order_relaxed);
        if (!res.header("Retry-After").empty()) {
          retry_after_seen.store(true, std::memory_order_relaxed);
        }
      } else if (res.status == 200) {
        admitted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<double> loaded;
  for (int i = 0; i < 40; ++i) {
    auto [res, ms] = timed_post("steady");
    if (res.ok && res.status == 200) loaded.push_back(ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop.store(true);
  hammer.join();

  const double base = p95(unloaded);
  const double under_load = p95(loaded);
  std::fprintf(stderr,
               "quota phase: greedy admitted=%llu rejected(429)=%llu "
               "retry-after=%s; steady p95 unloaded=%.2fms loaded=%.2fms\n",
               static_cast<unsigned long long>(admitted.load()),
               static_cast<unsigned long long>(rejected.load()),
               retry_after_seen.load() ? "yes" : "no", base, under_load);
  bool ok = true;
  if (rejected.load() == 0 || !retry_after_seen.load()) {
    std::fprintf(stderr, "FAIL: over-quota tenant saw no 429/Retry-After\n");
    ok = false;
  }
  const double allowed = 2.0 * base + 2.0;
  if (under_load > allowed) {
    std::fprintf(stderr,
                 "%s: in-quota p95 %.2fms exceeds 2x unloaded %.2fms (+2ms)\n",
                 strict ? "FAIL" : "WARN", under_load, base);
    if (strict) ok = false;
  }

  // Quarantine drill: flip greedy, verify /healthz carries the detail and
  // the neighbour keeps serving.
  http_retry(daemon.port, "POST", "/v1/quarantine/greedy", "drill\n");
  const HttpResult health = http_retry(daemon.port, "GET", "/healthz", "");
  const HttpResult greedy_ingest =
      http_retry(daemon.port, "POST", "/v1/ingest/greedy", batch);
  const HttpResult steady_ok = timed_post("steady").first;
  if (health.status != 503 ||
      health.body.find("tenant:greedy") == std::string::npos) {
    std::fprintf(stderr, "FAIL: /healthz did not flag quarantined tenant\n");
    ok = false;
  }
  if (greedy_ingest.status != 503) {
    std::fprintf(stderr, "FAIL: quarantined tenant not refusing (got %d)\n",
                 greedy_ingest.status);
    ok = false;
  }
  if (!steady_ok.ok || steady_ok.status != 200) {
    std::fprintf(stderr, "FAIL: healthy tenant degraded by quarantine\n");
    ok = false;
  }

  Daemon d = daemon;
  if (!stop_daemon(&d)) {
    std::fprintf(stderr, "FAIL: quota-phase daemon did not exit 0\n");
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  const int minutes = opt.quick ? 240 : opt.days * 1440;
  const int change_every = opt.quick ? 30 : opt.change_every;
  const std::size_t num_tenants = opt.quick ? 3 : 4;

  std::vector<TenantPlan> plans;
  std::size_t total_changes = 0, total_actions = 0;
  for (std::size_t t = 0; t < num_tenants; ++t) {
    const bool faulted = opt.quick ? (t == 1) : (t % 2 == 1);
    plans.push_back(build_plan("tenant" + std::to_string(t), faulted, minutes,
                               change_every, opt.seed + t));
    total_changes += plans.back().changes;
    total_actions += plans.back().dirty.size();
  }
  std::fprintf(stderr,
               "soak: %zu tenants, %d synthetic minutes, %zu changes, "
               "%zu actions\n",
               num_tenants, minutes, total_changes, total_actions);

  // Kill schedule: fractions of the estimated chunk count, seeded jitter.
  const std::size_t est_chunks = total_actions / 120 + num_tenants;
  funnel::Rng kill_rng(opt.seed ^ 0x5eed);
  std::vector<std::size_t> kill_at;
  const std::size_t kill_count = opt.quick ? 1 : 3;
  for (std::size_t k = 1; k <= kill_count; ++k) {
    const std::size_t base = est_chunks * k / (kill_count + 1);
    kill_at.push_back(std::max<std::size_t>(
        1, base + static_cast<std::size_t>(kill_rng.uniform_int(0, 7))));
  }

  const fs::path work(opt.work_dir);
  fs::remove_all(work);
  fs::create_directories(work);

  RunResult golden, faulted, chaos;
  std::fprintf(stderr, "run A (golden: clean feeds, no kills)...\n");
  if (!drive(opt, (work / "golden").string(), plans, /*use_dirty=*/false, {},
             &golden)) {
    return 1;
  }
  std::fprintf(stderr, "run B (faulted feeds, no kills)...\n");
  if (!drive(opt, (work / "faulted").string(), plans, /*use_dirty=*/true, {},
             &faulted)) {
    return 1;
  }
  std::fprintf(stderr, "run C (faulted feeds, %zu SIGKILL cycles)...\n",
               kill_at.size());
  if (!drive(opt, (work / "chaos").string(), plans, /*use_dirty=*/true,
             kill_at, &chaos)) {
    return 1;
  }

  bool ok = true;
  if (chaos.kills < kill_count) {
    std::fprintf(stderr, "FAIL: only %zu of %zu scheduled kills fired\n",
                 chaos.kills, kill_count);
    ok = false;
  }
  for (const TenantPlan& p : plans) {
    // Crash-invisibility: the chaos run's journal must be byte-identical
    // to the uninterrupted faulted run's.
    if (chaos.journals[p.name] != faulted.journals[p.name]) {
      std::fprintf(stderr,
                   "FAIL: %s journal differs between chaos and faulted runs "
                   "(%zu vs %zu bytes)\n",
                   p.name.c_str(), chaos.journals[p.name].size(),
                   faulted.journals[p.name].size());
      ok = false;
    }
    if (!p.faulted) {
      // Cross-tenant isolation: a clean tenant's verdict bytes must not
      // change because a neighbour's feed was dirty.
      if (faulted.journals[p.name] != golden.journals[p.name]) {
        std::fprintf(stderr,
                     "FAIL: clean tenant %s journal altered by neighbour "
                     "faults\n",
                     p.name.c_str());
        ok = false;
      }
    } else {
      const std::size_t diffs = diff_events(
          p.name, (work / "golden").string(), (work / "faulted").string());
      std::fprintf(stderr,
                   "%s: %zu degraded verdict keys vs golden (documented, "
                   "fault tenant)\n",
                   p.name.c_str(), diffs);
    }
  }

  if (!opt.skip_latency) {
    if (!quota_latency_phase(opt, (work / "quota").string(),
                             /*strict=*/!opt.quick)) {
      ok = false;
    }
  }

  std::fprintf(stderr, ok ? "SOAK PASS\n" : "SOAK FAIL\n");
  return ok ? 0 : 1;
}
