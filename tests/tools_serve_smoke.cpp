// End-to-end smoke for the live telemetry plane of the `funnel_serve` daemon
// (docs/OBSERVABILITY.md "Live endpoints"): launch the real daemon with
// `--port auto --port-file --tenants a` and no time bound, wait for the
// port-file handshake, ingest over /v1, scrape /healthz, /metrics,
// /stats.json and /readyz over a raw socket, then SIGTERM it and require a
// clean exit 0. Also the failure contracts: a port that is already bound
// must exit 3 with a diagnostic, a malformed flag must exit 2, a --config
// value that does not parse must exit 3, and a tenant whose data_dir is
// damaged boots quarantined while the others serve.
//
// The daemon path arrives via -DFUNNEL_SERVE_PATH from tests/CMakeLists.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "funnel_serve_smoke_" + name;
}

pid_t spawn(const std::vector<std::string>& args, const std::string& log) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: both streams onto ONE shared file description (dup2, not two
  // freopens — independent file positions would overwrite each other).
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  std::_Exit(127);
}

/// Wait for the child with a deadline; SIGKILL + fail past it. Returns the
/// raw waitpid status.
int await_exit(pid_t pid, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      ADD_FAILURE() << "child " << pid << " missed the exit deadline";
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Poll the --port-file handshake until the daemon announces its bound port.
int read_port_file(const std::string& path, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return 0;
}

std::string http_exchange(int port, const std::string& req) {
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
  (void)::send(fd, req.data(), req.size(), 0);
  std::string rsp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    rsp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return rsp;
}

std::string http_get(int port, const std::string& path) {
  return http_exchange(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

std::string http_post(int port, const std::string& path,
                      const std::string& body) {
  return http_exchange(port, "POST " + path +
                                 " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                                 std::to_string(body.size()) + "\r\n\r\n" +
                                 body);
}

int status_of(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

/// Kills and reaps a daemon that runs without a time bound when an
/// assertion ends the test before its SIGTERM; pid 0 once reaped.
struct Reaper {
  pid_t pid = 0;
  ~Reaper() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

TEST(ToolsServeSmoke, ServesTelemetryUntilSigterm) {
  const std::string port_file = temp_path("port");
  const std::string log = temp_path("serve.log");
  std::remove(port_file.c_str());
  const std::vector<std::string> args = {FUNNEL_SERVE_PATH, "--port", "auto",
                                         "--port-file", port_file,
                                         "--tenants", "a"};
  const pid_t pid = spawn(args, log);
  ASSERT_GT(pid, 0);
  Reaper reaper{pid};

  const int port = read_port_file(port_file, 20000);
  ASSERT_GT(port, 0) << "no port-file handshake; daemon log:\n" << slurp(log);

  const std::string ingest =
      http_post(port, "/v1/ingest/a", "svc,s0,cpu,0,1.5\nsvc,s0,cpu,1,1.75\n");
  EXPECT_EQ(status_of(ingest), 200) << ingest;

  // /healthz: healthy, with the tenant's own check line.
  const std::string health = http_get(port, "/healthz");
  EXPECT_EQ(status_of(health), 200) << health;
  EXPECT_NE(health.find("healthy"), std::string::npos);
  EXPECT_NE(health.find("tenant:a"), std::string::npos) << health;

  // /metrics: Prometheus exposition, with the server accounting for itself.
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_EQ(status_of(metrics), 200);
  EXPECT_NE(metrics.find("obs_server_requests"), std::string::npos);

  // /stats.json: the --stats-json snapshot, live.
  const std::string stats = http_get(port, "/stats.json");
  EXPECT_EQ(status_of(stats), 200);
  EXPECT_NE(stats.find("\"enabled\":true"), std::string::npos);

  // Tenants are created before the listener binds, so the port-file
  // handshake already means ready.
  EXPECT_EQ(status_of(http_get(port, "/readyz")), 200);

  // SIGTERM ends the unbounded serve loop; the daemon still exits 0.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  reaper.pid = 0;
  const int status = await_exit(pid, 20000);
  ASSERT_TRUE(WIFEXITED(status)) << slurp(log);
  EXPECT_EQ(WEXITSTATUS(status), 0) << slurp(log);
  const std::string logged = slurp(log);
  EXPECT_NE(logged.find("# serving 1 tenants on 127.0.0.1:"),
            std::string::npos)
      << logged;
  std::remove(port_file.c_str());
}

TEST(ToolsServeSmoke, AlreadyBoundPortExits3WithDiagnostic) {
  // Occupy an ephemeral port ourselves; the daemon must fail to bind it and
  // exit 3 with the address in the diagnostic.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);

  const std::string log = temp_path("conflict.log");
  std::ostringstream port_text;
  port_text << port;
  const std::vector<std::string> args = {FUNNEL_SERVE_PATH, "--port",
                                         port_text.str(), "--tenants", "a",
                                         "--max-seconds", "30"};
  const pid_t pid = spawn(args, log);
  ASSERT_GT(pid, 0);
  const int status = await_exit(pid, 30000);
  ::close(fd);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 3) << slurp(log);
  const std::string logged = slurp(log);
  EXPECT_NE(logged.find(port_text.str()), std::string::npos) << logged;
  EXPECT_NE(logged.find("in use"), std::string::npos) << logged;
}

TEST(ToolsServeSmoke, MalformedFlagsExit2) {
  // Each value once aborted, or served on a port nobody asked for. Usage
  // errors are caught before the listener binds. --max-seconds bounds a
  // daemon that wrongly starts: the case then fails on exit 0 instead of
  // hanging.
  const std::vector<std::vector<std::string>> bad = {
      {"--num-shards", "0"}, {"--port", "70000"},        {"--port", "-5"},
      {"--port", "abc"},     {"--queue-capacity", "-1"}, {"--horizon", "1x"},
      {"--tenants", "a/b"},  {"--tenants", "b,b"},      {"--tenants", ".."}};
  for (const std::vector<std::string>& flag : bad) {
    const std::string log = temp_path("malformed.log");
    std::vector<std::string> args = {FUNNEL_SERVE_PATH};
    if (flag[0] != "--port") args.insert(args.end(), {"--port", "auto"});
    args.insert(args.end(), flag.begin(), flag.end());
    args.insert(args.end(), {"--tenants", "a", "--max-seconds", "2"});
    const pid_t pid = spawn(args, log);
    ASSERT_GT(pid, 0);
    const int status = await_exit(pid, 20000);
    ASSERT_TRUE(WIFEXITED(status)) << flag[0] << ' ' << flag[1];
    EXPECT_EQ(WEXITSTATUS(status), 2)
        << flag[0] << ' ' << flag[1] << ":\n" << slurp(log);
  }
}

TEST(ToolsServeSmoke, MalformedConfigExits3) {
  // atof once read quota_rate=abc as 0, an unlimited bucket, and
  // quota_burst=5x as 5, and the daemon served. A value that does not
  // parse whole now fails the load before the listener binds, naming the
  // file, the line and the key; the unknown key above it is still ignored.
  // --max-seconds bounds a daemon that wrongly starts.
  for (const std::string bad : {"quota_rate=abc", "quota_burst=5x"}) {
    const std::string key = bad.substr(0, bad.find('='));
    const std::string config = temp_path("bad.cfg");
    {
      std::ofstream out(config);
      out << "# quotas\nnot_a_key=1\n" << bad << '\n';
    }
    const std::string log = temp_path("bad_config.log");
    const pid_t pid =
        spawn({FUNNEL_SERVE_PATH, "--port", "auto", "--tenants", "a",
               "--config", config, "--max-seconds", "2"},
              log);
    ASSERT_GT(pid, 0);
    const int status = await_exit(pid, 20000);
    ASSERT_TRUE(WIFEXITED(status)) << bad;
    const std::string logged = slurp(log);
    EXPECT_EQ(WEXITSTATUS(status), 3) << bad << ":\n" << logged;
    EXPECT_NE(logged.find(config + " line 3: bad " + key), std::string::npos)
        << logged;
    std::remove(config.c_str());
  }
}

// The daemon boots every tenant before it binds. A tenant whose data_dir
// is damaged must come up quarantined, not abort the process: here the
// checkpoint of tenant b names a change whose meta.log line is gone, as a
// power loss can leave it (the checkpoint is fsync'd, meta.log only
// fflush'd). Tenant a serves, and /healthz names b.
TEST(ToolsServeSmoke, DamagedTenantBootsQuarantined) {
  namespace fs = std::filesystem;
  const std::string root = temp_path("damaged_root");
  const std::string port_file = temp_path("damaged_port");
  const std::string log = temp_path("damaged.log");
  fs::remove_all(root);
  const std::vector<std::string> args = {
      FUNNEL_SERVE_PATH, "--port", "auto", "--port-file", port_file,
      "--data-root", root, "--tenants", "a,b", "--horizon", "20",
      "--lookback", "30", "--min-did-window", "6"};
  std::string feed;
  for (int t = 0; t < 46; ++t) {
    for (const char* server : {"s0", "s1"}) {
      feed += std::string("svc,") + server + ",cpu," + std::to_string(t) +
              "," + std::to_string(10 + t % 3) + "\n";
    }
  }
  {
    std::remove(port_file.c_str());
    Reaper reaper{spawn(args, log)};
    ASSERT_GT(reaper.pid, 0);
    const int port = read_port_file(port_file, 20000);
    ASSERT_GT(port, 0) << slurp(log);
    for (const std::string tenant : {"a", "b"}) {
      EXPECT_EQ(status_of(http_post(port, "/v1/ingest/" + tenant, feed)), 200);
      EXPECT_EQ(status_of(http_post(port, "/v1/changes/" + tenant,
                                    "45,svc,dark,s0,chg-0\n")),
                200);
      EXPECT_EQ(status_of(http_post(port, "/v1/checkpoint/" + tenant, "")),
                200);
    }
    ASSERT_EQ(::kill(reaper.pid, SIGTERM), 0);
    const int status = await_exit(reaper.pid, 20000);
    reaper.pid = 0;
    ASSERT_TRUE(WIFEXITED(status)) << slurp(log);
    ASSERT_EQ(WEXITSTATUS(status), 0) << slurp(log);
  }

  const std::string meta = root + "/b/meta.log";
  std::string kept;
  {
    std::ifstream in(meta);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("change,", 0) != 0) kept += line + '\n';
    }
  }
  ASSERT_NE(kept.size(), slurp(meta).size()) << "no change line in " << meta;
  std::ofstream(meta, std::ios::trunc) << kept;

  std::remove(port_file.c_str());
  Reaper reaper{spawn(args, log)};
  ASSERT_GT(reaper.pid, 0);
  const int port = read_port_file(port_file, 20000);
  ASSERT_GT(port, 0) << "no port-file handshake; daemon log:\n" << slurp(log);
  EXPECT_EQ(status_of(http_get(port, "/v1/seq/a")), 200);
  const std::string health = http_get(port, "/healthz");
  EXPECT_EQ(status_of(health), 503) << health;
  EXPECT_NE(health.find("FAIL tenant:b recovery-failed:"), std::string::npos)
      << health;
  ASSERT_EQ(::kill(reaper.pid, SIGTERM), 0);
  const int status = await_exit(reaper.pid, 20000);
  reaper.pid = 0;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << slurp(log);
  std::remove(port_file.c_str());
  fs::remove_all(root);
}

}  // namespace
