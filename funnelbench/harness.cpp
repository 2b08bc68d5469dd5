#include "harness.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

namespace funnelbench {

namespace obs = funnel::obs;

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Result::timing(const std::string& name, const std::vector<double>& v,
                    double q, const std::string& unit) {
  // A tail percentile needs ten samples beyond it; below that it reads 0
  // and the `_n` count says why.
  const double beyond = static_cast<double>(v.size()) * (1.0 - q);
  const bool reportable = !v.empty() && (q <= 0.5 || beyond >= 10.0);
  metric(name, reportable ? quantile(v, q) : 0.0, unit);
  metric(name + "_n", static_cast<double>(v.size()), "count");
}

void Result::timing(const std::string& name, const obs::HistogramSnapshot& h,
                    const std::string& unit) {
  metric(name, hist_quantile(h, 0.5), unit);
  metric(name + "_n", static_cast<double>(h.count), "count");
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::string Result::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": ";
    if (std::isfinite(v.value)) {
      out << v.value;
    } else {
      out << 0;
    }
    out << ", \"unit\": \"" << v.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (auto& x : f) in >> x;  // user nice system idle iowait irq softirq steal
  return f[7];
}

double ticks_to_s(std::uint64_t ticks) {
  const long hz = ::sysconf(_SC_CLK_TCK);
  return static_cast<double>(ticks) / static_cast<double>(hz > 0 ? hz : 100);
}

double rss_mb() {
  // Free heap pages first: the peak, and the residue of freed memory, move
  // with how allocations of the service's threads interleave from run to
  // run; what stays resident after the trim is what the state holds.
  ::malloc_trim(0);
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void ServiceCpu::start() {
  process0_ = process_cpu_s();
  client0_ = thread_cpu_s();
}

double ServiceCpu::stop() {
  return (process_cpu_s() - process0_) - (thread_cpu_s() - client0_);
}

double hist_quantile(const obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const auto bounds = obs::bucket_bounds();
  const double target = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n > 0 && seen + n >= target) {
      const double lo = std::max(i == 0 ? 0.0 : bounds[i - 1], h.min);
      const double hi = std::min(i < bounds.size() ? bounds[i] : h.max, h.max);
      return lo + (hi - lo) * ((target - seen) / n);
    }
    seen += n;
  }
  return h.max;
}

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(k * x);
  return out;
}

obs::HistogramSnapshot histogram(const obs::Snapshot& s,
                                 const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? obs::HistogramSnapshot{} : it->second;
}

std::uint64_t counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

/// The load generator's shape: which threads opened connections, and how
/// many were open at once.
struct GeneratorShape {
  std::mutex mutex;
  std::set<std::thread::id> threads;
  int open = 0;
  int max_open = 0;
};
GeneratorShape& shape() {
  static GeneratorShape s;
  return s;
}

class CountedConnection {
 public:
  CountedConnection() {
    std::lock_guard<std::mutex> lock(shape().mutex);
    shape().threads.insert(std::this_thread::get_id());
    shape().max_open = std::max(shape().max_open, ++shape().open);
  }
  ~CountedConnection() {
    std::lock_guard<std::mutex> lock(shape().mutex);
    --shape().open;
  }
  CountedConnection(const CountedConnection&) = delete;
  CountedConnection& operator=(const CountedConnection&) = delete;
};

}  // namespace

std::string generator_shape() {
  std::lock_guard<std::mutex> lock(shape().mutex);
  return "threads=" + std::to_string(shape().threads.size()) +
         " connections=" + std::to_string(shape().max_open);
}

HttpReply http(int port, const std::string& method, const std::string& path,
               const std::string& body) {
  const CountedConnection counted;
  HttpReply reply;
  std::string request = method + " " + path + " HTTP/1.1\r\nHost: bench\r\n";
  if (method == "POST") {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;

  const double t0 = wall_s();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  reply.seconds = wall_s() - t0;
  if (response.compare(0, 9, "HTTP/1.1 ") == 0 && response.size() >= 12) {
    reply.status = std::atoi(response.substr(9, 3).c_str());
  }
  const std::size_t split = response.find("\r\n\r\n");
  if (split != std::string::npos) reply.body = response.substr(split + 4);
  return reply;
}

long long json_int(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = json.find(needle);
  if (pos == std::string_view::npos) return -1;
  std::size_t i = pos + needle.size();
  long long v = 0;
  bool any = false;
  while (i < json.size() && json[i] >= '0' && json[i] <= '9') {
    v = v * 10 + (json[i] - '0');
    ++i;
    any = true;
  }
  return any ? v : -1;
}

double LayerClock::total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

const std::vector<double>& LayerClock::samples(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

void write_chrome_trace(const obs::Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << obs::chrome_trace_json(tracer.collect()) << '\n';
  std::fprintf(stderr, "# chrome trace: %s\n", path.c_str());
}

void print_context(const Args& args, double steal_s) {
  const char* sha = std::getenv("FUNNELBENCH_GIT_SHA");
  std::ostringstream ctx;
  ctx << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"seconds\":" << args.seconds
      << ",\"trace\":" << (args.trace ? "true" : "false")
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"build_type\":\"" << FUNNELBENCH_BUILD_TYPE << "\""
      << ",\"compiler\":\"" << FUNNELBENCH_COMPILER << "\""
      << ",\"git_sha\":\"" << (sha != nullptr ? sha : "unknown") << "\""
      << ",\"host.steal_s\":" << steal_s << "}";
  std::printf("# context %s\n", ctx.str().c_str());
  std::fprintf(stderr, "# context %s\n", ctx.str().c_str());
}

std::string scratch_dir(const Args& args, const std::string& leaf) {
  const std::filesystem::path dir =
      std::filesystem::path(args.work_dir) /
      (args.workload + "-" + std::to_string(::getpid())) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string trace_path(const Args& args) {
  if (!args.trace_json.empty()) return args.trace_json;
  std::filesystem::create_directories(args.work_dir);
  return (std::filesystem::path(args.work_dir) / (args.workload + ".trace.json"))
      .string();
}

}  // namespace funnelbench
