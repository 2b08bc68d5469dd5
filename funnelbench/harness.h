// Shared plumbing of the FUNNEL benchmark (README.md in this directory):
// command line, clocks, the result line, a loopback HTTP client and the
// per-layer accounting the traced mode prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace funnelbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: every workload shrinks to a few seconds.
  bool quick = false;
  /// Scratch root for data directories and journals (inside the checkout).
  std::string work_dir = ".bench_build/work";
  /// Chrome trace-event JSON of the traced run ("" = <work_dir>/<w>.trace.json).
  std::string trace_json;
};

/// The result the benchmark prints as its last stdout line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A timing with its sample count: `<name>` plus `<name>_n`.
  void timing(const std::string& name, const std::vector<double>& samples,
              double q, const std::string& unit);
  /// The median of a registry histogram, plus its count as `<name>_n`.
  void timing(const std::string& name, const funnel::obs::HistogramSnapshot& h,
              const std::string& unit);
  /// One operation (POST, report, recovery, ...) and whether it succeeded.
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A failed output check: the run is incorrect and exits non-zero.
  void check(bool ok, const std::string& what);
  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double ok_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  std::string json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// ---- clocks ----
double wall_s();
double process_cpu_s();
/// CPU of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_s();
/// Steal ticks of all CPUs from /proc/stat (0 when unreadable).
std::uint64_t steal_ticks();
double ticks_to_s(std::uint64_t ticks);
/// Resident memory, in MB, after returning free heap pages to the system.
double rss_mb();

/// Time spent by the service: process CPU minus the client thread's own.
class ServiceCpu {
 public:
  void start();
  /// Service CPU seconds since start().
  double stop();

 private:
  double process0_ = 0.0;
  double client0_ = 0.0;
};

/// CPU of one replay: the calling thread's, and every other thread's.
struct Cpu {
  double self_s = 0.0;
  double others_s = 0.0;
};
template <typename Fn>
Cpu measure(Fn&& fn) {
  const double p0 = process_cpu_s();
  const double t0 = thread_cpu_s();
  fn();
  const double self = thread_cpu_s() - t0;
  return {self, (process_cpu_s() - p0) - self};
}

// ---- statistics ----
using funnel::median;
using funnel::quantile;
/// Quantile of a registry histogram, interpolated inside its bucket.
double hist_quantile(const funnel::obs::HistogramSnapshot& h, double q);
/// `v` times `k`: seconds to the unit a metric prints in.
std::vector<double> scaled(const std::vector<double>& v, double k);
/// num / den, 0 when den is 0.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
/// A registry histogram by name (empty when absent).
funnel::obs::HistogramSnapshot histogram(const funnel::obs::Snapshot& s,
                                         const std::string& name);
std::uint64_t counter(const funnel::obs::Snapshot& s, const std::string& name);

/// 64-bit FNV-1a, the report-bytes fingerprint.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ULL);

// ---- loopback HTTP: one connection per request, one request at a time ----
struct HttpReply {
  int status = 0;  ///< 0 = connection failed
  std::string body;
  double seconds = 0.0;  ///< client-side round trip
};
HttpReply http(int port, const std::string& method, const std::string& path,
               const std::string& body = {});
/// "threads=T connections=C": distinct threads that sent requests, and the
/// most connections open at once, over the whole run.
std::string generator_shape();
/// Unsigned integer field of a flat JSON object (-1 when absent).
long long json_int(std::string_view json, std::string_view key);

// ---- per-layer accounting of the traced run ----
/// Accumulates the CPU the benchmark's own calls into one layer cost, and
/// records a benchmark-side span around each call for the Chrome trace.
class LayerClock {
 public:
  explicit LayerClock(const funnel::obs::Tracer* tracer) : tracer_(tracer) {}
  /// Time `fn` on the calling thread's CPU clock under span `name`, adding
  /// the CPU seconds to the layer's total and samples.
  template <typename Fn>
  void time(const char* name, Fn&& fn) {
    funnel::obs::Span span(tracer_, name);
    const double c0 = thread_cpu_s();
    fn();
    const double dt = thread_cpu_s() - c0;
    totals_[name] += dt;
    samples_[name].push_back(dt);
  }
  double total(const std::string& name) const;
  const std::vector<double>& samples(const std::string& name) const;

 private:
  const funnel::obs::Tracer* tracer_;
  std::map<std::string, double> totals_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Spans the traced run keeps per recording thread: enough for every
/// request and replayed call of one run, so the Chrome trace drops none.
inline constexpr std::size_t kTraceSpans = std::size_t{1} << 16;

/// Write the tracer's spans as Chrome trace-event JSON.
void write_chrome_trace(const funnel::obs::Tracer& tracer,
                        const std::string& path);

/// The run context every result records (stderr + a "# context" line).
void print_context(const Args& args, double steal_s);

/// A fresh directory for this run under --work-dir (removed at exit).
std::string scratch_dir(const Args& args, const std::string& leaf);
/// Where the traced run writes its Chrome trace.
std::string trace_path(const Args& args);

// ---- workloads ----
void run_ingest_durable(const Args& args, Result& result);
void run_online_day(const Args& args, Result& result);
void run_batch_review(const Args& args, Result& result);

}  // namespace funnelbench
