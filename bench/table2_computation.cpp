// Table 2 — per-window computational cost and "# cores for one million
// KPIs" for FUNNEL (IKA-SST), CUSUM and MRLS (plus the exact improved and
// classic SST for reference).
//
// Methodology follows §4.3: each method scores sliding windows of a KPI
// time series single-threaded; the mean per-window time extrapolates to the
// cores needed to score one million KPIs once per minute. Absolute numbers
// are hardware-specific; the paper's Xeon E5645 figures are printed
// alongside for the ratio comparison.
//
// A shared host's steal swings a single timing, so every row is repeated
// kRepeats times, the rows interleaved, and printed as median [quartiles].
// The per-window rows run on the thread CPU clock (evalkit's
// mean_score_micros); the fan-out rows span pool threads, so they read the
// wall clock.
//
// --json FILE writes the per-window rows as a BENCH_table2.json record:
// the host (bench::provenance()), each row's median, quartiles and cores
// for 1M KPIs, and the CUSUM/FUNNEL and MRLS/FUNNEL speed ratios.
// --quick scores a quarter of the windows per row and a quarter of the
// fan-out fleet (tests/table2_bench_smoke.cmake checks the JSON).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "detect/cascade.h"
#include "detect/classic_sst.h"
#include "detect/cusum.h"
#include "detect/ika_sst.h"
#include "detect/improved_sst.h"
#include "detect/mrls.h"
#include "evalkit/evaluate.h"
#include "workload/generators.h"
#include "workload/stream.h"

using namespace funnel;

namespace {

/// Interleaved repetitions behind every printed row.
constexpr int kRepeats = 7;

/// Median [quartiles] of one row's repetitions.
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Spread spread_of(const std::vector<double>& xs) {
  return {quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)};
}

std::string format_spread(const Spread& s, int digits) {
  return format_fixed(s.median, digits) + " [" + format_fixed(s.q1, digits) +
         "-" + format_fixed(s.q3, digits) + "]";
}

std::vector<double> bench_series(std::size_t len) {
  workload::VariableParams p;  // the hardest class: no early-outs anywhere
  workload::KpiStream s(workload::make_variable(p, Rng(99)));
  return workload::render(s, 0, static_cast<MinuteTime>(len));
}

template <typename Scorer, typename... Args>
void run_scorer(benchmark::State& state, Args... args) {
  Scorer scorer(args...);
  const std::vector<double> series = bench_series(600);
  const std::size_t w = scorer.window_size();
  std::size_t i = 0;
  const std::size_t positions = series.size() - w + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scorer.score(std::span<const double>(series).subspan(i, w)));
    i = (i + 1) % positions;
  }
}

// IKA-SST on every window: the paper's per-window cost, and the reference
// the production cascade must match.
void BM_FunnelIkaSst(benchmark::State& state) {
  run_scorer<detect::IkaSst>(state, detect::SstGeometry{.omega = 9, .eta = 3});
}
BENCHMARK(BM_FunnelIkaSst);

// The production path (FunnelConfig::sst_cascade, the default).
void BM_FunnelCascaded(benchmark::State& state) {
  detect::CascadeGate scorer(
      std::make_unique<detect::IkaSst>(
          detect::SstGeometry{.omega = 9, .eta = 3}),
      detect::CascadeConfig{});
  const std::vector<double> series = bench_series(600);
  const std::size_t w = scorer.window_size();
  std::size_t i = 0;
  const std::size_t positions = series.size() - w + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scorer.score(std::span<const double>(series).subspan(i, w)));
    i = (i + 1) % positions;
  }
}
BENCHMARK(BM_FunnelCascaded);

void BM_ImprovedSstExact(benchmark::State& state) {
  run_scorer<detect::ImprovedSst>(state,
                                  detect::SstGeometry{.omega = 9, .eta = 3});
}
BENCHMARK(BM_ImprovedSstExact);

void BM_ClassicSst(benchmark::State& state) {
  run_scorer<detect::ClassicSst>(state,
                                 detect::SstGeometry{.omega = 9, .eta = 3});
}
BENCHMARK(BM_ClassicSst);

void BM_Cusum(benchmark::State& state) {
  run_scorer<detect::Cusum>(state, detect::CusumParams{});
}
BENCHMARK(BM_Cusum);

void BM_Mrls(benchmark::State& state) {
  run_scorer<detect::Mrls>(state, detect::MrlsParams{});
}
BENCHMARK(BM_Mrls);

struct PaperRef {
  const char* method;
  double paper_us;  // paper's run time per window in microseconds
  std::uint64_t paper_cores;
};

/// One Table 2 row and its repetitions.
struct Row {
  std::string key;  ///< the row's name in the JSON record
  std::string name;
  std::unique_ptr<detect::ChangeScorer> scorer;
  std::size_t windows;  ///< scores per repetition
  PaperRef ref;
  std::vector<double> us;
};

/// Writes the rows as JSON; false when the file cannot be written. rows[0]
/// is FUNNEL, [1] CUSUM and [2] MRLS, as print_summary_table orders them.
bool write_json(const char* path, bool quick, const std::vector<Row>& rows) {
  const bench::Provenance host = bench::provenance();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"host\": {\"nproc\": " << host.nproc
      << ", \"build_type\": \"" << host.build_type << "\", \"git_sha\": \""
      << host.git_sha << "\"},\n"
      << "  \"workload\": {\"class\": \"variable\", \"minutes\": 600, "
      << "\"quick\": " << (quick ? "true" : "false")
      << ", \"clock\": \"thread_cpu\", \"repetitions\": " << kRepeats
      << "},\n  \"rows\": {\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const Spread us = spread_of(r.us);
    out << "    \"" << r.key << "\": {\"windows\": " << r.windows
        << ", \"us_per_window\": {\"median\": " << format_fixed(us.median, 3)
        << ", \"q1\": " << format_fixed(us.q1, 3)
        << ", \"q3\": " << format_fixed(us.q3, 3)
        << "}, \"cores_for_1m_kpis\": " << evalkit::cores_for_kpis(us.median);
    if (r.ref.paper_us > 0.0) {
      out << ", \"paper_us_per_window\": " << format_fixed(r.ref.paper_us, 1)
          << ", \"paper_cores\": " << r.ref.paper_cores;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  const double funnel_us = spread_of(rows[0].us).median;
  out << "  },\n  \"speed_ratios\": {\"cusum_over_funnel\": "
      << format_fixed(spread_of(rows[1].us).median / funnel_us, 2)
      << ", \"mrls_over_funnel\": "
      << format_fixed(spread_of(rows[2].us).median / funnel_us, 1)
      << ", \"paper_cusum_over_funnel\": 4.59"
      << ", \"paper_mrls_over_funnel\": 7098}\n}\n";
  return static_cast<bool>(out);
}

/// Prints Table 2 and, when `json_path` is set, writes it there; false
/// when that write fails.
bool print_summary_table(bool quick, const char* json_path) {
  std::printf(
      "\n=== Table 2: run time per window and cores for 1M KPIs ===\n\n");
  const std::vector<double> series = bench_series(600);
  const detect::SstGeometry geometry{.omega = 9, .eta = 3};
  const std::size_t scale = quick ? 4 : 1;
  std::vector<Row> rows;
  rows.push_back({"funnel", "FUNNEL IKA-SST, every window",
                  std::make_unique<detect::IkaSst>(geometry), 4000 / scale,
                  {"FUNNEL", 401.8, 7}, {}});
  rows.push_back({"cusum", "CUSUM",
                  std::make_unique<detect::Cusum>(detect::CusumParams{}),
                  2000 / scale, {"CUSUM", 1846.0, 31}, {}});
  rows.push_back({"mrls", "MRLS",
                  std::make_unique<detect::Mrls>(detect::MrlsParams{}),
                  300 / scale, {"MRLS", 2.852e6, 47526}, {}});
  rows.push_back({"improved_sst", "Improved SST (exact SVD)",
                  std::make_unique<detect::ImprovedSst>(geometry),
                  2000 / scale, {"-", 0.0, 0}, {}});
  rows.push_back({"funnel_cascaded", "FUNNEL IKA-SST + cascade (production)",
                  std::make_unique<detect::CascadeGate>(
                      std::make_unique<detect::IkaSst>(geometry),
                      detect::CascadeConfig{}),
                  4000 / scale, {"-", 0.0, 0}, {}});
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (Row& r : rows) {
      r.us.push_back(
          evalkit::mean_score_micros(*r.scorer, series, r.windows));
    }
  }

  Table t({"method", "us/window median [quartiles]", "cores for 1M KPIs",
           "paper us/window", "paper cores"});
  std::vector<double> median_us;
  for (const Row& r : rows) {
    const Spread us = spread_of(r.us);
    median_us.push_back(us.median);
    t.add_row({r.name, format_spread(us, 1),
               std::to_string(evalkit::cores_for_kpis(us.median)),
               r.ref.paper_us > 0.0 ? format_fixed(r.ref.paper_us, 1) : "-",
               r.ref.paper_cores > 0 ? std::to_string(r.ref.paper_cores)
                                     : "-"});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("(thread CPU time, %d interleaved repetitions per row)\n",
              kRepeats);

  const double funnel_us = median_us[0];
  const double cusum_us = median_us[1];
  const double mrls_us = median_us[2];
  std::printf("speed ratios (ours, medians): FUNNEL is %.1fx faster than "
              "CUSUM, %.0fx faster than MRLS\n",
              cusum_us / funnel_us, mrls_us / funnel_us);
  std::printf("speed ratios (paper): 4.59x faster than CUSUM, "
              "7098x faster than MRLS\n");
  std::printf("hot path (bench/sst_hotpath has the full tier breakdown): "
              "the production cascade is %.1fx faster than scoring every "
              "window on this workload\n",
              funnel_us / median_us.back());
  if (json_path == nullptr) return true;
  if (!write_json(json_path, quick, rows)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return false;
  }
  std::fprintf(stderr, "# wrote %s\n", json_path);
  return true;
}

// The per-window numbers above are single-threaded by §4.3's methodology;
// scoring a KPI fleet is embarrassingly parallel across KPIs, which is how
// the "cores for one million KPIs" extrapolation is actually banked. This
// table scores the same fan-out with the assessment engine's ThreadPool at
// 1/2/4/8 threads — each KPI keeps its own warm-started scorer, results go
// into order-indexed slots, so every row computes the identical scores.
void print_parallel_fanout_table(bool quick, const obs::Registry* stats) {
  std::printf(
      "\n=== Parallel fan-out: %s ===\n\n",
      "one IKA-SST pass over a KPI fleet, wall clock by thread count");

  const std::size_t kpis = quick ? 12 : 48;
  constexpr std::size_t kLen = 600;
  std::vector<std::vector<double>> fleet;
  fleet.reserve(kpis);
  Rng rng(1234);
  for (std::size_t i = 0; i < kpis; ++i) {
    workload::VariableParams p;
    workload::KpiStream s(workload::make_variable(p, rng.split()));
    fleet.push_back(workload::render(s, 0, static_cast<MinuteTime>(kLen)));
  }

  const auto score_fleet = [&fleet, stats](std::size_t threads) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> checksum(fleet.size(), 0.0);
    const auto score_one = [&](std::size_t i) {
      detect::IkaSst scorer(detect::SstGeometry{.omega = 9, .eta = 3});
      double acc = 0.0;
      const std::size_t w = scorer.window_size();
      for (std::size_t pos = 0; pos + w <= fleet[i].size(); ++pos) {
        acc += scorer.score(
            std::span<const double>(fleet[i]).subspan(pos, w));
      }
      checksum[i] = acc;
    };
    if (threads <= 1) {
      for (std::size_t i = 0; i < fleet.size(); ++i) score_one(i);
    } else {
      ThreadPool pool(threads);
      pool.set_stats(stats);
      pool.parallel_for(0, fleet.size(),
                        [&](std::size_t i, std::size_t) { score_one(i); });
    }
    double total = 0.0;
    for (double c : checksum) total += c;
    benchmark::DoNotOptimize(total);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
  };

  score_fleet(1);  // warm up caches so the serial baseline is not penalized
  constexpr std::size_t kWidths[] = {1, 2, 4, 8};
  std::vector<std::vector<double>> ms(std::size(kWidths));
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t w = 0; w < std::size(kWidths); ++w) {
      ms[w].push_back(score_fleet(kWidths[w]));
    }
  }
  const double serial_ms = spread_of(ms[0]).median;
  Table t({"threads", "wall ms median [quartiles]",
           "speedup vs serial (medians)"});
  for (std::size_t w = 0; w < std::size(kWidths); ++w) {
    const Spread wall = spread_of(ms[w]);
    t.add_row({std::to_string(kWidths[w]), format_spread(wall, 1),
               format_fixed(serial_ms / wall.median, 2) + "x"});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("(%zu KPIs x %zu minutes, %d interleaved repetitions; "
              "hardware threads available: %u — speedup saturates there)\n",
              kpis, kLen, kRepeats, std::thread::hardware_concurrency());
}

}  // namespace

int main(int argc, char** argv) {
  // Pull our telemetry flags out before benchmark::Initialize parses the
  // command line (it owns the remaining flags).
  bool stats = false;
  bool quick = false;
  const char* stats_json = nullptr;
  const char* json = nullptr;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
      stats_json = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!print_summary_table(quick, json)) return 3;
  const obs::Registry reg;
  const bool want_stats = stats || stats_json != nullptr;
  print_parallel_fanout_table(quick, want_stats ? &reg : nullptr);
  bench::dump_stats(reg, stats, stats_json);
  return 0;
}
