// SST hot-path micro-benchmark — µs/window for every tier of the SST
// scorer, on the Table 2 workload (variable-class KPI, the hardest: no
// early-outs anywhere).
//
// Tiers:
//   cold      reset() before every window — the naive per-window cost a
//             stateless deployment would pay (30 power sweeps + Lanczos)
//   warm      IkaSst::score: future basis warm-started across windows, every
//             window's exact score (the reference the cascade must match;
//             its past side stops once x̂ can only be the novelty floor)
//   cascaded  the production path (FunnelConfig::sst_cascade, the default):
//             warm + the exact pre-filter cascade, which skips the past side
//             of windows whose Eq. 11 factor cannot exceed the threshold,
//             and the rest of it once its unread directions cannot lift
//             the score over the threshold (the bound-suppressed windows)
//
// Each tier is timed on the thread CPU clock, which a shared host's steal
// does not inflate, in kRepeats interleaved repetitions (cold, warm,
// cascaded, cold, ...); the table and the JSON give each tier's median
// [quartiles], and the speedups are ratios of the medians.
//
// Alongside the table it writes a machine-readable BENCH_sst.json
// (--json FILE, default BENCH_sst.json) with per-tier µs/window, derived
// million-KPI core counts, the speedups vs cold, the fractions of windows
// the cascade suppressed (by either gate, and by the past-side bound
// alone), the warm-vs-exact score correlation, and the host it ran on
// (hardware threads, build type, git commit). tests/sst_bench_smoke.cmake
// validates the JSON shape and asserts the cascaded tier is ≥ 5x cheaper
// than cold.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "detect/cascade.h"
#include "detect/ika_sst.h"
#include "detect/improved_sst.h"
#include "detect/sliding.h"
#include "evalkit/evaluate.h"
#include "workload/generators.h"
#include "workload/stream.h"

using namespace funnel;

namespace {

std::vector<double> bench_series(std::size_t len) {
  workload::VariableParams p;  // Table 2's workload class and seed
  workload::KpiStream s(workload::make_variable(p, Rng(99)));
  return workload::render(s, 0, static_cast<MinuteTime>(len));
}

/// Interleaved repetitions behind every tier's median.
constexpr int kRepeats = 7;

/// Mean thread-CPU µs/window of one pass callback that scores
/// `windows_per_pass` windows, repeated until `min_windows` windows have
/// been scored.
template <typename Pass>
double measure(std::size_t windows_per_pass, std::size_t min_windows,
               Pass&& pass) {
  std::size_t scored = 0;
  const double start = evalkit::thread_cpu_micros();
  while (scored < min_windows) {
    pass();
    scored += windows_per_pass;
  }
  return (evalkit::thread_cpu_micros() - start) /
         static_cast<double>(scored);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const char* json_path = "BENCH_sst.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  bench::print_header("SST hot path: cold vs warm vs cascaded");

  const detect::SstGeometry g{.omega = 9, .eta = 3};
  const std::size_t len = 600;
  const std::vector<double> series = bench_series(len);
  const std::size_t w = g.window();
  const std::size_t positions = series.size() - w + 1;
  const std::size_t min_windows = quick ? 2000 : 8000;
  const auto span = std::span<const double>(series);

  // cold: full restart per window.
  detect::IkaSst cold_scorer(g);
  const auto cold_pass = [&] {
    for (std::size_t i = 0; i < positions; ++i) {
      cold_scorer.reset();
      volatile double s = cold_scorer.score(span.subspan(i, w));
      (void)s;
    }
  };

  // warm: the default scorer across consecutive windows.
  detect::IkaSst warm_scorer(g);
  const auto warm_pass = [&] {
    for (std::size_t i = 0; i < positions; ++i) {
      volatile double s = warm_scorer.score(span.subspan(i, w));
      (void)s;
    }
  };

  // cascaded: the warm scorer through the cascade's threshold-aware entry.
  detect::IkaSst casc_scorer(g);
  detect::CascadeConfig cc;
  cc.sst_threshold = 0.22;  // library-default alarm threshold
  detect::CascadeCounters counters;
  const auto casc_pass = [&] {
    casc_scorer.reset();
    const auto scores =
        detect::cascade_score_series(casc_scorer, series, cc, &counters,
                                     nullptr);
    volatile double s = scores.empty() ? 0.0 : scores.back();
    (void)s;
  };

  std::vector<double> cold_us, warm_us, casc_us;
  for (int rep = 0; rep < kRepeats; ++rep) {
    cold_us.push_back(measure(positions, quick ? 600 : 2000, cold_pass));
    warm_us.push_back(measure(positions, min_windows, warm_pass));
    casc_us.push_back(measure(positions, min_windows, casc_pass));
  }
  const double us_cold = quantile(cold_us, 0.5);
  const double us_warm = quantile(warm_us, 0.5);
  const double us_casc = quantile(casc_us, 0.5);

  // Fidelity: warm scores vs the exact-SVD reference on this workload.
  detect::ImprovedSst exact(g);
  detect::IkaSst warm_fresh(g);
  const auto se = detect::score_series(exact, series);
  const auto sw = detect::score_series(warm_fresh, series);
  const double corr = correlation(se, sw);

  const auto fraction = [&](std::uint64_t n) {
    return counters.windows == 0 ? 0.0
                                 : static_cast<double>(n) /
                                       static_cast<double>(counters.windows);
  };
  const double suppressed_frac = fraction(counters.suppressed_variance +
                                          counters.suppressed_bound);
  const double bound_frac = fraction(counters.suppressed_bound);

  Table t({"tier", "us/window median [quartiles]", "cores for 1M KPIs",
           "speedup vs cold", "bound-suppressed"});
  const auto add = [&](const char* name, const std::vector<double>& us,
                       const std::string& bound) {
    const double median = quantile(us, 0.5);
    t.add_row({name,
               format_fixed(median, 2) + " [" +
                   format_fixed(quantile(us, 0.25), 2) + "-" +
                   format_fixed(quantile(us, 0.75), 2) + "]",
               std::to_string(evalkit::cores_for_kpis(median)),
               format_fixed(us_cold / median, 2) + "x", bound});
  };
  add("cold", cold_us, "-");
  add("warm (every window)", warm_us, "-");
  add("cascaded (production)", casc_us,
      format_fixed(100.0 * bound_frac, 1) + "%");
  std::printf("%s\n", t.to_string().c_str());
  std::printf("(thread CPU time, %d interleaved repetitions per tier)\n",
              kRepeats);
  std::printf("fidelity: corr(warm, exact SVD) = %.3f on the variable-class "
              "workload; cascade suppressed %.0f%% of windows (%.1f%% by the "
              "past-side bound)\n",
              corr, 100.0 * suppressed_frac, 100.0 * bound_frac);

  const bench::Provenance host = bench::provenance();
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return 3;
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"host\": {\"nproc\": %u, \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\"},\n"
      "  \"workload\": {\"class\": \"variable\", \"minutes\": %zu, "
      "\"windows\": %zu, \"clock\": \"thread_cpu\", "
      "\"repetitions\": %d},\n"
      "  \"tiers\": {\n"
      "    \"cold\": {\"us_per_window\": %.3f, \"cores_for_1m_kpis\": %llu},\n"
      "    \"warm\": {\"us_per_window\": %.3f, \"cores_for_1m_kpis\": %llu},\n"
      "    \"cascaded\": {\"us_per_window\": %.3f, \"cores_for_1m_kpis\": "
      "%llu}\n"
      "  },\n"
      "  \"speedup\": {\"warm_vs_cold\": %.2f, \"cascaded_vs_cold\": %.2f},\n"
      "  \"cascade\": {\"suppressed_fraction\": %.4f, "
      "\"bound_suppressed_fraction\": %.4f},\n"
      "  \"fidelity\": {\"warm_vs_exact_corr\": %.4f}\n"
      "}\n",
      host.nproc, host.build_type.c_str(), host.git_sha.c_str(), len,
      positions, kRepeats, us_cold,
      static_cast<unsigned long long>(evalkit::cores_for_kpis(us_cold)),
      us_warm,
      static_cast<unsigned long long>(evalkit::cores_for_kpis(us_warm)),
      us_casc,
      static_cast<unsigned long long>(evalkit::cores_for_kpis(us_casc)),
      us_cold / us_warm, us_cold / us_casc, suppressed_frac, bound_frac,
      corr);
  out << buf;
  std::fprintf(stderr, "# wrote %s\n", json_path);
  return 0;
}
