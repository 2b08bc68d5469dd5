// Shared configuration of the benchmark harness.
//
// Every bench reproducing a paper table/figure pulls its method parameters
// from here so the whole evaluation is consistent: one tuned setting per
// method, mirroring §4.1's "parameters set to the best for the
// corresponding algorithm's accuracy".
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "detect/classic_sst.h"
#include "detect/cusum.h"
#include "detect/ika_sst.h"
#include "detect/improved_sst.h"
#include "detect/mrls.h"
#include "evalkit/dataset.h"
#include "evalkit/evaluate.h"
#include "funnel/config.h"
#include "obs/export.h"
#include "obs/registry.h"

// Set per bench target by bench/CMakeLists.txt.
#ifndef FUNNEL_BUILD_TYPE
#define FUNNEL_BUILD_TYPE "unknown"
#endif
#ifndef FUNNEL_SOURCE_DIR
#define FUNNEL_SOURCE_DIR "."
#endif

namespace funnel::bench {

/// The paper's negative-sample extrapolation factor (§4.2.1): counts from
/// the 72 sampled no-effect changes are scaled by 6194 / 72 ~ 86.
inline constexpr std::uint64_t kNegativeScale = 86;

inline core::FunnelConfig funnel_config() {
  return core::FunnelConfig{};  // paper defaults: omega 9, 7-min rule, DiD
}

inline evalkit::DetectorSpec improved_sst_spec() {
  evalkit::DetectorSpec spec;
  spec.name = "Improved SST";
  spec.make_scorer = [] {
    return std::make_unique<detect::ImprovedSst>(
        detect::SstGeometry{.omega = 9, .eta = 3});
  };
  spec.policy = {.threshold = 0.4, .persistence = 7, .patience = 10};
  return spec;
}

inline evalkit::DetectorSpec cusum_spec() {
  evalkit::DetectorSpec spec;
  spec.name = "CUSUM";
  spec.make_scorer = [] {
    return std::make_unique<detect::Cusum>(detect::CusumParams{});
  };
  // Threshold in accumulated-sigma units; tuned for best accuracy — high,
  // which is precisely what makes CUSUM slow to alarm (Fig. 5).
  spec.policy = {.threshold = 70.0, .persistence = 1};
  return spec;
}

inline evalkit::DetectorSpec mrls_spec() {
  evalkit::DetectorSpec spec;
  spec.name = "MRLS";
  spec.make_scorer = [] {
    return std::make_unique<detect::Mrls>(detect::MrlsParams{});
  };
  spec.policy = {.threshold = 7.0, .persistence = 3};
  return spec;
}

/// The paper-scale evaluation dataset: 19 services (as sampled in §4.1),
/// 72 changes with injected KPI changes + 72 without, 31 days of history
/// for the 30-day baseline, service-wide confounders.
inline evalkit::DatasetParams paper_dataset_params(bool quick) {
  evalkit::DatasetParams p;
  p.seed = 20151201;  // CoNEXT'15 conference date
  p.services = quick ? 6 : 19;
  p.servers_per_service = 6;
  p.treated_servers = 2;
  p.positive_changes = quick ? 12 : 72;
  p.negative_changes = quick ? 12 : 72;
  p.history_days = 31;
  p.confounder_probability = 0.35;
  return p;
}

inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

/// `--threads N` for the parallel assessment engine; defaults to 0
/// (hardware concurrency). 1 forces the serial baseline.
inline std::size_t threads_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      return static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
  }
  return 0;
}

/// `--stats`: print the run's self-telemetry (Prometheus text) to stderr.
inline bool stats_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) return true;
  }
  return false;
}

/// `--stats-json FILE`: write the telemetry snapshot as JSON.
inline const char* stats_json_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0) return argv[i + 1];
  }
  return nullptr;
}

/// Dump a registry per the two flags above. Stats go to stderr/a file so
/// the table output on stdout stays clean for diffing across runs.
inline void dump_stats(const obs::Registry& reg, bool print,
                       const char* json_path) {
  if (!print && json_path == nullptr) return;
  const obs::Snapshot snap = reg.snapshot();
  if (print) std::fputs(obs::prometheus_text(snap).c_str(), stderr);
  if (json_path != nullptr) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path);
      return;
    }
    out << obs::snapshot_json(snap) << '\n';
  }
}

/// Where a committed BENCH_*.json number was measured: hardware threads,
/// build type, and the git commit of the measured tree ("-dirty" when it
/// carried uncommitted changes, "unknown" outside a git checkout).
struct Provenance {
  unsigned nproc = 0;
  std::string build_type;
  std::string git_sha;
};

inline Provenance provenance() {
  Provenance p;
  p.nproc = std::thread::hardware_concurrency();
  p.build_type = FUNNEL_BUILD_TYPE;
  const std::string git = std::string("git -C '") + FUNNEL_SOURCE_DIR + "' ";
  if (FILE* f = popen((git + "rev-parse --short=12 HEAD 2>/dev/null").c_str(),
                      "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), f) != nullptr) {
      p.git_sha = buf;
      while (!p.git_sha.empty() && std::isspace(static_cast<unsigned char>(
                                       p.git_sha.back()))) {
        p.git_sha.pop_back();
      }
    }
    pclose(f);
  }
  if (p.git_sha.empty()) {
    p.git_sha = "unknown";
  } else if (std::system((git + "diff --quiet HEAD 2>/dev/null").c_str()) !=
             0) {
    p.git_sha += "-dirty";
  }
  return p;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace funnel::bench
