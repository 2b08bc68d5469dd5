// funnel_generate — synthesize a KPI time series as CSV.
//
// Usage:
//   funnel_generate --class seasonal|stationary|variable [--minutes N]
//                   [--seed S] [--shift T,DELTA] [--ramp T0,T1,DELTA]
//                   [--spike T,DUR,DELTA] [--out FILE]
//                   [--faults SPEC] [--fault-seed S] [--data-dir DIR]
//
// Companion of funnel_detect_csv: produce a synthetic KPI with known
// injected changes, feed it to the detector, check what comes back.
// Effects may be repeated (e.g. two --shift options).
//
// --faults pushes the rendered series through the deterministic fault
// injector (workload/faults.h) before writing: e.g.
// --faults drop=0.05,nan=0.02x4,stuck=0.01x8 simulates a dirty collection
// pipeline. The (spec, --fault-seed) pair fully determines the damage, so
// a dirty fixture regenerates bit-identically. The realized fault counts
// go to stderr.
//
// --data-dir DIR additionally writes the finished series into the
// persistent segment store (docs/STORAGE.md) under the metric
// `server:host/kpi` — the id funnel_detect_csv's pipeline mode uses — and
// checkpoints, so a later `funnel_detect_csv --change-minute T --data-dir
// DIR` recovers the history from disk instead of re-inserting the CSV.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "tsdb/io.h"
#include "tsdb/store.h"
#include "workload/effects.h"
#include "workload/faults.h"
#include "workload/generators.h"
#include "workload/stream.h"

using namespace funnel;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --class seasonal|stationary|variable\n"
               "          [--minutes N] [--seed S] [--shift T,DELTA]\n"
               "          [--ramp T0,T1,DELTA] [--spike T,DUR,DELTA]\n"
               "          [--out FILE] [--faults SPEC] [--fault-seed S]\n"
               "          [--data-dir DIR]\n"
               "  fault SPEC: drop=R,nan=RxN,stuck=RxN,dup=R,reorder=R,"
               "late=RxN\n",
               argv0);
}

// Parse "A,B[,C]" whole: one comma field per target, each with
// parse_number().
template <typename... T>
bool parse_fields(std::string_view arg, T&... out) {
  const std::vector<std::string> fields = split(arg, ',');
  if (fields.size() != sizeof...(T)) return false;
  std::size_t i = 0;
  return (parse_number(fields[i++], out) && ...);
}

}  // namespace

int main(int argc, char** argv) {
  std::string cls;
  MinuteTime minutes = 1440;
  std::uint64_t seed = 1;
  std::string out_path;
  std::string data_dir;
  std::vector<workload::Effect> effects;
  workload::FaultSpec faults;
  std::uint64_t fault_seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    // Numeric values must parse whole; counts and seeds take no sign.
    MinuteTime t0 = 0;
    MinuteTime t1 = 0;
    double delta = 0.0;
    if (a == "--class") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]), 2;
      cls = v;
    } else if (a == "--minutes") {
      const char* v = value();
      if (v == nullptr || !parse_count(v, minutes) || minutes < 1) {
        return usage(argv[0]), 2;
      }
    } else if (a == "--seed") {
      const char* v = value();
      if (v == nullptr || !parse_number(v, seed)) return usage(argv[0]), 2;
    } else if (a == "--out") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]), 2;
      out_path = v;
    } else if (a == "--data-dir") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]), 2;
      data_dir = v;
    } else if (a == "--faults") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]), 2;
      try {
        faults = workload::parse_fault_spec(v);
      } catch (const funnel::Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (a == "--fault-seed") {
      const char* v = value();
      if (v == nullptr || !parse_number(v, fault_seed)) {
        return usage(argv[0]), 2;
      }
    } else if (a == "--shift") {
      const char* v = value();
      if (v == nullptr || !parse_fields(v, t0, delta)) {
        return usage(argv[0]), 2;
      }
      effects.push_back(workload::LevelShift{t0, delta});
    } else if (a == "--ramp") {
      const char* v = value();
      if (v == nullptr || !parse_fields(v, t0, t1, delta)) {
        return usage(argv[0]), 2;
      }
      effects.push_back(workload::Ramp{t0, t1, delta});
    } else if (a == "--spike") {
      const char* v = value();
      if (v == nullptr || !parse_fields(v, t0, t1, delta) || t1 < 1) {
        return usage(argv[0]), 2;
      }
      effects.push_back(workload::TransientSpike{t0, t1, delta});
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return 2;
    }
  }

  tsdb::KpiClass kpi_class;
  if (cls == "seasonal") {
    kpi_class = tsdb::KpiClass::kSeasonal;
  } else if (cls == "stationary") {
    kpi_class = tsdb::KpiClass::kStationary;
  } else if (cls == "variable") {
    kpi_class = tsdb::KpiClass::kVariable;
  } else {
    usage(argv[0]);
    return 2;
  }

  workload::KpiStream stream(workload::make_default(kpi_class, Rng(seed)));
  for (const auto& e : effects) stream.add_effect(e);
  tsdb::TimeSeries series(0, workload::render(stream, 0, minutes));
  if (!faults.empty()) {
    workload::FaultInjector injector(faults, fault_seed);
    series = workload::apply_faults(series, injector);
    const workload::FaultStats& fs = injector.stats();
    std::fprintf(stderr,
                 "injected faults (%s, seed %llu): %llu dropped, %llu nan, "
                 "%llu stuck, %llu duplicated, %llu reordered, %llu late\n",
                 workload::to_string(faults).c_str(),
                 static_cast<unsigned long long>(fault_seed),
                 static_cast<unsigned long long>(fs.dropped),
                 static_cast<unsigned long long>(fs.nans),
                 static_cast<unsigned long long>(fs.stuck),
                 static_cast<unsigned long long>(fs.duplicated),
                 static_cast<unsigned long long>(fs.reordered),
                 static_cast<unsigned long long>(fs.delayed));
  }

  try {
    if (out_path.empty()) {
      tsdb::write_series_csv(std::cout, series);
    } else {
      tsdb::save_series_csv(out_path, series);
      std::fprintf(stderr, "wrote %zu samples to %s\n", series.size(),
                   out_path.c_str());
    }
    if (!data_dir.empty()) {
      // Append the series as one batch (one WAL commit), then checkpoint
      // so the history lands in a columnar segment. Gaps stay gaps: a NaN
      // minute is appended as NaN, exactly what the CSV holds.
      tsdb::StoreOptions sopt;
      sopt.data_dir = data_dir;
      tsdb::MetricStore store(sopt);
      const tsdb::MetricId metric = tsdb::server_metric("host", "kpi");
      const tsdb::SeriesRef ref = store.intern(metric);
      std::vector<tsdb::Sample> batch;
      batch.reserve(series.size());
      for (MinuteTime t = series.start_time(); t < series.end_time(); ++t) {
        batch.push_back({ref, t, series.at(t), {}, {}});
      }
      store.append(batch);
      store.checkpoint();
      std::fprintf(stderr, "wrote %zu samples to store %s (%s)\n",
                   series.size(), data_dir.c_str(),
                   metric.to_string().c_str());
    }
  } catch (const funnel::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
