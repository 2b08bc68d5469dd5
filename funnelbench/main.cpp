// funnelbench — the FUNNEL benchmark program (README.md in this directory).
//
//   funnelbench --workload ingest_durable|online_day|batch_review
//               --seed N --seconds S --trace 0|1 [--quick]
//               [--work-dir DIR] [--trace-json FILE]
//
// Prints a "# context" line (nproc, build type, compiler, commit, seed,
// host steal) and, last, one JSON result object. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exit 0 only when every
// operation succeeded and every output check passed (1 otherwise, after the
// result line); 2 on misuse; 3 on a build the benchmark refuses.
//
//   funnelbench --reference-sampler DIR
//
// is the host-speed sampler a run starts beside its set-ups and rounds
// (reference.h); it is not meant to be run by hand.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "obs/registry.h"
#include "reference.h"

using namespace funnelbench;

namespace {

#if defined(__has_feature)
#define FUNNELBENCH_HAS_FEATURE(x) __has_feature(x)
#else
#define FUNNELBENCH_HAS_FEATURE(x) 0
#endif

/// The sanitizer this binary was compiled with, "" for none.
constexpr const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || FUNNELBENCH_HAS_FEATURE(address_sanitizer)
  return "address";
#elif defined(__SANITIZE_THREAD__) || FUNNELBENCH_HAS_FEATURE(thread_sanitizer)
  return "thread";
#elif FUNNELBENCH_HAS_FEATURE(memory_sanitizer)
  return "memory";
#else
  return "";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "funnelbench: %s\nusage: funnelbench --workload "
               "ingest_durable|online_day|batch_review --seed N --seconds S "
               "--trace 0|1 [--quick] [--work-dir DIR] [--trace-json FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--reference-sampler") == 0) {
    return run_reference_sampler(argv[2]);
  }
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--quick") {
      args.quick = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else if (a == "--trace-json" && has_value) {
      args.trace_json = argv[++i];
    } else {
      return usage(("unknown argument: " + a).c_str());
    }
  }
  if (args.seconds <= 0.0) return usage("--seconds must be positive");

  // Numbers from a sanitizer build or a telemetry-less build are not the
  // program users run, and FUNNEL_OBS=OFF compiles out the HTTP server and
  // the registry the traced mode reads.
  if (std::strlen(sanitizer()) != 0) {
    std::fprintf(stderr, "funnelbench: refusing a sanitizer build (%s)\n",
                 sanitizer());
    return 3;
  }
  if (!funnel::obs::kEnabled) {
    std::fprintf(stderr,
                 "funnelbench: refusing a FUNNEL_OBS=OFF build (no HTTP "
                 "server, no registry)\n");
    return 3;
  }

  Result result;
  const std::uint64_t steal0 = steal_ticks();
  try {
    if (args.workload == "ingest_durable") {
      run_ingest_durable(args, result);
    } else if (args.workload == "online_day") {
      run_online_day(args, result);
    } else if (args.workload == "batch_review") {
      run_batch_review(args, result);
    } else {
      return usage(("unknown workload: " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "funnelbench: %s\n", e.what());
    return 1;
  }
  const double steal_s = ticks_to_s(steal_ticks() - steal0);

  if (args.trace) {
    result.metric("host.steal_s", steal_s, "s");
  } else {
    result.metric("ok_ratio", result.ok_ratio(), "ratio");
  }
  std::error_code ignored;
  std::filesystem::remove_all(
      std::filesystem::path(args.work_dir) /
          (args.workload + "-" + std::to_string(::getpid())),
      ignored);

  print_context(args, steal_s);
  std::fprintf(stderr, "# generator %s\n", generator_shape().c_str());
  std::printf("%s\n", result.json().c_str());
  if (!result.correct() || result.failed() > 0) {
    std::fprintf(stderr, "funnelbench: %llu of %llu operations failed%s\n",
                 static_cast<unsigned long long>(result.failed()),
                 static_cast<unsigned long long>(result.attempted()),
                 result.correct() ? "" : "; output checks failed");
    return 1;
  }
  return 0;
}
