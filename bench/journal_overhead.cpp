// Journal overhead benchmark — µs/verdict for the batch assessment window
// with the verdict journal detached vs attached.
//
// append() renders the verdict and commits it with one fwrite + fflush on
// the assessing thread, so a returned verdict is a journalled one. This
// bench puts a number on what that costs the assessor, on the Table 3
// deployment-week workload (paper_dataset_params; a scaled-down dataset
// with more reps under --quick so the estimate is robust on noisy CI
// machines): the same assess_window run, measured with journal off and on,
// reps interleaved off/on/off/on so machine drift hits both sides alike.
// The reported overhead ratio is the median of per-pair on/off ratios —
// an isolated scheduler burst skews one pair, not the median — and the
// µs/verdict numbers are the per-side minima (the quiet-machine cost).
//
// Writes BENCH_journal.json (--json FILE to relocate): the host it ran on
// (hardware threads, build type, git commit), off/on µs/verdict, the
// overhead ratio, and the journal's own accounting (events, bytes, drops —
// the verdicts the on-runs returned minus the events written, which a
// journal that lost nothing keeps at 0).
// tests/journal_bench_smoke.cmake runs --quick and enforces the < 2%
// acceptance bar from docs/TRIAGE.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "evalkit/dataset.h"
#include "funnel/assessor.h"
#include "obs/journal.h"

using namespace funnel;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunCost {
  double us_per_verdict = 0.0;
  std::size_t verdicts = 0;
};

RunCost run_once(const evalkit::EvalDataset& ds, MinuteTime window_end,
                 std::size_t threads, bool quick,
                 const obs::Journal* journal) {
  core::FunnelConfig cfg;
  cfg.num_threads = threads;
  if (quick) cfg.baseline_days = 3;  // matches the short quick history
  cfg.journal = journal;
  const core::Funnel funnel(cfg, ds.topo, ds.log, ds.store);
  const double start = now_us();
  const auto reports = funnel.assess_window(0, window_end);
  const double elapsed = now_us() - start;
  RunCost cost;
  for (const auto& r : reports) cost.verdicts += r.items.size();
  cost.us_per_verdict = elapsed / static_cast<double>(cost.verdicts);
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const std::size_t threads = bench::threads_arg(argc, argv);
  const char* json_path = "BENCH_journal.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  const std::string journal_path = std::string(json_path) + ".scratch.jsonl";

  bench::print_header("Verdict-journal overhead on assess_window");
  evalkit::DatasetParams params = bench::paper_dataset_params(quick);
  if (quick) {
    // Short runs, many reps: a robust median needs samples more than bulk.
    params.services = 4;
    params.positive_changes = 8;
    params.negative_changes = 8;
    params.history_days = 4;
  }
  const auto ds = evalkit::build_dataset(params);
  MinuteTime window_end = 0;
  for (const auto& ch : ds->log.all()) {
    window_end = std::max(window_end, ch.time);
  }
  ++window_end;

  const std::size_t reps = quick ? 15 : 9;
  std::vector<double> pair_ratios;
  double off_us = 0.0, on_us = 0.0;
  std::size_t verdicts = 0;
  std::uint64_t events = 0, bytes = 0, dropped = 0;
  {
    obs::Journal journal(journal_path);
    if (!journal.ok()) {
      std::fprintf(stderr, "error: cannot write %s\n", journal_path.c_str());
      return 1;
    }
    // Every verdict an on-run returns must be in the file.
    std::uint64_t expected = 0;
    // Warm-up rep on each side (page cache, allocator), then interleave.
    run_once(*ds, window_end, threads, quick, nullptr);
    expected += run_once(*ds, window_end, threads, quick, &journal).verdicts;
    for (std::size_t r = 0; r < reps; ++r) {
      const RunCost off = run_once(*ds, window_end, threads, quick, nullptr);
      const RunCost on = run_once(*ds, window_end, threads, quick, &journal);
      expected += on.verdicts;
      pair_ratios.push_back(on.us_per_verdict / off.us_per_verdict);
      off_us = (r == 0) ? off.us_per_verdict
                        : std::min(off_us, off.us_per_verdict);
      on_us = (r == 0) ? on.us_per_verdict
                       : std::min(on_us, on.us_per_verdict);
      verdicts = off.verdicts;
    }
    events = journal.written();
    dropped = expected - events;
  }
  {
    std::ifstream in(journal_path, std::ios::binary | std::ios::ate);
    if (in) bytes = static_cast<std::uint64_t>(in.tellg());
  }
  std::remove(journal_path.c_str());

  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double ratio = pair_ratios[pair_ratios.size() / 2];
  std::printf("verdicts/run        %zu\n", verdicts);
  std::printf("journal off         %.2f us/verdict (min of %zu)\n", off_us,
              reps);
  std::printf("journal on          %.2f us/verdict (min of %zu)\n", on_us,
              reps);
  std::printf("overhead            %.2f%% (median of %zu pair ratios)\n",
              (ratio - 1.0) * 100.0, pair_ratios.size());
  std::printf("journaled           %llu events, %llu bytes, %llu dropped\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(dropped));

  const bench::Provenance host = bench::provenance();
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return 1;
  }
  out << "{\"host\":{\"nproc\":" << host.nproc << ",\"build_type\":\""
      << host.build_type << "\",\"git_sha\":\"" << host.git_sha
      << "\"},\"workload\":{\"quick\":" << (quick ? "true" : "false")
      << ",\"verdicts_per_run\":" << verdicts << ",\"reps\":" << reps
      << "},\"off_us_per_verdict\":" << off_us
      << ",\"on_us_per_verdict\":" << on_us
      << ",\"overhead_ratio\":" << ratio
      << ",\"journal\":{\"events_per_run\":" << events / (reps + 1)
      << ",\"bytes\":" << bytes << ",\"dropped\":" << dropped << "}}\n";
  out.close();
  std::fprintf(stderr, "# wrote %s\n", json_path);
  return 0;
}
