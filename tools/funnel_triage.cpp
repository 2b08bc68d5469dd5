// funnel_triage — turn a verdict journal into triage scorecards, blame
// rankings and mined rules.
//
// Usage:
//   funnel_triage <journal.jsonl> [--json FILE] [--md FILE]
//                 [--overlap-window N] [--min-support N]
//                 [--min-confidence X] [--max-rules N]
//
// Input is the JSONL verdict journal written by the assessor (obs/journal.h;
// `funnel_detect_csv --journal`, or FunnelConfig::journal in library use).
// The tool replays the journal through the triage engine (src/triage) and
// prints the full TriageReport as JSON on stdout: per-service and per-KPI
// scorecards (regression / inconclusive / fallback-control rates, p50/p95
// time-to-verdict), blame rankings for temporally overlapping changes, and
// frequent-pattern rules over change metadata. --json FILE redirects the
// JSON to a file (stdout stays quiet); --md FILE additionally writes the
// human-facing markdown digest. Semantics of every number are specified in
// docs/TRIAGE.md.
//
// Replay is deterministic: the same journal, in any line order, always
// yields byte-identical JSON (TriageEngine.ReportInsensitiveToEventOrder).
//
// Knobs: --overlap-window N sets the blame clustering window in minutes
// (default 60); --min-support / --min-confidence / --max-rules gate the
// rule miner (defaults 2 / 0.5 / 50).
//
// Exit codes: 0 success; 1 the journal could not be read (missing file) or
// contained no parseable events despite being non-empty; 2 bad usage; 3 an
// output file (--json/--md) could not be opened. Skipped (corrupt) lines
// are counted on stderr but are not fatal — a crash-truncated trailing
// line is the expected signature of an interrupted run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "obs/journal.h"
#include "triage/engine.h"

using namespace funnel;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <journal.jsonl> [--json FILE] [--md FILE]\n"
               "          [--overlap-window N] [--min-support N]\n"
               "          [--min-confidence X] [--max-rules N]\n",
               argv0);
}

struct Options {
  std::string journal_path;
  std::string json_path;
  std::string md_path;
  triage::TriageOptions triage;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    // A numeric value must parse whole; counts take no sign.
    auto malformed = [&](const char* flag, const char* v) {
      std::fprintf(stderr, "error: malformed value for %s: '%s'\n", flag, v);
      return false;
    };
    if (std::strcmp(a, "--json") == 0) {
      const char* v = next("--json");
      if (v == nullptr) return false;
      opt.json_path = v;
    } else if (std::strcmp(a, "--md") == 0) {
      const char* v = next("--md");
      if (v == nullptr) return false;
      opt.md_path = v;
    } else if (std::strcmp(a, "--overlap-window") == 0) {
      const char* v = next(a);
      if (v == nullptr) return false;
      if (!parse_count(v, opt.triage.blame.overlap_window)) {
        return malformed(a, v);
      }
    } else if (std::strcmp(a, "--min-support") == 0) {
      const char* v = next(a);
      if (v == nullptr) return false;
      if (!parse_number(v, opt.triage.rules.min_support)) {
        return malformed(a, v);
      }
    } else if (std::strcmp(a, "--min-confidence") == 0) {
      const char* v = next(a);
      if (v == nullptr) return false;
      double& c = opt.triage.rules.min_confidence;
      if (!parse_number(v, c) || !(c >= 0.0 && c <= 1.0)) {
        return malformed(a, v);
      }
    } else if (std::strcmp(a, "--max-rules") == 0) {
      const char* v = next(a);
      if (v == nullptr) return false;
      if (!parse_number(v, opt.triage.rules.max_rules)) {
        return malformed(a, v);
      }
    } else if (a[0] == '-' && a[1] != '\0') {
      std::fprintf(stderr, "error: unknown flag %s\n", a);
      return false;
    } else if (opt.journal_path.empty()) {
      opt.journal_path = a;
    } else {
      std::fprintf(stderr, "error: more than one journal given\n");
      return false;
    }
  }
  if (opt.journal_path.empty()) return false;
  return true;
}

bool write_file(const std::string& path, const std::string& body,
                const char* what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << body;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "# wrote %s: %s\n", what, path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }

  std::size_t bad_lines = 0;
  bool ok = false;
  const std::vector<obs::JournalEvent> events =
      obs::read_journal(opt.journal_path, &bad_lines, &ok);
  if (!ok) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 opt.journal_path.c_str());
    return 1;
  }
  if (bad_lines > 0) {
    std::fprintf(stderr, "# skipped %zu unparseable line%s in %s\n",
                 bad_lines, bad_lines == 1 ? "" : "s",
                 opt.journal_path.c_str());
  }
  if (events.empty() && bad_lines > 0) {
    std::fprintf(stderr, "error: no parseable events in %s\n",
                 opt.journal_path.c_str());
    return 1;
  }

  triage::TriageEngine engine(opt.triage);
  for (const obs::JournalEvent& e : events) engine.observe(e);
  const triage::TriageReport report = engine.report();

  const std::string json = triage::to_json(report);
  if (opt.json_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else if (!write_file(opt.json_path, json + "\n", "triage json")) {
    return 3;
  }
  if (!opt.md_path.empty() &&
      !write_file(opt.md_path, triage::to_markdown(report),
                  "triage markdown")) {
    return 3;
  }
  return 0;
}
