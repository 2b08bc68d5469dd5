// Triage engine — one consumer for the whole verdict-event stream.
//
// Wraps the three analyses (scorecards, blame ranking, rule mining) behind
// a single streaming interface, driven by replaying a journal:
//
//   for (auto& e : obs::read_journal(path)) engine.observe(e);
//
// observe() folds the event into the scorecards immediately and retains a
// copy for the two whole-stream analyses (blame clustering and rule mining
// need the full event set; a day of ~24k-change verdicts is megabytes, not
// gigabytes — see docs/TRIAGE.md, "Journal sizing"). report() derives
// everything from sorted state, so two streams of the same event set yield
// identical reports byte-for-byte through to_json(), whatever order the
// assessor's threads wrote the lines in.
//
// The engine is single-consumer by design; guard it externally if several
// threads must feed one engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/registry.h"
#include "triage/blame.h"
#include "triage/rules.h"
#include "triage/scorecard.h"

namespace funnel::triage {

struct TriageOptions {
  BlameOptions blame{};
  RuleOptions rules{};
};

/// Everything the triage layer derives from one journal.
struct TriageReport {
  std::uint64_t events = 0;
  Scorecard totals;
  std::vector<Scorecard> by_service;
  std::vector<Scorecard> by_kpi;
  std::vector<BlameCluster> blame;
  std::vector<TriageRule> rules;
};

class TriageEngine {
 public:
  explicit TriageEngine(TriageOptions options = {});

  /// Fold one event (streaming tap or replay loop).
  void observe(const obs::JournalEvent& event);

  /// Derive the full report from everything observed so far. Pure function
  /// of the observed event set.
  TriageReport report() const;

  std::uint64_t events() const { return cards_.events(); }

  /// Attach a telemetry registry (null detaches): `funnel.triage.events`
  /// consumed, `funnel.triage.regressions` / `funnel.triage.inconclusive`
  /// tallies, `funnel.triage.reports` built. The registry must outlive the
  /// engine.
  void set_stats(const obs::Registry* stats) { stats_ = stats; }

 private:
  TriageOptions options_;
  ScorecardBuilder cards_;
  std::vector<obs::JournalEvent> events_;  ///< retained for blame + rules
  const obs::Registry* stats_ = nullptr;
};

/// JSON rendering of a full report (single object, stable key order) —
/// what `funnel_triage` emits and what the determinism tests compare.
std::string to_json(const TriageReport& report);

/// Markdown rendering — the human-facing scorecard/blame/rules digest.
std::string to_markdown(const TriageReport& report);

/// JSON fragment summarizing one change's standing in the report (its
/// cluster ranking entry, if any), for splicing into to_json_explained.
/// Returns "null" when the change does not appear.
std::string change_summary_json(const TriageReport& report,
                                std::uint64_t change_id);

}  // namespace funnel::triage
