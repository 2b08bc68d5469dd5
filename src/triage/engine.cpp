#include "triage/engine.h"

#include <sstream>

#include "common/json.h"

namespace funnel::triage {
namespace {

// File-local JSON helpers (same dialect as funnel/report_json.cpp: default
// ostream double formatting, strings through common/json.h — triage
// keys/values are machine-generated identifiers, but user-supplied service
// names pass through, so escape anyway).
void escape_to(std::ostringstream& os, std::string_view s) {
  std::string quoted = "\"";
  json_escape_to(quoted, s);
  quoted += '"';
  os << quoted;
}

void card_to(std::ostringstream& os, const Scorecard& card) {
  os << "{\"key\":";
  escape_to(os, card.key);
  os << ",\"events\":" << card.events << ",\"detected\":" << card.detected
     << ",\"regressions\":" << card.regressions
     << ",\"inconclusive\":" << card.inconclusive
     << ",\"fallback_control\":" << card.fallback_control
     << ",\"did_runs\":" << card.did_runs
     << ",\"regression_rate\":" << card.regression_rate()
     << ",\"inconclusive_rate\":" << card.inconclusive_rate()
     << ",\"fallback_rate\":" << card.fallback_rate();
  os << ",\"inconclusive_by_reason\":{";
  bool first = true;
  for (const auto& [reason, n] : card.inconclusive_by_reason) {
    if (!first) os << ',';
    first = false;
    escape_to(os, reason);
    os << ':' << n;
  }
  os << "},\"verdicts_timed\":" << card.time_to_verdict.size()
     << ",\"ttv_p50\":" << card.ttv_p50()
     << ",\"ttv_p95\":" << card.ttv_p95() << '}';
}

void blamed_to(std::ostringstream& os, const BlamedChange& ch) {
  os << "{\"change_id\":" << ch.change_id
     << ",\"change_time\":" << ch.change_time << ",\"service\":";
  escape_to(os, ch.service);
  os << ",\"change_type\":";
  escape_to(os, ch.change_type);
  os << ",\"launch_mode\":";
  escape_to(os, ch.launch_mode);
  os << ",\"regressions\":" << ch.regressions
     << ",\"kpis_assessed\":" << ch.kpis_assessed
     << ",\"score\":" << ch.score << ",\"explanation\":";
  escape_to(os, ch.explanation);
  os << '}';
}

void rule_to(std::ostringstream& os, const TriageRule& rule) {
  os << "{\"if\":[";
  for (std::size_t i = 0; i < rule.antecedent.size(); ++i) {
    if (i != 0) os << ',';
    escape_to(os, rule.antecedent[i]);
  }
  os << "],\"regresses\":";
  escape_to(os, rule.kpi);
  os << ",\"support\":" << rule.support << ",\"assessed\":" << rule.assessed
     << ",\"confidence\":" << rule.confidence << '}';
}

void pct_to(std::ostringstream& os, double rate) {
  os << static_cast<int>(rate * 100.0 + 0.5) << '%';
}

}  // namespace

TriageEngine::TriageEngine(TriageOptions options)
    : options_(options) {}

void TriageEngine::observe(const obs::JournalEvent& event) {
  cards_.observe(event);
  events_.push_back(event);
  if (stats_ != nullptr) {
    stats_->add("funnel.triage.events");
    if (event.cause == "software-change") {
      stats_->add("funnel.triage.regressions");
    } else if (event.cause == "inconclusive") {
      stats_->add("funnel.triage.inconclusive");
    }
  }
}

TriageReport TriageEngine::report() const {
  TriageReport out;
  out.events = cards_.events();
  out.totals = cards_.totals();
  out.by_service = cards_.by_service();
  out.by_kpi = cards_.by_kpi();
  out.blame = rank_blame(events_, options_.blame);
  out.rules = mine_rules(events_, options_.rules);
  if (stats_ != nullptr) stats_->add("funnel.triage.reports");
  return out;
}

std::string to_json(const TriageReport& report) {
  std::ostringstream os;
  os << "{\"events\":" << report.events << ",\"totals\":";
  card_to(os, report.totals);
  os << ",\"by_service\":[";
  for (std::size_t i = 0; i < report.by_service.size(); ++i) {
    if (i != 0) os << ',';
    card_to(os, report.by_service[i]);
  }
  os << "],\"by_kpi\":[";
  for (std::size_t i = 0; i < report.by_kpi.size(); ++i) {
    if (i != 0) os << ',';
    card_to(os, report.by_kpi[i]);
  }
  os << "],\"blame\":[";
  for (std::size_t i = 0; i < report.blame.size(); ++i) {
    const BlameCluster& cluster = report.blame[i];
    if (i != 0) os << ',';
    os << "{\"start\":" << cluster.start << ",\"end\":" << cluster.end
       << ",\"changes\":" << cluster.ranking.size() << ",\"ranking\":[";
    for (std::size_t j = 0; j < cluster.ranking.size(); ++j) {
      if (j != 0) os << ',';
      blamed_to(os, cluster.ranking[j]);
    }
    os << "]}";
  }
  os << "],\"rules\":[";
  for (std::size_t i = 0; i < report.rules.size(); ++i) {
    if (i != 0) os << ',';
    rule_to(os, report.rules[i]);
  }
  os << "]}";
  return os.str();
}

std::string to_markdown(const TriageReport& report) {
  std::ostringstream os;
  os << "# Triage report\n\n";
  os << report.events << " determinations; " << report.totals.regressions
     << " regressions, " << report.totals.inconclusive
     << " inconclusive.\n\n";

  os << "## Service scorecards\n\n"
     << "| service | events | regressions | inconclusive | fallback ctrl |"
        " ttv p50/p95 (min) |\n"
     << "|---|---:|---:|---:|---:|---:|\n";
  for (const Scorecard& card : report.by_service) {
    os << "| " << card.key << " | " << card.events << " | "
       << card.regressions << " (";
    pct_to(os, card.regression_rate());
    os << ") | " << card.inconclusive << " (";
    pct_to(os, card.inconclusive_rate());
    os << ") | " << card.fallback_control << " | ";
    if (card.time_to_verdict.empty()) {
      os << "—";
    } else {
      os << card.ttv_p50() << " / " << card.ttv_p95();
    }
    os << " |\n";
  }

  os << "\n## KPI scorecards\n\n"
     << "| kpi | events | regressions | inconclusive |\n"
     << "|---|---:|---:|---:|\n";
  for (const Scorecard& card : report.by_kpi) {
    os << "| " << card.key << " | " << card.events << " | "
       << card.regressions << " | " << card.inconclusive << " |\n";
  }

  if (!report.totals.inconclusive_by_reason.empty()) {
    os << "\n## Inconclusive verdicts by reason\n\n";
    for (const auto& [reason, n] : report.totals.inconclusive_by_reason) {
      os << "- `" << reason << "`: " << n << '\n';
    }
  }

  os << "\n## Blame ranking\n";
  for (const BlameCluster& cluster : report.blame) {
    if (cluster.ranking.size() < 2 &&
        (cluster.ranking.empty() || cluster.ranking[0].regressions == 0)) {
      continue;  // nothing to blame and nobody to disambiguate
    }
    os << "\n### Changes deployed in [" << cluster.start << ", "
       << cluster.end << "]\n\n";
    for (std::size_t i = 0; i < cluster.ranking.size(); ++i) {
      const BlamedChange& ch = cluster.ranking[i];
      os << (i + 1) << ". change " << ch.change_id << " (" << ch.service
         << ", " << ch.change_type << ", " << ch.launch_mode << ") — score "
         << ch.score << "; " << ch.explanation << '\n';
    }
  }

  os << "\n## Mined rules\n\n";
  if (report.rules.empty()) {
    os << "(none above support/confidence thresholds)\n";
  } else {
    for (const TriageRule& rule : report.rules) {
      os << "- IF ";
      for (std::size_t i = 0; i < rule.antecedent.size(); ++i) {
        if (i != 0) os << " AND ";
        os << '`' << rule.antecedent[i] << '`';
      }
      os << " THEN regresses `" << rule.kpi << "` (support " << rule.support
         << '/' << rule.assessed << ", confidence " << rule.confidence
         << ")\n";
    }
  }
  return os.str();
}

std::string change_summary_json(const TriageReport& report,
                                std::uint64_t change_id) {
  for (const BlameCluster& cluster : report.blame) {
    for (std::size_t i = 0; i < cluster.ranking.size(); ++i) {
      const BlamedChange& ch = cluster.ranking[i];
      if (ch.change_id != change_id) continue;
      std::ostringstream os;
      os << "{\"rank\":" << (i + 1)
         << ",\"cluster_changes\":" << cluster.ranking.size()
         << ",\"score\":" << ch.score << ",\"regressions\":"
         << ch.regressions << ",\"explanation\":";
      escape_to(os, ch.explanation);
      os << '}';
      return os.str();
    }
  }
  return "null";
}

}  // namespace funnel::triage
