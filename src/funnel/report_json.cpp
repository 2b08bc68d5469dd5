#include "funnel/report_json.h"

#include <cmath>
#include <sstream>

#include "common/json.h"

namespace funnel::core {
namespace {

void escape_to(std::ostringstream& os, std::string_view s) {
  std::string quoted = "\"";
  json_escape_to(quoted, s);
  quoted += '"';
  os << quoted;
}

void number_to(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

// The per-KPI trace span carrying this metric's SST provenance for this
// report's change, if the caller handed us a dump that has one. The same
// metric is examined by every change whose impact set contains it, so the
// span's parent assess span must match the change id too (a batch dump
// holds the whole window's trees).
const obs::SpanRecord* kpi_span_for(const obs::TraceDump* trace,
                                    changes::ChangeId change_id,
                                    const std::string& metric) {
  if (trace == nullptr) return nullptr;
  for (const obs::SpanRecord& s : trace->spans) {
    if (std::string_view(s.name) != "funnel.assess.kpi") continue;
    const obs::SpanAttr* a = s.find_attr("kpi.metric");
    if (a == nullptr || a->kind != obs::SpanAttr::Kind::kString ||
        a->str != metric) {
      continue;
    }
    for (const obs::SpanRecord& p : trace->spans) {
      if (p.span_id != s.parent_id) continue;
      const obs::SpanAttr* cid = p.find_attr("change.id");
      if (std::string_view(p.name) == "funnel.assess" && cid != nullptr &&
          cid->inum == static_cast<std::int64_t>(change_id)) {
        return &s;
      }
      break;
    }
  }
  return nullptr;
}

// One-line decision rationale: why this cause, in the rule's own terms.
std::string decision_line(const ItemVerdict& v) {
  switch (v.cause) {
    case Cause::kSoftwareChange:
      if (!v.did_fit) {
        return "DiD unavailable; delivered as software-change "
               "(conservative)";
      }
      return v.used_historical_control
                 ? "scaled DiD alpha cleared the threshold against the "
                   "KPI's own seasonal baseline: attributed to the change"
                 : "scaled DiD alpha cleared the threshold against the "
                   "untouched siblings: attributed to the change";
    case Cause::kSeasonality:
      return "historical DiD found the same movement in the seasonal "
             "baseline: not the change";
    case Cause::kOtherFactors:
      return "control-group DiD saw the untouched siblings move alike: "
             "not the change";
    case Cause::kInconclusive:
      return std::string("telemetry too dirty to decide (") +
             to_string(v.inconclusive_reason) +
             "); repair the feed and re-assess";
    case Cause::kNoKpiChange:
      break;
  }
  return "no KPI change detected";
}

void quality_to(std::ostringstream& os, const tsdb::QualityReport& q) {
  os << "{\"coverage\":";
  number_to(os, q.coverage);
  os << ",\"clean_samples\":" << q.clean_samples
     << ",\"window_minutes\":" << q.window_minutes
     << ",\"longest_gap_run\":" << q.longest_gap_run
     << ",\"longest_flat_run\":" << q.longest_flat_run << "}";
}

void explain_item_to(std::ostringstream& os, const ItemVerdict& v,
                     changes::ChangeId change_id, const FunnelConfig& config,
                     const obs::TraceDump* trace) {
  os << "{\"metric\":";
  escape_to(os, v.metric.to_string());
  os << ",\"cause\":";
  escape_to(os, to_string(v.cause));
  if (v.cause == Cause::kInconclusive) {
    os << ",\"inconclusive_reason\":";
    escape_to(os, to_string(v.inconclusive_reason));
  }
  os << ",\"control_kind\":";
  escape_to(os, v.used_historical_control ? "seasonal-window"
                                          : "dark-launch-siblings");
  if (v.used_fallback_control) os << ",\"fallback_control\":true";
  if (v.quality) {
    os << ",\"quality\":";
    quality_to(os, *v.quality);
  }
  if (v.alarm) os << ",\"alarm_minute\":" << v.alarm->minute;

  os << ",\"sst\":{\"peak_score\":";
  number_to(os, v.alarm ? v.alarm->peak_score : 0.0);
  if (const obs::SpanRecord* span =
          kpi_span_for(trace, change_id, v.metric.to_string())) {
    if (const obs::SpanAttr* raw = span->find_attr("sst.raw_score")) {
      os << ",\"raw_score\":";
      number_to(os, raw->num);
    }
    if (const obs::SpanAttr* damp = span->find_attr("sst.damp_factor")) {
      os << ",\"damp_factor\":";
      number_to(os, damp->num);
    }
  }
  os << ",\"threshold\":";
  number_to(os, config.alarm.threshold);
  os << ",\"persistence\":" << config.alarm.persistence
     << ",\"omega\":" << config.geometry.omega
     << ",\"eta\":" << config.geometry.eta
     << ",\"krylov_k\":" << config.geometry.krylov_k() << "}";

  os << ",\"did\":{";
  if (v.did_fit) {
    os << "\"alpha\":";
    number_to(os, v.did_fit->alpha);
    os << ",\"alpha_scaled\":";
    number_to(os, v.did_fit->alpha_scaled);
    os << ",\"t_stat\":";
    number_to(os, v.did_fit->t_stat);
    os << ",\"n_treated\":" << v.did_fit->n_treated
       << ",\"n_control\":" << v.did_fit->n_control << ",";
  }
  os << "\"alpha_threshold\":";
  number_to(os, config.did.alpha_threshold);
  os << ",\"t_threshold\":";
  number_to(os, config.did.t_threshold);
  os << ",\"require_significance\":"
     << (config.did.require_significance ? "true" : "false") << "}";

  os << ",\"decision\":";
  escape_to(os, decision_line(v));
  os << "}";
}

}  // namespace

std::string to_json(const ItemVerdict& verdict) {
  std::ostringstream os;
  os << "{\"metric\":";
  escape_to(os, verdict.metric.to_string());
  os << ",\"kpi_change_detected\":"
     << (verdict.kpi_change_detected ? "true" : "false");
  os << ",\"cause\":";
  escape_to(os, to_string(verdict.cause));
  if (verdict.cause == Cause::kInconclusive) {
    os << ",\"inconclusive_reason\":";
    escape_to(os, to_string(verdict.inconclusive_reason));
  }
  if (verdict.used_fallback_control) {
    os << ",\"fallback_control\":true";
  }
  if (verdict.determined_at) {
    os << ",\"determined_at\":" << *verdict.determined_at;
  }
  if (verdict.alarm) {
    os << ",\"alarm\":{\"minute\":" << verdict.alarm->minute
       << ",\"peak_score\":";
    number_to(os, verdict.alarm->peak_score);
    os << "}";
  }
  if (verdict.did_fit) {
    os << ",\"did\":{\"alpha\":";
    number_to(os, verdict.did_fit->alpha);
    os << ",\"alpha_scaled\":";
    number_to(os, verdict.did_fit->alpha_scaled);
    os << ",\"t_stat\":";
    number_to(os, verdict.did_fit->t_stat);
    os << ",\"n_treated\":" << verdict.did_fit->n_treated
       << ",\"n_control\":" << verdict.did_fit->n_control
       << ",\"historical_control\":"
       << (verdict.used_historical_control ? "true" : "false") << "}";
  }
  if (verdict.quality) {
    os << ",\"quality\":";
    quality_to(os, *verdict.quality);
  }
  os << "}";
  return os.str();
}

std::string to_json(const AssessmentReport& report) {
  std::ostringstream os;
  os << "{\"change_id\":" << report.change_id
     << ",\"change_time\":" << report.change_time << ",\"changed_service\":";
  escape_to(os, report.impact_set.changed_service);
  os << ",\"dark_launched\":"
     << (report.impact_set.dark_launched ? "true" : "false")
     << ",\"kpis_examined\":" << report.kpis_examined()
     << ",\"kpi_changes_detected\":" << report.kpi_changes_detected()
     << ",\"kpi_changes_caused\":" << report.kpi_changes_caused();
  if (report.kpis_inconclusive() > 0) {
    os << ",\"kpis_inconclusive\":" << report.kpis_inconclusive();
  }
  os << ",\"change_has_impact\":"
     << (report.change_has_impact() ? "true" : "false") << ",\"items\":[";
  bool first = true;
  for (const ItemVerdict& v : report.items) {
    if (!first) os << ',';
    first = false;
    os << to_json(v);
  }
  os << "]}";
  return os.str();
}

std::string to_json_explained(const AssessmentReport& report,
                              const FunnelConfig& config,
                              const obs::TraceDump* trace,
                              const std::string* triage_json) {
  // Splice the explain array into the base report right before its closing
  // brace: the prefix stays byte-identical to to_json(report), so consumers
  // of the plain report parse the explained one unchanged.
  std::string base = to_json(report);
  base.pop_back();  // trailing '}'
  std::ostringstream os;
  os << ",\"explain\":[";
  bool first = true;
  for (const ItemVerdict& v : report.items) {
    // Explain every verdict an operator must act on: detected changes, and
    // degraded (inconclusive) telemetry that blocked a verdict.
    if (!v.kpi_change_detected && v.cause != Cause::kInconclusive) continue;
    if (!first) os << ',';
    first = false;
    explain_item_to(os, v, report.change_id, config, trace);
  }
  os << ']';
  if (triage_json != nullptr) os << ",\"triage\":" << *triage_json;
  os << '}';
  return base + os.str();
}

}  // namespace funnel::core
