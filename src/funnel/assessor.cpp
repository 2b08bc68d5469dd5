#include "funnel/assessor.h"

#include <algorithm>
#include <optional>
#include <string>

#include "common/error.h"
#include "detect/ika_sst.h"
#include "detect/sst_common.h"
#include "did/groups.h"
#include "funnel/verdict_journal.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace funnel::core {
namespace {

void mark_inconclusive(ItemVerdict& verdict, InconclusiveReason reason) {
  verdict.cause = Cause::kInconclusive;
  verdict.inconclusive_reason = reason;
}

// Eq. 11 damp factor of the alarm's peak window, recomputed with the same
// standardization the scorer used. The stored peak is the *damped* IKA-SST
// score (raw subspace discordance times the |Δmedian|·√|ΔMAD| factor);
// exposing the factor separates "how novel was the trajectory" from "how
// hard was it damped" — exactly what an operator asks when challenging a
// verdict. Side channel only (trace attrs + journal events); never feeds
// back into scores. The peak lies inside the alarm's run, so `scores` need
// only reach the alarm's window.
double peak_damp_factor(const detect::SstGeometry& geometry,
                        const detect::Alarm& alarm,
                        const std::vector<double>& slice,
                        const std::vector<double>& scores) {
  const std::size_t half = geometry.half();
  const std::size_t window = geometry.window();
  std::size_t peak = alarm.first_window;
  for (std::size_t i = alarm.first_window; i < scores.size(); ++i) {
    if (scores[i] == alarm.peak_score) {
      peak = i;
      break;
    }
  }
  double factor = 0.0;
  if (peak + window <= slice.size()) {
    const std::vector<double> z = detect::standardize_window(
        std::span<const double>(slice.data() + peak, window), half);
    if (z.size() == window) {
      factor = detect::robust_score_factor(
          std::span<const double>(z.data(), half),
          std::span<const double>(z.data() + half, half));
    }
  }
  return factor;
}

// Append the batch-path journal event for one determination. The damp
// factor exists only inside assess_metric_with, so it rides in as an extra
// on top of the shared journal_event builder.
void emit_batch_event(const obs::Journal* journal,
                      const changes::SoftwareChange& change,
                      const ItemVerdict& verdict,
                      std::optional<double> damp_factor) {
  obs::JournalEvent event = journal_event(change, verdict, "batch");
  event.sst_damp_factor = damp_factor;
  journal->append(event);
}

}  // namespace

Funnel::Funnel(FunnelConfig config, const topology::ServiceTopology& topo,
               const changes::ChangeLog& log, const tsdb::MetricStore& store)
    : config_(config), topo_(topo), log_(log), store_(store) {
  if (ThreadPool::resolve_threads(config_.num_threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    pool_->set_stats(config_.stats);
  }
}

Funnel::~Funnel() = default;

AssessmentReport Funnel::assess(changes::ChangeId id) const {
  const obs::ScopedTimer total(config_.stats, "funnel.assess.total_us");
  const changes::SoftwareChange& change = log_.get(id);
  // Root of the assessment's span tree (child of the ambient span when
  // assess_window distributes changes over the pool). Every per-KPI span —
  // wherever its task runs — attaches under it via the ambient context.
  obs::Span trace_span(config_.tracer, "funnel.assess");
  if (trace_span.active()) {
    trace_span.attr("change.id", id);
    trace_span.attr("change.minute", change.time);
    trace_span.attr("change.service", std::string_view(change.service));
    trace_span.attr("change.mode", changes::to_string(change.mode));
  }
  AssessmentReport report;
  report.change_id = id;
  report.change_time = change.time;
  {
    const obs::ScopedTimer span(config_.stats,
                                "funnel.assess.impact_set_us");
    obs::Span trace("funnel.assess.impact_set");
    report.impact_set = identify_impact_set(change, topo_);
    if (trace.active()) {
      trace.attr("impact.tservers", report.impact_set.tservers.size());
      trace.attr("impact.cservers", report.impact_set.cservers.size());
      trace.attr("impact.affected_services",
                 report.impact_set.affected_services.size());
      trace.attr("impact.dark_launched",
                 static_cast<int>(report.impact_set.dark_launched));
    }
  }
  const std::vector<tsdb::MetricId> metrics =
      impact_metrics(report.impact_set, store_);
  if (trace_span.active()) trace_span.attr("impact.kpis", metrics.size());
  report.items.resize(metrics.size());
  if (pool_ == nullptr || metrics.size() < 2) {
    detect::IkaSst scorer(config_.geometry, sst_params(config_));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      report.items[i] =
          assess_metric_with(scorer, change, report.impact_set, metrics[i]);
    }
  } else {
    // One scorer per execution slot: the warm-start basis stays
    // thread-local, and assess_metric_with resets it before every KPI so a
    // slot's previous stream never bleeds into the next score.
    std::vector<detect::IkaSst> scorers(
        pool_->slots(), detect::IkaSst(config_.geometry, sst_params(config_)));
    pool_->parallel_for(
        0, metrics.size(), [&](std::size_t i, std::size_t slot) {
          report.items[i] = assess_metric_with(scorers[slot], change,
                                               report.impact_set, metrics[i]);
        });
  }
  if (config_.stats != nullptr) {
    // Report assembly: tally the delivered verdicts into the pipeline
    // counters. Telemetry reads the report; it never writes into it.
    const obs::ScopedTimer span(config_.stats, "funnel.assess.assemble_us");
    config_.stats->add("funnel.assess.changes_assessed");
    config_.stats->add("funnel.assess.kpis_scored", report.items.size());
    for (const ItemVerdict& v : report.items) {
      if (v.kpi_change_detected) {
        config_.stats->add("funnel.assess.alarms_raised");
      }
      config_.stats->add(std::string("funnel.assess.verdicts.") +
                         to_string(v.cause));
    }
  }
  return report;
}

std::vector<AssessmentReport> Funnel::assess_window(MinuteTime t0,
                                                    MinuteTime t1) const {
  const obs::ScopedTimer total(config_.stats,
                               "funnel.assess_window.total_us");
  // One span tree per batch: each assess() root becomes a child of this
  // span (directly serial, via the captured ambient context when the pool
  // distributes changes).
  obs::Span trace_span(config_.tracer, "funnel.assess_window");
  const std::vector<changes::ChangeId> ids = log_.in_window(t0, t1);
  if (trace_span.active()) {
    trace_span.attr("window.t0", t0);
    trace_span.attr("window.t1", t1);
    trace_span.attr("window.changes", ids.size());
  }
  std::vector<AssessmentReport> out(ids.size());
  if (pool_ == nullptr || ids.size() < 2) {
    for (std::size_t i = 0; i < ids.size(); ++i) out[i] = assess(ids[i]);
  } else {
    pool_->parallel_for(0, ids.size(), [&](std::size_t i, std::size_t) {
      out[i] = assess(ids[i]);
    });
  }
  if (config_.stats != nullptr) {
    config_.stats->add("funnel.assess_window.batches");
  }
  return out;
}

ItemVerdict Funnel::assess_metric(const changes::SoftwareChange& change,
                                  const ImpactSet& set,
                                  const tsdb::MetricId& metric) const {
  detect::IkaSst scorer(config_.geometry, sst_params(config_));
  return assess_metric_with(scorer, change, set, metric);
}

ItemVerdict Funnel::assess_metric_with(detect::IkaSst& scorer,
                                       const changes::SoftwareChange& change,
                                       const ImpactSet& set,
                                       const tsdb::MetricId& metric) const {
  // The scorer may have been warm-started on a different KPI stream; a
  // stale basis would silently change scores (and with them verdicts).
  scorer.reset();

  ItemVerdict verdict;
  verdict.metric = metric;

  // Journal sink for this determination (null or !ok() = zero cost). Like
  // stats and tracer it is a side channel: events describe the verdict, the
  // verdict never depends on them.
  const obs::Journal* journal = config_.journal;
  const bool journal_on = journal != nullptr && journal->ok();

  // Per-KPI provenance span. Runs on a pool worker in the parallel path;
  // the ambient context installed by parallel_for parents it under the
  // assess() root regardless of which thread executes the task.
  obs::Span trace_span(config_.tracer, "funnel.assess.kpi");
  if (trace_span.active()) {
    trace_span.attr("kpi.metric", metric.to_string());
  }

  const MinuteTime tc = change.time;
  const auto w = static_cast<MinuteTime>(scorer.window_size());

  // Copy the assessment window under the shard's reader lock; scoring then
  // runs lock-free, and concurrent ingestion cannot tear the read. The
  // quality report is computed once here, under the same lock, and rides
  // on the verdict from then on.
  MinuteTime t0 = 0;
  std::vector<double> slice;
  store_.read(metric, [&](const tsdb::TimeSeries& series) {
    t0 = std::max(series.start_time(), tc - config_.lookback);
    const MinuteTime t1 = std::min(series.end_time(), tc + config_.horizon);
    verdict.quality =
        tsdb::window_quality(series, t0, std::max(t0, t1));
    if (t1 - t0 >= w) slice = series.slice(t0, t1);
  });
  if (trace_span.active() && verdict.quality) {
    trace_span.attr("kpi.coverage", verdict.quality->coverage);
    trace_span.attr("kpi.gap_run", verdict.quality->longest_gap_run);
    trace_span.attr("kpi.flat_run", verdict.quality->longest_flat_run);
  }
  if (slice.empty()) {
    // Not enough data to score even one window: the KPI cannot be cleared,
    // so say so instead of delivering a silent "no change".
    mark_inconclusive(verdict, InconclusiveReason::kInsufficientPreWindow);
    if (trace_span.active()) {
      trace_span.attr("kpi.cause", to_string(verdict.cause));
      trace_span.attr("kpi.inconclusive_reason",
                      to_string(verdict.inconclusive_reason));
    }
    if (journal_on) emit_batch_event(journal, change, verdict, std::nullopt);
    return verdict;
  }

  // Per-KPI detection stage (runs on a pool worker in the parallel path —
  // the shard-per-thread registry absorbs the concurrent recording). The
  // span covers scoring + alarm scan only; determination has its own span.
  // Only an alarm raised at/after the deployment minute is attributable,
  // and the verdict rests on the first one: the DiD call, the damp factor
  // and the provenance read no score past its window, so the production
  // path stops scoring there, as the online detector latches on it. With
  // no such alarm the verdict reads no score at all, so the scan also
  // stops once no later window can complete a run.
  std::vector<double> scores;
  std::optional<detect::Alarm> alarm;
  {
    const obs::ScopedTimer span(config_.stats, "funnel.assess.sst_us");
    if (config_.sst_cascade) {
      // The gate must respect the live alarm policy: a window it suppresses
      // has to be provably unable to exceed exactly this threshold.
      const double threshold = config_.alarm.threshold;
      detect::CascadeCounters counters;
      alarm = detect::score_until_alarm(
          slice, scorer.window_size(), t0, config_.alarm, tc,
          [&](std::span<const double> window) {
            detect::GateDecision d = detect::GateDecision::kScored;
            const double s = scorer.score(window, threshold, &d);
            counters.record(d);
            return s;
          },
          scores);
      if (config_.stats != nullptr) {
        config_.stats->add("funnel.cascade.windows", counters.windows);
        config_.stats->add("funnel.cascade.scored", counters.scored);
        config_.stats->add("funnel.cascade.suppressed_variance",
                           counters.suppressed_variance);
        config_.stats->add("funnel.cascade.suppressed_bound",
                           counters.suppressed_bound);
        config_.stats->add("funnel.cascade.dirty", counters.dirty);
      }
      if (trace_span.active()) {
        trace_span.attr("cascade.windows", counters.windows);
        trace_span.attr("cascade.scored", counters.scored);
        trace_span.attr("cascade.suppressed_variance",
                        counters.suppressed_variance);
        trace_span.attr("cascade.suppressed_bound",
                        counters.suppressed_bound);
        trace_span.attr("cascade.dirty", counters.dirty);
      }
    } else {
      // The reference: every window scored, then the full alarm scan.
      scores = detect::score_series(scorer, slice);
      const std::vector<detect::Alarm> alarms = detect::all_alarms(
          scores, scorer.window_size(), t0, config_.alarm);
      const auto it = std::find_if(
          alarms.begin(), alarms.end(),
          [tc](const detect::Alarm& a) { return a.minute >= tc; });
      if (it != alarms.end()) alarm = *it;
    }
  }

  if (!alarm) {
    // "No alarm" is only a clean bill of health when the window was clean
    // enough to have caught one: NaN-containing windows score NaN, so a
    // gap can swallow exactly the shift we're looking for.
    if (verdict.quality != std::nullopt &&
        !verdict.quality->acceptable(config_.quality.min_coverage,
                                     config_.quality.max_gap_run,
                                     config_.quality.max_flat_run)) {
      mark_inconclusive(verdict, InconclusiveReason::kGapInDetectionWindow);
    }
    if (trace_span.active()) {
      trace_span.attr("kpi.cause", to_string(verdict.cause));
      if (verdict.cause == Cause::kInconclusive) {
        trace_span.attr("kpi.inconclusive_reason",
                        to_string(verdict.inconclusive_reason));
      }
    }
    if (journal_on) emit_batch_event(journal, change, verdict, std::nullopt);
    return verdict;
  }

  verdict.kpi_change_detected = true;
  verdict.alarm = alarm;
  if (trace_span.active()) {
    trace_sst_provenance(trace_span, *alarm, slice, scores, t0);
  }
  determine_cause(change, set, metric, config_.did_window, verdict);
  if (trace_span.active()) {
    trace_span.attr("kpi.cause", to_string(verdict.cause));
    if (verdict.cause == Cause::kInconclusive) {
      trace_span.attr("kpi.inconclusive_reason",
                      to_string(verdict.inconclusive_reason));
    }
  }
  if (journal_on) {
    emit_batch_event(journal, change, verdict,
                     peak_damp_factor(config_.geometry, *alarm, slice, scores));
  }
  return verdict;
}

void Funnel::trace_sst_provenance(obs::Span& span, const detect::Alarm& alarm,
                                  const std::vector<double>& slice,
                                  const std::vector<double>& scores,
                                  MinuteTime t0) const {
  span.attr("sst.peak_score", alarm.peak_score);
  span.attr("sst.alarm_minute", alarm.minute);
  span.attr("sst.first_window_minute",
            t0 + static_cast<MinuteTime>(alarm.first_window));
  span.attr("sst.threshold", config_.alarm.threshold);
  span.attr("sst.persistence", config_.alarm.persistence);
  span.attr("sst.omega", config_.geometry.omega);
  span.attr("sst.eta", config_.geometry.eta);
  span.attr("sst.krylov_k", config_.geometry.krylov_k());

  const double factor =
      peak_damp_factor(config_.geometry, alarm, slice, scores);
  span.attr("sst.damp_factor", factor);
  span.attr("sst.raw_score",
            factor > 0.0 ? alarm.peak_score / factor : 0.0);
}

void Funnel::determine_cause(const changes::SoftwareChange& change,
                             const ImpactSet& set,
                             const tsdb::MetricId& metric,
                             MinuteTime post_window,
                             ItemVerdict& verdict) const {
  const obs::ScopedTimer span(config_.stats, "funnel.assess.did_us");
  const MinuteTime tc = change.time;
  const auto omega = static_cast<std::size_t>(
      std::min<MinuteTime>(config_.did_window, post_window));

  // Fig. 3 step 4/7: affected-service KPIs never have control entities, and
  // Full Launching leaves none either -> compare against the KPI's own
  // history (§3.2.5). Otherwise compare treated vs control entities
  // (§3.2.4).
  bool historical = is_affected_service_metric(set, metric) ||
                    !set.dark_launched;
  verdict.used_historical_control = historical;

  // Causality provenance: which control group the verdict rests on, and the
  // fitted DiD numbers against their thresholds. Child of the per-KPI span
  // in batch, of the watch's determination span online.
  obs::Span trace_span(config_.tracer, "funnel.assess.determine");
  if (trace_span.active()) {
    trace_span.attr("did.control_kind",
                    historical ? "seasonal-window" : "dark-launch-siblings");
    trace_span.attr("did.window_min", omega);
    trace_span.attr("did.alpha_threshold", config_.did.alpha_threshold);
    trace_span.attr("did.t_threshold", config_.did.t_threshold);
    trace_span.attr("did.require_significance",
                    static_cast<int>(config_.did.require_significance));
  }

  try {
    // Graceful-degradation chain (docs/ROBUSTNESS.md): dark-launch DiD →
    // (control empty) historical fallback → (quorum/coverage failure)
    // kInconclusive with the machine-readable reason. Never a throw, never
    // a silent skip.
    did::DiDOutcome outcome;
    if (!historical) {
      const auto treated = treated_group_for(set, metric);
      const auto control = control_group_for(set, metric);
      outcome = did::did_dark_launch(store_, treated, control, tc, omega);
      if (outcome.status == did::DiDStatus::kEmptyTreatedGroup) {
        // The watched KPI itself has no clean windows around the change —
        // no control group can fix that.
        mark_inconclusive(verdict,
                          InconclusiveReason::kGapInDetectionWindow);
      } else if (outcome.status == did::DiDStatus::kEmptyControlGroup) {
        // §3.2.5 fallback: no usable sibling survived the telemetry, so
        // compare the KPI against its own seasonal history instead.
        historical = true;
        verdict.used_historical_control = true;
        verdict.used_fallback_control = true;
        if (trace_span.active()) {
          trace_span.attr("did.fallback_control", 1);
        }
      }
    }
    if (historical && verdict.cause != Cause::kInconclusive) {
      // Reader-locked: the online assessor runs this on the dispatcher
      // thread while producers append (docs/CONCURRENCY.md).
      outcome = store_.read(metric, [&](const tsdb::TimeSeries& s) {
        return did::did_historical(s, tc, omega, config_.baseline_days,
                                   config_.quality.historical_quorum);
      });
      switch (outcome.status) {
        case did::DiDStatus::kOk:
          break;
        case did::DiDStatus::kNoPreWindow:
          mark_inconclusive(verdict,
                            InconclusiveReason::kInsufficientPreWindow);
          break;
        case did::DiDStatus::kNoPostWindow:
          mark_inconclusive(verdict,
                            InconclusiveReason::kGapInDetectionWindow);
          break;
        default:
          mark_inconclusive(verdict,
                            InconclusiveReason::kHistoricalQuorumUnmet);
          break;
      }
      if (verdict.used_fallback_control &&
          verdict.cause == Cause::kInconclusive) {
        // Both ends of the chain failed: report the primary defect (the
        // §3.2.4 control group was empty); the historical sub-status is on
        // the did.historical trace span.
        verdict.inconclusive_reason = InconclusiveReason::kControlGroupEmpty;
      }
    }
    if (verdict.cause != Cause::kInconclusive) {
      const did::DiDResult& fit = outcome.fit;
      verdict.did_fit = fit;
      if (trace_span.active()) {
        trace_span.attr("did.alpha", fit.alpha);
        trace_span.attr("did.alpha_scaled", fit.alpha_scaled);
        trace_span.attr("did.t_stat", fit.t_stat);
        trace_span.attr("did.n_treated", fit.n_treated);
        trace_span.attr("did.n_control", fit.n_control);
      }
      if (did::caused_by_change(fit, config_.did)) {
        verdict.cause = Cause::kSoftwareChange;
      } else {
        verdict.cause =
            historical ? Cause::kSeasonality : Cause::kOtherFactors;
      }
    }
  } catch (const Error& e) {
    // Unexpected DiD failure (numerical, not a telemetry status): the KPI
    // change cannot be ruled out, so it is delivered to the operations team
    // as change-induced (conservative; the paper always delivers dubious
    // cases, §2.2).
    if (trace_span.active()) {
      trace_span.attr("did.error", std::string_view(e.what()));
    }
    verdict.cause = Cause::kSoftwareChange;
    verdict.inconclusive_reason = InconclusiveReason::kNone;
  }
  if (trace_span.active()) {
    trace_span.attr("did.cause", to_string(verdict.cause));
    if (verdict.cause == Cause::kInconclusive) {
      trace_span.attr("did.inconclusive_reason",
                      to_string(verdict.inconclusive_reason));
    }
  }
}

}  // namespace funnel::core
