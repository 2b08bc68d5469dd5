// Pre-filter cascade: cheap first-stage gates in front of the full IKA-SST
// score, so the expensive Krylov work runs only on candidate windows.
//
// Stage 0 — variance gate (provably sound). The improved-SST score is
//   score = x̂ · factor,  x̂ = max(weighted/total, novelty_floor) ≤ 1,
// so the Eq. 11 damping factor `robust_score_factor` is a per-window upper
// bound on the score. A window whose factor is already ≤ the alarm
// threshold cannot produce an exceedance no matter what the subspace terms
// do — suppressing it (score := 0) can never drop an alarm. The factor
// costs two medians and two MADs, orders of magnitude less than the
// eigen-iterations it replaces.
//
// Stage 1 — CUSUM gate (empirical, conservative). Windows that survive the
// variance gate carry a super-threshold level difference; the raw two-sided
// max-CUSUM statistic of the standardized future half (no bootstrap — the
// MERCURY bootstrap costs more than IKA itself) accumulates that difference
// within a couple of samples. A window whose max-CUSUM stays below a small
// floor is suppressed. The cascade-soundness property in
// property_invariants_test sweeps workload classes × fault specs to check
// this gate never suppresses a window the full path alarms on.
//
// Week-over-week force gate (batch path only). WoW comparisons need a full
// season of history, and a seasonal KPI reverting to last week's level can
// legitimately trip the full score while looking quiet locally — so WoW is
// wired in the *promoting* direction only: a large robust z vs one season
// earlier forces the window to be scored even if the other gates would
// suppress it. Gates may only add work, never drop alarms.
//
// Gate decisions are exported per window (for trace/provenance attrs) and
// tallied in CascadeCounters (for the stats registry).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/minute_time.h"
#include "detect/ika_sst.h"

namespace funnel::detect {

struct CascadeConfig {
  /// The alarm threshold the gates must respect: only windows that provably
  /// (stage 0) or plausibly (stage 1) cannot exceed it are suppressed.
  /// Callers must keep this in sync with AlarmPolicy::threshold.
  double sst_threshold = 0.22;
  /// Raw two-sided max-CUSUM floor (accumulated-sigma units) below which a
  /// variance-gate survivor is still suppressed. Small on purpose: recall
  /// first, speed second.
  double cusum_min = 0.25;
  /// CUSUM drift allowance k, matching CusumParams::slack.
  double cusum_slack = 0.5;
  /// Season for the week-over-week force gate; 0 disables it (e.g. for KPIs
  /// younger than one season). Batch scoring only.
  MinuteTime wow_season = 0;
  /// Robust z vs one season earlier at which WoW forces scoring.
  double wow_force = 3.0;
};

/// Per-window outcome of the cascade, in trace/provenance order.
enum class GateDecision : std::uint8_t {
  kDirty = 0,               ///< non-finite samples: NaN, nothing ran
  kVarianceSuppressed = 1,  ///< stage 0: factor ≤ threshold (sound)
  kCusumSuppressed = 2,     ///< stage 1: max-CUSUM below floor
  kForcedByWow = 3,         ///< gates said suppress, WoW overrode: scored
  kScored = 4,              ///< full IKA score ran
};

const char* to_string(GateDecision d);

/// Tallies across one scoring run; aggregated into the stats registry by
/// the assessor (funnel.cascade.* counters).
struct CascadeCounters {
  std::uint64_t windows = 0;
  std::uint64_t scored = 0;  ///< includes wow_forced
  std::uint64_t suppressed_variance = 0;
  std::uint64_t suppressed_cusum = 0;
  std::uint64_t wow_forced = 0;
  std::uint64_t dirty = 0;

  /// Count one window's decision: every decision counts a window, and
  /// kForcedByWow counts as both wow_forced and scored.
  void record(GateDecision d);
  CascadeCounters& operator+=(const CascadeCounters& o);
};

/// Window-local gate check shared by the batch and online paths: returns
/// the decision for one window (never kForcedByWow/kScored distinction —
/// it reports kScored whenever the gates pass). Cheap: standardization +
/// two medians/MADs (+ one CUSUM pass for variance-gate survivors).
GateDecision gate_window(std::span<const double> window,
                         const SstGeometry& geometry,
                         const CascadeConfig& config);

/// Batch scoring with the cascade in front: same shape as score_series
/// (out[i] = score of the window starting at sample i) but suppressed
/// windows score 0.0 without touching the IKA scorer, dirty windows score
/// NaN, and the WoW force gate can override a suppression when wow_season
/// is set. Per-window decisions land in `decisions` (resized to match) and
/// tallies in `counters`; either may be null.
std::vector<double> cascade_score_series(IkaSst& scorer,
                                         std::span<const double> series,
                                         const CascadeConfig& config,
                                         CascadeCounters* counters,
                                         std::vector<GateDecision>* decisions);

/// ChangeScorer decorator for the online path: gates each window before
/// delegating to the owned IKA scorer. The WoW force gate does not apply
/// (a W-sample window carries no season of history); only the window-local
/// gates run. Suppressed windows score 0.0 — below any positive alarm
/// threshold, so OnlineDetector treats them exactly like quiet windows.
class CascadeGate final : public ChangeScorer {
 public:
  CascadeGate(std::unique_ptr<IkaSst> inner, CascadeConfig config,
              CascadeCounters* counters = nullptr);

  std::size_t window_size() const override { return inner_->window_size(); }
  std::size_t change_offset() const override {
    return inner_->change_offset();
  }
  double score(std::span<const double> window) override;
  const char* name() const override { return "funnel-ika-sst+cascade"; }

  IkaSst& inner() { return *inner_; }
  GateDecision last_decision() const { return last_decision_; }
  void reset() { inner_->reset(); }

 private:
  std::unique_ptr<IkaSst> inner_;
  CascadeConfig config_;
  CascadeCounters* counters_;  ///< optional, not owned
  GateDecision last_decision_ = GateDecision::kScored;
};

}  // namespace funnel::detect
