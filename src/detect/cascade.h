// Pre-filter cascade: the production SST path (FunnelConfig::sst_cascade,
// on by default). It runs the full IKA-SST score only on windows that could
// alarm.
//
// The improved-SST score is
//   score = x̂ · factor,  x̂ = max(weighted/total, novelty_floor) ≤ 1,
// so the Eq. 11 damping factor `robust_score_factor` is a per-window upper
// bound on the score. A window whose factor is already ≤ the alarm
// threshold cannot produce an exceedance whatever the subspace terms do,
// so it scores 0 without the past-side Lanczos/QL work
// (IkaSst::score(window, threshold, suppressed)).
//
// The cascade is exact. The warm future sweep runs on every window,
// suppressed or not, so the scorer's basis evolves as under score(), and:
//   * a scored window returns bit for bit what the uncascaded scorer does;
//   * a suppressed window returns 0 where the uncascaded scorer returns a
//     value ≤ the threshold.
// The alarm hit test is `score > threshold`, so every alarm, peak score and
// verdict is byte-identical with the cascade on or off. `sst_cascade =
// false` stays only as the reference the tests compare against.
//
// The batch path exports gate decisions per window and tallies them in
// CascadeCounters (the assessor's funnel.cascade.* counters, which count
// the windows it scores: it stops at the verdict's alarm).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "detect/ika_sst.h"

namespace funnel::detect {

struct CascadeConfig {
  /// The alarm threshold the gate must respect: only windows that provably
  /// cannot exceed it are suppressed. Callers must keep this in sync with
  /// AlarmPolicy::threshold.
  double sst_threshold = 0.22;
};

/// Per-window outcome of the cascade.
enum class GateDecision : std::uint8_t {
  kDirty = 0,               ///< non-finite samples: NaN, only standardized
  kVarianceSuppressed = 1,  ///< factor ≤ threshold: 0, past side skipped
  kScored = 2,              ///< full IKA score ran
};

/// Tallies across one scoring run; aggregated into the stats registry by
/// the assessor (funnel.cascade.* counters).
struct CascadeCounters {
  std::uint64_t windows = 0;
  std::uint64_t scored = 0;
  std::uint64_t suppressed_variance = 0;
  std::uint64_t dirty = 0;

  /// Count one window's decision (every decision counts a window).
  void record(GateDecision d);
};

/// One window through the cascade: the score IkaSst::score(window,
/// config.sst_threshold, ...) gives it, and the gate's decision.
double cascade_score(IkaSst& scorer, std::span<const double> window,
                     const CascadeConfig& config, GateDecision& decision);

/// Batch scoring with the cascade: same shape as score_series (out[i] =
/// score of the window starting at sample i, NaN for dirty windows), with
/// suppressed windows scoring 0. Per-window decisions land in `decisions`
/// (resized to match) and tallies in `counters`; either may be null.
std::vector<double> cascade_score_series(IkaSst& scorer,
                                         std::span<const double> series,
                                         const CascadeConfig& config,
                                         CascadeCounters* counters,
                                         std::vector<GateDecision>* decisions);

/// ChangeScorer decorator for the online path: scores each window through
/// the owned IKA scorer's threshold-aware entry. Suppressed windows score
/// 0.0 — below any positive alarm threshold, so OnlineDetector treats them
/// exactly like the quiet windows they are.
class CascadeGate final : public ChangeScorer {
 public:
  CascadeGate(std::unique_ptr<IkaSst> inner, CascadeConfig config);

  std::size_t window_size() const override { return inner_->window_size(); }
  std::size_t change_offset() const override {
    return inner_->change_offset();
  }
  double score(std::span<const double> window) override;
  const char* name() const override { return "funnel-ika-sst+cascade"; }

 private:
  std::unique_ptr<IkaSst> inner_;
  CascadeConfig config_;
};

}  // namespace funnel::detect
