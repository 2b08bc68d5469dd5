#include "detect/cascade.h"

#include <cmath>

#include "common/error.h"

namespace funnel::detect {

void CascadeCounters::record(GateDecision d) {
  ++windows;
  switch (d) {
    case GateDecision::kDirty:
      ++dirty;
      break;
    case GateDecision::kVarianceSuppressed:
      ++suppressed_variance;
      break;
    case GateDecision::kScored:
      ++scored;
      break;
  }
}

double cascade_score(IkaSst& scorer, std::span<const double> window,
                     const CascadeConfig& config, GateDecision& decision) {
  bool suppressed = false;
  const double s = scorer.score(window, config.sst_threshold, &suppressed);
  // IkaSst scores NaN exactly when the window holds non-finite samples.
  decision = suppressed      ? GateDecision::kVarianceSuppressed
             : std::isnan(s) ? GateDecision::kDirty
                             : GateDecision::kScored;
  return s;
}

std::vector<double> cascade_score_series(
    IkaSst& scorer, std::span<const double> series,
    const CascadeConfig& config, CascadeCounters* counters,
    std::vector<GateDecision>* decisions) {
  const std::size_t w = scorer.window_size();
  std::vector<double> out;
  if (decisions) decisions->clear();
  if (series.size() < w) return out;
  const std::size_t n = series.size() - w + 1;
  out.reserve(n);
  if (decisions) decisions->reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    GateDecision d;
    out.push_back(cascade_score(scorer, series.subspan(i, w), config, d));
    if (decisions) decisions->push_back(d);
    if (counters) counters->record(d);
  }
  return out;
}

CascadeGate::CascadeGate(std::unique_ptr<IkaSst> inner, CascadeConfig config)
    : inner_(std::move(inner)), config_(config) {
  FUNNEL_REQUIRE(inner_ != nullptr, "CascadeGate needs a scorer");
}

double CascadeGate::score(std::span<const double> window) {
  return inner_->score(window, config_.sst_threshold, nullptr);
}

}  // namespace funnel::detect
