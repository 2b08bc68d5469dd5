#include "detect/cascade.h"

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
    case GateDecision::kBoundSuppressed:
      ++suppressed_bound;
      break;
    case GateDecision::kScored:
      ++scored;
      break;
  }
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
    GateDecision d = GateDecision::kScored;
    out.push_back(
        scorer.score(series.subspan(i, w), config.sst_threshold, &d));
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
