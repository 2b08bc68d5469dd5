// Guard-rail for the production SST scorer: the default warm-started IKA
// scorer must stay highly correlated with the exact-SVD ImprovedSst
// reference on every KPI class. The acceptance bar is Pearson correlation
// >= 0.92 — the same fidelity standard the ablation bench
// (ablation_ika_fidelity) reports for the IKA path. Measured: 0.969
// seasonal, 0.975 stationary, 0.983 variable. A regression here means the
// warm-start recurrence or the Krylov read-out drifted from the Eq. 13
// subspace it approximates.
#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "detect/ika_sst.h"
#include "detect/improved_sst.h"
#include "detect/sliding.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::detect {
namespace {

constexpr SstGeometry kGeom{.omega = 9, .eta = 3};
constexpr double kMinCorrelation = 0.92;

// Finite-pair correlation: windows either scorer NaNs are excluded (both
// NaN the same windows — asserted by detect_sst_warmstart_test).
double finite_correlation(std::span<const double> a,
                          std::span<const double> b) {
  std::vector<double> fa, fb;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isfinite(a[i]) && std::isfinite(b[i])) {
      fa.push_back(a[i]);
      fb.push_back(b[i]);
    }
  }
  return correlation(fa, fb);
}

class WarmScorerFidelity : public ::testing::TestWithParam<tsdb::KpiClass> {};

TEST_P(WarmScorerFidelity, CorrelatesWithExactSvdAboveBar) {
  const tsdb::KpiClass cls = GetParam();
  const int c = static_cast<int>(cls);

  // The ablation workload: a KPI with a level shift and a later ramp, so
  // the score trajectory has structure to correlate over (a flat all-zero
  // score vector has no defined correlation).
  workload::KpiStream s(
      workload::make_default(cls, Rng(10 + static_cast<std::uint64_t>(c))));
  s.add_effect(workload::LevelShift{200, 8.0});
  s.add_effect(workload::Ramp{400, 430, -6.0});
  const std::vector<double> series = workload::render(s, 0, 520);

  ImprovedSst exact(kGeom);
  IkaSst warm(kGeom);

  const auto se = score_series(exact, series);
  const auto sw = score_series(warm, series);
  ASSERT_EQ(se.size(), sw.size());

  const double corr = finite_correlation(se, sw);
  EXPECT_GE(corr, kMinCorrelation)
      << "warm IKA fidelity regressed on " << tsdb::to_string(cls);
}

INSTANTIATE_TEST_SUITE_P(AllKpiClasses, WarmScorerFidelity,
                         ::testing::Values(tsdb::KpiClass::kSeasonal,
                                           tsdb::KpiClass::kStationary,
                                           tsdb::KpiClass::kVariable));

}  // namespace
}  // namespace funnel::detect
