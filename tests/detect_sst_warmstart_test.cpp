// Differential suite for the production SST scorer: the warm-started
// default IkaSst vs per-window cold restarts of the same scorer, plus the
// bit-exactness contract of the blocked Hankel kernel it runs on.
//
// The locked-down invariants:
//   * HankelGramOperator::apply_block is bit-identical to column-at-a-time
//     apply().
//   * A warm-started scorer tracks a scorer cold-restarted before every
//     window within a per-window tolerance, and the final alarm verdicts
//     are byte-identical over the seed corpora and chaos-faulted series.
//     (Fidelity against the exact SVD scorer is guarded separately by
//     detect_sst_fidelity_test's correlation floor.)
//   * Retargeting a warm scorer onto an unrelated series (no reset())
//     re-converges instead of poisoning scores.
//   * reset() fully clears warm state: score, reset, re-score is
//     byte-identical (the ThreadPool per-slot reuse contract).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "detect/ika_sst.h"
#include "detect/sliding.h"
#include "detect/sst_common.h"
#include "linalg/hankel.h"
#include "tsdb/series.h"
#include "workload/faults.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::detect {
namespace {

constexpr SstGeometry kGeom{.omega = 9, .eta = 3};

std::vector<double> class_series(tsdb::KpiClass cls, std::uint64_t seed,
                                 MinuteTime len, double shift = 0.0,
                                 MinuteTime tc = 0) {
  workload::KpiStream s(workload::make_default(cls, Rng(seed)));
  if (shift != 0.0) s.add_effect(workload::LevelShift{tc, shift});
  return workload::render(s, 0, len);
}

// ---------------------------------------------------------------------------
// Blocked Hankel kernel: bit-exactness vs column-at-a-time apply().
// ---------------------------------------------------------------------------

TEST(HankelBlockKernel, ApplyBlockBitIdenticalToApply) {
  Rng rng(314);
  const std::size_t omega = 9, count = 9, cols = 3;
  std::vector<double> window(linalg::hankel_span(omega, count));
  for (double& v : window) v = rng.gaussian(0.0, 3.0);
  const linalg::HankelGramOperator op(window, omega, count);

  std::vector<double> x(omega * cols);
  for (double& v : x) v = rng.gaussian(0.0, 1.0);

  // Column-at-a-time apply().
  std::vector<double> expected(omega * cols);
  std::vector<double> xi(omega), yi(omega);
  for (std::size_t b = 0; b < cols; ++b) {
    for (std::size_t i = 0; i < omega; ++i) xi[i] = x[i * cols + b];
    op.apply(xi, yi);
    for (std::size_t i = 0; i < omega; ++i) expected[i * cols + b] = yi[i];
  }

  std::vector<double> y(omega * cols);
  std::vector<double> scratch(op.count() * cols);
  op.apply_block(x, y, cols, scratch);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(y[i], expected[i]) << "apply_block diverged at " << i;
  }
}

// ---------------------------------------------------------------------------
// Warm vs cold: tolerance-bounded scores, byte-identical verdicts.
// ---------------------------------------------------------------------------

struct Corpus {
  tsdb::KpiClass cls;
  std::uint64_t seed;
  double shift;  ///< level shift at minute 300 (0 = clean)
};

// Warm-vs-cold differential: the default scorer run warm-started across
// the series must match the same scorer cold-restarted before every
// window — tolerance-bounded per window and with byte-identical alarm
// verdicts.
//
// The drift scale: score = x̂ · factor (Eq. 11) with x̂ ∈ [0.25, 1] and a
// factor the warm and cold runs share exactly (it depends only on the
// window), so warm-vs-cold drift is x̂-level drift stretched by the
// factor. The bound below is therefore relative to max(1, factor).
constexpr double kWarmDriftTolerance = 0.45;

// Eq. 11 damping factor of one window, recomputed the way the scorer does.
double window_factor(std::span<const double> window) {
  const std::vector<double> z = standardize_window(window, kGeom.half());
  if (z.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::span<const double> zs(z);
  return robust_score_factor(zs.subspan(0, kGeom.half()),
                             zs.subspan(kGeom.half(), kGeom.half()));
}

class WarmColdDifferential : public ::testing::TestWithParam<Corpus> {};

TEST_P(WarmColdDifferential, DriftBoundedAndVerdictsByteIdentical) {
  const Corpus c = GetParam();
  const std::vector<double> series =
      class_series(c.cls, c.seed, 520, c.shift, 300);

  IkaSst warm(kGeom);
  IkaSst cold(kGeom);
  const std::size_t w = kGeom.window();
  const auto span = std::span<const double>(series);
  std::vector<double> sw, sc;
  for (std::size_t i = 0; i + w <= series.size(); ++i) {
    sw.push_back(warm.score(span.subspan(i, w)));
    cold.reset();
    sc.push_back(cold.score(span.subspan(i, w)));
  }

  // Per-window: NaN patterns identical, finite scores within tolerance.
  for (std::size_t i = 0; i < sw.size(); ++i) {
    ASSERT_EQ(std::isnan(sw[i]), std::isnan(sc[i])) << "window " << i;
    if (std::isnan(sw[i])) continue;
    const double factor = window_factor(span.subspan(i, w));
    EXPECT_NEAR(sw[i], sc[i], kWarmDriftTolerance * std::max(1.0, factor))
        << "window " << i;
  }

  // Final verdicts: the alarm sets must be byte-identical under the
  // library alarm policy.
  const AlarmPolicy policy{.threshold = 0.22, .persistence = 7,
                           .patience = 10};
  const auto aw = all_alarms(sw, w, 0, policy);
  const auto ac = all_alarms(sc, w, 0, policy);
  ASSERT_EQ(aw.size(), ac.size());
  for (std::size_t i = 0; i < aw.size(); ++i) {
    EXPECT_EQ(aw[i].minute, ac[i].minute);
    EXPECT_EQ(aw[i].first_window, ac[i].first_window);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedCorpora, WarmColdDifferential,
    ::testing::Values(
        Corpus{tsdb::KpiClass::kStationary, 11, 0.0},
        Corpus{tsdb::KpiClass::kStationary, 11, 8.0},
        Corpus{tsdb::KpiClass::kStationary, 23, 8.0},
        Corpus{tsdb::KpiClass::kSeasonal, 31, 0.0},
        Corpus{tsdb::KpiClass::kSeasonal, 31, 8.0},
        Corpus{tsdb::KpiClass::kVariable, 53, 0.0},
        Corpus{tsdb::KpiClass::kVariable, 53, 8.0},
        Corpus{tsdb::KpiClass::kVariable, 61, 8.0}));

// On some variable-class series warm and cold runs disagree on *re-fire*
// timing: during a sustained exceedance the policy re-alarms every
// `persistence` windows, so one near-threshold score flip shifts every
// later re-fire in that episode by a window or two. The verdicts that
// matter — how many alarms and episodes, and when each episode starts —
// must still agree. Seed 47 is a measured instance: 6 alarms in 4 episodes
// on both sides, but the second episode starts one minute earlier under
// the warm scorer than under per-window cold restarts (minute 326 vs 327
// at shift 0, 328 vs 329 at shift 8), so onsets are held to one minute.
TEST(WarmColdDifferential, RefireJitterNeverChangesEpisodes) {
  for (const double shift : {0.0, 8.0}) {
    const std::vector<double> series =
        class_series(tsdb::KpiClass::kVariable, 47, 520, shift, 300);
    IkaSst warm(kGeom);
    IkaSst cold(kGeom);
    const std::size_t w = kGeom.window();
    const auto span = std::span<const double>(series);
    std::vector<double> sw, sc;
    for (std::size_t i = 0; i + w <= series.size(); ++i) {
      sw.push_back(warm.score(span.subspan(i, w)));
      cold.reset();
      sc.push_back(cold.score(span.subspan(i, w)));
    }
    for (std::size_t i = 0; i < sw.size(); ++i) {
      ASSERT_EQ(std::isnan(sw[i]), std::isnan(sc[i])) << "window " << i;
      if (std::isnan(sw[i])) continue;
      const double factor = window_factor(span.subspan(i, w));
      EXPECT_NEAR(sw[i], sc[i], kWarmDriftTolerance * std::max(1.0, factor))
          << "window " << i;
    }
    const AlarmPolicy policy{.threshold = 0.22, .persistence = 7,
                             .patience = 10};
    const auto aw = all_alarms(sw, w, 0, policy);
    const auto ac = all_alarms(sc, w, 0, policy);
    EXPECT_EQ(aw.size(), ac.size()) << "shift " << shift;
    const auto ew = alarm_episodes(aw, 30);
    const auto ec = alarm_episodes(ac, 30);
    ASSERT_EQ(ew.size(), ec.size()) << "shift " << shift;
    for (std::size_t i = 0; i < ew.size(); ++i) {
      EXPECT_LE(std::abs(ew[i].minute - ec[i].minute), 1)
          << "shift " << shift << " episode " << i << ": warm onset "
          << ew[i].minute << " vs cold " << ec[i].minute;
    }
  }
}

// The fault-injection chaos grid, replayed through the default scorer:
// faulted telemetry (NaN bursts, stuck-at runs, drops reconciled to NaN
// gaps) must keep the warm-vs-cold drift bound and byte-identical alarm
// verdicts — NaN gaps interrupt the warm recurrence mid-series, and the
// warm basis has to pick the stream back up on the far side.
TEST(WarmScorerChaos, FaultedSeriesVerdictsByteIdentical) {
  const char* kSpecs[] = {
      "nan=0.02x4",
      "drop=0.05",
      "stuck=0.01x8",
      "drop=0.03,nan=0.01x4,stuck=0.005x8",
  };
  for (const char* spec_str : kSpecs) {
    const workload::FaultSpec spec = workload::parse_fault_spec(spec_str);
    const std::vector<double> clean =
        class_series(tsdb::KpiClass::kStationary, 5, 520, 8.0, 300);
    tsdb::TimeSeries clean_ts(0, clean);
    workload::FaultInjector inj(spec, 99);
    const tsdb::TimeSeries dirty = workload::apply_faults(clean_ts, inj);
    const auto series = dirty.values();

    IkaSst warm(kGeom);
    IkaSst cold(kGeom);
    const std::size_t w = kGeom.window();
    const auto span = std::span<const double>(series);
    std::vector<double> sw, sc;
    for (std::size_t i = 0; i + w <= series.size(); ++i) {
      sw.push_back(warm.score(span.subspan(i, w)));
      cold.reset();
      sc.push_back(cold.score(span.subspan(i, w)));
    }
    for (std::size_t i = 0; i < sw.size(); ++i) {
      ASSERT_EQ(std::isnan(sw[i]), std::isnan(sc[i]))
          << spec_str << " window " << i;
      if (std::isnan(sw[i])) continue;
      const double factor = window_factor(span.subspan(i, w));
      EXPECT_NEAR(sw[i], sc[i], kWarmDriftTolerance * std::max(1.0, factor))
          << spec_str << " window " << i;
    }

    const AlarmPolicy policy{.threshold = 0.22, .persistence = 7,
                             .patience = 10};
    const auto aw = all_alarms(sw, w, 0, policy);
    const auto ac = all_alarms(sc, w, 0, policy);
    ASSERT_EQ(aw.size(), ac.size()) << spec_str;
    for (std::size_t i = 0; i < aw.size(); ++i) {
      EXPECT_EQ(aw[i].minute, ac[i].minute) << spec_str;
      EXPECT_EQ(aw[i].first_window, ac[i].first_window) << spec_str;
    }
  }
}

// ---------------------------------------------------------------------------
// Warm-state lifecycle.
// ---------------------------------------------------------------------------

// Regression: pointing a warm scorer at an unrelated series without
// reset() must re-converge, not poison subsequent scores.
TEST(WarmStartLifecycle, RetargetWithoutResetReconverges) {
  const std::vector<double> a =
      class_series(tsdb::KpiClass::kStationary, 3, 300);
  const std::vector<double> b =
      class_series(tsdb::KpiClass::kVariable, 91, 300, 8.0, 150);

  IkaSst retargeted(kGeom);
  const std::size_t w = kGeom.window();
  const auto sa = std::span<const double>(a);
  for (std::size_t i = 0; i + w <= a.size(); ++i) {
    (void)retargeted.score(sa.subspan(i, w));  // warm up on series A
  }

  IkaSst fresh(kGeom);
  const auto sb = std::span<const double>(b);
  const std::size_t burn_in = 5;  // warm sweeps re-converge within a few windows
  for (std::size_t i = 0; i + w <= b.size(); ++i) {
    const double stale = retargeted.score(sb.subspan(i, w));
    const double clean = fresh.score(sb.subspan(i, w));
    ASSERT_EQ(std::isnan(stale), std::isnan(clean)) << "window " << i;
    if (std::isnan(stale)) continue;
    EXPECT_TRUE(std::isfinite(stale)) << "window " << i;
    if (i >= burn_in) {
      EXPECT_NEAR(stale, clean, 0.12) << "window " << i;
    }
  }
}

// reset() must clear every piece of warm state: a reset scorer replays the
// series byte-for-byte (the ThreadPool per-slot reuse contract).
TEST(WarmStartLifecycle, ResetReplaysByteIdentical) {
  const std::vector<double> series =
      class_series(tsdb::KpiClass::kVariable, 13, 260, 8.0, 130);
  IkaSst warm(kGeom);
  const auto first = score_series(warm, series);
  warm.reset();
  const auto second = score_series(warm, series);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (std::isnan(first[i])) {
      EXPECT_TRUE(std::isnan(second[i])) << "window " << i;
    } else {
      EXPECT_EQ(first[i], second[i]) << "window " << i;
    }
  }
}

}  // namespace
}  // namespace funnel::detect
