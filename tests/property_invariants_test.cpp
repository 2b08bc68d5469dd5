// Cross-module property sweeps: randomized topologies and panels must
// satisfy structural invariants regardless of the draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "detect/cascade.h"
#include "detect/ika_sst.h"
#include "detect/sliding.h"
#include "did/did.h"
#include "funnel/impact_set.h"
#include "tsdb/series.h"
#include "workload/faults.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel {
namespace {

// ---- Impact-set invariants over random topologies and changes. ----

struct RandomDeployment {
  topology::ServiceTopology topo;
  changes::ChangeLog log;
  std::vector<changes::ChangeId> ids;
};

RandomDeployment random_deployment(std::uint64_t seed) {
  Rng rng(seed);
  RandomDeployment d;
  const int services = static_cast<int>(rng.uniform_int(2, 6));
  for (int s = 0; s < services; ++s) {
    const std::string svc = "s" + std::to_string(s);
    const int servers = static_cast<int>(rng.uniform_int(2, 7));
    for (int v = 0; v < servers; ++v) {
      d.topo.add_server(svc, svc + "-h" + std::to_string(v));
    }
  }
  // Random sparse relations.
  for (int a = 0; a < services; ++a) {
    for (int b = a + 1; b < services; ++b) {
      if (rng.bernoulli(0.3)) {
        d.topo.add_relation("s" + std::to_string(a), "s" + std::to_string(b));
      }
    }
  }
  // One change per service, dark or full.
  for (int s = 0; s < services; ++s) {
    const std::string svc = "s" + std::to_string(s);
    const auto& servers = d.topo.servers_of(svc);
    changes::SoftwareChange ch;
    ch.service = svc;
    ch.time = 1000 + 200 * s;
    if (servers.size() >= 2 && rng.bernoulli(0.7)) {
      ch.mode = changes::LaunchMode::kDark;
      const auto treated = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(servers.size()) - 1));
      ch.servers.assign(servers.begin(),
                        servers.begin() + static_cast<std::ptrdiff_t>(treated));
    } else {
      ch.mode = changes::LaunchMode::kFull;
      ch.servers = servers;
    }
    d.ids.push_back(d.log.record(ch, d.topo));
  }
  return d;
}

class ImpactSetInvariants : public ::testing::TestWithParam<int> {};

TEST_P(ImpactSetInvariants, PartitionAndClosureProperties) {
  const RandomDeployment d =
      random_deployment(static_cast<std::uint64_t>(GetParam()));
  for (changes::ChangeId id : d.ids) {
    const auto& ch = d.log.get(id);
    const core::ImpactSet set = core::identify_impact_set(ch, d.topo);

    // tservers + cservers partition the service's servers exactly.
    std::set<std::string> all(set.tservers.begin(), set.tservers.end());
    for (const auto& s : set.cservers) {
      EXPECT_TRUE(all.insert(s).second) << "server in both groups: " << s;
    }
    const auto& owned = d.topo.servers_of(ch.service);
    EXPECT_EQ(all.size(), owned.size());

    // Instances mirror servers 1:1 in both groups.
    EXPECT_EQ(set.tinstances.size(), set.tservers.size());
    EXPECT_EQ(set.cinstances.size(), set.cservers.size());
    for (const auto& inst : set.tinstances) {
      EXPECT_EQ(topology::parse_instance_name(inst).first, ch.service);
    }

    // Affected services: never contains the changed service; every member
    // is reachable, and membership is symmetric (if A affects B, a change
    // on B affects A).
    for (const auto& svc : set.affected_services) {
      EXPECT_NE(svc, ch.service);
      const auto back = d.topo.affected_services(svc);
      EXPECT_TRUE(std::find(back.begin(), back.end(), ch.service) !=
                  back.end())
          << svc << " not symmetric with " << ch.service;
    }

    // Launch-mode consistency.
    EXPECT_EQ(set.dark_launched, ch.dark_launched());
    EXPECT_EQ(set.has_control_group(), ch.dark_launched());

    // Group derivation: treated/control metric lists are disjoint and stay
    // within the changed service's entities.
    const tsdb::MetricId probe =
        tsdb::server_metric(set.tservers.front(), "cpu");
    const auto treated = core::treated_group_for(set, probe);
    const auto control = core::control_group_for(set, probe);
    std::set<tsdb::MetricId> seen(treated.begin(), treated.end());
    for (const auto& m : control) {
      EXPECT_TRUE(seen.insert(m).second);
    }
    EXPECT_EQ(treated.size() + control.size(), owned.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImpactSetInvariants, ::testing::Range(1, 13));

// ---- DiD estimator properties over random panels. ----

class DidProperties : public ::testing::TestWithParam<int> {};

TEST_P(DidProperties, EstimatorInvariances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131u);
  const auto nt = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto nc = static_cast<std::size_t>(rng.uniform_int(2, 12));
  const double effect = rng.uniform(-10.0, 10.0);

  std::vector<double> tp(nt), to(nt), cp(nc), co(nc);
  for (std::size_t i = 0; i < nt; ++i) {
    tp[i] = rng.gaussian(50.0, 2.0);
    to[i] = tp[i] + effect + rng.gaussian(0.0, 0.5);
  }
  for (std::size_t i = 0; i < nc; ++i) {
    cp[i] = rng.gaussian(50.0, 2.0);
    co[i] = cp[i] + rng.gaussian(0.0, 0.5);
  }
  const did::DiDResult base = did::did_from_groups(tp, to, cp, co);
  EXPECT_NEAR(base.alpha, effect, 2.0);
  EXPECT_EQ(base.n_treated, nt);
  EXPECT_EQ(base.n_control, nc);

  // Location invariance: adding a constant to every observation leaves
  // alpha unchanged.
  auto shifted = [&](const std::vector<double>& v) {
    std::vector<double> out = v;
    for (double& x : out) x += 1000.0;
    return out;
  };
  const did::DiDResult moved = did::did_from_groups(
      shifted(tp), shifted(to), shifted(cp), shifted(co));
  EXPECT_NEAR(moved.alpha, base.alpha, 1e-9);
  EXPECT_NEAR(moved.std_error, base.std_error, 1e-9);

  // Scale equivariance: scaling all data by c scales alpha by c and leaves
  // the t statistic unchanged.
  auto scaled = [&](const std::vector<double>& v) {
    std::vector<double> out = v;
    for (double& x : out) x *= 3.0;
    return out;
  };
  const did::DiDResult sc =
      did::did_from_groups(scaled(tp), scaled(to), scaled(cp), scaled(co));
  EXPECT_NEAR(sc.alpha, 3.0 * base.alpha, 1e-9);
  if (base.std_error > 0.0) {
    EXPECT_NEAR(sc.t_stat, base.t_stat, 1e-6);
  }

  // A common post-period shock on both groups cancels exactly.
  auto bumped = [&](const std::vector<double>& v) {
    std::vector<double> out = v;
    for (double& x : out) x += 77.0;
    return out;
  };
  const did::DiDResult common =
      did::did_from_groups(tp, bumped(to), cp, bumped(co));
  EXPECT_NEAR(common.alpha, base.alpha, 1e-9);

  // Swapping the roles negates alpha.
  const did::DiDResult swapped = did::did_from_groups(cp, co, tp, to);
  EXPECT_NEAR(swapped.alpha, -base.alpha, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DidProperties, ::testing::Range(1, 16));

// ---- Cascade exactness over workload classes × fault specs. ----
//
// The pre-filter cascade is the production SST path and must agree with
// the uncascaded warm scorer on every window: a scored window bit for bit,
// a suppressed one with 0 where the full score is ≤ the threshold (the
// Eq. 11 factor bounds the score, and so does the past side's bound on its
// unread directions, so only such windows may be suppressed). The gates
// sit after the warm future sweep, so the basis evolves the same either
// way; this sweep is what would catch a gate that skipped it.

struct CascadeCase {
  tsdb::KpiClass cls;
  const char* fault_spec;  ///< empty = clean telemetry
  std::uint64_t seed = 427;
  double shift = 8.0;  ///< level shift at minute 300
  double step = 0.0;   ///< > 0: each value becomes round(value / step)
};

constexpr detect::SstGeometry kCascadeGeometry{.omega = 9, .eta = 3};

// An 8-sigma shift plus a ramp back guarantees genuinely alarming windows
// in every class; faults then chew holes in the telemetry.
std::vector<double> render_case(const CascadeCase& c) {
  workload::KpiStream s(workload::make_default(c.cls, Rng(c.seed)));
  s.add_effect(workload::LevelShift{300, c.shift});
  s.add_effect(workload::Ramp{420, 460, -5.0});
  std::vector<double> series = workload::render(s, 0, 520);
  if (c.step > 0.0) {
    for (double& v : series) v = std::round(v / c.step);
  }
  if (c.fault_spec[0] != '\0') {
    tsdb::TimeSeries ts(0, series);
    workload::FaultInjector inj(workload::parse_fault_spec(c.fault_spec), 19);
    const tsdb::TimeSeries dirty = workload::apply_faults(ts, inj);
    const auto dv = dirty.values();
    series.assign(dv.begin(), dv.end());
  }
  return series;
}

class CascadeSoundness : public ::testing::TestWithParam<CascadeCase> {};

TEST_P(CascadeSoundness, CascadeMatchesFullScorerOnEveryWindow) {
  const CascadeCase c = GetParam();
  const detect::CascadeConfig config;  // threshold 0.22
  const std::vector<double> series = render_case(c);

  // The reference is the warm IKA scorer on every window; the cascaded run
  // is a second one through the cascade.
  detect::IkaSst full(kCascadeGeometry);
  const auto scores = detect::score_series(full, series);
  detect::IkaSst gated(kCascadeGeometry);
  std::vector<detect::GateDecision> decisions;
  const auto cascaded = detect::cascade_score_series(gated, series, config,
                                                     nullptr, &decisions);
  ASSERT_EQ(cascaded.size(), scores.size());
  ASSERT_EQ(decisions.size(), scores.size());

  std::size_t alarming = 0;
  std::size_t suppressed = 0;
  std::size_t bound_suppressed = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const detect::GateDecision decision = decisions[i];

    // Dirty windows are exactly the NaN-scoring ones, on both paths.
    ASSERT_EQ(decision == detect::GateDecision::kDirty, std::isnan(scores[i]))
        << "window " << i;
    ASSERT_EQ(std::isnan(cascaded[i]), std::isnan(scores[i]))
        << "window " << i;
    if (std::isnan(scores[i])) continue;

    if (scores[i] > config.sst_threshold) ++alarming;
    if (decision == detect::GateDecision::kBoundSuppressed) ++bound_suppressed;
    if (decision == detect::GateDecision::kVarianceSuppressed ||
        decision == detect::GateDecision::kBoundSuppressed) {
      ++suppressed;
      EXPECT_EQ(cascaded[i], 0.0) << "window " << i;
      EXPECT_LE(scores[i], config.sst_threshold)
          << "window " << i << " scores " << scores[i]
          << " but the cascade suppressed it";
    } else {
      EXPECT_EQ(std::memcmp(&cascaded[i], &scores[i], sizeof(double)), 0)
          << "window " << i << ": cascaded " << cascaded[i] << " vs full "
          << scores[i];
    }
  }
  // The sweep is vacuous unless the workload both alarms and suppresses,
  // by both gates (the integer-valued case leaves the bound none to take).
  EXPECT_GT(alarming, 0u);
  EXPECT_GT(suppressed, bound_suppressed);
  if (c.step == 0.0) {
    EXPECT_GT(bound_suppressed, 0u);
  }
}

const CascadeCase kCascadeCases[] = {
    CascadeCase{tsdb::KpiClass::kStationary, ""},
    CascadeCase{tsdb::KpiClass::kSeasonal, ""},
    CascadeCase{tsdb::KpiClass::kVariable, ""},
    CascadeCase{tsdb::KpiClass::kStationary, "nan=0.02x4"},
    CascadeCase{tsdb::KpiClass::kSeasonal, "nan=0.02x4"},
    CascadeCase{tsdb::KpiClass::kVariable, "nan=0.02x4"},
    CascadeCase{tsdb::KpiClass::kStationary, "drop=0.05"},
    CascadeCase{tsdb::KpiClass::kSeasonal, "drop=0.05"},
    CascadeCase{tsdb::KpiClass::kVariable, "drop=0.05"},
    CascadeCase{tsdb::KpiClass::kStationary, "stuck=0.01x8"},
    CascadeCase{tsdb::KpiClass::kSeasonal, "stuck=0.01x8"},
    CascadeCase{tsdb::KpiClass::kVariable, "stuck=0.01x8"},
    CascadeCase{tsdb::KpiClass::kStationary,
                "drop=0.03,nan=0.01x4,stuck=0.005x8"},
    CascadeCase{tsdb::KpiClass::kSeasonal,
                "drop=0.03,nan=0.01x4,stuck=0.005x8"},
    CascadeCase{tsdb::KpiClass::kVariable,
                "drop=0.03,nan=0.01x4,stuck=0.005x8"},
    // Integer-valued telemetry: window 381's future half holds two
    // nonzero standardized samples, so the third future direction
    // collapses to a zero column while rounding leaves its Ritz value
    // positive. The full scorer must stop at that column, not seed
    // Lanczos with a zero vector (which throws).
    CascadeCase{tsdb::KpiClass::kStationary, "", 8, 6.0, 4.0},
};

INSTANTIATE_TEST_SUITE_P(ClassesByFaults, CascadeSoundness,
                         ::testing::ValuesIn(kCascadeCases));

// ---- The batch assessor's early stop over the same sweep. ----
//
// The assessor scores a KPI's windows in order and stops at the first
// alarm at or after the change (score_until_alarm). That must be exactly
// the alarm the full scan picks, the first all_alarms() alarm with
// minute >= the change over cascade_score_series(), and the scores it
// computed must be that series' prefix bit for bit: the damp factor and
// the trace provenance read them. `from` runs over minute 0, every alarm
// minute (an alarm exactly at `from`, after earlier ones re-armed the
// scan), the minute after each (the run re-fires into a later alarm) and
// past the last (no alarm). With no alarm the scan stops once no later
// window can complete a run; quiet_stop() restates that rule over the
// reference scores.

// Windows score_until_alarm scores when no alarm at or after `from` fires
// (every one of `alarms`, all_alarms() over `scores`, fires before it):
// after window i the scan ends once the hits in [n − patience, i] since the
// last re-arm, plus the n − 1 − i windows still to come, fall short of the
// persistence.
std::size_t quiet_stop(const std::vector<double>& scores,
                       const std::vector<detect::Alarm>& alarms,
                       std::size_t w, const detect::AlarmPolicy& policy) {
  const std::size_t n = scores.size();
  const std::size_t patience = policy.effective_patience();
  const std::size_t tail = n > patience ? n - patience : 0;
  std::size_t counted_from = 0;  // a re-arm forgets every earlier hit
  auto next = alarms.begin();
  for (std::size_t i = 0; i < n; ++i) {
    if (next != alarms.end() &&
        static_cast<std::size_t>(next->minute) + 1 == i + w) {
      counted_from = i + 1;
      ++next;
    }
    std::size_t hits = 0;
    for (std::size_t j = std::max(tail, counted_from); j <= i; ++j) {
      if (std::isfinite(scores[j]) && scores[j] > policy.threshold) ++hits;
    }
    if (hits + (n - 1 - i) < policy.persistence) return i + 1;
  }
  return n;
}

class EarlyStopExactness : public ::testing::TestWithParam<CascadeCase> {};

TEST_P(EarlyStopExactness, FirstAlarmFromMatchesFullScan) {
  const std::vector<double> series = render_case(GetParam());
  const detect::CascadeConfig config;  // threshold 0.22
  detect::IkaSst full(kCascadeGeometry);
  const std::size_t w = full.window_size();
  const std::vector<double> reference =
      detect::cascade_score_series(full, series, config, nullptr, nullptr);

  // FUNNEL's 7-in-10 rule, plus shorter ones that still alarm, and re-arm,
  // between the NaN gaps of the dirtiest feeds.
  std::size_t rearmed = 0;
  std::size_t tail_stopped = 0;
  for (const detect::AlarmPolicy policy :
       {detect::AlarmPolicy{.threshold = config.sst_threshold,
                            .persistence = 7,
                            .patience = 10},
        detect::AlarmPolicy{.threshold = config.sst_threshold,
                            .persistence = 2,
                            .patience = 3},
        detect::AlarmPolicy{.threshold = config.sst_threshold,
                            .persistence = 1}}) {
    const std::vector<detect::Alarm> alarms =
        detect::all_alarms(reference, w, 0, policy);
    std::vector<MinuteTime> froms{0};
    for (const detect::Alarm& a : alarms) {
      froms.push_back(a.minute);
      froms.push_back(a.minute + 1);
    }
    for (const MinuteTime from : froms) {
      SCOPED_TRACE(::testing::Message() << "persistence "
                                        << policy.persistence << ", from "
                                        << from);
      detect::IkaSst scorer(kCascadeGeometry);
      detect::CascadeCounters counters;
      std::vector<double> scores;
      const auto alarm = detect::score_until_alarm(
          series, w, 0, policy, from,
          [&](std::span<const double> window) {
            detect::GateDecision d = detect::GateDecision::kScored;
            const double s = scorer.score(window, config.sst_threshold, &d);
            counters.record(d);
            return s;
          },
          scores);
      const auto it = std::find_if(
          alarms.begin(), alarms.end(),
          [from](const detect::Alarm& a) { return a.minute >= from; });
      ASSERT_EQ(alarm.has_value(), it != alarms.end());
      const std::size_t stop =
          alarm ? static_cast<std::size_t>(alarm->minute) - w + 2
                : quiet_stop(reference, alarms, w, policy);
      if (!alarm && stop < reference.size()) ++tail_stopped;
      if (alarm) {
        EXPECT_EQ(alarm->minute, it->minute);
        EXPECT_EQ(alarm->first_window, it->first_window);
        EXPECT_EQ(std::memcmp(&alarm->peak_score, &it->peak_score,
                              sizeof(double)),
                  0);
        if (it != alarms.begin()) ++rearmed;
      }
      ASSERT_EQ(scores.size(), stop);
      EXPECT_EQ(counters.windows, stop);
      EXPECT_EQ(
          std::memcmp(scores.data(), reference.data(), stop * sizeof(double)),
          0);
    }
  }
  // The sweep is vacuous unless earlier alarms re-armed the scan and some
  // quiet tail went unscored.
  EXPECT_GT(rearmed, 0u);
  EXPECT_GT(tail_stopped, 0u);
}

INSTANTIATE_TEST_SUITE_P(ClassesByFaults, EarlyStopExactness,
                         ::testing::ValuesIn(kCascadeCases));

}  // namespace
}  // namespace funnel
