// Tests for the evaluation kit: confusion metrics, the labeled dataset
// builder, and the method evaluators.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "detect/improved_sst.h"
#include "evalkit/dataset.h"
#include "evalkit/evaluate.h"
#include "evalkit/metrics.h"

namespace funnel::evalkit {
namespace {

TEST(ConfusionMatrix, AddAndRates) {
  ConfusionMatrix cm;
  cm.add(true, true);    // tp
  cm.add(true, false);   // fn
  cm.add(false, true);   // fp
  cm.add(false, false);  // tn
  cm.add(false, false);  // tn
  EXPECT_EQ(cm.tp, 1u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.tn, 2u);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.5);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.5);
  EXPECT_DOUBLE_EQ(cm.tnr(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 3.0 / 5.0);
  EXPECT_EQ(cm.total(), 5u);
}

TEST(ConfusionMatrix, WeightsAndScaling) {
  ConfusionMatrix cm;
  cm.add(false, false, 86);  // the §4.2.1 extrapolation weight
  cm.add(true, true);
  EXPECT_EQ(cm.tn, 86u);
  const ConfusionMatrix s = cm.scaled(2);
  EXPECT_EQ(s.tn, 172u);
  EXPECT_EQ(s.tp, 2u);
}

TEST(ConfusionMatrix, DegenerateDenominators) {
  ConfusionMatrix empty;
  EXPECT_DOUBLE_EQ(empty.precision(), 1.0);
  EXPECT_DOUBLE_EQ(empty.recall(), 1.0);
  EXPECT_DOUBLE_EQ(empty.tnr(), 1.0);
  EXPECT_DOUBLE_EQ(empty.accuracy(), 0.0);
}

TEST(ConfusionMatrix, Accumulate) {
  ConfusionMatrix a, b;
  a.add(true, true);
  b.add(false, true);
  a += b;
  EXPECT_EQ(a.tp, 1u);
  EXPECT_EQ(a.fp, 1u);
  EXPECT_NE(a.to_string().find("fp=1"), std::string::npos);
}

TEST(KpiSchema, ClassesAndNames) {
  EXPECT_EQ(kpi_class_of("page_view_count"), tsdb::KpiClass::kSeasonal);
  EXPECT_EQ(kpi_class_of("cpu_context_switch"), tsdb::KpiClass::kVariable);
  EXPECT_EQ(kpi_class_of("response_delay"), tsdb::KpiClass::kVariable);
  EXPECT_EQ(kpi_class_of("memory_utilization"), tsdb::KpiClass::kStationary);
  EXPECT_EQ(kpi_class_of("error_count"), tsdb::KpiClass::kStationary);
  EXPECT_EQ(server_kpi_names().size(), 2u);
  EXPECT_EQ(instance_kpi_names().size(), 3u);
  for (const auto& k : server_kpi_names()) EXPECT_GT(kpi_noise_sigma(k), 0.0);
}

DatasetParams tiny_params() {
  DatasetParams p;
  p.seed = 11;
  p.services = 3;
  p.servers_per_service = 4;
  p.treated_servers = 2;
  p.positive_changes = 2;
  p.negative_changes = 2;
  p.history_days = 2;
  p.confounder_probability = 0.5;
  return p;
}

TEST(Dataset, BuildsConsistentStructure) {
  const auto ds = build_dataset(tiny_params());
  EXPECT_EQ(ds->topo.service_count(), 3u);
  EXPECT_EQ(ds->topo.server_count(), 12u);
  EXPECT_EQ(ds->log.size(), 4u);
  EXPECT_EQ(ds->positive_change_ids.size(), 2u);
  EXPECT_EQ(ds->negative_change_ids.size(), 2u);
  EXPECT_FALSE(ds->items.empty());
  EXPECT_EQ(ds->change_day_start, 2 * kMinutesPerDay);

  // Every change has items and every item's metric exists in the store.
  for (const ItemTruth& item : ds->items) {
    EXPECT_TRUE(ds->store.has(item.metric)) << item.metric.to_string();
    EXPECT_EQ(item.kpi_class, kpi_class_of(item.metric.kpi));
  }
}

TEST(Dataset, PositiveChangesHaveInducedItemsNegativesDoNot) {
  const auto ds = build_dataset(tiny_params());
  for (changes::ChangeId id : ds->positive_change_ids) {
    int induced = 0;
    for (const ItemTruth& item : ds->items) {
      if (item.change_id == id && item.change_induced) ++induced;
    }
    EXPECT_GT(induced, 0) << "positive change " << id;
    EXPECT_TRUE(ds->is_positive_change(id));
  }
  for (changes::ChangeId id : ds->negative_change_ids) {
    for (const ItemTruth& item : ds->items) {
      if (item.change_id == id) {
        EXPECT_FALSE(item.change_induced);
      }
    }
    EXPECT_FALSE(ds->is_positive_change(id));
  }
}

TEST(Dataset, DeterministicForSeed) {
  const auto a = build_dataset(tiny_params());
  const auto b = build_dataset(tiny_params());
  ASSERT_EQ(a->items.size(), b->items.size());
  for (std::size_t i = 0; i < a->items.size(); ++i) {
    EXPECT_EQ(a->items[i].metric, b->items[i].metric);
    EXPECT_EQ(a->items[i].change_induced, b->items[i].change_induced);
  }
  // Sample data identical too.
  const auto& m = a->items.front().metric;
  EXPECT_EQ(a->store.series(m).slice(0, 100), b->store.series(m).slice(0, 100));
}

TEST(Dataset, ServiceKpiIsInstanceAggregation) {
  const auto ds = build_dataset(tiny_params());
  const std::string svc = ds->topo.services().front();
  const std::string kpi = instance_kpi_names().front();
  const auto& svc_series = ds->store.series(tsdb::service_metric(svc, kpi));
  const auto instances = ds->topo.instances_of(svc);
  for (MinuteTime t : {MinuteTime{100}, MinuteTime{2000}}) {
    double acc = 0.0;
    for (const auto& inst : instances) {
      acc += ds->store.series(tsdb::instance_metric(inst, kpi)).at(t);
    }
    EXPECT_NEAR(svc_series.at(t), acc / static_cast<double>(instances.size()),
                1e-9);
  }
}

TEST(Dataset, ChangesAreScheduledInsideTheHorizon) {
  const auto ds = build_dataset(tiny_params());
  for (const auto& ch : ds->log.all()) {
    EXPECT_GE(ch.time, ds->change_day_start);
    const auto& any_series = ds->store.series(ds->items.front().metric);
    EXPECT_LE(ch.time + 60, any_series.end_time());
  }
}

TEST(Dataset, ValidatesParams) {
  DatasetParams bad = tiny_params();
  bad.treated_servers = bad.servers_per_service;
  EXPECT_THROW((void)build_dataset(bad), InvalidArgument);
  bad = tiny_params();
  bad.services = 0;
  EXPECT_THROW((void)build_dataset(bad), InvalidArgument);
}

TEST(Evaluate, DetectorProtocolCountsEveryItem) {
  const auto ds = build_dataset(tiny_params());
  DetectorSpec spec;
  spec.name = "improved-sst";
  spec.make_scorer = [] {
    return std::make_unique<detect::ImprovedSst>(
        detect::SstGeometry{.omega = 9, .eta = 3});
  };
  spec.policy = {.threshold = 0.4, .persistence = 7};
  const MethodResult r = evaluate_detector(*ds, spec);
  EXPECT_EQ(r.method, "improved-sst");
  EXPECT_EQ(r.total().total(), ds->items.size());
  // Detection-only methods catch most injected effects.
  EXPECT_GT(r.total().recall(), 0.5);
}

TEST(Evaluate, NegativeScaleWeighsNegativeChangeItems) {
  const auto ds = build_dataset(tiny_params());
  DetectorSpec spec;
  spec.name = "x";
  spec.make_scorer = [] {
    return std::make_unique<detect::ImprovedSst>(
        detect::SstGeometry{.omega = 9, .eta = 3});
  };
  spec.policy = {.threshold = 0.4, .persistence = 7};
  const MethodResult unscaled = evaluate_detector(*ds, spec, 60, 60, 1);
  const MethodResult scaled = evaluate_detector(*ds, spec, 60, 60, 86);
  std::uint64_t neg_items = 0;
  for (const ItemTruth& item : ds->items) {
    if (!ds->is_positive_change(item.change_id)) ++neg_items;
  }
  EXPECT_EQ(scaled.total().total(),
            unscaled.total().total() + neg_items * 85);
}

TEST(Evaluate, FunnelBeatsDetectorOnlyPrecision) {
  // With confounders present, FUNNEL's DiD must reject non-change causes
  // that the raw detector flags.
  DatasetParams p = tiny_params();
  p.confounder_probability = 1.0;
  const auto ds = build_dataset(p);

  DetectorSpec spec;
  spec.name = "improved-sst";
  spec.make_scorer = [] {
    return std::make_unique<detect::ImprovedSst>(
        detect::SstGeometry{.omega = 9, .eta = 3});
  };
  spec.policy = {.threshold = 0.4, .persistence = 7};
  const MethodResult detector = evaluate_detector(*ds, spec);

  core::FunnelConfig cfg;
  cfg.baseline_days = 1;
  const MethodResult funnel = evaluate_funnel(*ds, cfg);
  EXPECT_EQ(funnel.total().total(), ds->items.size());
  EXPECT_GE(funnel.total().precision(), detector.total().precision());
  EXPECT_LE(funnel.total().fp, detector.total().fp);
}

TEST(Evaluate, CoresForKpisMatchesPaperArithmetic) {
  // Table 2, last row: 401.8 µs -> 7 cores, 1.846 ms -> 31 cores for one
  // million KPIs scored once a minute.
  EXPECT_EQ(cores_for_kpis(401.8), 7u);
  EXPECT_EQ(cores_for_kpis(1846.0), 31u);
  EXPECT_EQ(cores_for_kpis(2.852e6), 47534u);
  EXPECT_EQ(cores_for_kpis(0.0), 0u);
}

TEST(Evaluate, MeanScoreMicrosIsPositive) {
  detect::ImprovedSst scorer(detect::SstGeometry{.omega = 5, .eta = 3});
  std::vector<double> series(200);
  Rng rng(3);
  for (double& x : series) x = rng.gaussian(50.0, 1.0);
  const double us = mean_score_micros(scorer, series, 200);
  EXPECT_GT(us, 0.0);
  EXPECT_LT(us, 1e5);
}

}  // namespace
}  // namespace funnel::evalkit
