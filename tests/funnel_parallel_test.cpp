// Deterministic equivalence of the parallel batch assessment engine: over a
// seeded multi-service workload, assess_window must produce byte-identical
// serialized reports for num_threads 1 (today's serial path), 2 and 8 —
// scheduling must never show in the output — and for the SST cascade on
// (the default) or off (the reference path). Also pins down the
// engine-level guarantees the equivalence rests on: per-slot scorers are
// reset between KPI streams, and single-change assess matches the public
// assess_metric.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "evalkit/dataset.h"
#include "funnel/assessor.h"
#include "funnel/report_json.h"

namespace funnel {
namespace {

class ParallelEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    evalkit::DatasetParams p;
    p.seed = 2718;
    p.services = 3;
    p.servers_per_service = 4;
    p.treated_servers = 2;
    p.positive_changes = 4;
    p.negative_changes = 6;
    p.history_days = 4;
    p.confounder_probability = 0.4;
    ds_ = evalkit::build_dataset(p).release();
  }

  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }

  static core::FunnelConfig config(
      std::size_t threads, bool cascade = core::FunnelConfig{}.sst_cascade) {
    core::FunnelConfig cfg;
    cfg.baseline_days = 3;  // the short history has no 30-day baseline
    cfg.num_threads = threads;
    cfg.sst_cascade = cascade;
    return cfg;
  }

  static MinuteTime window_end() {
    MinuteTime last = 0;
    for (const auto& ch : ds_->log.all()) last = std::max(last, ch.time);
    return last + 1;
  }

  /// The full window's reports, serialized — the byte-level artifact the
  /// operations team (and this test) compares.
  static std::string rendered_reports(
      std::size_t threads, bool cascade = core::FunnelConfig{}.sst_cascade) {
    const core::Funnel funnel(config(threads, cascade), ds_->topo,
                              ds_->log, ds_->store);
    std::string out;
    for (const core::AssessmentReport& r :
         funnel.assess_window(0, window_end())) {
      out += core::to_json(r);
      out += '\n';
    }
    return out;
  }

  static evalkit::EvalDataset* ds_;
};

evalkit::EvalDataset* ParallelEquivalence::ds_ = nullptr;

TEST_F(ParallelEquivalence, AssessWindowIsByteIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(core::FunnelConfig{}.sst_cascade);  // the production default
  const std::string serial = rendered_reports(1);
  ASSERT_FALSE(serial.empty());
  // A real workload, not a degenerate one: some change must carry impact.
  EXPECT_NE(serial.find("\"change_has_impact\":true"), std::string::npos);
  EXPECT_EQ(serial, rendered_reports(2)) << "2 threads diverged from serial";
  EXPECT_EQ(serial, rendered_reports(8)) << "8 threads diverged from serial";
}

TEST_F(ParallelEquivalence, RepeatedParallelRunsAreStable) {
  // Scheduling varies run to run; the bytes must not.
  EXPECT_EQ(rendered_reports(8), rendered_reports(8));
}

// The cascade is exact: suppressed windows still advance the warm basis,
// scored windows match the uncascaded scorer bit for bit, and suppressed
// ones cannot exceed the threshold — so every report, peak score included,
// is byte-identical to the uncascaded reference, serial or parallel.
TEST_F(ParallelEquivalence, CascadeOnAndOffRenderIdenticalReports) {
  const std::string reference = rendered_reports(1, /*cascade=*/false);
  ASSERT_FALSE(reference.empty());
  EXPECT_NE(reference.find("\"change_has_impact\":true"), std::string::npos);
  EXPECT_EQ(reference, rendered_reports(1, true)) << "serial cascade diverged";
  EXPECT_EQ(reference, rendered_reports(4, true))
      << "parallel cascade diverged";
}

TEST_F(ParallelEquivalence, SingleChangeAssessMatchesAcrossThreadCounts) {
  const core::Funnel serial(config(1), ds_->topo, ds_->log, ds_->store);
  const core::Funnel parallel(config(4), ds_->topo, ds_->log, ds_->store);
  for (const auto& ch : ds_->log.all()) {
    EXPECT_EQ(core::to_json(serial.assess(ch.id)),
              core::to_json(parallel.assess(ch.id)))
        << "change " << ch.id;
  }
}

TEST_F(ParallelEquivalence, ParallelItemsStayInImpactMetricOrder) {
  // Slot-indexed writes: item order must equal impact_metrics order, never
  // completion order.
  const core::Funnel parallel(config(8), ds_->topo, ds_->log, ds_->store);
  for (const auto& ch : ds_->log.all()) {
    const core::AssessmentReport r = parallel.assess(ch.id);
    const std::vector<tsdb::MetricId> expected =
        core::impact_metrics(r.impact_set, ds_->store);
    ASSERT_EQ(r.items.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(r.items[i].metric, expected[i]);
    }
  }
}

}  // namespace
}  // namespace funnel
