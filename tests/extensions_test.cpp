// Tests for the extension surface: alarm episode grouping and JSON report
// export.
#include <cmath>
#include <gtest/gtest.h>

#include "common/error.h"
#include "detect/sliding.h"
#include "funnel/report_json.h"

namespace funnel {
namespace {

TEST(AlarmEpisodes, MergesRefiresKeepsSeparateEpisodes) {
  std::vector<detect::Alarm> alarms;
  for (MinuteTime m : {100, 107, 114, 121, 300, 307}) {
    detect::Alarm a;
    a.minute = m;
    a.peak_score = static_cast<double>(m) / 100.0;
    alarms.push_back(a);
  }
  const auto episodes = detect::alarm_episodes(alarms, 30);
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].minute, 100);
  EXPECT_DOUBLE_EQ(episodes[0].peak_score, 1.21);  // max of the chain
  EXPECT_EQ(episodes[1].minute, 300);
}

TEST(AlarmEpisodes, LongChainStaysOneEpisode) {
  // Re-fires every 7 minutes for two hours: one episode, however long.
  std::vector<detect::Alarm> alarms;
  for (MinuteTime m = 0; m < 120; m += 7) {
    detect::Alarm a;
    a.minute = m;
    alarms.push_back(a);
  }
  EXPECT_EQ(detect::alarm_episodes(alarms, 30).size(), 1u);
  EXPECT_THROW((void)detect::alarm_episodes(alarms, 0), InvalidArgument);
  EXPECT_TRUE(detect::alarm_episodes({}, 30).empty());
}

TEST(ReportJson, SerializesVerdictAndReport) {
  core::AssessmentReport report;
  report.change_id = 7;
  report.change_time = 1234;
  report.impact_set.changed_service = "svc \"quoted\"";
  report.impact_set.dark_launched = true;

  core::ItemVerdict v;
  v.metric = tsdb::server_metric("web-1", "cpu");
  v.kpi_change_detected = true;
  v.cause = core::Cause::kSoftwareChange;
  detect::Alarm alarm;
  alarm.minute = 1240;
  alarm.peak_score = 2.5;
  v.alarm = alarm;
  did::DiDResult fit;
  fit.alpha = 4.5;
  fit.alpha_scaled = 4.0;
  fit.t_stat = 10.0;
  fit.n_treated = 2;
  fit.n_control = 3;
  v.did_fit = fit;
  report.items.push_back(v);

  const std::string json = core::to_json(report);
  EXPECT_NE(json.find("\"change_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"changed_service\":\"svc \\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cause\":\"software-change\""), std::string::npos);
  EXPECT_NE(json.find("\"minute\":1240"), std::string::npos);
  EXPECT_NE(json.find("\"n_control\":3"), std::string::npos);
  EXPECT_NE(json.find("\"change_has_impact\":true"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ReportJson, NonFiniteNumbersBecomeNull) {
  core::ItemVerdict v;
  v.metric = tsdb::server_metric("w", "cpu");
  did::DiDResult fit;
  fit.alpha = std::nan("");
  v.did_fit = fit;
  const std::string json = core::to_json(v);
  EXPECT_NE(json.find("\"alpha\":null"), std::string::npos);
}

}  // namespace
}  // namespace funnel
