// Tests for the CSV serialization of series.
#include "tsdb/io.h"

#include <cmath>
#include <gtest/gtest.h>
#include <sstream>

#include "common/error.h"

namespace funnel::tsdb {
namespace {

TEST(SeriesCsv, RoundTrip) {
  TimeSeries s(100, {1.5, 2.5, 3.5});
  std::ostringstream out;
  write_series_csv(out, s);
  std::istringstream in(out.str());
  const TimeSeries back = read_series_csv(in);
  EXPECT_EQ(back.start_time(), 100);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_DOUBLE_EQ(back.at(101), 2.5);
}

TEST(SeriesCsv, GapsRoundTripAsNan) {
  TimeSeries s(0, {1.0, std::nan(""), 3.0});
  std::ostringstream out;
  write_series_csv(out, s);
  std::istringstream in(out.str());
  const TimeSeries back = read_series_csv(in);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(std::isnan(back.at(1)));
  EXPECT_DOUBLE_EQ(back.at(2), 3.0);
}

TEST(SeriesCsv, ParsesWithoutHeaderAndWithComments) {
  std::istringstream in("# exported KPI\n5,1.0\n6,2.0\n\n8,4.0\n");
  const TimeSeries s = read_series_csv(in);
  EXPECT_EQ(s.start_time(), 5);
  EXPECT_EQ(s.size(), 4u);      // minute 7 filled as a gap
  EXPECT_TRUE(std::isnan(s.at(7)));
  EXPECT_DOUBLE_EQ(s.at(8), 4.0);
}

TEST(SeriesCsv, AcceptsNanLiteralAndCrLf) {
  std::istringstream in("minute,value\r\n0,1.0\r\n1,nan\r\n");
  const TimeSeries s = read_series_csv(in);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_TRUE(std::isnan(s.at(1)));
}

TEST(SeriesCsv, RejectsMalformedRows) {
  {
    std::istringstream in("0,1.0,extra\n");
    EXPECT_THROW((void)read_series_csv(in), InvalidArgument);
  }
  {
    std::istringstream in("zero,1.0\n");
    EXPECT_THROW((void)read_series_csv(in), InvalidArgument);
  }
  {
    std::istringstream in("0,not-a-number\n");
    EXPECT_THROW((void)read_series_csv(in), InvalidArgument);
  }
  {
    std::istringstream in("5,1.0\n4,1.0\n");  // decreasing minutes
    EXPECT_THROW((void)read_series_csv(in), InvalidArgument);
  }
  // A minute must parse whole: trailing junk, a fraction, a blank or an
  // exponent is a bad minute, reported on its line.
  for (const std::string minute : {"2abc", "3.9", " 5", "1e1"}) {
    std::istringstream in("0,1.0\n" + minute + ",2.0\n");
    try {
      (void)read_series_csv(in);
      ADD_FAILURE() << "minute '" << minute << "' was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("CSV line 2: bad minute '" + minute + "'"),
                std::string::npos)
          << what;
    }
  }
}

TEST(SeriesCsv, RejectsDuplicateMinuteWithLineDiagnostic) {
  // A serialized series re-visiting a minute is a corrupt export, and the
  // diagnostic must name the exact line and failure mode — "fix row 3"
  // beats "something is wrong somewhere in 40k rows".
  std::istringstream in("minute,value\n0,1.0\n1,2.0\n1,2.5\n");
  try {
    (void)read_series_csv(in);
    FAIL() << "duplicate minute must throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate minute 1"), std::string::npos) << what;
  }
}

TEST(SeriesCsv, RejectsBackwardsMinuteWithLineDiagnostic) {
  std::istringstream in("10,1.0\n11,2.0\n7,3.0\n");
  try {
    (void)read_series_csv(in);
    FAIL() << "backwards minute must throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("backwards to 7"), std::string::npos) << what;
    EXPECT_NE(what.find("last was 11"), std::string::npos) << what;
  }
}

TEST(SeriesCsv, EmptyInputGivesEmptySeries) {
  std::istringstream in("minute,value\n");
  EXPECT_TRUE(read_series_csv(in).empty());
}

TEST(SeriesCsv, FileErrorsThrowNotFound) {
  EXPECT_THROW((void)load_series_csv("/no/such/dir/x.csv"), NotFound);
  EXPECT_THROW(save_series_csv("/no/such/dir/x.csv", TimeSeries(0)),
               NotFound);
}

}  // namespace
}  // namespace funnel::tsdb
