// Tests for Rng, string helpers (parse_decimal against strtod), the table
// printer and the minute-time model.
#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>

#include "common/error.h"
#include "common/minute_time.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"

namespace funnel {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(1, 3));
  EXPECT_EQ(seen, (std::set<std::int64_t>{1, 2, 3}));
}

TEST(Rng, GaussianMoments) {
  Rng rng(5);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.gaussian(3.0, 2.0);
  EXPECT_NEAR(mean(xs), 3.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(8);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.exponential(0.5);
  EXPECT_NEAR(mean(xs), 2.0, 0.1);
}

TEST(Rng, HeavyTailedHasHeavierTailsThanGaussian) {
  Rng rng(9);
  int extreme_t = 0, extreme_g = 0;
  for (int i = 0; i < 20000; ++i) {
    if (std::abs(rng.heavy_tailed(3.0)) > 4.0) ++extreme_t;
    if (std::abs(rng.gaussian()) > 4.0) ++extreme_g;
  }
  EXPECT_GT(extreme_t, extreme_g * 3);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(10);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  // Children differ from each other.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.uniform() == c2.uniform()) ++same;
  }
  EXPECT_EQ(same, 0);
  // Split is deterministic: rebuilding the parent rebuilds the children.
  Rng parent2(10);
  Rng c1b = parent2.split();
  EXPECT_DOUBLE_EQ(Rng(10).split().uniform(), c1b.uniform());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Strings, SplitBasics) {
  EXPECT_EQ(split("a.b.c", '.'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("abc", '.'), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(".a", '.'), (std::vector<std::string>{"", "a"}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::string s = "search.web.frontend";
  EXPECT_EQ(join(split(s, '.'), "."), s);
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"x"}, "."), "x");
}

TEST(Strings, Formatting) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_percent(0.99884, 2), "99.88%");
  EXPECT_EQ(format_percent(1.0, 1), "100.0%");
}

// What parse_decimal() must agree with: std::strtod over the whole text,
// rejecting no conversion, trailing bytes and ERANGE.
bool strtod_reference(const std::string& text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || end != text.c_str() + text.size() ||
      errno == ERANGE) {
    return false;
  }
  out = v;
  return true;
}

void expect_parse_like_strtod(const std::string& text) {
  double want = 0.0;
  double got = 0.0;
  const bool want_ok = strtod_reference(text, want);
  ASSERT_EQ(parse_decimal(text, got), want_ok) << '"' << text << '"';
  if (want_ok) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << '"' << text << "\" got " << got << " want " << want;
  }
}

TEST(Strings, ParseDecimalBoundaries) {
  const char* const cases[] = {
      // 15 significant digits take the fast path, 16 go to strtod.
      "123456789012345", "1234567890123456", "999999999999999",
      "9999999999999999", "9007199254740993", "0.000123456789012345",
      "-12345678901234.5", "1234567890.12345", "1234567890.123456",
      // 22 fraction digits take the fast path, 23 go to strtod.
      "0.0000000000000000000001", "0.00000000000000000000001",
      "0.1234567890123400000000", "-0.0000000123456789012345",
      "0.00000001234567890123456",
      // Signs, points and zeros.
      "-0", "0", "-0.0", "0.000", "000000000000000000000000001", "1.", ".5",
      "0000000000000000000.0000000", "-00000000000000000000",
      "00000000000000000000123456789012345.1",
      "-.5", "-1.", ".", "-", "-.", "", "+1", "+.5", "--1", "1..2", "1.2.3",
      // What only strtod reads.
      " 1", "\t2.5", "1e3", "1E-3", "1e", "0x10", "0x1p3", "inf", "-inf",
      "Infinity", "nan", "NaN", "nan(1)", "-nan",
      // Out of range (ERANGE): overflow, and underflow to zero or a
      // subnormal.
      "1e400", "-1e400", "1e-400", "4.9e-324", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "1.7976931348623157e308",
      // Trailing and embedded junk.
      "1 ", "1,5", "12.5abc", "1\n",
      "1" "000000000000000000000000000000000000000000000000000000000000000000"
      "00000000"};
  for (const char* text : cases) expect_parse_like_strtod(text);
  expect_parse_like_strtod(std::string("1\0" "5", 3));  // embedded NUL

  double v = 0.0;
  ASSERT_TRUE(parse_decimal("-0", v));
  EXPECT_TRUE(std::signbit(v));
  EXPECT_EQ(v, 0.0);
  v = 7.0;
  EXPECT_FALSE(parse_decimal("1e400", v));
  EXPECT_EQ(v, 7.0);  // untouched after a false
}

// One million generated texts, most of them in or near the fast path's
// `-?digits[.digits]` form: the result and its bits must equal strtod's.
TEST(Strings, ParseDecimalMatchesStrtodOnGeneratedText) {
  Rng rng(20260522);
  const auto digits = [&](std::string& out, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      out += static_cast<char>('0' + rng.uniform_int(0, 9));
    }
  };
  static const char* const kOdd[] = {"e", "e-", "e+", "E", "x", " ", "+",
                                     "-", ".", "p", "f", "n", "i"};
  std::string text;
  for (int i = 0; i < 1000000; ++i) {
    text.clear();
    const std::int64_t form = rng.uniform_int(0, 9);
    if (rng.bernoulli(0.4)) text += '-';
    if (form <= 5) {
      // Around both limits: 13–17 significant digits, 19–24 fraction
      // digits, with runs of leading zeros.
      if (rng.bernoulli(0.2)) text.append(rng.uniform_int(1, 4), '0');
      const std::int64_t int_digits = rng.uniform_int(0, 17);
      digits(text, int_digits);
      if (int_digits == 0 || rng.bernoulli(0.8)) {
        text += '.';
        if (rng.bernoulli(0.3)) text.append(rng.uniform_int(1, 12), '0');
        digits(text, rng.uniform_int(0, 24 - (int_digits > 0 ? 0 : 2)));
      }
    } else if (form <= 7) {
      // The shape the service sees: a few integer and fraction digits.
      digits(text, rng.uniform_int(1, 6));
      text += '.';
      digits(text, rng.uniform_int(1, 6));
    } else {
      // Exponents, junk and signs anywhere.
      digits(text, rng.uniform_int(0, 20));
      text += kOdd[rng.uniform_int(0, std::size(kOdd) - 1)];
      digits(text, rng.uniform_int(0, 4));
      if (rng.bernoulli(0.3)) {
        text += kOdd[rng.uniform_int(0, std::size(kOdd) - 1)];
        digits(text, rng.uniform_int(0, 3));
      }
    }
    expect_parse_like_strtod(text);
    if (HasFatalFailure()) return;
  }
}

TEST(Table, RendersAlignedRows) {
  Table t({"method", "value"});
  t.add_row({"funnel", "1"});
  t.add_row({"cusum", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| method |"), std::string::npos);
  EXPECT_NE(s.find("| funnel |"), std::string::npos);
  EXPECT_NE(s.find("| cusum  |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
  EXPECT_THROW(Table(std::vector<std::string>{}), InvalidArgument);
}

TEST(MinuteTime, DayArithmetic) {
  EXPECT_EQ(minute_of_day(0), 0);
  EXPECT_EQ(minute_of_day(1439), 1439);
  EXPECT_EQ(minute_of_day(1440), 0);
  EXPECT_EQ(minute_of_day(1441), 1);
  EXPECT_EQ(day_of(0), 0);
  EXPECT_EQ(day_of(1439), 0);
  EXPECT_EQ(day_of(1440), 1);
  EXPECT_EQ(day_of_week(0), 0);
  EXPECT_EQ(day_of_week(7 * 1440), 0);
  EXPECT_EQ(day_of_week(8 * 1440 + 5), 1);
}

TEST(MinuteTime, NegativeTimes) {
  EXPECT_EQ(minute_of_day(-1), 1439);
  EXPECT_EQ(day_of(-1), -1);
  EXPECT_EQ(day_of_week(-1440), 6);
}

TEST(Error, RequireMacroThrowsWithContext) {
  try {
    FUNNEL_REQUIRE(1 == 2, "one is not two");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw NotFound("x"), Error);
  EXPECT_THROW(throw NumericalError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
}

}  // namespace
}  // namespace funnel
