#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace funnel {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(n - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

namespace {

// Median of `buf`, reordering it: nth_element on the middle, averaged with
// the largest of the lower part for even n.
double select_median(std::span<double> buf) {
  const std::size_t mid = buf.size() / 2;
  std::nth_element(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(mid), buf.end());
  double hi = buf[mid];
  if (buf.size() % 2 == 1) return hi;
  const double lo = *std::max_element(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace

double median(std::span<const double> xs) {
  std::vector<double> buf(xs.size());
  return median(xs, buf);
}

double median(std::span<const double> xs, std::span<double> scratch) {
  FUNNEL_REQUIRE(!xs.empty(), "median of empty range");
  FUNNEL_REQUIRE(scratch.size() >= xs.size(), "median scratch too small");
  const std::span<double> buf = scratch.first(xs.size());
  std::copy(xs.begin(), xs.end(), buf.begin());
  return select_median(buf);
}

double mad(std::span<const double> xs) {
  std::vector<double> buf(xs.size());
  return mad(xs, buf);
}

double mad(std::span<const double> xs, std::span<double> scratch) {
  const double med = median(xs, scratch);
  const std::span<double> dev = scratch.first(xs.size());
  std::transform(xs.begin(), xs.end(), dev.begin(),
                 [med](double x) { return std::abs(x - med); });
  return select_median(dev);
}

double mad_sigma(std::span<const double> xs) { return 1.4826 * mad(xs); }

double mad_sigma(std::span<const double> xs, std::span<double> scratch) {
  return 1.4826 * mad(xs, scratch);
}

double quantile(std::span<const double> xs, double q) {
  FUNNEL_REQUIRE(!xs.empty(), "quantile of empty range");
  FUNNEL_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level outside [0,1]");
  std::vector<double> buf(xs.begin(), xs.end());
  std::sort(buf.begin(), buf.end());
  if (buf.size() == 1) return buf.front();
  const double pos = q * static_cast<double>(buf.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, buf.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return buf[lo] * (1.0 - frac) + buf[hi] * frac;
}

double correlation(std::span<const double> xs, std::span<const double> ys) {
  FUNNEL_REQUIRE(xs.size() == ys.size(), "correlation requires equal lengths");
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double min_value(std::span<const double> xs) {
  FUNNEL_REQUIRE(!xs.empty(), "min of empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  FUNNEL_REQUIRE(!xs.empty(), "max of empty range");
  return *std::max_element(xs.begin(), xs.end());
}

std::vector<double> robust_standardize(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  if (out.empty()) return out;
  const double center = median(xs);
  double scale = mad_sigma(xs);
  if (scale <= 0.0) scale = stddev(xs);
  if (scale <= 0.0) scale = 1.0;
  for (double& x : out) x = (x - center) / scale;
  return out;
}

bool all_finite(std::span<const double> xs) {
  return std::all_of(xs.begin(), xs.end(),
                     [](double x) { return std::isfinite(x); });
}

std::vector<double> ccdf(std::span<const double> xs, std::span<const double> grid) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(grid.size());
  const double n = static_cast<double>(sorted.size());
  for (double g : grid) {
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), g);
    const auto greater = static_cast<double>(sorted.end() - it);
    out.push_back(n > 0 ? greater / n : 0.0);
  }
  return out;
}

}  // namespace funnel
