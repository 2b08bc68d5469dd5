#include "detect/sst_common.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/stats.h"

namespace funnel::detect {
namespace {

// The scale chain after the baseline MAD-sigma `scale`: the baseline
// stddev, then the whole window's MAD-sigma and stddev, then 1.
double fallback_scale(double scale, std::span<const double> window,
                      std::size_t baseline_len, std::span<double> scratch) {
  if (scale <= 0.0) scale = stddev(window.subspan(0, baseline_len));
  if (scale <= 0.0) scale = mad_sigma(window, scratch);
  if (scale <= 0.0) scale = stddev(window);
  if (scale <= 0.0) scale = 1.0;
  return scale;
}

bool is_negative_zero(double x) { return x == 0.0 && std::signbit(x); }

// mad() of an odd-length sorted run after mapping each sample through `g`
// (monotone non-decreasing), with m = g(middle sample) its median: the
// middle-ranked std::abs(g(x) - m). Walking outward from the middle, the
// deviations on either side are non-decreasing, so merging the two runs
// reaches the middle rank after half the samples.
template <typename Map>
double sorted_mad(std::span<const double> sorted, double m, Map g) {
  const auto n = static_cast<std::ptrdiff_t>(sorted.size());
  const std::ptrdiff_t mid = n / 2;
  const auto dev = [&](std::ptrdiff_t i) { return std::abs(g(sorted[i]) - m); };
  std::ptrdiff_t lo = mid - 1;
  std::ptrdiff_t hi = mid + 1;
  double dev_lo = lo >= 0 ? dev(lo) : 0.0;
  double dev_hi = hi < n ? dev(hi) : 0.0;
  double ranked = dev(mid);  // rank 0
  for (std::ptrdiff_t rank = 1; rank <= mid; ++rank) {
    if (hi >= n || (lo >= 0 && dev_lo <= dev_hi)) {
      ranked = dev_lo;
      if (--lo >= 0) dev_lo = dev(lo);
    } else {
      ranked = dev_hi;
      if (++hi < n) dev_hi = dev(hi);
    }
  }
  return ranked;
}

// Replace one sample equal to `out` in `sorted` with `in`, keeping it sorted.
void replace_sorted(std::vector<double>& sorted, double out, double in) {
  auto p = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), out) - sorted.begin());
  if (in > out) {
    for (; p + 1 < sorted.size() && sorted[p + 1] < in; ++p) {
      sorted[p] = sorted[p + 1];
    }
  } else {
    for (; p > 0 && sorted[p - 1] > in; --p) sorted[p] = sorted[p - 1];
  }
  sorted[p] = in;
}

}  // namespace

std::vector<double> standardize_window(std::span<const double> window,
                                       std::size_t baseline_len) {
  std::vector<double> out(window.size());
  std::vector<double> scratch(window.size());
  if (!standardize_window(window, baseline_len, out, scratch)) return {};
  return out;
}

bool standardize_window(std::span<const double> window,
                        std::size_t baseline_len, std::span<double> out,
                        std::span<double> scratch) {
  FUNNEL_REQUIRE(baseline_len >= 2 && baseline_len <= window.size(),
                 "baseline must be a non-trivial prefix of the window");
  FUNNEL_REQUIRE(out.size() == window.size() && scratch.size() >= window.size(),
                 "standardize_window storage must hold the window");
  if (!all_finite(window)) return false;
  const std::span<const double> baseline = window.subspan(0, baseline_len);
  const double center = median(baseline, scratch);
  const double scale = fallback_scale(mad_sigma(baseline, scratch), window,
                                      baseline_len, scratch);
  for (std::size_t i = 0; i < window.size(); ++i) {
    out[i] = (window[i] - center) / scale;
  }
  return true;
}

double robust_score_factor(std::span<const double> past,
                           std::span<const double> future, double slack) {
  std::vector<double> scratch(std::max(past.size(), future.size()));
  return robust_score_factor(
      HalfStats{median(past, scratch), mad(past, scratch),
                median(future, scratch), mad(future, scratch)},
      slack);
}

double robust_score_factor(const HalfStats& stats, double slack) {
  const double level =
      std::max(std::abs(stats.median_b - stats.median_a) - slack, 0.0);
  return level * std::sqrt(std::abs(stats.mad_b - stats.mad_a));
}

SortedHalves::SortedHalves(std::size_t half)
    : half_(half),
      prev_(2 * half),
      past_(half),
      future_(half),
      scratch_(2 * half) {
  FUNNEL_REQUIRE(half >= 3 && half % 2 == 1,
                 "SortedHalves needs an odd half length of at least 3");
}

std::optional<HalfStats> SortedHalves::standardize(
    std::span<const double> window, std::span<double> z) {
  const std::size_t h = half_;
  const std::size_t w = 2 * h;
  FUNNEL_REQUIRE(window.size() == w && z.size() == w,
                 "SortedHalves window size mismatch");
  const bool slid =
      sorted_ && std::memcmp(window.data(), prev_.data() + 1,
                             (w - 1) * sizeof(double)) == 0;
  if (slid) {
    // Only the last sample is new; the previous window was finite and held
    // no -0.0.
    const double entering = window[w - 1];
    if (!std::isfinite(entering)) {
      sorted_ = false;
      return std::nullopt;
    }
    if (is_negative_zero(entering)) {
      sorted_ = false;
      return selected_stats(window, z);
    }
    replace_sorted(past_, prev_[0], prev_[h]);
    replace_sorted(future_, prev_[h], entering);
  } else {
    sorted_ = false;
    if (!all_finite(window)) return std::nullopt;
    if (std::any_of(window.begin(), window.end(), is_negative_zero)) {
      return selected_stats(window, z);
    }
    std::copy(window.begin(), window.begin() + h, past_.begin());
    std::copy(window.begin() + h, window.end(), future_.begin());
    std::sort(past_.begin(), past_.end());
    std::sort(future_.begin(), future_.end());
  }
  std::copy(window.begin(), window.end(), prev_.begin());
  sorted_ = true;

  // standardize_window(): the baseline median and MAD-sigma from the
  // sorted past half, then the same fallback chain and expression.
  const std::size_t mid = h / 2;
  const double center = past_[mid];
  const double mad_sigma_past =
      1.4826 * sorted_mad(past_, center, [](double x) { return x; });
  const double scale = fallback_scale(mad_sigma_past, window, h, scratch_);
  for (std::size_t i = 0; i < w; ++i) z[i] = (window[i] - center) / scale;

  const auto standardized = [center, scale](double x) {
    return (x - center) / scale;
  };
  const bool finite =
      std::isfinite(standardized(past_.front())) &&
      std::isfinite(standardized(past_.back())) &&
      std::isfinite(standardized(future_.front())) &&
      std::isfinite(standardized(future_.back()));
  if (!finite) return selected_stats(window, z);

  HalfStats stats;
  stats.median_a = standardized(past_[mid]);
  stats.mad_a = sorted_mad(past_, stats.median_a, standardized);
  stats.median_b = standardized(future_[mid]);
  stats.mad_b = sorted_mad(future_, stats.median_b, standardized);
  return stats;
}

HalfStats SortedHalves::selected_stats(std::span<const double> window,
                                       std::span<double> z) {
  standardize_window(window, half_, z, scratch_);
  const std::span<const double> past = z.first(half_);
  const std::span<const double> future = z.subspan(half_);
  return HalfStats{median(past, scratch_), mad(past, scratch_),
                   median(future, scratch_), mad(future, scratch_)};
}

}  // namespace funnel::detect
