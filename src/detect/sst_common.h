// Shared pieces of the SST detector family.
//
// Geometry (§3.2.1 with the §3.2.2 parameter policy rho = 0, gamma = delta =
// omega): the window holds 2*omega-1 "past" samples followed by 2*omega-1
// "future" samples, W = 4*omega-2 — for omega = 9 this gives W = 34, the
// paper's W_FUNNEL. The candidate change point is the first future sample.
//
// All SST variants standardize the window robustly before embedding so that
// one threshold works across KPIs with arbitrary units: the center and scale
// come from the *past* half (median / MAD) — the pre-change baseline — so a
// post-change excursion is expressed in baseline-noise units instead of
// being compressed by its own magnitude. The improved variants additionally
// damp the raw score by the |Δmedian|·√|ΔMAD| factor of Eq. 11.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace funnel::detect {

/// Window layout shared by the SST variants.
struct SstGeometry {
  std::size_t omega = 9;  ///< lagged-window size ω (5 = fast, 15 = precise)
  std::size_t eta = 3;    ///< subspace dimension η (3-4 works for ω ~ 100)

  /// Floor on the subspace-discordance term x̂ of Eq. 9 in the improved
  /// variants. Mid-way through a ramp (or a few minutes after a shift) the
  /// change direction has already entered the *past* trajectory subspace,
  /// so x̂ collapses even though the level difference between the halves is
  /// blatant; the Eq. 11 level factor then gets a minimum weight instead of
  /// being annihilated. Windows with no level difference still score ~0
  /// because the Eq. 11 factor itself vanishes.
  double novelty_floor = 0.25;

  std::size_t half() const { return 2 * omega - 1; }
  std::size_t window() const { return 4 * omega - 2; }

  /// Krylov dimension k of Eq. 14.
  std::size_t krylov_k() const { return eta % 2 == 0 ? 2 * eta : 2 * eta - 1; }
};

/// Robustly standardized copy of a window: (x - center) / scale where center
/// is the median of the first `baseline_len` samples (the pre-change
/// baseline) and scale its MAD-sigma, falling back to the baseline stddev,
/// then to the whole-window MAD-sigma/stddev, then to 1 (constant windows
/// pass through centered). Returns empty when the window contains
/// non-finite samples.
std::vector<double> standardize_window(std::span<const double> window,
                                       std::size_t baseline_len);

/// The same standardization into caller-owned `out` (window.size()
/// doubles), selecting medians in `scratch` (as many) instead of fresh
/// copies: same bits, no allocation. False, with `out` untouched, when the
/// window contains non-finite samples.
bool standardize_window(std::span<const double> window,
                        std::size_t baseline_len, std::span<double> out,
                        std::span<double> scratch);

/// The statistics Eq. 11 compares: median and MAD of the standardized past
/// (`a`) and future (`b`) halves.
struct HalfStats {
  double median_a = 0.0;
  double mad_a = 0.0;
  double median_b = 0.0;
  double mad_b = 0.0;
};

/// Eq. 11's damping factor computed on the standardized window:
/// max(|median_b - median_a| - slack, 0) * sqrt(|MAD_b - MAD_a|) over the
/// past (`a`) and future (`b`) halves. Near zero when the local level and
/// spread are unchanged — exactly when raw SST scores are dominated by
/// noise. The slack (in robust-sigma units, the data is standardized)
/// suppresses sub-noise median wobble, including the small median drag a
/// one-off spike exerts — the persistence rule's first line of defence.
double robust_score_factor(std::span<const double> past,
                           std::span<const double> future,
                           double slack = 0.5);

/// The same factor from statistics already at hand.
double robust_score_factor(const HalfStats& stats, double slack = 0.5);

/// standardize_window() and the Eq. 11 statistics for the consecutive
/// windows of one stream, without allocation and without re-selecting the
/// medians from scratch on every window.
///
/// Each half's raw samples stay sorted across windows. When a window is the
/// previous one slid by a sample (its first W-1 samples equal the previous
/// window's last W-1, compared bytewise), the sample that left each half is
/// erased and the one that entered is inserted; any other window, the first
/// after construction or reset(), and the first after a non-finite window
/// sort afresh. The half length 2ω-1 is odd, so a median is the middle
/// sample. (x - c)/s with s > 0 is monotone under round-to-nearest, so each
/// standardized median is the middle raw sample mapped through that same
/// expression, and each MAD — the middle-ranked |x - m| — is found by
/// walking outward from the middle over the two monotone deviation runs.
/// Every value is therefore the one standardize_window() and
/// robust_score_factor() select, and the factor is bit-identical.
///
/// Two kinds of window take those functions' copy-and-select statistics
/// (on the instance's scratch) instead: one holding a -0.0, where the
/// selection's choice between -0.0 and +0.0 as the center sets the sign of
/// standardized zeros, and one whose standardized samples overflow, where
/// deviations can be NaN and the walk's monotonicity fails.
class SortedHalves {
 public:
  /// `half` is the length of each half (2ω-1, odd).
  explicit SortedHalves(std::size_t half);

  /// Standardize `window` (2·half samples) into `z` exactly as
  /// standardize_window(window, half) does and return the statistics
  /// robust_score_factor() takes from z's halves; nullopt, with `z`
  /// untouched, when the window holds non-finite samples.
  std::optional<HalfStats> standardize(std::span<const double> window,
                                       std::span<double> z);

  /// Forget the previous window: the next one sorts afresh.
  void reset() { sorted_ = false; }

 private:
  /// The copy-and-select path: standardize_window() into `z`, then the
  /// selections robust_score_factor() makes.
  HalfStats selected_stats(std::span<const double> window,
                           std::span<double> z);

  std::size_t half_;
  std::vector<double> prev_;    ///< the last window sorted
  std::vector<double> past_;    ///< its past half, sorted
  std::vector<double> future_;  ///< its future half, sorted
  std::vector<double> scratch_;
  bool sorted_ = false;
};

}  // namespace funnel::detect
